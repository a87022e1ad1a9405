import itertools
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchconn.exactalg import CapacityError, PrimeField, ValidationError, nullity_shift, rank
from matchconn.hcount import count_hc_bruteforce
from matchconn.matchings import (
    Fingerprint,
    GraphConstructionError,
    Matching,
    boundaried_graph_for_fingerprint,
    build_H,
    build_M,
    enumerate_fingerprints,
    enumerate_matchings,
    glue_boundaried,
    is_single_cycle,
    matching_count,
    union_cycle_type,
    union_table,
)


def fingerprint_count(k):
    """Closed-form count: sum over even i of C(k,i) * (i-1)!! * 2^(k-i)."""
    return sum(comb(k, i) * matching_count(i) * 2 ** (k - i) for i in range(0, k + 1, 2))


def fingerprints_combine(a, b):
    """True iff two partial solutions with these fingerprints glue to one cycle.

    Degrees must sum to 2 at every boundary vertex; the matchings must then
    union to a single cycle, or both be empty.
    """
    if a.boundary != b.boundary:
        raise ValidationError("combining fingerprints on different boundaries")
    if any(da + db != 2 for da, db in zip(a.degrees, b.degrees)):
        return False
    if not a.matching.pairs and not b.matching.pairs:
        return True
    return is_single_cycle(a.matching, b.matching)


def double_fact(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@pytest.mark.parametrize("k", [0, 2, 4, 6, 8, 10])
def test_matching_enumeration_count_and_canonical_form(k):
    ms = enumerate_matchings(k)
    assert len(ms) == matching_count(k) == double_fact(k - 1)
    seen = set()
    for m in ms:
        assert m not in seen
        seen.add(m)
        covered = [v for pair in m.pairs for v in pair]
        assert sorted(covered) == list(range(1, k + 1))
        assert all(a < b for a, b in m.pairs)
        assert list(m.pairs) == sorted(m.pairs)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_union_cycle_type_is_even_partition(half, data):
    k = 2 * half
    ms = enumerate_matchings(k)
    a = data.draw(st.sampled_from(ms))
    b = data.draw(st.sampled_from(ms))
    ct = union_cycle_type(a, b)
    # type 2*lambda: the doubled parts are the actual cycle lengths
    assert sum(ct.parts) == half
    assert all(p >= 1 for p in ct.parts)
    assert is_single_cycle(a, b) == (ct.parts == (half,))


def test_doubled_edge_is_a_two_cycle():
    m = Matching(((1, 2),))
    assert is_single_cycle(m, m)
    M2 = build_M(2)
    assert M2.shape == (1, 1) and M2[0, 0] == 1


# -- union tables against the pairwise predicates ------------------------------


def vertex_sets(min_size=0):
    """Even vertex sets that need not start at 1 or be contiguous."""
    return st.integers(min_value=min_size, max_value=5).flatmap(
        lambda h: st.lists(
            st.integers(min_value=-20, max_value=40),
            min_size=2 * h,
            max_size=2 * h,
            unique=True,
        )
    )


def matchings_of(verts):
    return st.permutations(verts).map(lambda p: Matching.from_pairs(zip(p[::2], p[1::2])))


def families(verts):
    return st.lists(matchings_of(verts), max_size=6)


def type_code(ct, half):
    # the code union_table documents: one base-(half + 1) digit per length
    return sum((half + 1) ** (p - 1) for p in ct.parts)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_union_table_matches_the_pairwise_predicates(data):
    verts = data.draw(vertex_sets())
    rows, cols = data.draw(families(verts)), data.draw(families(verts))
    single = union_table(rows, cols)
    codes = union_table(rows, cols, cycle_types=True)
    assert single.dtype == np.int8
    assert single.shape == codes.shape == (len(rows), len(cols))
    half = len(verts) // 2
    types = {}
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            assert single[i, j] == is_single_cycle(a, b)
            ct = union_cycle_type(a, b)
            assert codes[i, j] == type_code(ct, half)
            # equal codes exactly for equal cycle types
            assert types.setdefault(int(codes[i, j]), ct) == ct


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_union_table_refuses_mixed_vertex_sets(data):
    verts = data.draw(vertex_sets(min_size=1))
    other = data.draw(vertex_sets().filter(lambda o: sorted(o) != sorted(verts)))
    rows = data.draw(st.lists(matchings_of(verts), min_size=1, max_size=6))
    cols = data.draw(families(verts))
    stray = data.draw(matchings_of(other))
    side = data.draw(st.sampled_from([rows, cols]))
    side.insert(data.draw(st.integers(min_value=0, max_value=len(side))), stray)
    for cycle_types in (False, True):
        with pytest.raises(ValidationError, match="different vertex sets"):
            union_table(rows, cols, cycle_types=cycle_types)


def test_union_table_cycle_codes_stop_where_int64_would_overflow():
    m30 = Matching.from_pairs((v, v + 1) for v in range(1, 31, 2))
    m32 = Matching.from_pairs((v, v + 1) for v in range(1, 33, 2))
    assert union_table([m30], [m30], cycle_types=True)[0, 0] == 15
    assert union_table([m32], [m32]).tolist() == [[0]]
    with pytest.raises(CapacityError):
        union_table([m32], [m32], cycle_types=True)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_connectivity_matrix_is_the_pairwise_predicate(k):
    M = build_M(k).numpy()
    ms = enumerate_matchings(k)
    assert M.tolist() == [[int(is_single_cycle(a, b)) for b in ms] for a in ms]


@pytest.mark.parametrize("k", [4, 6, 8])
def test_connectivity_matrix_symmetry_and_row_sums(k):
    M = build_M(k)
    n = M.nrows
    want_row_sum = 2 ** (k // 2 - 1) * factorial(k // 2 - 1)
    for i in range(n):
        assert M[i, i] == 0
        assert sum(M[i, j] for j in range(n)) == want_row_sum
    for i in range(n):
        for j in range(i):
            assert M[i, j] == M[j, i]


@pytest.mark.parametrize("k", [0, 6])
def test_cached_connectivity_array_is_read_only_and_unshared(k):
    first = build_M(k)
    before = first.numpy()
    with pytest.raises(ValueError):
        first._arr[0, 0] = 7
    mod3 = first.with_field(PrimeField(3))
    nullity_shift(mod3, 2)
    nullity_shift(first, 1)
    first.numpy()[:] = 5
    mod3.numpy()[:] = 5
    first.row_labels.append("extra")
    first.col_labels.clear()
    again = build_M(k)
    assert again is not first and again._arr is first._arr
    assert np.array_equal(again.numpy(), before)
    assert again.row_labels == again.col_labels == enumerate_matchings(k)
    assert again.row_labels is not first.row_labels


@pytest.mark.parametrize("k,count", [(0, 1), (2, 5), (4, 43), (6, 499)])
def test_fingerprint_enumeration_count(k, count):
    fps = enumerate_fingerprints(range(1, k + 1))
    assert len(fps) == len(set(fps)) == count == fingerprint_count(k)
    formula = sum(
        comb(k, i) * double_fact(i - 1) * 2 ** (k - i) for i in range(0, k + 1, 2)
    )
    assert count == formula
    for f in fps:
        ones = f.degree_set(1)
        assert len(ones) % 2 == 0
        covered = sorted(v for pair in f.matching.pairs for v in pair)
        assert covered == sorted(ones)


def test_combine_requires_complementary_degrees():
    fps = enumerate_fingerprints(range(1, 5))
    for f, g in itertools.product(fps, repeat=2):
        c = fingerprints_combine(f, g)
        assert c == fingerprints_combine(g, f)
        if c:
            assert all(df + dg == 2 for df, dg in zip(f.degrees, g.degrees))


def test_combine_rejects_mismatched_boundaries():
    f = enumerate_fingerprints(range(1, 3))[0]
    g = enumerate_fingerprints(range(2, 4))[0]
    with pytest.raises(ValidationError):
        fingerprints_combine(f, g)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_fingerprint_matrix_block_structure(k):
    H = build_H(k)
    fps = H.row_labels
    assert H.shape == (len(fps), len(fps))
    for i, f in enumerate(fps):
        for j, g in enumerate(fps):
            assert H[i, j] == H[j, i]
            if any(df + dg != 2 for df, dg in zip(f.degrees, g.degrees)):
                assert H[i, j] == 0


def reference_build_H(k):
    """build_H as a pair loop over each pair of complementary degree blocks,
    the way it was computed before the blocks were copied from M."""
    fps = enumerate_fingerprints(range(1, k + 1))
    index = {f: i for i, f in enumerate(fps)}
    by_deg = {}
    for f in fps:
        by_deg.setdefault(f.degrees, []).append(f)
    out = np.zeros((len(fps), len(fps)), dtype=np.int8)
    for degs, rows in by_deg.items():
        cols = by_deg.get(tuple(2 - d for d in degs), [])
        for fr in rows:
            for fc in cols:
                if not fr.matching.pairs and not fc.matching.pairs:
                    out[index[fr], index[fc]] = 1
                elif fr.matching.pairs and fc.matching.pairs:
                    if is_single_cycle(fr.matching, fc.matching):
                        out[index[fr], index[fc]] = 1
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
def test_fingerprint_matrix_matches_the_pair_loop(k):
    H = build_H(k)
    assert H.row_labels == H.col_labels == enumerate_fingerprints(range(1, k + 1))
    assert np.array_equal(H.numpy(), reference_build_H(k))


def test_fingerprint_matrix_order_zero():
    H = build_H(0)
    assert H.shape == (1, 1) and H[0, 0] == 1


@pytest.mark.parametrize(
    "k,want",
    [(1, 2), (2, 5), (3, 14), (4, 43)],
)
def test_fingerprint_matrix_rank_block_sum(k, want):
    # block sum with the order-0 rank taken as 1
    ranks = {0: 1, 2: 1, 4: 3}
    formula = sum(
        comb(k, i) * 2 ** (k - i) * ranks[i] for i in range(0, k + 1, 2)
    )
    assert formula == want
    assert rank(build_H(k)) == want


def test_boundaried_realization_degrees():
    fps = enumerate_fingerprints(range(1, 5))
    for f in fps:
        try:
            g = boundaried_graph_for_fingerprint(f)
        except GraphConstructionError:
            # only the empty-matching shapes needing a 1- or 2-vertex cycle
            assert not f.matching.pairs
            assert 1 <= len(f.degree_set(2)) <= 2
            continue
        for v, d in zip(f.boundary, f.degrees):
            assert g.degree(v) == d


def test_unconstructible_fingerprint_raises():
    f = Fingerprint((1, 2), (0, 2), Matching(()))
    with pytest.raises(GraphConstructionError):
        boundaried_graph_for_fingerprint(f)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_glued_realizations_sample_the_fingerprint_matrix(data):
    k = data.draw(st.sampled_from([2, 4]))
    H = build_H(k)
    fps = H.row_labels
    constructible = []
    for f in fps:
        try:
            boundaried_graph_for_fingerprint(f)
            constructible.append(f)
        except GraphConstructionError:
            pass
    f = data.draw(st.sampled_from(constructible))
    g = data.draw(st.sampled_from(constructible))
    glued = glue_boundaried(
        boundaried_graph_for_fingerprint(f),
        boundaried_graph_for_fingerprint(g),
        f.boundary,
    )
    got = count_hc_bruteforce(glued).value
    assert got == H[fps.index(f), fps.index(g)]


def test_fingerprint_text_is_stable():
    f = Fingerprint((1, 2, 3, 4), (1, 1, 2, 0), Matching(((1, 2),)))
    assert f.text() == "d=1120;M=1-2"
