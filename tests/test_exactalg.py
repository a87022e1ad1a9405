"""Exact linear algebra against independent fraction-arithmetic oracles,
and the one-kernel-per-field eliminations against the separate loops they
replaced, which stay here as references."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchconn import exactalg, hcount
from matchconn.checks import CNF_CORPUS
from matchconn.exactalg import (
    RATIONALS,
    CapacityError,
    ExactMatrix,
    PrimeField,
    ValidationError,
    det,
    full_rank_submatrix,
    identity,
    inverse,
    kronecker,
    nullity_shift,
    rank,
)
from matchconn.cli import main
from matchconn.graphs import write_hcgraph
from matchconn.hcount import count_hc_pathdp
from matchconn.matchings import build_M
from matchconn.reduction import assemble
from test_hcount import ref_fingerprint_table

small_entries = st.integers(min_value=-6, max_value=6)


def square(rows, field=RATIONALS):
    return ExactMatrix(field, rows)


def oracle_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction, written independently."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return r


def oracle_det(rows) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * out


@given(st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=1, max_size=5))
@settings(max_examples=120, deadline=None)
def test_rank_matches_fraction_elimination(rows):
    assert rank(square(rows)) == oracle_rank(rows)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
@settings(max_examples=120, deadline=None)
def test_det_matches_fraction_elimination(rows):
    got = det(square(rows))
    assert Fraction(got) == oracle_det(rows)


@given(st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_rank_mod_p_never_exceeds_rational_rank(rows):
    rq = rank(square(rows))
    for p in (2, 3, 5):
        rp = rank(square(rows).with_field(PrimeField(p)))
        assert rp <= rq


def test_identity_and_inverse_round_trip():
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 1]]
    for field in (RATIONALS, PrimeField(7)):
        m = square(rows, field)
        inv = inverse(m)
        prod_rows = [
            [
                sum(m[i, k] * inv[k, j] for k in range(3)) % (7 if field is not RATIONALS else 10**9)
                for j in range(3)
            ]
            for i in range(3)
        ]
        expect = identity(3, field)
        assert [[expect[i, j] for j in range(3)] for i in range(3)] == prod_rows


def test_inverse_swaps_labels():
    m = ExactMatrix(PrimeField(5), [[0, 1], [1, 0]], ["r0", "r1"], ["c0", "c1"])
    inv = inverse(m)
    assert inv.row_labels == ["c0", "c1"]
    assert inv.col_labels == ["r0", "r1"]


def test_singular_inverse_rejected():
    with pytest.raises(ValidationError):
        inverse(square([[1, 2], [2, 4]]))


def test_kronecker_shape_and_entries():
    a = square([[1, 2], [3, 4]])
    b = square([[0, 1], [1, 0]])
    k = kronecker(a, b)
    assert k.shape == (4, 4)
    # top-left 2x2 block is a[0,0] * b
    assert [k[0, 0], k[0, 1], k[1, 0], k[1, 1]] == [0, 1, 1, 0]
    assert [k[2, 2], k[2, 3], k[3, 2], k[3, 3]] == [0, 4, 4, 0]


@given(
    st.lists(st.lists(small_entries, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(small_entries, min_size=2, max_size=2), min_size=2, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_kronecker_rank_multiplicative_over_prime_field(ra, rb):
    p = PrimeField(11)
    a = square(ra, p)
    b = square(rb, p)
    assert rank(kronecker(a, b)) == rank(a) * rank(b)


def test_nullity_shift_counts_eigenspace():
    # [[2,0],[0,3]] loses rank 1 exactly at shifts 2 and 3
    m = square([[2, 0], [0, 3]])
    assert nullity_shift(m, 2) == 1
    assert nullity_shift(m, 3) == 1
    assert nullity_shift(m, 5) == 0


def test_full_rank_submatrix_extracts_invertible_block():
    rows = [[1, 1, 0], [2, 2, 0], [0, 1, 1]]
    m = square(rows, PrimeField(5))
    ridx, cidx = full_rank_submatrix(m)
    assert len(ridx) == len(cidx) == rank(m) == 2
    block = m.submatrix(ridx, cidx)
    assert rank(block) == 2


def test_full_rank_submatrix_respects_filters():
    m = ExactMatrix(
        PrimeField(3),
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
        ["a", "b", "c"],
        ["x", "y", "z"],
    )
    ridx, cidx = full_rank_submatrix(
        m, row_filter=lambda lab: lab != "a", col_filter=lambda lab: lab != "z"
    )
    assert all(m.row_labels[i] != "a" for i in ridx)
    assert all(m.col_labels[j] != "z" for j in cidx)
    assert rank(m.submatrix(ridx, cidx)) == len(ridx)


def test_prime_field_rejects_composites():
    with pytest.raises(ValidationError):
        PrimeField(6)


def test_ragged_rows_rejected():
    with pytest.raises(ValidationError):
        square([[1, 2], [3]])


def test_det_mod_p_counts_row_swaps():
    assert det(square([[0, 1], [1, 0]], PrimeField(5))) == 4


def test_prime_field_constructor_reduces_fractions_like_with_field():
    rows = [[Fraction(1, 2), 1], [1, 1]]
    direct = ExactMatrix(PrimeField(5), rows)
    assert direct[0, 0] == 3
    assert direct == square(rows).with_field(PrimeField(5))
    assert det(direct) == 2
    with pytest.raises(ValidationError):
        ExactMatrix(PrimeField(2), rows)


def test_numpy_backed_prime_matrix_holds_residues():
    rows = [[7, -3, 0], [12, 4, -10]]
    from_array = ExactMatrix(PrimeField(5), np.array(rows, dtype=np.int64))
    from_lists = ExactMatrix(PrimeField(5), rows)
    assert from_array.is_numpy() and not from_lists.is_numpy()
    assert from_array[0, 0] == 2 and from_array[0, 1] == 2
    assert from_array == from_lists
    assert from_array.rows() == from_lists.rows() == [[2, 2, 0], [2, 4, 0]]
    assert square(rows).with_field(PrimeField(5)) == from_lists


def test_reduced_numpy_data_is_shared_not_copied():
    data = np.array([[0, 1], [1, 0]], dtype=np.int8)
    assert ExactMatrix(PrimeField(2), data)._arr is data
    assert ExactMatrix(RATIONALS, data).with_field(PrimeField(3))._arr is data


@pytest.mark.parametrize("as_numpy", [True, False])
def test_submatrix_with_no_rows_keeps_its_columns(as_numpy):
    rows = [[1, 2, 3], [4, 5, 6]]
    data = np.array(rows, dtype=np.int64) if as_numpy else rows
    m = ExactMatrix(PrimeField(7), data, col_labels=["a", "b", "c"])
    sub = m.submatrix([], [0, 2])
    assert sub.shape == (0, 2)
    assert sub.col_labels == ["a", "c"] and sub.row_labels == []
    assert sub.transpose().shape == (2, 0)
    assert sub.numpy().shape == (0, 2)
    assert m.submatrix([1], []).shape == (1, 0)


@pytest.mark.parametrize("field", [PrimeField(7), RATIONALS])
def test_memory_ceiling_covers_every_elimination(monkeypatch, field):
    m = square([[2, 1], [1, 3]], field)
    monkeypatch.setenv("MATCHCONN_MEMORY_MB", "0")
    with pytest.raises(CapacityError):
        rank(m)


# ---------------------------------------------------------------------------
# references: the separate GF(p) eliminations used before the single kernel


def ref_rank_mod(a: np.ndarray, p: int, big: bool = False, chunk: int = 2048) -> int:
    """Column-at-a-time row elimination; `big` takes the chunked int32 branch."""
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    work = np.ascontiguousarray(a.astype(np.int32 if big else np.int64) % p)
    r = 0
    for c in range(n):
        nz = np.nonzero(work[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            tmp = work[r].copy()
            work[r] = work[i]
            work[i] = tmp
        inv = pow(int(work[r, c]), -1, p)
        row = (work[r, c:].astype(np.int64) * inv) % p
        work[r, c:] = row
        if big:
            for lo in range(r + 1, m, chunk):
                hi = min(lo + chunk, m)
                f = work[lo:hi, c]
                mask = f != 0
                if not mask.any():
                    continue
                blk = work[lo:hi, c:]
                upd = blk[mask].astype(np.int64)
                upd -= np.multiply.outer(f[mask].astype(np.int64), row)
                upd %= p
                blk[mask] = upd.astype(np.int32)
        else:
            f = work[r + 1 :, c]
            mask = f != 0
            if mask.any():
                blk = work[r + 1 :, c:]
                sel = blk[mask]
                sel -= np.multiply.outer(f[mask], row)
                sel %= p
                blk[mask] = sel
        r += 1
        if r == m:
            break
    return r


def ref_eliminate_mod(a: np.ndarray, p: int, jordan: bool = False, int32: bool = False):
    """The column-at-a-time kernel the blocked one replaced: one int64 outer
    product update per pivot column. Returns (work, pivots, det factor)."""
    m, n = a.shape
    work = (a % p).astype(np.int32 if int32 else np.int64)
    pivots: list[int] = []
    d = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.flatnonzero(work[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            work[[r, i]] = work[[i, r]]
            d = -d
        piv = int(work[r, c])
        d = d * piv % p
        row = work[r, c:].astype(np.int64) * pow(piv, -1, p) % p
        work[r, c:] = row
        f = work[:, c].astype(np.int64)
        f[r] = 0
        if not jordan:
            f[:r] = 0
        upd = work[:, c:].astype(np.int64) - np.multiply.outer(f, row)
        work[:, c:] = upd % p
        pivots.append(c)
    return work, pivots, d % p


def ref_det_mod(rows, p: int) -> int:
    n = len(rows)
    a = [[x % p for x in r] for r in rows]
    d = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = (p - d) % p
        d = d * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return d % p


def ref_inverse_mod(rows, p: int):
    """Gauss-Jordan on [A | I] as row lists; None when singular."""
    n = len(rows)
    aug = [[x % p for x in r] + [int(j == i) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def ref_inverse_q(rows):
    """Fraction Gauss-Jordan; None when singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(int(j == i)) for j in range(n)]
           for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


class RefIncrementalBasis:
    """Row space basis kept in reduced form, grown one candidate at a time."""

    def __init__(self, p: int | None) -> None:
        self.p = p
        self.pivots: dict[int, list] = {}

    def try_add(self, row) -> bool:
        p = self.p
        v = [x % p for x in row] if p else [Fraction(x) for x in row]
        for c, basis_row in self.pivots.items():
            f = v[c]
            if f:
                v = [x - f * y for x, y in zip(v, basis_row)]
                if p:
                    v = [x % p for x in v]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = pow(v[lead], -1, p) if p else 1 / v[lead]
        self.pivots[lead] = [x * inv % p for x in v] if p else [x * inv for x in v]
        return True


def ref_full_rank_submatrix(rows, p, rows_ok, cols_ok):
    basis = RefIncrementalBasis(p)
    kept_rows = [i for i in rows_ok if basis.try_add([rows[i][j] for j in cols_ok])]
    basis_c = RefIncrementalBasis(p)
    kept_cols = [j for j in cols_ok if basis_c.try_add([rows[i][j] for i in kept_rows])]
    return kept_rows, kept_cols


# ---------------------------------------------------------------------------
# differential tests: one kernel per field against the references

PRIMES = (2, 3, 65521)
CERT_PRIME = 1_000_003
entries = st.one_of(small_entries, st.integers(min_value=-(10**6), max_value=10**6))


@st.composite
def low_rank_arrays(draw, max_dim=7):
    """B @ C with an inner dimension k <= min(m, n), half the time plus a
    small perturbation: rank-deficient, non-square and empty shapes."""

    def array(rows, cols, elements):
        data = draw(st.lists(st.lists(elements, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return np.array(data, dtype=np.int64).reshape(rows, cols)

    m = draw(st.integers(min_value=0, max_value=max_dim))
    n = draw(st.integers(min_value=0, max_value=max_dim))
    k = draw(st.integers(min_value=0, max_value=min(m, n)))
    a = array(m, k, entries) @ array(k, n, entries)
    if draw(st.booleans()):
        a += array(m, n, small_entries)
    return a


def check_against_references(a: np.ndarray) -> None:
    m, n = a.shape
    for p in PRIMES + (CERT_PRIME,):
        pivots = exactalg._eliminate_mod(a, p)[1]
        assert len(pivots) == ref_rank_mod(a % p, p) == ref_rank_mod(a % p, p, big=True, chunk=3)
    for p in PRIMES:
        mat = ExactMatrix(PrimeField(p), a)
        rows = (a % p).tolist()
        assert rank(mat) == ref_rank_mod(a % p, p)
        assert full_rank_submatrix(mat) == ref_full_rank_submatrix(
            rows, p, range(m), range(n)
        )
        if m == n:
            assert det(mat) == ref_det_mod(rows, p)
            want = ref_inverse_mod(rows, p)
            if want is None:
                with pytest.raises(ValidationError):
                    inverse(mat)
            else:
                assert inverse(mat).rows() == want


EMPTY = [np.zeros(shape, dtype=np.int64) for shape in ((0, 0), (0, 3), (3, 0))]


@given(low_rank_arrays())
@example(EMPTY[0])
@example(EMPTY[1])
@example(EMPTY[2])
@settings(max_examples=150, deadline=None)
def test_mod_p_kernel_matches_references(a):
    check_against_references(a)


@given(low_rank_arrays())
@example(np.array([[CERT_PRIME, 0], [0, 1]]))
@example(np.array([[1000, 999], [2000, 1998]]))
@settings(max_examples=150, deadline=None)
def test_rational_rank_of_rank_deficient_arrays(a):
    # the kernel certificate, or Bareiss where it fails, must equal Fraction
    # elimination
    assert rank(ExactMatrix(RATIONALS, a)) == oracle_rank(a.tolist())


def bareiss_calls(monkeypatch) -> list:
    calls = []
    real = exactalg._bareiss

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(exactalg, "_bareiss", spy)
    return calls


def test_kernel_certificate_replaces_bareiss_on_eigenspaces(monkeypatch):
    # the order-8 eigenspaces over Q (multiplicities 1, 20, 14, 56, 14)
    calls = bareiss_calls(monkeypatch)
    m8 = build_M(8)
    got = [nullity_shift(m8, eta) for eta in (48, -8, -2, 4, -6)]
    assert got == [1, 20, 14, 56, 14]
    assert calls == []


@pytest.mark.parametrize("rows,want", [
    # rank 1 mod the certification prime, 2 over Q: the kernel vector
    # (1, 0) read off mod p must fail the exact check
    ([[CERT_PRIME, 0], [0, 1]], 2),
    # kernel (-999/1000, 1): no fraction with parts below sqrt(p/2)
    ([[1000, 999], [2000, 1998]], 1),
])
def test_kernel_certificate_falls_back_to_bareiss(monkeypatch, rows, want):
    calls = bareiss_calls(monkeypatch)
    assert rank(ExactMatrix(RATIONALS, np.array(rows))) == want
    assert len(calls) == 1


def test_integer_shift_of_numpy_matrix_near_int64_limit():
    # shifted by -2^62 the corner would wrap to -2^63 in int64 and make the
    # determinant 2^64 look like 0, so the row-list path must run
    a = np.array([[2**62, -(2**31)], [2**32, 1 - 2**62]])
    assert nullity_shift(ExactMatrix(RATIONALS, a), -(2**62)) == 0
    assert nullity_shift(ExactMatrix(RATIONALS, a), -(2**62) + 1) == 0
    a = np.array([[2**62, 0], [0, 1]])
    assert nullity_shift(ExactMatrix(RATIONALS, a), 2**62) == 1
    assert nullity_shift(ExactMatrix(RATIONALS, a), Fraction(1, 2)) == 0


@given(low_rank_arrays(max_dim=9), st.sampled_from([16_000_000, 0]))
@settings(max_examples=60, deadline=None)
def test_mod_p_kernel_multi_chunk_paths(a, int32_entries):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_CHUNK_ROWS", 3)
        mp.setattr(exactalg, "_INT32_ENTRIES", int32_entries)
        check_against_references(a)


# floor(x * (1/p)) lands one low on some multiples of p: 65521 at +p, 211 at
# -3p (a trailing update that cancels to 0); 2, 3 and 1,000,003 never do
FLOOR_MISSES = ((65521, 65521.0), (211, -633.0))


@pytest.mark.parametrize("p,x", FLOOR_MISSES)
def test_floor_multiply_reduction_fixes_a_missed_quotient(p, x):
    assert np.floor(x * (1.0 / p)) == x // p - 1
    got = exactalg._reduce_mod(np.array([x, x + 1, x - 1, 0.0, p - 1.0]), p)
    assert got.tolist() == [0, 1, p - 1, 0, p - 1]


def check_blocked_kernel(a: np.ndarray, primes=PRIMES + (211, CERT_PRIME)) -> None:
    """The blocked kernel equals the column-at-a-time one entry for entry:
    work array (echelon and Jordan), pivot list, determinant factor, dtype;
    and the inverse equals Gauss-Jordan on row lists."""
    int32 = a.size > exactalg._INT32_ENTRIES
    for p in primes:
        for jordan in (False, True):
            work, pivots, d = exactalg._eliminate_mod(a, p, jordan=jordan)
            want_work, want_pivots, want_d = ref_eliminate_mod(a, p, jordan, int32)
            assert work.dtype == want_work.dtype
            assert np.array_equal(work, want_work)
            assert pivots == want_pivots and d == want_d
        m, n = a.shape
        if m == n and p in PRIMES:
            want = ref_inverse_mod((a % p).tolist(), p)
            if want is None:
                with pytest.raises(ValidationError):
                    inverse(ExactMatrix(PrimeField(p), a))
            else:
                assert inverse(ExactMatrix(PrimeField(p), a)).rows() == want


@given(
    low_rank_arrays(max_dim=9),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([16_000_000, 0]),
)
@example(np.array([[0, 1, 1], [1, 1, 0], [1, 0, 1]]), 2, 0)
@example(np.array([[2, 0, 1, 1], [0, 0, 1, 0], [4, 0, 2, 3]]), 3, 16_000_000)
@settings(max_examples=120, deadline=None)
def test_blocked_kernel_across_panel_and_chunk_boundaries(a, panel, int32_entries):
    # pivot-free columns, row swaps and rank deficiency fall on both sides of
    # every panel edge and every 3-row chunk edge
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_PANEL", panel)
        mp.setattr(exactalg, "_CHUNK_ROWS", 3)
        mp.setattr(exactalg, "_INT32_ENTRIES", int32_entries)
        check_blocked_kernel(a)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_blocked_kernel_with_full_panels(seed):
    # default panel width: shapes spanning two or three 64-column panels,
    # rank deficient, with zero columns and rows in random places
    rng = np.random.default_rng(seed)
    m, n = (int(x) for x in rng.integers(60, 150, size=2))
    k = int(rng.integers(1, min(m, n) + 1))
    a = rng.integers(-3, 4, size=(m, k)) @ rng.integers(-3, 4, size=(k, n))
    a[:, rng.random(n) < 0.1] = 0
    a[rng.random(m) < 0.1] = 0
    check_blocked_kernel(a, primes=(3, 211, 65521, CERT_PRIME))


def test_float64_panel_update_is_exact_up_to_the_largest_modulus():
    # every trailing-update sum is an integer below 2^53, so float64 holds it
    p = exactalg._CERT_PRIME
    assert exactalg._PANEL * (p - 1) ** 2 + p < 2**53
    a = np.array([[p - 1, p - 2], [1, p - 1]], dtype=np.int64)
    assert exactalg._eliminate_mod(a, p)[1] == [0, 1]
    with pytest.raises(CapacityError, match="float64 elimination ceiling"):
        exactalg._eliminate_mod(a, 1_000_033)


@given(low_rank_arrays(), st.data())
@settings(max_examples=100, deadline=None)
def test_full_rank_submatrix_filters_match_reference(a, data):
    m, n = a.shape
    keep_r = data.draw(st.sets(st.integers(min_value=0, max_value=max(m - 1, 0))))
    keep_c = data.draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0))))
    rows_ok = [i for i in range(m) if i in keep_r]
    cols_ok = [j for j in range(n) if j in keep_c]
    for p in (3, 65521, None):
        field = PrimeField(p) if p else RATIONALS
        mat = ExactMatrix(field, a)
        rows = (a % p).tolist() if p else a.tolist()
        got = full_rank_submatrix(mat, lambda i: i in keep_r, lambda j: j in keep_c)
        assert got == ref_full_rank_submatrix(rows, p, rows_ok, cols_ok)


fractions = st.builds(Fraction, small_entries, st.integers(min_value=1, max_value=4))


@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(small_entries, fractions), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
))
@example([[1, Fraction(1, 2)], [1, 1]])
@settings(max_examples=150, deadline=None)
def test_rational_gauss_jordan_matches_fraction_reference(rows):
    m = square(rows) if rows else ExactMatrix(RATIONALS, np.zeros((0, 0), dtype=np.int64))
    assert Fraction(det(m)) == oracle_det(rows)
    want = ref_inverse_q(rows)
    if want is None:
        with pytest.raises(ValidationError):
            inverse(m)
    else:
        got = inverse(m).rows()
        assert got == want
        assert all(type(x) is int for r in got for x in r if x.denominator == 1)


@given(low_rank_arrays())
@example(EMPTY[1])
@example(EMPTY[2])
@settings(max_examples=80, deadline=None)
def test_rational_rank_of_low_rank_shapes(a):
    assert rank(ExactMatrix(RATIONALS, a)) == oracle_rank(a.tolist())


# write_hcgraph output measured before the single kernel: select_basis must
# keep choosing the same interface basis, so the compiled graphs stay equal.
GOLDEN_HCGRAPH_SHA256 = {
    (4, 5): "906a6ac9afef3fa3b2d8b7d0501a499d3801f88c922e6d544a22859c486bbea9",
    (3, 3): "b05ca8d199c0ea9fbf9e9f78b4f308415390e53df333ff36e20f166ecd0b04d9",
}


@pytest.mark.parametrize("corpus_index,p", sorted(GOLDEN_HCGRAPH_SHA256))
def test_compiled_graph_bytes_unchanged(tmp_path, corpus_index, p):
    result = assemble(CNF_CORPUS[corpus_index][1], p)
    path = tmp_path / "g.hcg"
    write_hcgraph(path, result.graph, result.decomposition)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_HCGRAPH_SHA256[(corpus_index, p)]


def test_golden_graph_counts_with_fewer_states(tmp_path, capsys):
    # dead-skip pruning on a compiled graph: the residue stays the one the
    # reduction predicts, from strictly fewer states than the tuple-key sweep
    result = assemble(CNF_CORPUS[4][1], 5)
    counted = count_hc_pathdp(result.graph, result.decomposition, 5)
    assert counted.value == result.sidecar()["predicted_mod_p"]
    got, peak = hcount._sweep(result.graph, result.decomposition, (), 5)
    want, ref_peak = ref_fingerprint_table(result.graph, result.decomposition.bags, (), 5)
    assert got == want and peak == counted.states_peak < ref_peak
    path = tmp_path / "g.hcg"
    write_hcgraph(path, result.graph, result.decomposition)
    assert main(["count", "--graph", str(path), "--mod", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["residue"] == counted.value
