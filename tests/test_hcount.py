"""Cycle counters: published small cases, oracle equivalence, DP discipline.

The three counting routes (frontier brute force, subset backtracking, bag
DP) are deliberately independent; most tests here pit them against each
other on random inputs.
"""

import heapq
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchconn import hcount
from matchconn.exactalg import CapacityError, ValidationError
from matchconn.graphs import AnnotatedGraph, DecompositionError, PathDecomposition
from matchconn.hcount import (
    _bag_schedule,
    count_hc_bruteforce,
    count_hc_pathdp,
    count_partial_solutions,
    enumerate_hamiltonian_cycles,
    layered_decomposition,
    partial_solution_spectrum,
)
from matchconn.matchings import (
    Fingerprint,
    Matching,
    enumerate_fingerprints,
    fingerprints_combine,
    glue_boundaried,
)


def complete_graph(n):
    g = AnnotatedGraph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for u, v in itertools.combinations(range(1, n + 1), 2):
        g.add_edge(u, v)
    return g


def cycle_graph(n):
    g = AnnotatedGraph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for v in range(1, n):
        g.add_edge(v, v + 1)
    g.add_edge(n, 1)
    return g


def random_graph(rng, n, p=0.5):
    g = AnnotatedGraph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            g.add_edge(u, v)
    return g


# -- published small cases ---------------------------------------------------


def test_complete_graph_on_four_vertices():
    assert count_hc_bruteforce(complete_graph(4)).value == 3


def test_five_cycle():
    assert count_hc_bruteforce(cycle_graph(5)).value == 1


def test_complete_bipartite_three_three():
    g = AnnotatedGraph()
    for v in range(1, 7):
        g.add_vertex(v)
    for u in (1, 2, 3):
        for v in (4, 5, 6):
            g.add_edge(u, v)
    assert count_hc_bruteforce(g).value == 6
    # cross-check with the explicit enumerator
    assert sum(1 for _ in enumerate_hamiltonian_cycles(g)) == 6


def test_empty_graph_counts_one():
    assert count_hc_bruteforce(AnnotatedGraph()).value == 1


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_graphs_count_zero(n):
    assert count_hc_bruteforce(complete_graph(n)).value == 0


def test_capacity_ceiling():
    with pytest.raises(CapacityError):
        count_hc_bruteforce(complete_graph(21))


def test_six_cycle_with_natural_decomposition():
    g = cycle_graph(6)
    bags = [(1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6)]
    assert count_hc_pathdp(g, PathDecomposition(bags)).value == 1


def test_invalid_decomposition_names_the_violation():
    g = cycle_graph(4)
    with pytest.raises(DecompositionError) as err:
        count_hc_pathdp(g, PathDecomposition([(1, 2), (3, 4)]))
    assert "fits in no bag" in str(err.value)


def test_empty_graph_still_checks_its_bags():
    assert count_hc_pathdp(AnnotatedGraph(), PathDecomposition([()])).value == 1
    with pytest.raises(DecompositionError, match="unknown vertex 7"):
        count_hc_pathdp(AnnotatedGraph(), PathDecomposition([(7,)]))


def test_each_count_scans_the_bags_once(monkeypatch):
    # validation and the bag schedule share one occurrence-interval pass
    calls = []
    scan = PathDecomposition.occurrence_intervals

    def counted(self):
        calls.append(self)
        return scan(self)

    monkeypatch.setattr(PathDecomposition, "occurrence_intervals", counted)
    g = cycle_graph(6)
    decomp = PathDecomposition([(1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6)])
    fp = Fingerprint((1,), (2,), Matching(()))
    for run in (
        lambda: count_hc_pathdp(g, decomp),
        lambda: count_partial_solutions(g, (1,), fp, decomposition=decomp),
        lambda: partial_solution_spectrum(g, (1,), decomposition=decomp),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


# -- oracle equivalence ------------------------------------------------------


def test_dp_matches_bruteforce_on_random_graphs():
    rng = random.Random(1234)
    for trial in range(100):
        g = random_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.9))
        want = count_hc_bruteforce(g).value
        got = count_hc_pathdp(g, layered_decomposition(g)).value
        assert got == want, f"trial {trial}"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_modular_consistency(p):
    rng = random.Random(99 + p)
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 10))
        d = layered_decomposition(g)
        exact = count_hc_pathdp(g, d).value
        residue = count_hc_pathdp(g, d, modulus=p).value
        assert residue == exact % p


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=2**28 - 1))
@settings(max_examples=50, deadline=None)
def test_enumerator_agrees_with_counter(n, seed):
    g = random_graph(random.Random(seed), n)
    cycles = list(enumerate_hamiltonian_cycles(g))
    assert len(cycles) == count_hc_bruteforce(g).value
    for cyc in cycles:
        # each cycle is a set of n distinct edges covering every vertex twice
        assert len(set(cyc)) == n
        degree = {}
        for u, v in cyc:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert set(degree.values()) == {2} and len(degree) == n


# -- partial solutions -------------------------------------------------------


def test_single_edge_single_path():
    g = AnnotatedGraph()
    g.add_edge(1, 2)
    fp = Fingerprint((1, 2), (1, 1), Matching(((1, 2),)))
    assert count_partial_solutions(g, (1, 2), fp).value == 1


def test_isolated_vertex_cannot_reach_degree_two():
    g = AnnotatedGraph()
    g.add_vertex(1)
    g.add_vertex(2)
    g.add_edge(1, 2)
    g.add_vertex(3)
    fp = Fingerprint((3,), (2,), Matching(()))
    assert count_partial_solutions(g, (3,), fp).value == 0


def test_partial_solutions_exclude_closed_cycles_with_paths():
    # a triangle hanging off the boundary cannot appear next to an open path
    g = AnnotatedGraph()
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    g.add_edge(4, 5)
    g.add_edge(5, 3)
    fp = Fingerprint((1, 2), (1, 1), Matching(((1, 2),)))
    assert count_partial_solutions(g, (1, 2), fp).value == 0


def test_spectrum_matches_per_fingerprint_counts():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, 0.6)
        boundary = tuple(sorted(rng.sample(sorted(g.vertices), rng.choice([2, 4]))))
        spectrum = partial_solution_spectrum(g, boundary)
        assert all(c > 0 for c in spectrum.values())
        for fp in enumerate_fingerprints(boundary):
            want = count_partial_solutions(g, boundary, fp).value
            assert spectrum.get(fp, 0) == want


def test_spectrum_respects_modulus():
    rng = random.Random(7)
    g = random_graph(rng, 8, 0.7)
    boundary = (1, 2)
    exact = partial_solution_spectrum(g, boundary)
    mod = partial_solution_spectrum(g, boundary, modulus=3)
    for fp, c in exact.items():
        assert mod.get(fp, 0) == c % 3
    # fingerprints whose count vanishes mod 3 are omitted, not listed as 0
    assert set(mod) == {fp for fp, c in exact.items() if c % 3}


@pytest.mark.parametrize("with_bags", [False, True])
@pytest.mark.parametrize("modulus", [0, 1, -1])
def test_partial_counters_reject_a_modulus_below_two(modulus, with_bags):
    g = cycle_graph(4)
    decomp = layered_decomposition(g) if with_bags else None
    fp = Fingerprint((1, 2), (1, 1), Matching(((1, 2),)))
    with pytest.raises(ValidationError, match="at least 2"):
        count_partial_solutions(g, (1, 2), fp, modulus=modulus, decomposition=decomp)
    with pytest.raises(ValidationError, match="at least 2"):
        partial_solution_spectrum(g, (1, 2), modulus=modulus, decomposition=decomp)


@pytest.mark.parametrize("with_bags", [False, True])
def test_partial_counters_reject_a_repeated_boundary_vertex(with_bags):
    # a sweep pinned at (1, 1) would report fingerprints with a repeated
    # boundary vertex, which enumerate_fingerprints refuses
    g = cycle_graph(6)
    decomp = layered_decomposition(g) if with_bags else None
    fp = Fingerprint((1, 1), (2, 2), Matching(()))
    with pytest.raises(ValidationError, match="duplicate boundary vertices"):
        count_partial_solutions(g, (1, 1), fp, decomposition=decomp)
    with pytest.raises(ValidationError, match="duplicate boundary vertices"):
        partial_solution_spectrum(g, (1, 1), decomposition=decomp)


def _random_side(rng, boundary, internals, density, with_boundary_edges):
    g = AnnotatedGraph()
    for v in boundary + internals:
        g.add_vertex(v)
    verts = sorted(g.vertices)
    bset = set(boundary)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if u in bset and v in bset and not with_boundary_edges:
                continue
            if rng.random() < density:
                g.add_edge(u, v)
    return g


def test_split_identity_combining_pairs_give_the_cycle_count():
    # Glue two random boundaried graphs and recover the Hamiltonian cycle
    # count from their partial-solution spectra. Pairs whose matchings are
    # both nonempty and whose union closes a single cycle are the ones that
    # glue to a Hamiltonian cycle. Pairs with two empty matchings glue to one
    # closed cycle per side, two disjoint cycles in total, so they stay out
    # of the sum even though the pairing rule accepts them.
    rng = random.Random(2718)
    saw_nonzero = saw_both_closed = False
    for _ in range(25):
        k = rng.choice([2, 4])
        boundary = tuple(range(1, k + 1))
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        side_a = _random_side(
            rng, boundary, tuple(range(k + 1, k + 1 + na)), 0.7, False
        )
        side_b = _random_side(
            rng, boundary, tuple(range(k + 1 + na, k + 1 + na + nb)), 0.7, True
        )
        g = glue_boundaried(side_a, side_b, boundary)
        spec_a = partial_solution_spectrum(side_a, boundary)
        spec_b = partial_solution_spectrum(side_b, boundary)
        total = 0
        for fa, ca in spec_a.items():
            for fb, cb in spec_b.items():
                if not fingerprints_combine(fa, fb):
                    continue
                if fa.matching.pairs and fb.matching.pairs:
                    total += ca * cb
                else:
                    saw_both_closed = True
        assert total == count_hc_bruteforce(g).value
        saw_nonzero = saw_nonzero or total > 0
    assert saw_nonzero
    assert saw_both_closed


def test_split_identity_with_an_edgeless_side():
    # Degenerate split: one side carries the whole graph, the other is just
    # the bare boundary vertices. The edgeless side realizes only the
    # all-zero fingerprint via the empty selection, which combines with the
    # closed all-degree-two fingerprint on the full side, so the plain sum
    # over all combining pairs gives the cycle count.
    g = complete_graph(5)
    boundary = (1, 2)
    bare = AnnotatedGraph()
    bare.add_vertex(1)
    bare.add_vertex(2)
    spec_bare = partial_solution_spectrum(bare, boundary)
    assert spec_bare == {Fingerprint(boundary, (0, 0), Matching(())): 1}
    spec_full = partial_solution_spectrum(g, boundary)
    total = 0
    for fa, ca in spec_bare.items():
        for fb, cb in spec_full.items():
            if fingerprints_combine(fa, fb):
                total += ca * cb
    assert total == count_hc_bruteforce(g).value == 12


def test_boundary_must_be_known():
    g = cycle_graph(4)
    fp = Fingerprint((9,), (0,), Matching(()))
    with pytest.raises(Exception):
        count_partial_solutions(g, (9,), fp)


# -- bag schedule -------------------------------------------------------------


def reference_bag_schedule(graph, bags):
    """The schedule as built before occurrence intervals: each edge's home is
    found by scanning the bags for the first one holding both ends."""
    first = {}
    for i, bag in enumerate(bags):
        for v in bag:
            first.setdefault(v, i)
    intro = [[] for _ in bags]
    edges_at = [[] for _ in bags]
    for v in graph.vertices:
        intro[first[v]].append(v)
    bag_sets = [frozenset(b) for b in bags]
    for e in sorted(graph.edges):
        u, v = e
        home = next(i for i, b in enumerate(bag_sets) if u in b and v in b)
        edges_at[home].append(e)
    for lst in intro:
        lst.sort()
    return intro, edges_at


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_bag_schedule_matches_reference(data):
    # random occurrence intervals, bags read off them (some listing a vertex
    # twice), edges only between meeting intervals
    n = data.draw(st.integers(min_value=1, max_value=9))
    k = data.draw(st.integers(min_value=1, max_value=8))
    spans = {}
    for v in range(1, n + 1):
        a = data.draw(st.integers(min_value=0, max_value=k - 1))
        spans[v] = (a, data.draw(st.integers(min_value=a, max_value=k - 1)))
    g = AnnotatedGraph()
    for v in spans:
        g.add_vertex(v)
    for u, v in itertools.combinations(spans, 2):
        meet = max(spans[u][0], spans[v][0]) <= min(spans[u][1], spans[v][1])
        if meet and data.draw(st.booleans()):
            g.add_edge(u, v)
    bags = []
    for i in range(k):
        bag = [v for v in spans if spans[v][0] <= i <= spans[v][1]]
        bag = data.draw(st.permutations(bag))
        if bag and data.draw(st.booleans()):
            bag.append(bag[0])
        bags.append(tuple(bag))
    first, _ = PathDecomposition(bags).validate(g)
    assert _bag_schedule(g, bags, first) == reference_bag_schedule(g, bags)


def test_bag_schedule_matches_reference_on_layered_decompositions():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.9))
        bags = list(layered_decomposition(g).bags)
        first, _ = PathDecomposition(bags).validate(g)
        assert _bag_schedule(g, bags, first) == reference_bag_schedule(g, bags)


def test_validate_and_schedule_scale_linearly():
    # 50,000 bags: the linear checks take well under a second, the edge x bag
    # scan they replaced would take hours
    n = 50_001
    g = AnnotatedGraph()
    for v in range(1, n):
        g.add_edge(v, v + 1)
    bags = [(v, v + 1) for v in range(1, n)]
    t0 = time.perf_counter()
    first, _ = PathDecomposition(bags).validate(g)
    intro, edges_at = _bag_schedule(g, bags, first)
    elapsed = time.perf_counter() - t0
    assert all(len(es) == 1 for es in edges_at)
    assert intro[0] == [1, 2]
    assert elapsed < 10.0, f"{elapsed:.1f} s for {len(bags)} bags"


# -- packed sweep against the tuple-key reference -----------------------------


def ref_sweep(graph, bags, keep, modulus):
    """The bag sweep as it was before packed keys and dead-skip pruning.

    A state is the tuple (degree-1 slot mask, degree-2 slot mask, sorted slot
    pairing, closed); the skip branch of every edge is a wholesale copy, so
    states where a vertex can no longer reach degree 2 live until that
    vertex is forgotten. Returns the final table keyed by (sorted degree
    items, sorted vertex pairing, closed) and the peak.
    """
    first, _ = PathDecomposition(bags).validate(graph)
    intro, edges_at = _bag_schedule(graph, bags, first)
    slot_of = {}
    free_slots = []
    next_slot = 0
    states = {(0, 0, (), False): 1}
    peak = 1
    # a vertex is forgotten eagerly once its last incident edge is processed
    remaining = {v: graph.degree(v) for v in graph.vertices}

    def forget_now(verts):
        # merging states never grows the table, so the peak cannot move here
        nonlocal states
        mask = 0
        for w in verts:
            mask |= 1 << slot_of[w]
        nxt = {}
        for key, cnt in states.items():
            d1, d2, pairing, closed = key
            # every dropped vertex must have degree exactly 2
            if d1 & mask or (d2 & mask) != mask:
                continue
            nk = (d1, d2 & ~mask, pairing, closed)
            cur = nxt.get(nk, 0) + cnt
            if modulus is not None:
                cur %= modulus
            nxt[nk] = cur
        states = nxt
        for w in verts:
            heapq.heappush(free_slots, slot_of.pop(w))

    for i in range(len(bags)):
        for v in intro[i]:
            if free_slots:
                slot_of[v] = heapq.heappop(free_slots)
            else:
                slot_of[v] = next_slot
                next_slot += 1
            if remaining[v] == 0 and v not in keep:
                # an isolated vertex can never reach degree 2
                states = {}
        for u, v in edges_at[i]:
            su, sv = slot_of[u], slot_of[v]
            bu, bv = 1 << su, 1 << sv
            both = bu | bv
            nxt = dict(states)  # skip branch for every state
            for key, cnt in states.items():
                d1, d2, pairing, closed = key
                if closed or d2 & both:
                    continue
                u1, v1 = d1 & bu, d1 & bv
                if not u1 and not v1:
                    extra = (su, sv) if su < sv else (sv, su)
                    newpair = tuple(sorted(pairing + (extra,)))
                    nk = (d1 | both, d2, newpair, False)
                elif u1 and v1:
                    pu = pv = -1
                    for a, b in pairing:
                        if a == su:
                            pu = b
                        elif b == su:
                            pu = a
                        if a == sv:
                            pv = b
                        elif b == sv:
                            pv = a
                    if pu == sv:
                        # taking u-v closes the cycle; legal only if it is
                        # the last open path
                        if len(pairing) > 1:
                            continue
                        nk = (0, d2 | both, (), True)
                    else:
                        rest = [
                            pr
                            for pr in pairing
                            if su not in pr and sv not in pr
                        ]
                        rest.append((pu, pv) if pu < pv else (pv, pu))
                        nk = (d1 & ~both, d2 | both, tuple(sorted(rest)), False)
                else:
                    # one endpoint extends an open path onto a fresh vertex
                    sold, sfresh = (su, sv) if u1 else (sv, su)
                    po = -1
                    for a, b in pairing:
                        if a == sold:
                            po = b
                        elif b == sold:
                            po = a
                    rest = [pr for pr in pairing if sold not in pr]
                    rest.append((po, sfresh) if po < sfresh else (sfresh, po))
                    nk = (
                        (d1 & ~(1 << sold)) | (1 << sfresh),
                        d2 | (1 << sold),
                        tuple(sorted(rest)),
                        False,
                    )
                cur = nxt.get(nk, 0) + cnt
                if modulus is not None:
                    cur %= modulus
                nxt[nk] = cur
            states = nxt
            peak = max(peak, len(states))
            done = []
            for w in (u, v):
                remaining[w] -= 1
                if remaining[w] == 0 and w not in keep:
                    done.append(w)
            if done:
                forget_now(done)

    vertex_of = {s: v for v, s in slot_of.items()}
    decoded = {}
    for (d1, d2, pairing, closed), cnt in states.items():
        degs = []
        for s, v in vertex_of.items():
            if (d1 >> s) & 1:
                degs.append((v, 1))
            elif (d2 >> s) & 1:
                degs.append((v, 2))
        pairs = tuple(
            sorted(
                (vertex_of[a], vertex_of[b])
                if vertex_of[a] < vertex_of[b]
                else (vertex_of[b], vertex_of[a])
                for a, b in pairing
            )
        )
        key = (tuple(sorted(degs)), pairs, closed)
        cur = decoded.get(key, 0) + cnt
        if modulus is not None:
            cur %= modulus
        decoded[key] = cur
    return decoded, peak


def ref_fingerprint_table(graph, bags, boundary, modulus):
    """ref_sweep on bags that already hold the sorted boundary, its final
    table rekeyed by Fingerprint on the boundary, and its peak.

    The key drops the closed flag, so the entry count is checked to show
    that no two reference states land on one fingerprint.
    """
    table, peak = ref_sweep(graph, bags, set(boundary), modulus)
    out = {}
    for (degs, pairs, _closed), cnt in table.items():
        dmap = dict(degs)
        degrees = tuple(dmap.get(v, 0) for v in boundary)
        out[Fingerprint(tuple(boundary), degrees, Matching.from_pairs(pairs))] = cnt
    assert len(out) == len(table)
    return out, peak


def with_boundary(bags, boundary):
    """Append the boundary to every bag, as the bag sweep does."""
    bags = [tuple(bag) + tuple(v for v in boundary if v not in bag) for bag in bags]
    return bags or [tuple(boundary)]


def separation_bags(graph, order):
    """Bag i holds order[i] and every earlier vertex with a neighbour at i or later."""
    pos = {v: i for i, v in enumerate(order)}
    reach = {v: max([pos[v]] + [pos[w] for w in graph.neighbors(v)]) for v in order}
    return [
        tuple(w for w in order[: i + 1] if reach[w] >= i) for i in range(len(order))
    ]


@st.composite
def sweep_instances(draw):
    """Degree-2 chains with chords, a decomposition, a pinned boundary and a modulus.

    The vertices lie on a path with a few links missing, so most have degree
    2; at most n chords raise some degrees, which keeps every graph within
    the subset oracle's edge ceiling. The boundary prefers degree-2 vertices, so
    boundary vertices that must stay unpruned come up often.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    order = draw(st.permutations(range(1, n + 1)))
    g = AnnotatedGraph()
    for v in order:
        g.add_vertex(v)
    for a, b in zip(order, order[1:]):
        if draw(st.integers(min_value=0, max_value=5)):
            g.add_edge(a, b)
    if n > 2 and draw(st.booleans()):
        g.add_edge(*sorted((order[0], order[-1])))
    ends = st.sampled_from(order)
    for u, v in draw(st.lists(st.tuples(ends, ends), max_size=n)):
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    deg2 = sorted(v for v in g.vertices if g.degree(v) == 2)
    pool = st.sampled_from(deg2) if deg2 and draw(st.booleans()) else st.sampled_from(order)
    keep = draw(st.sets(pool, max_size=min(3, n)))
    if draw(st.booleans()):
        bags = list(layered_decomposition(g).bags)
    else:
        bags = separation_bags(g, draw(st.permutations(order)))
    bags = with_boundary(bags, sorted(keep))
    modulus = draw(st.sampled_from([None, 2, 3, 5]))
    return g, bags, keep, modulus


@given(sweep_instances())
@settings(max_examples=400, deadline=None)
def test_sweep_matches_tuple_key_reference(instance):
    g, bags, keep, modulus = instance
    boundary = tuple(sorted(keep))
    want, ref_peak = ref_fingerprint_table(g, bags, boundary, modulus)
    got, peak = hcount._sweep(g, PathDecomposition(bags), boundary, modulus)
    # zero residues stay in both tables, so plain dict equality covers them
    assert got == want
    assert peak <= ref_peak


@given(sweep_instances())
@settings(max_examples=100, deadline=None)
def test_cycle_count_is_the_empty_fingerprint_entry(instance):
    g, bags, _, modulus = instance
    decomp = PathDecomposition(bags)
    empty = Fingerprint((), (), Matching(()))
    dp = count_hc_pathdp(g, decomp, modulus).value
    assert dp == partial_solution_spectrum(g, (), modulus, decomp).get(empty, 0)
    assert dp == count_hc_bruteforce(g, modulus).value


@given(sweep_instances())
@settings(max_examples=100, deadline=None)
def test_pinned_spectrum_matches_subset_oracle(instance):
    g, bags, keep, _ = instance
    boundary = tuple(sorted(keep))
    spectrum = partial_solution_spectrum(g, boundary, decomposition=PathDecomposition(bags))
    for fp in enumerate_fingerprints(boundary):
        want = count_partial_solutions(g, boundary, fp).value
        assert spectrum.get(fp, 0) == want


@pytest.mark.parametrize("pinned", [False, True])
def test_sweep_with_an_isolated_vertex(pinned):
    g = cycle_graph(3)
    g.add_vertex(4)
    boundary = (4,) if pinned else ()
    decomp = PathDecomposition([(1, 2, 3), (3, 4)])
    got, peak = hcount._sweep(g, decomp, boundary, None)
    want, ref_peak = ref_fingerprint_table(g, with_boundary(decomp.bags, boundary), boundary, None)
    assert got == want and peak <= ref_peak
    if pinned:
        # the triangle closes and the pinned vertex stays at degree 0
        assert got == {Fingerprint((4,), (0,), Matching(())): 1}
        assert partial_solution_spectrum(g, (4,), decomposition=decomp) == got
    else:
        assert got == {}
        assert count_hc_pathdp(g, decomp).value == 0


def test_boundary_ends_of_degree_two_keep_their_skips():
    # On a 6-cycle the only path from 1 to 2 through every other vertex skips
    # the edge 1-2. Both ends have degree 2 in the graph, and (1, 2) is the
    # first edge at each, so pruning a boundary vertex there would lose it.
    g = cycle_graph(6)
    boundary = (1, 2)
    decomp = PathDecomposition([(1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6)])
    fp = Fingerprint(boundary, (1, 1), Matching(((1, 2),)))
    assert count_partial_solutions(g, boundary, fp).value == 1
    assert count_partial_solutions(g, boundary, fp, decomposition=decomp).value == 1
    got, peak = hcount._sweep(g, decomp, boundary, None)
    want, ref_peak = ref_fingerprint_table(g, with_boundary(decomp.bags, boundary), boundary, None)
    assert got == want and got[fp] == 1 and peak <= ref_peak


def test_forced_edges_shrink_the_table():
    # Every vertex of a long cycle has degree 2, so every skip branch before
    # a vertex's last edge is dead. Only the closing edge 1-40 keeps its skip,
    # until both ends are forgotten right after it.
    g = cycle_graph(40)
    bags = [(1, v, v + 1) for v in range(2, 40)]
    result = count_hc_pathdp(g, PathDecomposition(bags))
    assert result.value == 1
    assert result.states_peak == 2 < ref_sweep(g, bags, set(), None)[1]


# -- state ceiling -------------------------------------------------------------


def test_state_ceiling_is_checked_at_the_peak(monkeypatch):
    g = complete_graph(6)
    d = layered_decomposition(g)
    peak = count_hc_pathdp(g, d).states_peak
    monkeypatch.setattr(hcount, "MAX_DP_STATES", peak)
    assert count_hc_pathdp(g, d).value == 60
    monkeypatch.setattr(hcount, "MAX_DP_STATES", peak - 1)
    with pytest.raises(CapacityError, match="ceiling"):
        count_hc_pathdp(g, d)
