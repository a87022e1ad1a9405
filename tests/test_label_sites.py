"""Label sites in the bag sweep: contraction of the gadgets write_hcgraph
writes and the partner-label rule.

Three routes must agree on every annotated graph: a label-aware enumeration
(the plain graph's Hamiltonian cycles whose two edges at each site carry
partner labels), the tuple-key reference sweep on the graph's expansion,
and the bag sweep itself, on the annotated graph and on the expansion it
contracts back.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchconn import graphs, hcount
from matchconn.checks import CNF_CORPUS, VERIFY_SEED, random_gadget_spec
from matchconn.exactalg import ValidationError
from matchconn.graphs import (
    LABEL_GADGET_EDGES,
    AnnotatedGraph,
    PathDecomposition,
    read_hcgraph,
    write_hcgraph,
)
from matchconn.hcount import (
    count_hc_bruteforce,
    count_hc_pathdp,
    enumerate_hamiltonian_cycles,
    layered_decomposition,
    partial_solution_spectrum,
)
from matchconn.matchings import Fingerprint, Matching
from matchconn.reduction import assemble, build_fingerprint_gadget, parse_dimacs
from test_graphs import ref_expand_label_gadgets
from test_hcount import ref_fingerprint_table, separation_bags, set_bags, with_boundary

EMPTY = Fingerprint((), (), Matching(()))
PARTNERS = ({1, 2}, {3, 4})


def label_aware_count(graph, modulus=None):
    """Hamiltonian cycles of the plain graph whose two edges at every site
    carry partner labels, by enumeration."""
    plain = AnnotatedGraph.from_edges(graph.vertices, sorted(graph.edges))
    total = 0
    for cycle in enumerate_hamiltonian_cycles(plain):
        total += all(
            {labs[e] for e in cycle if v in e} in PARTNERS
            for v, labs in graph.annotations.items()
        )
    return total % modulus if modulus else total


def expansion_order(graph, order):
    """`order` with each site replaced by its nine expansion ids, role 1 first,
    as ref_expand_label_gadgets numbers them."""
    top = max(graph.vertices) + 1
    base = {v: top + 9 * i for i, v in enumerate(sorted(graph.annotations))}
    out = []
    for v in order:
        out += range(base[v], base[v] + 9) if v in base else [v]
    return out


def contract(graph, keep=()):
    """_contract_label_gadgets on the graph's bags, or its layered ones:
    the contracted graph, built from the sweep's schedule through
    from_edges so that its labels are checked, and each contracted
    vertex's site id."""
    decomposition = graph.decomposition or layered_decomposition(graph)
    runs = decomposition.validate(graph)
    site, port_label = hcount._contract_label_gadgets(graph, runs, set(keep))
    intro, edges_at, labels, remaining = hcount._schedule(
        runs, site, port_label, graph.annotations, len(decomposition.bags)
    )
    contracted = AnnotatedGraph.from_edges(
        itertools.chain.from_iterable(intro), list(itertools.chain.from_iterable(edges_at)), labels
    )
    assert remaining == {v: contracted.degree(v) for v in contracted.vertices}
    ids = runs.ids.tolist()
    sizes = Counter(site.tolist())
    site_of = {ids[i]: ids[s] for i, s in enumerate(site.tolist()) if sizes[s] > 1}
    return contracted, site_of


def gadget_count(graph):
    _, site_of = contract(graph)
    return len(set(site_of.values()))


@st.composite
def labelled_instances(draw):
    """A small annotated graph on a planted Hamiltonian cycle with chords.

    Most draws label the planted cycle's two edges at each site with a
    partner pair, so the label rule passes at least one cycle; the rest of
    the labels, and every label of the other draws, are free.
    """
    n = draw(st.integers(min_value=3, max_value=6))
    order = draw(st.permutations(range(1, n + 1)))
    ring = {tuple(sorted(e)) for e in zip(order, order[1:] + order[:1])}
    edges = set(ring)
    ends = st.sampled_from(order)
    for u, v in draw(st.lists(st.tuples(ends, ends), max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    sites = draw(st.sets(ends, max_size=min(n, 4)))
    plant = draw(st.integers(min_value=0, max_value=3)) > 0
    labels = {}
    for v in sorted(sites):
        labs = {e: draw(st.integers(min_value=1, max_value=4)) for e in edges if v in e}
        if plant:
            pair = draw(st.sampled_from([(1, 2), (2, 1), (3, 4), (4, 3)]))
            for e, lab in zip([e for e in edges if v in e and e in ring], pair):
                labs[e] = lab
        labels[v] = labs
    modulus = draw(st.sampled_from([None, 2, 3]))
    return AnnotatedGraph.from_edges(order, edges, labels), list(order), modulus


def _stray_gadget_across_two_sites():
    # In the expansion (sites 1 and 2 at ids 5..13 and 14..22) the ids
    # (10, 4, 12, 14, 11, 5, 9, 7, 3) are a genuine copy of the gadget, role
    # 7 at vertex 9, made of plain 3 and 4 and parts of both written
    # gadgets. Out of the written layout, it is not contracted, so it
    # cannot block the two written gadgets it touches.
    g = AnnotatedGraph.from_edges(
        (1, 2, 3, 4),
        [(1, 2), (1, 4), (2, 3), (3, 4)],
        {1: {(1, 2): 1, (1, 4): 3}, 2: {(1, 2): 1, (2, 3): 1}},
    )
    return g, [1, 2, 3, 4], None


@given(labelled_instances())
@example(_stray_gadget_across_two_sites())
@settings(max_examples=150, deadline=None)
def test_sites_count_as_their_expansion(instance):
    g, order, modulus = instance
    want = label_aware_count(g, modulus)
    assert count_hc_pathdp(set_bags(g, separation_bags(g, order)), modulus).value == want
    x = ref_expand_label_gadgets(g)
    bags = separation_bags(x, expansion_order(g, order))
    ref, _ = ref_fingerprint_table(x, bags, (), modulus)
    assert ref.get(EMPTY, 0) == want
    assert count_hc_pathdp(set_bags(x, bags), modulus).value == want
    # the sweep contracts every gadget of the expansion back to its site
    assert gadget_count(x) == len(g.annotations)


@st.composite
def perturbed_expansions(draw):
    """An expansion with a few extra edges and a pinned boundary.

    The extra edges can give a gadget's interior or two of its ports one
    more neighbour, or join two ports, and the boundary can hold gadget
    vertices; each of these must keep the gadget expanded.
    """
    g, order, modulus = draw(labelled_instances())
    x = ref_expand_label_gadgets(g)
    xorder = expansion_order(g, order)
    pick = st.sampled_from(xorder)
    edges = set(x.edges)
    for u, v in draw(st.lists(st.tuples(pick, pick), max_size=3)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    x = AnnotatedGraph.from_edges(x.vertices, sorted(edges))
    boundary = tuple(sorted(draw(st.sets(pick, max_size=2))))
    return x, with_boundary(separation_bags(x, xorder), boundary), boundary, modulus


@given(perturbed_expansions())
@settings(max_examples=150, deadline=None)
def test_perturbed_expansions_match_the_reference(instance):
    x, bags, boundary, modulus = instance
    want, _ = ref_fingerprint_table(x, bags, boundary, modulus)
    got, _ = hcount._sweep(set_bags(x, bags), boundary, modulus)
    assert got == want


def one_site(labels):
    """A site 0 on a triangle, its edges to 1 and 2 labelled as given."""
    return AnnotatedGraph.from_edges(
        (), [(0, 1), (0, 2), (1, 2)], {0: {(0, 1): labels[0], (0, 2): labels[1]}}
    )


@pytest.mark.parametrize(
    "labels,want",
    [((1, 2), 1), ((2, 1), 1), ((3, 4), 1), ((4, 3), 1), ((1, 1), 0), ((3, 3), 0),
     ((1, 3), 0), ((2, 4), 0), ((1, 4), 0), ((2, 3), 0)],
)
def test_a_site_takes_partner_labels_only(labels, want):
    g = one_site(labels)
    assert count_hc_pathdp(g).value == want
    assert count_hc_pathdp(ref_expand_label_gadgets(g)).value == want


def test_counters_that_cannot_read_labels_refuse_sites():
    g = one_site((1, 1))
    with pytest.raises(ValidationError, match="cannot read label sites"):
        count_hc_bruteforce(g)
    with pytest.raises(ValidationError, match="cannot read label sites"):
        list(enumerate_hamiltonian_cycles(g))
    with pytest.raises(ValidationError, match=r"boundary vertices \[0\] are label sites"):
        partial_solution_spectrum(g, (0, 1))


# -- one gadget inside a plain graph --------------------------------------------


def gadget_with_stubs(extra=()):
    """The gadget on roles 1..9 with outside vertices 11..14, vertex 10 + i
    joined to port i, the outside vertices on a path 11-13-14-12, plus the
    extra edges."""
    edges = {tuple(sorted(e)) for e in LABEL_GADGET_EDGES}
    edges |= {(i, 10 + i) for i in range(1, 5)}
    edges |= {(11, 13), (13, 14), (12, 14)}
    edges |= {tuple(sorted(e)) for e in extra}
    return AnnotatedGraph.from_edges((), sorted(edges))


def assert_matches_reference(g, boundary=()):
    bags = with_boundary(separation_bags(g, sorted(g.vertices)), boundary)
    want, _ = ref_fingerprint_table(g, bags, boundary, None)
    got, _ = hcount._sweep(set_bags(g, bags), boundary, None)
    assert got == want
    return got


def test_a_gadget_contracts_to_one_site():
    g = gadget_with_stubs()
    contracted, site_of = contract(g)
    assert site_of == dict.fromkeys(range(1, 10), 1)
    assert contracted.annotations == {1: {(1, 11): 1, (1, 12): 2, (1, 13): 3, (1, 14): 4}}
    # the one cycle leaves the gadget through ports 1 and 2
    assert assert_matches_reference(g) == {EMPTY: 1}
    assert count_hc_bruteforce(g).value == 1


def test_the_schedule_reads_an_edge_either_way_round():
    # BagRuns does not order an edge's two ends; reversed, each port's label
    # and the graph's own label at site 13 stay with their ends
    g = gadget_with_stubs()
    labels = {13: {(3, 13): 2, (11, 13): 1, (13, 14): 3}}
    g = AnnotatedGraph.from_edges((), sorted(g.edges), labels)
    bags = layered_decomposition(g).bags
    runs = PathDecomposition(bags).validate(g)
    site, port_label = hcount._contract_label_gadgets(g, runs, set())
    want = hcount._schedule(runs, site, port_label, labels, len(bags))
    assert want[2] == {
        1: {(1, 11): 1, (1, 12): 2, (1, 13): 3, (1, 14): 4},
        13: {(1, 13): 2, (11, 13): 1, (13, 14): 3},
    }
    flipped = dataclasses.replace(runs, ends=runs.ends[:, ::-1])
    assert hcount._schedule(flipped, site, port_label, labels, len(bags)) == want


def test_a_gadget_alone_has_no_cycle():
    # contracted, it is an isolated site
    g = AnnotatedGraph.from_edges((), sorted(tuple(sorted(e)) for e in LABEL_GADGET_EDGES))
    assert gadget_count(g) == 1
    assert count_hc_pathdp(g).value == count_hc_bruteforce(g).value == 0


@pytest.mark.parametrize(
    "extra",
    [
        [(5, 14)],  # an interior vertex with an outside edge
        [(6, 14)],
        [(8, 11)],
        [(1, 12)],  # two ports share the outside vertex 12
        [(1, 3)],  # two ports joined inside
    ],
)
def test_a_broken_gadget_stays_expanded(extra):
    g = gadget_with_stubs(extra)
    assert gadget_count(g) == 0
    assert_matches_reference(g)


@pytest.mark.parametrize(
    "relabel",
    [
        {5: 9, 9: 5},  # roles 5 and 9 swap ids: role r is no longer at id r
        {v: v + 1 for v in range(5, 15)},  # a gap in the ids between roles 4 and 5
    ],
)
def test_a_gadget_out_of_the_written_layout_stays_expanded(relabel):
    # the copy is counted as plain vertices, which is exact
    g = gadget_with_stubs()
    g = AnnotatedGraph.from_edges(
        (), sorted(tuple(sorted(relabel.get(v, v) for v in e)) for e in g.edges)
    )
    assert not len(layered_decomposition(g).validate(g).written_gadgets())
    assert gadget_count(g) == 0
    assert_matches_reference(g)
    assert count_hc_pathdp(g).value == count_hc_bruteforce(g).value == 1


def test_a_gadget_with_a_pinned_vertex_stays_expanded():
    g = gadget_with_stubs()
    for v in (1, 5, 7):
        _, site_of = contract(g, {v})
        assert not site_of
        assert_matches_reference(g, (v,))


@pytest.mark.parametrize("shift", range(1, 9))
def test_written_gadgets_never_overlap(shift):
    # two gadget copies whose windows overlap leave at most one in the
    # written layout, so no written gadget holds an already contracted id
    edges = {tuple(sorted(e)) for e in LABEL_GADGET_EDGES}
    edges |= {(u + shift, v + shift) for u, v in edges}
    g = AnnotatedGraph.from_edges((), sorted(edges))
    runs = layered_decomposition(g).validate(g)
    assert len(runs.written_gadgets()) <= 1


def test_neighbouring_gadgets_may_not_meet_twice():
    # two gadgets joined port to port four times would contract to four
    # parallel edges: the first is taken, the second stays expanded
    a = [(u, v) for u, v in LABEL_GADGET_EDGES]
    b = [(u + 20, v + 20) for u, v in LABEL_GADGET_EDGES]
    g = AnnotatedGraph.from_edges(
        (), sorted({tuple(sorted(e)) for e in a + b + [(1, 23), (2, 24), (3, 21), (4, 22)]})
    )
    contracted, site_of = contract(g)
    assert set(site_of.values()) == {1}
    assert len(contracted.vertices) == 10 and len(contracted.edges) == 10 + 4
    assert_matches_reference(g)


# -- fingerprint gadgets: sites next to a pinned boundary ------------------------


@pytest.mark.parametrize("trial", range(6))
def test_fingerprint_gadgets_count_the_same_annotated_and_expanded(trial):
    rng = random.Random(VERIFY_SEED + trial)
    spec = random_gadget_spec(rng)
    gadget = build_fingerprint_gadget(spec)
    expanded = ref_expand_label_gadgets(gadget)
    want = {fp: m for fp, m in spec.counts}
    for g in (gadget, expanded):
        assert partial_solution_spectrum(g, spec.boundary) == want
    assert gadget_count(expanded) == len(gadget.annotations)
    bags = with_boundary(expanded.decomposition.bags, spec.boundary)
    ref, _ = ref_fingerprint_table(expanded, bags, spec.boundary, None)
    assert {fp: c for fp, c in ref.items() if c} == want
    # pin one vertex of the first gadget too: that gadget stays expanded
    top = max(gadget.vertices) + 1
    for member in (top, top + 4):
        boundary = tuple(sorted(spec.boundary + (member,)))
        bags = with_boundary(expanded.decomposition.bags, boundary)
        ref, _ = ref_fingerprint_table(expanded, bags, boundary, None)
        # the sweep appends the boundary to the expansion's bags the same way
        got, _ = hcount._sweep(expanded, boundary, None)
        assert got == ref
    site = min(gadget.annotations)
    with pytest.raises(ValidationError, match="are label sites"):
        partial_solution_spectrum(gadget, spec.boundary + (site,))


# -- the layout search against a per-vertex search on dicts ---------------------


def _is_gadget(adj, roles):
    """Do the nine ids, holding all ten edges of LABEL_GADGET_EDGES between
    their roles, induce exactly those? No other edge may join two of them,
    and roles 5..9 must have no edge to the outside."""
    members = set(roles)
    interior = [sum(r in e for e in LABEL_GADGET_EDGES) for r in range(5, 10)]
    return (
        len(members) == 9
        and sum(len(adj[m] & members) for m in roles) == 2 * len(LABEL_GADGET_EDGES)
        and all(len(adj[m]) == d for m, d in zip(roles[4:], interior))
    )


def _gadget_in_layout(adj, x):
    """The ids x - 6 .. x + 2 as roles 1..9, or None unless they are a label
    gadget there: the layout write_hcgraph writes, role r at offset r - 1."""
    if x - 1 not in adj[x] or x + 1 not in adj[x]:
        return None  # roles 6 and 8
    roles = tuple(range(x - 6, x + 3))
    if (
        all(m in adj for m in roles)
        and all(roles[s - 1] in adj[roles[r - 1]] for r, s in LABEL_GADGET_EDGES)
        and _is_gadget(adj, roles)
    ):
        return roles
    return None


@given(perturbed_expansions(), st.data())
@settings(max_examples=200, deadline=None)
def test_layout_search_finds_what_the_per_vertex_search_finds(instance, data):
    # on the expansion, and on a copy with every id above a cut moved up one,
    # which breaks the gadget across the cut out of the layout
    x = instance[0]
    cut = data.draw(st.sampled_from(sorted(x.vertices)))
    moved = AnnotatedGraph.from_edges(
        (), sorted(tuple(v + (v > cut) for v in e) for e in x.edges)
    )
    for g in (x, moved):
        runs = layered_decomposition(g).validate(g)
        got = runs.ids[runs.written_gadgets()].tolist()
        assert got == [v - 6 for v in sorted(g.vertices) if _gadget_in_layout(g._adj, v)]


def ref_site_of(graph, keep=()):
    """Each contracted vertex's site id, by the per-vertex search: every
    degree-2 vertex in sorted order tried as role 7 of a gadget in the
    layout, with the same checks on each match."""
    adj, sites = graph._adj, graph.annotations
    site_of = {}
    for x in sorted(graph.vertices):
        if len(adj[x]) != 2 or x in site_of:
            continue
        roles = _gadget_in_layout(adj, x)
        if roles is None or any(m in keep or m in sites or m in site_of for m in roles):
            continue
        outside = [site_of.get(w, w) for m in roles[:4] for w in adj[m] if w not in roles]
        if len(set(outside)) == len(outside):
            site_of.update(dict.fromkeys(roles, min(roles)))
    return site_of


@given(perturbed_expansions())
@example(
    (ref_expand_label_gadgets(_stray_gadget_across_two_sites()[0]), None, (), None)
)
@settings(max_examples=200, deadline=None)
def test_contraction_matches_the_per_vertex_search(instance):
    x, _, boundary, _ = instance
    assert contract(x, boundary)[1] == ref_site_of(x, boundary)


def count_round_graphs():
    """The ten graphs of the seed-82 `count` benchmark round, compiled and
    read back as the benchmark compiles them."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    rng = random.Random(82)
    for n, m, p in workloads.COUNT_ROUND:
        num_vars, clauses = workloads.random_3cnf(rng, n, m)
        yield p, parse_dimacs(workloads.dimacs(num_vars, clauses))


def corpus_graphs():
    for _, cnf in CNF_CORPUS:
        for p, beta, gamma in ((3, 5, 1), (5, 5, 2), (7, 6, 1), (5, 6, 2)):
            yield p, cnf, beta, gamma


@pytest.fixture(scope="module")
def written_graphs(tmp_path_factory):
    """(modulus, graph read back) for the ten seed-82 `count` round formulas
    and the 24 corpus compiles."""
    path = tmp_path_factory.mktemp("written") / "g.hcg"
    out = []
    for p, cnf, *shape in [(p, cnf, 5, 1) for p, cnf in count_round_graphs()] + list(corpus_graphs()):
        write_hcgraph(path, assemble(cnf, p, *shape).graph)
        out.append((p, read_hcgraph(path)))
    return out


def test_written_graphs_contract_like_the_per_vertex_search(written_graphs):
    sizes = []
    for _, g in written_graphs[:10]:
        site_of = contract(g)[1]
        assert site_of == ref_site_of(g)
        sizes.append((len(g.vertices), len(set(site_of.values()))))
    # the 1,402-vertex graphs hold 148 gadgets
    assert (1402, 148) in sizes
    for _, g in written_graphs[10:]:
        assert contract(g)[1] == ref_site_of(g)


def test_written_graphs_count_on_the_fast_paths(written_graphs, monkeypatch, tmp_path):
    # reading a written graph never falls back: the line reader refuses
    def refused(*args):
        raise AssertionError("a written graph left the fast path")

    path = tmp_path / "g.hcg"
    want = []
    for p, g in written_graphs:
        want.append(count_hc_pathdp(g, p))
    monkeypatch.setattr(graphs, "_read_lines", refused)
    for (p, g), w in zip(written_graphs, want):
        write_hcgraph(path, g)
        got = count_hc_pathdp(read_hcgraph(path), p)
        assert (got.value, got.states_peak) == (w.value, w.states_peak)


@pytest.mark.parametrize("base", [-(2**63), 2**63 - 14, 2**70])
def test_ids_at_and_beyond_the_int64_range_contract_alike(base):
    # the same gadget with stubs, its ids shifted: sorted and compared as
    # Python ints once they pass int64
    g = gadget_with_stubs()
    shifted = AnnotatedGraph.from_edges((), sorted((u + base, v + base) for u, v in g.edges))
    assert contract(shifted)[1] == {v + base: s + base for v, s in contract(g)[1].items()}
    assert count_hc_pathdp(shifted).value == count_hc_pathdp(g).value == 1
