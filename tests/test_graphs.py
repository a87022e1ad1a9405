"""Graph container, path decompositions, and the file formats.

The bulk builders (`AnnotatedGraph.from_edges`, the one-join
`write_hcgraph`) are checked against the per-edge versions they replaced,
which stay here as references. A graph with label sites is written as its
expansion, so the writer and `validate_expansion` are checked against the
per-edge expansion `ref_expand_label_gadgets`."""

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchconn.exactalg import CapacityError, ValidationError
from matchconn.graphs import (
    LABEL_GADGET_EDGES,
    AnnotatedGraph,
    DecompositionError,
    PathDecomposition,
    edge_key,
    read_hcgraph,
    write_hcgraph,
    write_sidecar,
)


def occurrence_intervals(bags):
    """Each vertex's first and last bag, and where its run breaks, from one
    pass over the bags: (first, last, gap), where `gap` maps each vertex
    whose bags are not contiguous to the first bag between its first and
    last that lacks it. A vertex listed twice in one bag counts once."""
    first, last, gap = {}, {}, {}
    for i, bag in enumerate(bags):
        for v in bag:
            j = last.get(v)
            if j is None:
                first[v] = i
            elif j == i:
                continue
            elif j != i - 1 and v not in gap:
                gap[v] = j + 1
            last[v] = i
    return first, last, gap


def violations(bags, graph):
    """The messages validate raises for the bags, or [] when they pass."""
    try:
        PathDecomposition([tuple(b) for b in bags]).validate(graph)
    except DecompositionError as err:
        return err.violations
    return []


def path_graph(n):
    g = AnnotatedGraph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for v in range(1, n):
        g.add_edge(v, v + 1)
    return g


class TestAnnotatedGraph:
    def test_add_vertex_is_idempotent(self):
        g = AnnotatedGraph()
        g.add_vertex(1)
        g.add_vertex(1)
        assert g.vertices == {1}

    def test_duplicate_edge_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValidationError):
            g.add_edge(2, 1)

    def test_loop_rejected(self):
        g = path_graph(2)
        with pytest.raises(ValidationError):
            g.add_edge(1, 1)

    def test_add_edge_creates_missing_endpoints(self):
        g = path_graph(2)
        g.add_edge(1, 9)
        assert 9 in g.vertices and g.has_edge(1, 9)

    def test_degree_and_neighbors(self):
        g = path_graph(4)
        assert g.degree(1) == 1
        assert g.degree(2) == 2
        assert g.neighbors(3) == {2, 4}

    def test_sites_stay_labelled(self):
        a = AnnotatedGraph.from_edges((), [(1, 2)], {1: {(1, 2): 1}})
        with pytest.raises(ValidationError, match=r"label site 1 would leave edge \(1, 4\) unlabeled"):
            a.add_edge(1, 4)
        with pytest.raises(ValidationError, match=r"label site 1 would leave edge \(1, 4\) unlabeled"):
            a.add_edge(4, 1)
        assert_same_graph(a, AnnotatedGraph.from_edges((), [(1, 2)], {1: {(1, 2): 1}}))
        # an edge away from every site is fine
        a.add_edge(2, 3)
        assert_same_graph(a, AnnotatedGraph.from_edges((), [(1, 2), (2, 3)], {1: {(1, 2): 1}}))

    def test_annotation_must_cover_every_incident_edge(self):
        edges = [(1, 2), (2, 3), (3, 4)]
        with pytest.raises(ValidationError, match=r"unlabeled: \[\(2, 3\)\]"):
            AnnotatedGraph.from_edges((), edges, {2: {(1, 2): 1}})
        with pytest.raises(ValidationError, match="non-incident edge"):
            AnnotatedGraph.from_edges((), edges, {2: {(1, 2): 1, (2, 3): 2, (3, 4): 1}})
        labels = {2: {(1, 2): 1, (2, 3): 2}}
        g = AnnotatedGraph.from_edges((), edges, labels)
        assert g.annotations == labels
        assert g.annotations[2] is not labels[2]


class TestPathDecomposition:
    def test_valid_path_decomposition(self):
        g = path_graph(4)
        d = PathDecomposition([(1, 2), (2, 3), (3, 4)])
        d.validate(g)
        assert d.width == 1

    def test_missing_edge_detected(self):
        g = path_graph(3)
        d = PathDecomposition([(1, 2), (3,)])
        with pytest.raises(DecompositionError) as err:
            d.validate(g)
        assert "edge" in str(err.value)

    def test_noncontiguous_occurrence_detected(self):
        g = path_graph(3)
        d = PathDecomposition([(1, 2), (2, 3), (1, 3)])
        with pytest.raises(DecompositionError) as err:
            d.validate(g)
        assert "missing from bag" in str(err.value)

    def test_uncovered_vertex_detected(self):
        g = path_graph(3)
        d = PathDecomposition([(1, 2), (2, 3)])
        g.add_vertex(99)
        with pytest.raises(DecompositionError) as err:
            d.validate(g)
        assert "no bag" in str(err.value)

    def test_duplicate_in_one_bag_is_not_a_gap(self):
        g = path_graph(3)
        PathDecomposition([(1, 2, 2), (2, 3, 2)]).validate(g)
        bags = [(1, 2, 2), (3,), (2, 3)]
        assert violations(bags, g) == reference_violations(bags, g)[:20] == [
            "vertex 2 missing from bag 1 inside its run"
        ]

    def test_occurrence_intervals(self):
        first, last, gap = occurrence_intervals([(1, 2), (2, 2), (), (1, 3), (3,)])
        assert first == {1: 0, 2: 0, 3: 3}
        assert last == {1: 3, 2: 1, 3: 4}
        assert gap == {1: 1}


# Each malformed graph file with the message read_hcgraph names it by.
BAD_HCGRAPH_FILES = [
    ("hcgraph v2\nn 1\n", r"bad header 'hcgraph v2'"),
    ("hcgraph v1\nn 3\ne 1 2\nn 3\n", r"line 4: second 'n' line"),
    ("hcgraph v1\nn 1000001\n", r"line 2: 1000001 vertices exceed the 1000000 ceiling"),
    ("hcgraph v1\nn 3\ne 1 x\n", r"line 3: non-integer field in \['1', 'x'\]"),
    ("hcgraph v1\nn 3\ne 1 2\ne 2 4\n", r"edge endpoint outside 1\.\.n"),
    ("hcgraph v1\nn 3\ne 0 2\n", r"edge endpoint outside 1\.\.n"),
    ("hcgraph v1\nn 3\ne 1 2\ne 2 3\ne 2 1\n", r"duplicate edge \(1, 2\)"),
    ("hcgraph v1\nn 3\ne 3 3\n", r"loop edge at vertex 3"),
    ("hcgraph v1\ne 1 2\n", r"missing 'n' line"),
    # used to read as the empty graph, whose count is 1
    ("hcgraph v1\nn -3\n", r"line 2: negative vertex count -3"),
    # ids beyond int64 and below 1 are range-checked, never used as indices
    ("hcgraph v1\nn 3\ne 1 99999999999999999999\n", r"edge endpoint outside 1\.\.n"),
    ("hcgraph v1\nn 3\ne -1 2\n", r"edge endpoint outside 1\.\.n"),
]


class TestFileFormats:
    def test_round_trip_with_bags(self, tmp_path):
        g = path_graph(4)
        d = g.decomposition = PathDecomposition([(1, 2), (2, 3), (3, 4)])
        p = tmp_path / "g.hcg"
        write_hcgraph(p, g)
        back = read_hcgraph(p)
        assert back.vertices == g.vertices
        assert back.edges == g.edges
        assert back.decomposition.bags == d.bags

    def test_round_trip_without_bags(self, tmp_path):
        g = path_graph(3)
        p = tmp_path / "g.hcg"
        write_hcgraph(p, g)
        back = read_hcgraph(p)
        assert back.edges == g.edges
        assert back.decomposition is None

    def test_header_line(self, tmp_path):
        g = path_graph(2)
        p = tmp_path / "g.hcg"
        write_hcgraph(p, g)
        assert p.read_text().splitlines()[0] == "hcgraph v1"

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.hcg"
        p.write_text("hcgraph v2\nn 1\n")
        with pytest.raises(ValidationError):
            read_hcgraph(p)

    @pytest.mark.parametrize("text,message", BAD_HCGRAPH_FILES)
    def test_bad_file_rejected_with_its_message(self, tmp_path, text, message):
        p = tmp_path / "bad.hcg"
        p.write_text(text)
        with pytest.raises(ValidationError, match=message):
            read_hcgraph(p)

    def test_unknown_tag_rejected(self, tmp_path):
        p = tmp_path / "bad.hcg"
        p.write_text("hcgraph v1\nn 2\nq 1 2\n")
        with pytest.raises(ValidationError):
            read_hcgraph(p)

    def test_edge_outside_range_rejected(self, tmp_path):
        p = tmp_path / "bad.hcg"
        p.write_text("hcgraph v1\nn 2\ne 1 3\n")
        with pytest.raises(ValidationError):
            read_hcgraph(p)

    @pytest.mark.parametrize(
        "bag,unknown",
        [("1 2 -1", -1), ("1 2 1000000000000000000", 10**18), ("1 99999999999999999999 2", 10**20 - 1)],
    )
    def test_a_bag_id_outside_1_to_n_is_an_unknown_vertex(self, tmp_path, bag, unknown):
        p = tmp_path / "g.hcg"
        p.write_text(f"hcgraph v1\nn 2\ne 1 2\nbag {bag}\n")
        g = read_hcgraph(p)
        with pytest.raises(DecompositionError, match=f"bag 0 contains unknown vertex {unknown}$"):
            g.decomposition.validate(g)

    def test_a_repeated_bag_vertex_still_validates(self, tmp_path):
        p = tmp_path / "g.hcg"
        p.write_text("hcgraph v1\nn 2\ne 1 2\nbag 1 2 2\n")
        g = read_hcgraph(p)
        assert g.decomposition.bags == [(1, 2, 2)]
        runs = g.decomposition.validate(g)
        assert runs.first.tolist() == [0, 0] and runs.last.tolist() == [0, 0]

    def test_vertex_ceiling_checked_before_any_vertex(self, tmp_path, monkeypatch):
        p = tmp_path / "huge.hcg"
        p.write_text("hcgraph v1\nn 1000000000000\n")

        def no_graph(*args):
            raise AssertionError("a graph was built before the ceiling check")

        monkeypatch.setattr(AnnotatedGraph, "from_edges", no_graph)
        with pytest.raises(CapacityError, match="line 2"):
            read_hcgraph(p)

    def test_sidecar_round_trip(self, tmp_path):
        meta = {"p": 3, "beta": 5, "gamma": 1, "q": 2, "width": 32, "predicted_mod_p": 1}
        p = tmp_path / "g.hcg.json"
        write_sidecar(p, meta)
        assert json.loads(p.read_text(encoding="ascii")) == meta

    @given(st.integers(min_value=2, max_value=9), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_graph_round_trip(self, n, data):
        import tempfile
        from pathlib import Path

        g = AnnotatedGraph()
        for v in range(1, n + 1):
            g.add_vertex(v)
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if data.draw(st.booleans()):
                    g.add_edge(u, v)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "g.hcg"
            write_hcgraph(p, g)
            back = read_hcgraph(p)
        assert back.vertices == g.vertices and back.edges == g.edges


# ---------------------------------------------------------------------------
# references: the per-edge builders and writer the bulk ones replaced


def ref_write_hcgraph(path, graph):
    """write_hcgraph as one write per line, keys rebuilt by edge_key."""
    order = sorted(graph.vertices)
    renum = {v: i + 1 for i, v in enumerate(order)}
    decomp = graph.decomposition
    with open(path, "w", encoding="ascii") as fh:
        fh.write("hcgraph v1\n")
        fh.write(f"n {len(order)}\n")
        for u, v in sorted(edge_key(renum[u], renum[v]) for u, v in graph.edges):
            fh.write(f"e {u} {v}\n")
        if decomp is not None:
            for bag in decomp.bags:
                fh.write("bag " + " ".join(str(renum[v]) for v in bag) + "\n")


def ref_expand_label_gadgets(graph):
    """The graph with every label site replaced by its 9-vertex gadget, one
    add_edge per edge, and its bags rewritten through occurrence_intervals.

    The sorted sites take blocks of nine ids above every id of the graph
    and its bags, role r at offset r - 1, so an unknown bag vertex stays
    unknown; an edge labelled r at a site moves to role r. A site's first
    bag gets all nine ids and its later bags roles 3 and 4; every rewritten
    bag is sorted and lists each id once. A graph without sites comes back
    as it is.
    """
    if not graph.annotations:
        return graph
    out = AnnotatedGraph()
    bags = graph.decomposition.bags if graph.decomposition is not None else []
    base = max(itertools.chain(graph.vertices, *bags), default=0) + 1
    blob = {}
    for v in sorted(graph.annotations):
        blob[v] = {role: base + role - 1 for role in range(1, 10)}
        base += 9
    for v in sorted(graph.vertices):
        if v in blob:
            for w in blob[v].values():
                out.add_vertex(w)
            for r, s in LABEL_GADGET_EDGES:
                out.add_edge(blob[v][r], blob[v][s])
        else:
            out.add_vertex(v)

    def image(v, other):
        if v not in blob:
            return v
        return blob[v][graph.annotations[v][edge_key(v, other)]]

    for u, v in sorted(graph.edges):
        out.add_edge(image(u, v), image(v, u))
    if graph.decomposition is not None:
        first, _, _ = occurrence_intervals(graph.decomposition.bags)
        bags = []
        for idx, bag in enumerate(graph.decomposition.bags):
            new_bag = []
            for v in bag:
                if v not in blob:
                    new_bag.append(v)
                elif idx == first[v]:
                    new_bag.extend(blob[v].values())
                else:
                    new_bag.extend((blob[v][3], blob[v][4]))
            bags.append(tuple(sorted(set(new_bag))))
        out.decomposition = PathDecomposition(bags)
    return out


def assert_same_graph(got, want):
    """Equal vertices, edges, adjacency, annotations and bags."""
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert got._adj == want._adj
    assert got.annotations == want.annotations
    if want.decomposition is None:
        assert got.decomposition is None
    else:
        assert got.decomposition.bags == want.decomposition.bags


@st.composite
def annotated_graphs(draw, ids=st.integers(min_value=-3, max_value=9)):
    """A small graph on arbitrary ids, some vertices annotated."""
    vertices = sorted(draw(st.sets(ids, max_size=8)))
    edges = [e for e in itertools.combinations(vertices, 2) if draw(st.booleans())]
    labels = {}
    for v in vertices:
        incident = [e for e in edges if v in e]
        if incident and draw(st.booleans()):
            labels[v] = {e: draw(st.integers(min_value=1, max_value=4)) for e in incident}
    return AnnotatedGraph.from_edges(vertices, edges, labels)


class TestBulkBuildersAgainstReference:
    @given(st.sets(st.integers(-3, 9)), st.lists(st.tuples(st.integers(-3, 9), st.integers(-3, 9))))
    @settings(max_examples=150, deadline=None)
    def test_from_edges_is_add_edge_in_bulk(self, vertices, pairs):
        keys = list(dict.fromkeys(edge_key(u, v) for u, v in pairs if u != v))
        want = AnnotatedGraph()
        for v in vertices:
            want.add_vertex(v)
        for u, v in keys:
            want.add_edge(u, v)
        assert_same_graph(AnnotatedGraph.from_edges(vertices, keys), want)

    @pytest.mark.parametrize(
        "edges,labels,message",
        [
            ([(1, 2), (2, 3), (1, 2)], None, r"duplicate edge \(1, 2\)"),
            ([(1, 2), (3, 3)], None, r"loop edge at vertex 3"),
            ([(2, 1)], None, r"edge key \(2, 1\) is not sorted"),
            # the four checks a label site gets
            ([(1, 2)], {4: {}}, r"annotating unknown vertex 4"),
            ([(1, 2), (2, 3)], {1: {(1, 2): 1, (2, 3): 2}}, r"non-incident edge \(2, 3\) at 1"),
            ([(1, 2), (2, 3)], {1: {(2, 1): 1}}, r"non-incident edge \(2, 1\) at 1"),
            ([(1, 2)], {1: {(1, 2): 5}}, r"label 5 outside 1\.\.4"),
            ([(1, 2), (1, 3)], {1: {(1, 3): 4}}, r"vertex 1 leaves incident edges unlabeled: \[\(1, 2\)\]"),
        ],
    )
    def test_from_edges_refuses_what_add_edge_refuses(self, edges, labels, message):
        with pytest.raises(ValidationError, match=message):
            AnnotatedGraph.from_edges({1, 2, 3}, edges, labels)

    @given(annotated_graphs(ids=st.integers(min_value=-40, max_value=40)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_write_matches_per_line_writer(self, g, data):
        import tempfile
        from pathlib import Path

        g.annotations = {}
        vertices = sorted(g.vertices)
        bag = st.lists(st.sampled_from(vertices), max_size=5) if vertices else st.just([])
        bags = data.draw(st.one_of(st.none(), st.lists(bag, max_size=4)))
        g.decomposition = None if bags is None else decomposition_from(bags)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.hcg", Path(tmp) / "want.hcg"
            write_hcgraph(got, g)
            ref_write_hcgraph(want, g)
            assert got.read_bytes() == want.read_bytes()


    @given(annotated_graphs(ids=st.integers(min_value=-40, max_value=40)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_write_expands_label_sites_like_the_reference(self, g, data):
        import tempfile
        from pathlib import Path

        vertices = sorted(g.vertices)
        bag = st.lists(st.sampled_from(vertices), max_size=6) if vertices else st.just([])
        bags = data.draw(st.one_of(st.none(), st.lists(bag, max_size=5)))
        g.decomposition = None if bags is None else decomposition_from(bags)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.hcg", Path(tmp) / "want.hcg"
            write_hcgraph(got, g)
            ref_write_hcgraph(want, ref_expand_label_gadgets(g))
            assert got.read_bytes() == want.read_bytes()


class TestWrittenExpansion:
    def test_plain_graph_keeps_its_bags_as_given(self, tmp_path):
        g = path_graph(3)
        p = tmp_path / "g.hcg"
        g.decomposition = PathDecomposition([(2, 1, 1), (3, 2)])
        write_hcgraph(p, g)
        assert p.read_text() == "hcgraph v1\nn 3\ne 1 2\ne 2 3\nbag 2 1 1\nbag 3 2\n"

    def test_single_site_rewiring(self, tmp_path):
        # plain 2 and 3 become 1 and 2; site 1 takes 3..11, role r at 2 + r
        g = AnnotatedGraph.from_edges((), [(1, 2), (1, 3)], {1: {(1, 2): 1, (1, 3): 3}})
        p = tmp_path / "g.hcg"
        g.decomposition = PathDecomposition([(3, 1), (1, 2)])
        write_hcgraph(p, g)
        back = read_hcgraph(p)
        assert len(back.vertices) == 11 and len(back.edges) == 12
        assert back.has_edge(1, 3) and back.has_edge(2, 5)
        assert back.edges - {(1, 3), (2, 5)} == {
            edge_key(r + 2, s + 2) for r, s in LABEL_GADGET_EDGES
        }
        # sorted bags: the site's nine ids first, then its roles 3 and 4
        assert back.decomposition.bags == [(2, *range(3, 12)), (1, 5, 6)]

    def test_a_bag_vertex_the_graph_lacks_is_refused_before_writing(self, tmp_path):
        for sites in ({}, {1: {(1, 2): 1}}):
            g = AnnotatedGraph.from_edges((), [(1, 2)], sites)
            g.decomposition = PathDecomposition([(1, 2), (1, 5)])
            p = tmp_path / "g.hcg"
            with pytest.raises(ValidationError, match="bag 1 contains unknown vertex 5"):
                write_hcgraph(p, g)
            assert not p.exists()

    def test_edge_added_at_a_site_after_construction_is_refused(self, tmp_path):
        g = AnnotatedGraph.from_edges((), [(1, 2), (1, 3)], {1: {(1, 2): 1, (1, 3): 3}})
        with pytest.raises(ValidationError, match=r"label site 1 would leave edge \(1, 4\) unlabeled"):
            g.add_edge(1, 4)
        p = tmp_path / "g.hcg"
        write_hcgraph(p, g)
        assert p.read_text().splitlines()[1] == "n 11"


# ---------------------------------------------------------------------------
# validate_expansion: the label-run rule against validating the expansion


@st.composite
def annotated_decompositions(draw):
    """Bags, valid or damaged, of a graph with label sites on random edges."""
    g, bags = draw(st.one_of(interval_decompositions(max_vertices=7, max_bags=5),
                             damaged_decompositions()))
    edges = sorted(g.edges)
    vertices = sorted(g.vertices)
    sites = draw(st.sets(st.sampled_from(vertices), max_size=4)) if vertices else set()
    labels = {
        v: {e: draw(st.integers(min_value=1, max_value=4)) for e in edges if v in e}
        for v in sorted(sites)
    }
    g = AnnotatedGraph.from_edges(vertices, edges, labels)
    g.decomposition = decomposition_from(bags)
    return g


def assert_expansion_checked_like_the_reference(g):
    """validate_expansion passes iff the expansion's bags validate, and then
    returns their width."""
    x = ref_expand_label_gadgets(g)
    want = reference_violations(x.decomposition.bags, x)
    try:
        width = g.decomposition.validate_expansion(g)
    except DecompositionError:
        assert want
        return False
    assert not want
    assert width == x.decomposition.width
    return True


class TestValidateExpansion:
    @given(annotated_decompositions())
    @settings(max_examples=400, deadline=None)
    def test_passes_exactly_when_the_expansion_validates(self, g):
        assert_expansion_checked_like_the_reference(g)

    @pytest.mark.parametrize("lab,ok", [(1, False), (2, False), (3, True), (4, True)])
    def test_only_roles_3_and_4_reach_past_the_first_bag(self, lab, ok):
        # site 1 starts in bag 0; vertex 2 joins it in bag 1 only
        g = AnnotatedGraph.from_edges((), [(1, 2)], {1: {(1, 2): lab}})
        g.decomposition = PathDecomposition([(1,), (1, 2)])
        g.decomposition.validate(g)
        assert assert_expansion_checked_like_the_reference(g) is ok
        if not ok:
            with pytest.raises(DecompositionError, match=f"edge 1-2 labelled {lab} at site 1 "
                               "misses bag 0"):
                g.decomposition.validate_expansion(g)

    @pytest.mark.parametrize("lab,ok", [(1, False), (2, False), (3, True), (4, True)])
    def test_two_sites_on_one_edge(self, lab, ok):
        # sites 1 and 2 share both bags but start apart; the edge carries
        # label 2 at site 2, so it needs site 1's role `lab` in bag 1
        g = AnnotatedGraph.from_edges((), [(1, 2)], {1: {(1, 2): lab}, 2: {(1, 2): 2}})
        g.decomposition = PathDecomposition([(1,), (1, 2)])
        assert assert_expansion_checked_like_the_reference(g) is ok

    def test_a_site_counts_nine_ids_in_its_first_bag_and_two_later(self):
        # expanded bags: nine ids, then plain 1 and 3 with roles 3 and 4
        g = AnnotatedGraph.from_edges((), [(1, 2), (2, 3)], {2: {(1, 2): 3, (2, 3): 4}})
        g.decomposition = PathDecomposition([(2,), (1, 2, 3)])
        assert g.decomposition.validate_expansion(g) == 8
        assert assert_expansion_checked_like_the_reference(g)
        g.decomposition = PathDecomposition([(1, 2, 3), (1, 2, 3), (2, 3)])
        assert g.decomposition.validate_expansion(g) == 10
        assert assert_expansion_checked_like_the_reference(g)


# ---------------------------------------------------------------------------
# reference: the edge x bag scan that the decomposition check replaced;
# validate words and orders every message the same way


def reference_violations(bags, graph):
    probs = []
    first = {}
    last = {}
    vset = graph.vertices
    for i, bag in enumerate(bags):
        for v in bag:
            if v not in vset:
                probs.append(f"bag {i} contains unknown vertex {v}")
            first.setdefault(v, i)
            last[v] = i
    for v in vset:
        if v not in first:
            probs.append(f"vertex {v} appears in no bag")
    for v, f in first.items():
        for i in range(f, last[v] + 1):
            if v not in bags[i]:
                probs.append(f"vertex {v} missing from bag {i} inside its run")
                break
    bag_sets = [frozenset(b) for b in bags]
    for u, v in graph.edges:
        if not any(u in b and v in b for b in bag_sets):
            probs.append(f"edge {u}-{v} fits in no bag")
    return probs


@st.composite
def interval_decompositions(draw, max_vertices=8, max_bags=7):
    """A graph on 1..n with a valid decomposition: random occurrence
    intervals, bags read off them, edges only between meeting intervals."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    k = draw(st.integers(min_value=1, max_value=max_bags))
    spans = {}
    for v in range(1, n + 1):
        a = draw(st.integers(min_value=0, max_value=k - 1))
        spans[v] = (a, draw(st.integers(min_value=a, max_value=k - 1)))
    g = AnnotatedGraph()
    for v in spans:
        g.add_vertex(v)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            meet = max(spans[u][0], spans[v][0]) <= min(spans[u][1], spans[v][1])
            if meet and draw(st.booleans()):
                g.add_edge(u, v)
    bags = [[v for v in spans if spans[v][0] <= i <= spans[v][1]] for i in range(k)]
    return g, bags


@st.composite
def damaged_decompositions(draw):
    """A valid decomposition after a few random edits: unknown vertices,
    dropped and repeated occurrences, inserted empty bags, shuffled bags,
    and extra edges that may fit no bag."""
    g, bags = draw(interval_decompositions())
    n = len(g.vertices)
    edits = draw(st.lists(st.integers(min_value=0, max_value=5), max_size=4))
    for kind in edits:
        i = draw(st.integers(min_value=0, max_value=len(bags) - 1))
        bag = bags[i]
        if kind == 0:
            bag.insert(draw(st.integers(0, len(bag))), draw(st.integers(n + 1, n + 3)))
        elif kind == 1 and bag:
            del bag[draw(st.integers(0, len(bag) - 1))]
        elif kind == 2 and bag:
            bag.append(draw(st.sampled_from(bag)))
        elif kind == 3:
            bags.insert(i, [])
        elif kind == 4:
            j = draw(st.integers(min_value=0, max_value=len(bags) - 1))
            bags[i], bags[j] = bags[j], bags[i]
        elif kind == 5 and n >= 2:
            u, v = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
            if not g.has_edge(u, v):
                g.add_edge(u, v)
    if draw(st.booleans()):
        g.add_vertex(n + 4)
    return g, [tuple(b) for b in bags]


def decomposition_from(bags):
    return PathDecomposition([tuple(b) for b in bags])


class TestViolationsAgainstReference:
    @given(interval_decompositions())
    @settings(max_examples=150, deadline=None)
    def test_valid_decompositions(self, case):
        g, bags = case
        assert violations(bags, g) == reference_violations(bags, g) == []

    @given(damaged_decompositions())
    @settings(max_examples=400, deadline=None)
    @example((path_graph(3), [(1, 2, 2), (2, 3)]))
    @example((path_graph(3), [(1, 2), (), (2, 3)]))
    def test_damaged_decompositions(self, case):
        g, bags = case
        assert violations(bags, g) == reference_violations(bags, g)[:20]

    @pytest.mark.parametrize(
        "bags,edges,kinds",
        [
            ([(1, 2), (2, 9, 9), (3,)], [(1, 2), (2, 3)], {"unknown", "edge"}),
            ([(1, 2), (2,)], [(1, 2), (2, 3)], {"no bag", "edge"}),
            ([(1, 2), (2, 3), (1, 3)], [(1, 2), (2, 3)], {"missing from bag"}),
            ([(1, 2, 1), (2, 2, 3), (3,)], [(1, 2), (2, 3)], set()),
            ([(), (1, 2), (), (2, 3), ()], [(1, 2), (2, 3)], {"missing from bag"}),
            ([(1, 3), (2,), (1, 2), (3,)], [(1, 2), (2, 3)], {"missing from bag", "edge"}),
            ([(1, 3), (2, 3), (1, 2)], [(1, 2), (1, 3)], {"missing from bag"}),
            ([], [(1, 2), (2, 3)], {"no bag", "edge"}),
        ],
    )
    def test_each_kind_of_damage(self, bags, edges, kinds):
        g = path_graph(3)
        for u, v in edges:
            if not g.has_edge(u, v):
                g.add_edge(u, v)
        got = violations(bags, g)
        assert got == reference_violations(bags, g)[:20]
        for kind in kinds:
            assert any(kind in msg for msg in got)
        assert bool(got) == bool(kinds)

    def test_validate_keeps_the_first_twenty_messages(self):
        g = path_graph(30)
        d = PathDecomposition([(v,) for v in range(1, 31)])
        with pytest.raises(DecompositionError) as err:
            d.validate(g)
        want = reference_violations(d.bags, g)
        assert len(want) == 29
        assert err.value.violations == want[:20]
        assert str(err.value) == "; ".join(want[:20])


# ---------------------------------------------------------------------------
# read_hcgraph against the line reader it was, on written files and on
# files edited away from the writer's layout


def ref_read_hcgraph(path):
    """read_hcgraph as one loop over the lines: each tag dispatched, each
    field converted by int()."""
    edges, bags, declared = [], [], None
    with open(path, encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: byte 0x{exc.object[exc.start]:02x} is not ASCII") from None
    lines = text.splitlines(keepends=True)
    header = lines[0].strip() if lines else ""
    if header != "hcgraph v1":
        raise ValidationError(f"bad header {header!r}, expected 'hcgraph v1'")

    def ints(fields, lineno):
        try:
            return [int(x) for x in fields]
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer field in {fields}") from None

    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "e":
            if len(parts) != 3:
                raise ValidationError(f"line {lineno}: bad edge line")
            u, v = ints(parts[1:], lineno)
            edges.append((min(u, v), max(u, v)))
        elif parts[0] == "bag":
            bags.append(tuple(ints(parts[1:], lineno)))
        elif parts[0] == "n":
            if len(parts) != 2:
                raise ValidationError(f"line {lineno}: bad vertex-count line")
            if declared is not None:
                raise ValidationError(f"line {lineno}: second 'n' line")
            (declared,) = ints(parts[1:], lineno)
            if declared < 0:
                raise ValidationError(f"line {lineno}: negative vertex count {declared}")
            if declared > 1_000_000:
                raise CapacityError(f"line {lineno}: {declared} vertices exceed the 1000000 ceiling")
        else:
            raise ValidationError(f"line {lineno}: unknown tag {parts[0]!r}")
    if declared is None:
        raise ValidationError("missing 'n' line")
    g = AnnotatedGraph.from_edges(range(1, declared + 1), edges)
    if g.vertices and (min(g.vertices) < 1 or max(g.vertices) > declared):
        raise ValidationError("edge endpoint outside 1..n")
    if bags:
        g.decomposition = PathDecomposition(bags)
    return g


def outcome(read, path):
    """The graph read, or the error raised, as comparable values."""
    try:
        g = read(path)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    bags = None if g.decomposition is None else g.decomposition.bags
    return g.vertices, g.edges, g._adj, g.annotations, bags


# edits to one line of a written file, each keeping it ASCII
LINE_EDITS = {
    "blank": lambda line, draw: line + "\n",
    "tab": lambda line, draw: line.replace(" ", "\t", 1),
    "double space": lambda line, draw: line.replace(" ", "  ", 1),
    "trailing space": lambda line, draw: line + " ",
    "carriage return": lambda line, draw: line + "\r",
    "plus": lambda line, draw: line.replace(" ", " +", 1),
    "leading zero": lambda line, draw: line.replace(" ", " 0", 1),
    "underscore": lambda line, draw: line[:-1] + "_" + line[-1:] if line[-2:-1].isdigit() else line,
    "bad token": lambda line, draw: line + " " + draw(
        st.sampled_from(["x", "-1", "0", "1.5", "99999999999999999999", "9223372036854775808", "e", "bag"])
    ),
    "drop token": lambda line, draw: line.rsplit(" ", 1)[0],
    "tag": lambda line, draw: draw(st.sampled_from(["e", "bag", "n", "q", "E", "bags"]))
    + line[line.find(" "):],
}


@st.composite
def edited_files(draw):
    """The text of a written graph on 1..n with bags, or without, after a
    few edits: lines edited, repeated, moved or dropped, and maybe no final
    line end."""
    g, bags = draw(interval_decompositions(max_vertices=7, max_bags=5))
    g.decomposition = None if draw(st.integers(0, 4)) == 0 else decomposition_from(bags)
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "g.hcg"
        write_hcgraph(p, g)
        lines = p.read_text().splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(sorted(LINE_EDITS) + ["repeat", "move", "drop"]))
        if kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind in LINE_EDITS:
            lines[i] = LINE_EDITS[kind](lines[i], draw)
    return "\n".join(lines) + ("\n" if draw(st.integers(0, 5)) else "")


class TestReadAgainstLineReader:
    @given(edited_files())
    @settings(max_examples=400, deadline=None)
    @example("hcgraph v1\nn 3\ne 1 2\ne 2 3\nbag 1 2\nbag 2 3")
    @example("hcgraph v1\nn 1\nbag 1\n\nbag 1")
    @example("hcgraph v1\nn 3\ne 1 2\ne 2 3\nbag 1 2\nbag \nbag 2 3\n")
    @example("hcgraph v1\nn 3\ne 1 2 3\ne 2\n")
    @example("hcgraph v1\nn 3\ne 1 2\nbag 1 2\ne 2 3\nbag 2 3\n")
    @example("hcgraph v1\nn 2\ne 1 2\nbag 1 18446744073709551617\n")
    @example("hcgraph v1\nn 3\ne 1 +2\ne 2 0_3\n")
    @example("hcgraph v1\nn 3\ne 3 3\ne 1 2\ne 1 5\n")
    @example("hcgraph v1\nn 3\ne 1 5\ne 1 2\ne 2 1\n")
    @example("hcgraph v1\nn 1\nbag \nbag \n")
    def test_same_graph_and_bags_or_same_error(self, text):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "g.hcg"
            p.write_text(text, encoding="ascii")
            assert outcome(read_hcgraph, p) == outcome(ref_read_hcgraph, p)

    @pytest.mark.parametrize("text,message", BAD_HCGRAPH_FILES)
    def test_bad_files_name_the_same_error(self, tmp_path, text, message):
        p = tmp_path / "bad.hcg"
        p.write_text(text)
        assert outcome(read_hcgraph, p) == outcome(ref_read_hcgraph, p)

    def test_a_byte_outside_ascii(self, tmp_path):
        p = tmp_path / "bad.hcg"
        p.write_bytes(b"hcgraph v1\nn 2\ne 1 2\nbag 1 \xe9\n")
        assert outcome(read_hcgraph, p) == outcome(ref_read_hcgraph, p)
        assert "byte 0xe9 is not ASCII" in outcome(read_hcgraph, p)[1]

    @given(interval_decompositions(max_vertices=7, max_bags=5))
    @settings(max_examples=60, deadline=None)
    def test_written_files_take_the_array_parse(self, case):
        import tempfile
        from pathlib import Path

        from matchconn import graphs

        g, bags = case
        g.decomposition = decomposition_from(bags)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "g.hcg"
            write_hcgraph(p, g)
            assert graphs._parse_arrays(p.read_bytes()) is not None
            assert_same_graph(read_hcgraph(p), ref_read_hcgraph(p))


# ---------------------------------------------------------------------------
# validate: the one array check, against the vertex-by-vertex reference


class TestValidateAgainstReference:
    @given(st.one_of(interval_decompositions(), damaged_decompositions()))
    @settings(max_examples=400, deadline=None)
    @example((path_graph(3), [(1, 2, 2), (2, 3)]))
    @example((path_graph(3), [(1, 2, 2), (), (2, 3)]))
    @example((path_graph(3), [(1, 2, -1), (2, 3)]))
    @example((path_graph(3), [(1, 2, 2**63), (2, 3, 2**70)]))
    @example((path_graph(3), [(1, 2), (2, 3, 3), (3,), (1,)]))
    @example((AnnotatedGraph.from_edges((1,), []), []))
    @example((path_graph(3), [(1, 2, 2), (3,), (2, 3, 2)]))
    @example((path_graph(3), [(9, 1, 2), (2,), (9, 2, 3)]))
    @example((path_graph(3), [(1, 2), (3,), (1, 2, 3)]))
    @example((path_graph(3), [(2**63, 1, 2), (2,), (2**63, 2, 3)]))
    @example((path_graph(3), [(1, 3), (2,), (1,), (2, 3)]))
    # vertices in no bag are named in set order, here 100 before 40
    @example((AnnotatedGraph.from_edges((40, 100), [(1, 2), (2, 3)]), [(1, 2), (2, 3)]))
    def test_raises_exactly_when_the_reference_finds_violations(self, case):
        g, bags = case
        d = decomposition_from(bags)
        want = reference_violations(d.bags, g)
        if want:
            with pytest.raises(DecompositionError) as err:
                d.validate(g)
            assert err.value.violations == want[:20]
            return
        runs = d.validate(g)
        first, last, _ = occurrence_intervals(d.bags)
        ids = runs.ids.tolist()
        assert ids == sorted(g.vertices)
        assert dict(zip(ids, runs.first.tolist())) == first
        assert dict(zip(ids, runs.last.tolist())) == last
        assert sorted(tuple(ids[i] for i in e) for e in runs.ends.tolist()) == sorted(
            tuple(sorted(e)) for e in g.edges
        ) == sorted(g.edges)

    @pytest.mark.parametrize("base", [-(2**63), 2**62, 2**63, 2**70])
    def test_ids_at_and_beyond_the_int64_range(self, base):
        # sorted ids, compared as Python ints past int64
        g = AnnotatedGraph.from_edges((), [(base, base + 1), (base + 1, base + 5)])
        runs = PathDecomposition([(base, base + 1), (base + 1, base + 5)]).validate(g)
        assert runs.ids.tolist() == [base, base + 1, base + 5]
        assert runs.first.tolist() == [0, 0, 1] and runs.last.tolist() == [0, 1, 1]
        with pytest.raises(DecompositionError, match=f"vertex {base + 5} appears in no bag"):
            PathDecomposition([(base, base + 1)]).validate(g)
