"""Graph container, path decompositions, and the file formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchconn.exactalg import CapacityError, ValidationError
from matchconn.graphs import (
    AnnotatedGraph,
    DecompositionError,
    PathDecomposition,
    read_hcgraph,
    read_sidecar,
    write_hcgraph,
    write_sidecar,
)


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

    def test_union_into_merges_shared_vertices(self):
        a = path_graph(3)
        b = AnnotatedGraph()
        b.add_edge(2, 5)
        a.union_into(b)
        assert a.vertices == {1, 2, 3, 5}
        assert a.has_edge(2, 5) and a.has_edge(1, 2)
        assert a.degree(2) == 3

    def test_annotation_must_cover_every_incident_edge(self):
        g = path_graph(3)
        with pytest.raises(ValidationError):
            g.annotate(2, {(1, 2): 1})
        g.annotate(2, {(1, 2): 1, (2, 3): 2})
        assert g.annotations[2] == {(1, 2): 1, (2, 3): 2}

    def test_fresh_id_exceeds_existing(self):
        g = path_graph(5)
        assert g.fresh_id() > 5


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

    def test_relabel(self):
        d = PathDecomposition([(1, 2), (2, 3)])
        r = d.relabel({1: 10, 2: 20, 3: 30})
        assert list(r.bags) == [(10, 20), (20, 30)]


class TestFileFormats:
    def test_round_trip_with_bags(self, tmp_path):
        g = path_graph(4)
        d = PathDecomposition([(1, 2), (2, 3), (3, 4)])
        p = tmp_path / "g.hcg"
        write_hcgraph(p, g, d)
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
        assert getattr(back, "decomposition", None) is None

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

    def test_vertex_ceiling_checked_before_any_vertex(self, tmp_path, monkeypatch):
        p = tmp_path / "huge.hcg"
        p.write_text("hcgraph v1\nn 1000000000000\n")

        def no_vertices(self, v):
            raise AssertionError("a vertex was added before the ceiling check")

        monkeypatch.setattr(AnnotatedGraph, "add_vertex", no_vertices)
        with pytest.raises(CapacityError, match="line 2"):
            read_hcgraph(p)

    def test_sidecar_round_trip(self, tmp_path):
        meta = {"p": 3, "beta": 5, "gamma": 1, "q": 2, "width": 32, "predicted_mod_p": 1}
        p = tmp_path / "g.hcg.json"
        write_sidecar(p, meta)
        assert read_sidecar(p) == meta

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
