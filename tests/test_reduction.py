"""Formula-to-graph compiler: basis freeze, gadget realization, the clause
algebra, and end-to-end counts.

The block identities are checked against joint fingerprints rebuilt locally
in this file, so the tests do not reuse the compiler's own shape helpers.
The compiler validates only the graph `assemble` returns; the pieces it
builds on the way are validated here instead, and the file written for each
is checked against the per-edge expansion `ref_expand_label_gadgets`.
"""

import hashlib
import itertools
import random
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchconn import graphs, hcount, reduction
from matchconn.checks import CNF_CORPUS, random_gadget_spec
from matchconn.exactalg import ValidationError
from matchconn.graphs import (
    LABEL_GADGET_EDGES,
    AnnotatedGraph,
    DecompositionError,
    PathDecomposition,
    edge_key,
    read_hcgraph,
    site_labels,
    write_hcgraph,
)
from matchconn.hcount import count_hc_pathdp, partial_solution_spectrum
from matchconn.matchings import Fingerprint, Matching, enumerate_fingerprints
from matchconn.reduction import (
    DEFAULT_GADGET_BUDGET,
    MAX_SAT_VARS,
    BasisTooSmallError,
    Cnf,
    GadgetError,
    GadgetSpec,
    assemble,
    build_base_case,
    build_fingerprint_gadget,
    compose_clause,
    count_sat,
    parse_dimacs,
    select_basis,
)
from test_graphs import (
    assert_same_graph,
    ref_expand_label_gadgets,
    ref_write_hcgraph,
)

LEFT_BASIS_TEXTS = (
    "d=11101;M=1-3|2-5",
    "d=11110;M=1-3|2-4",
    "d=11112;M=1-3|2-4",
    "d=11121;M=1-3|2-5",
)
RIGHT_BASIS_TEXTS = (
    "d=11101;M=1-2|3-5",
    "d=11110;M=1-2|3-4",
    "d=11112;M=1-2|3-4",
    "d=11121;M=1-2|3-5",
)


def format_dimacs(cnf):
    """DIMACS text for the formula: the writer parse_dimacs is checked against."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause + (0,)))
    return "\n".join(lines) + "\n"


class TestCnf:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Cnf(-1, ())
        with pytest.raises(ValidationError):
            Cnf(2, ((1, 0),))
        with pytest.raises(ValidationError):
            Cnf(2, ((3,),))

    def test_empty_clause_is_legal(self):
        cnf = Cnf(1, ((),))
        assert cnf.clauses == ((),)


class TestDimacs:
    def test_parse_with_comments_and_terminator(self):
        text = """c a comment
c another
p cnf 3 2
1 -2 0
c mid comment
2 3
-1 0
%
junk after the end
"""
        cnf = parse_dimacs(text)
        assert cnf == Cnf(3, ((1, -2), (2, 3, -1)))

    def test_clause_spanning_lines(self):
        cnf = parse_dimacs("p cnf 2 1\n1\n-2\n0\n")
        assert cnf.clauses == ((1, -2),)

    def test_declared_count_mismatch(self):
        with pytest.raises(ValidationError):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_missing_problem_line(self):
        with pytest.raises(ValidationError):
            parse_dimacs("1 0\n")
        with pytest.raises(ValidationError):
            parse_dimacs("c only comments\n")

    def test_bad_problem_line(self):
        with pytest.raises(ValidationError):
            parse_dimacs("p sat 2 1\n1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ValidationError):
            parse_dimacs("p cnf 2 1\n1 -2\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p cnf two 1\n1 0\n", r"line 1: non-integer field in \['two', '1'\]"),
            ("c comment\np cnf 2 1\n1 x 0\n", r"line 3: non-integer field in \['1', 'x', '0'\]"),
        ],
    )
    def test_non_integer_token_names_its_line(self, text, message):
        with pytest.raises(ValidationError, match=message):
            parse_dimacs(text)

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.integers(1, n).flatmap(
                            lambda v: st.sampled_from([v, -v])
                        ),
                        min_size=0,
                        max_size=4,
                    ),
                    min_size=0,
                    max_size=5,
                ),
            )
        )
    )
    def test_format_parse_round_trip(self, data):
        n, clauses = data
        cnf = Cnf(n, tuple(map(tuple, clauses)))
        assert parse_dimacs(format_dimacs(cnf)) == cnf


class TestCountSat:
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.integers(1, n).flatmap(
                            lambda v: st.sampled_from([v, -v])
                        ),
                        min_size=1,
                        max_size=3,
                    ),
                    min_size=0,
                    max_size=4,
                ),
            )
        )
    )
    def test_matches_truth_table(self, data):
        n, clauses = data
        cnf = Cnf(n, tuple(map(tuple, clauses)))
        expect = 0
        for bits in itertools.product([False, True], repeat=n):
            if all(
                any(bits[abs(l) - 1] == (l > 0) for l in clause)
                for clause in cnf.clauses
            ):
                expect += 1
        assert count_sat(cnf) == expect

    def test_cap(self):
        with pytest.raises(ValidationError):
            count_sat(Cnf(MAX_SAT_VARS + 1, ()))


class TestBasisSelection:
    def test_minimal_block(self):
        params = select_basis(4, 0, 3)
        assert [f.text() for f in params.left_basis] == ["d=1111;M=1-3|2-4"]
        assert [f.text() for f in params.right_basis] == ["d=1111;M=1-2|3-4"]
        assert params.f_matrix[0, 0] == 1

    def test_width_five_block_is_the_antidiagonal(self):
        params = select_basis(5, 1, 3)
        assert [f.text() for f in params.left_basis] == list(LEFT_BASIS_TEXTS)
        assert [f.text() for f in params.right_basis] == list(RIGHT_BASIS_TEXTS)
        for i in range(4):
            for j in range(4):
                assert int(params.f_matrix[i, j]) % 3 == (1 if i + j == 3 else 0)
                assert int(params.f_inverse[i, j]) % 3 == (1 if i + j == 3 else 0)

    def test_encoding_assignments(self):
        params = select_basis(5, 1, 3)
        assert [params.encoding_assignment(i) for i in range(4)] == [
            (0,),
            (1,),
            None,
            None,
        ]
        with pytest.raises(ValidationError):
            params.encoding_assignment(4)
        two = select_basis(5, 2, 3)
        assert [two.encoding_assignment(i) for i in range(4)] == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_basis_is_prime_independent(self):
        a = select_basis(5, 1, 3)
        b = select_basis(5, 1, 5)
        assert [f.text() for f in a.left_basis] == [f.text() for f in b.left_basis]
        assert [f.text() for f in a.right_basis] == [f.text() for f in b.right_basis]

    def test_inverse_column_sums(self):
        # the inverse of a permutation matrix has one 1 per column
        params = select_basis(5, 1, 3)
        for f in params.left_basis:
            assert params.inverse_column_sum(f) == 1

    def test_too_small(self):
        with pytest.raises(BasisTooSmallError) as exc:
            select_basis(4, 1, 3)
        assert exc.value.achieved == 1
        assert exc.value.needed == 2
        assert "increase beta" in str(exc.value)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            select_basis(3, 0, 3)
        with pytest.raises(ValidationError):
            select_basis(5, -1, 3)


def five_fp(degrees, pairs):
    return Fingerprint(tuple(range(1, 6)), degrees, Matching.from_pairs(pairs))


class TestGadgetSpec:
    def setup_method(self):
        self.f1 = five_fp((1, 1, 1, 2, 1), [(1, 2), (3, 5)])
        self.f2 = five_fp((1, 1, 1, 0, 1), [(1, 2), (3, 5)])
        self.f3 = five_fp((1, 1, 1, 1, 0), [(1, 2), (3, 4)])

    def test_make_sorts_and_filters(self):
        spec = GadgetSpec.make((1, 2, 3, 4, 5), (1, 2), {self.f1: 2, self.f2: 1})
        assert spec.total() == 3
        assert dict(spec.counts) == {self.f1: 2, self.f2: 1}
        assert [fp for fp, _ in spec.counts] == sorted([self.f1, self.f2])
        filtered = GadgetSpec.make(
            (1, 2, 3, 4, 5), (1, 2), {self.f1: 1, self.f2: 1, self.f3: 0}
        )
        assert filtered.total() == 2
        assert self.f3 not in dict(filtered.counts)

    def test_boundary_must_be_sorted_distinct(self):
        with pytest.raises(GadgetError):
            GadgetSpec((2, 1, 3, 4, 5), (1, 2), ((self.f1, 1), (self.f2, 1)))

    def test_anchor_validation(self):
        with pytest.raises(GadgetError):
            GadgetSpec.make((1, 2, 3, 4, 5), (1, 1), {self.f1: 1, self.f2: 1})
        with pytest.raises(GadgetError):
            GadgetSpec.make((1, 2, 3, 4, 5), (1, 9), {self.f1: 1, self.f2: 1})

    def test_fingerprints_must_match_anchors(self):
        stray = five_fp((1, 1, 1, 0, 1), [(1, 5), (2, 3)])
        with pytest.raises(GadgetError):
            GadgetSpec.make((1, 2, 3, 4, 5), (1, 2), {self.f1: 1, stray: 1})

    def test_wrong_boundary_rejected(self):
        other = Fingerprint((1, 2, 3), (1, 1, 0), Matching(((1, 2),)))
        with pytest.raises(GadgetError):
            GadgetSpec.make((1, 2, 3, 4, 5), (1, 2), {self.f1: 1, other: 1})

    def test_needs_two_distinct(self):
        with pytest.raises(GadgetError):
            GadgetSpec.make((1, 2, 3, 4, 5), (1, 2), {self.f1: 3})

    def test_negative_multiplicity(self):
        with pytest.raises(GadgetError):
            GadgetSpec((1, 2, 3, 4, 5), (1, 2), ((self.f1, 1), (self.f2, -1)))

    def test_budget(self):
        with pytest.raises(GadgetError):
            GadgetSpec.make(
                (1, 2, 3, 4, 5), (1, 2), {self.f1: 7, self.f2: 6}, budget=12
            )


class TestFingerprintGadget:
    def test_two_fingerprint_spec_realized_exactly(self):
        f1 = five_fp((1, 1, 1, 2, 1), [(1, 2), (3, 5)])
        f2 = five_fp((1, 1, 1, 0, 1), [(1, 2), (3, 5)])
        spec = GadgetSpec.make((1, 2, 3, 4, 5), (1, 2), {f1: 2, f2: 1})
        gadget = build_fingerprint_gadget(spec)
        expanded = ref_expand_label_gadgets(gadget)
        expanded.decomposition.validate(expanded)
        got = partial_solution_spectrum(expanded, (1, 2, 3, 4, 5))
        assert got == {f1: 2, f2: 1}

    def test_gadget_at_the_budget_builds_quickly(self):
        # every fingerprint over (1..6) that matches the anchors, the budget
        # spread evenly: about 1,500 sites, each annotated once
        fps = [f for f in enumerate_fingerprints(range(1, 7)) if (1, 2) in f.matching.pairs]
        q, extra = divmod(DEFAULT_GADGET_BUDGET, len(fps))
        spec = GadgetSpec.make(
            range(1, 7), (1, 2), {f: q + (i < extra) for i, f in enumerate(fps)}
        )
        assert spec.total() == DEFAULT_GADGET_BUDGET
        start = time.perf_counter()
        gadget = build_fingerprint_gadget(spec)
        assert time.perf_counter() - start < 1
        assert len(gadget.vertices) > 1400
        assert len(gadget.annotations) == len(gadget.vertices) - 10

    def test_worked_seven_vertex_example(self):
        # three prescribed fingerprints over a 7-vertex boundary with the
        # anchor pair (6, 7), all multiplicity one; the expanded gadget has
        # 92 vertices and decomposition width 22 and realizes the spectrum
        # with nothing extra
        boundary = tuple(range(1, 8))
        f1 = Fingerprint(boundary, (2, 2, 1, 1, 0, 1, 1), Matching(((3, 4), (6, 7))))
        f2 = Fingerprint(
            boundary, (0, 1, 1, 1, 1, 1, 1), Matching(((2, 3), (4, 5), (6, 7)))
        )
        f3 = Fingerprint(boundary, (0, 0, 0, 1, 1, 1, 1), Matching(((4, 5), (6, 7))))
        spec = GadgetSpec.make(boundary, (6, 7), {f1: 1, f2: 1, f3: 1})
        gadget = build_fingerprint_gadget(spec)
        expanded = ref_expand_label_gadgets(gadget)
        assert len(expanded.vertices) == 92
        assert expanded.decomposition.width == 22
        assert gadget.decomposition.validate_expansion(gadget) == 22
        assert partial_solution_spectrum(expanded, boundary) == {f1: 1, f2: 1, f3: 1}


def blob_graph():
    g = AnnotatedGraph()
    for v in range(1, 10):
        g.add_vertex(v)
    for u, v in LABEL_GADGET_EDGES:
        g.add_edge(u, v)
    return g


class TestLabelBlob:
    def test_edge_list_shape(self):
        assert len(LABEL_GADGET_EDGES) == 10
        assert {v for e in LABEL_GADGET_EDGES for v in e} == set(range(1, 10))

    def test_hamiltonian_path_port_pairs(self):
        # the blob must thread 1 to 2 or 3 to 4 and nothing else, which is
        # what turns used-label multisets into the {1,2}-or-{3,4} dichotomy
        g = blob_graph()
        adj = {v: set(g.neighbors(v)) for v in g.vertices}

        def has_ham_path(s, t):
            def rec(cur, seen):
                if len(seen) == 9:
                    return cur == t
                return any(
                    rec(w, seen | {w})
                    for w in adj[cur]
                    if w not in seen and (w != t or len(seen) == 8)
                )

            return rec(s, {s})

        pairs = {
            (a, b)
            for a, b in itertools.combinations((1, 2, 3, 4), 2)
            if has_ham_path(a, b)
        }
        assert pairs == {(1, 2), (3, 4)}


def joint_fingerprint(f_left, f_right, left_ids, right_ids):
    """Outer fingerprint of one clause block, rebuilt from scratch.

    The left member drops its 1-2 pair and the right one its 1-3 pair; the
    two crossings connect left 1 to right 1 and left 2 to right 3.
    """
    deg = {}
    for j, d in zip(f_left.boundary, f_left.degrees):
        deg[left_ids[j - 1]] = d
    for j, d in zip(f_right.boundary, f_right.degrees):
        deg[right_ids[j - 1]] = d
    pairs = [
        (left_ids[u - 1], left_ids[v - 1])
        for u, v in f_left.matching.pairs
        if (u, v) != (1, 2)
    ]
    pairs += [
        (right_ids[u - 1], right_ids[v - 1])
        for u, v in f_right.matching.pairs
        if (u, v) != (1, 3)
    ]
    pairs.append((left_ids[0], right_ids[0]))
    pairs.append((left_ids[1], right_ids[2]))
    boundary = tuple(sorted(deg))
    return Fingerprint(
        boundary, tuple(deg[v] for v in boundary), Matching.from_pairs(pairs)
    )


def bit_satisfies(clause, variables, bits):
    assign = dict(zip(variables, bits))
    return any(
        (assign.get(abs(l)) is not None) and ((assign[abs(l)] == 1) == (l > 0))
        for l in clause
    )


class TestClauseAlgebra:
    def test_single_block_is_the_gated_inverse(self):
        # with both chain ends internal only the fully-closed interface
        # pattern survives, so the measured spectrum over the two variable
        # blocks must be exactly: satisfied encodings times the inverse
        # combine block, and nothing else
        p = 3
        params = select_basis(5, 1, p)
        L, R = tuple(range(1, 6)), tuple(range(6, 11))
        clause = (1,)
        piece = build_base_case(params, [L], [R], [(1,)], clause, start_id=11)
        expanded = ref_expand_label_gadgets(piece_graph(piece))
        measured = partial_solution_spectrum(expanded, L + R, modulus=p)
        expected = {}
        for idx in range(2):
            f_a = params.right_basis[idx]
            sat = bit_satisfies(clause, (1,), params.encoding_assignment(idx))
            for f_b in params.left_basis:
                mult = params.inverse_entry(f_a, f_b) if sat else 0
                if mult % p:
                    expected[joint_fingerprint(f_a, f_b, L, R)] = mult % p
        assert measured == expected
        assert len(expected) == 1

    @pytest.mark.parametrize(
        "c1,c2,support",
        [
            ((1,), (1,), 1),
            ((1,), (-1,), 0),
        ],
    )
    def test_composition_telescopes(self, c1, c2, support):
        # gluing two columns and measuring across multiplies the per-column
        # matrices through the combine block: C1 * F * C2. Repeating the
        # clause leaves one surviving entry; contradicting it leaves none,
        # because the middle transfer never mixes encodings
        p = 5
        params = select_basis(5, 1, p)
        L, M, R = tuple(range(1, 6)), tuple(range(6, 11)), tuple(range(11, 16))
        piece1 = build_base_case(params, [L], [M], [(1,)], c1, start_id=16)
        piece2 = build_base_case(params, [M], [R], [(1,)], c2, start_id=next_id(piece1))
        expanded = ref_expand_label_gadgets(piece_graph(compose_clause(piece1, piece2)))
        measured = partial_solution_spectrum(expanded, L + R, modulus=p)

        n = len(params.right_basis)

        def gate(clause):
            out = []
            for i in range(n):
                bits = params.encoding_assignment(i)
                out.append(
                    1 if bits is not None and bit_satisfies(clause, (1,), bits) else 0
                )
            return out

        Finv = [
            [int(params.f_inverse[i, j]) % p for j in range(n)] for i in range(n)
        ]
        F = [[int(params.f_matrix[i, j]) % p for j in range(n)] for i in range(n)]
        C1 = [[gate(c1)[i] * Finv[i][j] % p for j in range(n)] for i in range(n)]
        C2 = [[gate(c2)[i] * Finv[i][j] % p for j in range(n)] for i in range(n)]

        def mm(A, B):
            return [
                [
                    sum(A[i][k] * B[k][j] for k in range(n)) % p
                    for j in range(n)
                ]
                for i in range(n)
            ]

        prod = mm(mm(C1, F), C2)
        expected = {}
        for i in range(n):
            for j in range(n):
                if prod[i][j]:
                    fp = joint_fingerprint(
                        params.right_basis[i], params.left_basis[j], L, R
                    )
                    expected[fp] = prod[i][j]
        assert measured == expected
        assert len(expected) == support

    def test_contradictory_pair_counts_zero_models(self):
        # same two clauses as above, closed up by the full pipeline
        out = assemble(Cnf(1, ((1,), (-1,))), 3)
        res = count_hc_pathdp(out.graph, modulus=3)
        assert out.predicted == 0
        assert res.value == 0

    def test_compose_requires_shared_boundary(self):
        p = 3
        params = select_basis(5, 1, p)
        L, M, R = tuple(range(1, 6)), tuple(range(6, 11)), tuple(range(11, 16))
        piece1 = build_base_case(params, [L], [M], [(1,)], (1,), start_id=16)
        piece3 = build_base_case(params, [R], [L], [(1,)], (1,), start_id=next_id(piece1))
        with pytest.raises(ValidationError):
            compose_clause(piece1, piece3)

    def test_base_case_needs_blocks(self):
        params = select_basis(5, 1, 3)
        with pytest.raises(ValidationError):
            build_base_case(params, [], [], [], (1,), start_id=1)


class TestAssemble:
    @pytest.mark.parametrize(
        "cnf,p",
        [
            (Cnf(1, ((1,),)), 3),
            (Cnf(1, ((-1,),)), 3),
            (Cnf(2, ((1, 2),)), 5),
        ],
    )
    def test_count_round_trip(self, cnf, p):
        out = assemble(cnf, p)
        assert out.predicted == count_sat(cnf) % p
        res = count_hc_pathdp(out.graph, modulus=p)
        assert res.value == out.predicted
        assert res.modulus == p

    @pytest.mark.parametrize("name,cnf", CNF_CORPUS)
    def test_contracted_sweep_counts_exactly_what_the_expanded_one_does(
        self, monkeypatch, tmp_path, name, cnf
    ):
        for p in (3, 5):
            out = assemble(cnf, p)
            written = write_and_read(tmp_path, out)
            fast = count_hc_pathdp(written)
            with monkeypatch.context() as m:
                m.setattr(
                    hcount,
                    "_contract_label_gadgets",
                    lambda graph, runs, keep: (
                        np.arange(len(runs.ids)), np.zeros(len(runs.ids), np.int64)
                    ),
                )
                slow = count_hc_pathdp(written)
            assert fast.value == slow.value == count_sat(out.padded_cnf)
            assert count_hc_pathdp(written, p).value == out.predicted

    @pytest.mark.parametrize("name,cnf", CNF_CORPUS)
    def test_compiled_graphs_count_before_expansion(self, tmp_path, name, cnf):
        # the library path: the sweep reads the assembled graph's label
        # sites directly, and counts what the written file counts
        out = assemble(cnf, 5)
        assert out.graph.annotations
        counted = count_hc_pathdp(out.graph)
        written = write_and_read(tmp_path, out)
        assert counted.value == count_hc_pathdp(written).value
        assert counted.value % 5 == out.predicted

    def test_output_contract(self, tmp_path):
        out = assemble(Cnf(1, ((1,),)), 3)
        assert set(out.sidecar()) == {
            "p",
            "beta",
            "gamma",
            "q",
            "width",
            "predicted_mod_p",
        }
        assert out.width <= out.width_bound == out.q * 5 + 6 * 5
        written = write_and_read(tmp_path, out)
        assert written.annotations == {}
        written.decomposition.validate(written)
        assert written.decomposition.width == out.width
        sites = len(out.graph.annotations)
        assert len(written.vertices) == len(out.graph.vertices) + 8 * sites
        assert len(written.edges) == len(out.graph.edges) + 10 * sites
        assert out.pad_vars == 0
        assert out.padded_cnf == Cnf(1, ((1,),))

    def test_empty_formula_needs_flag(self):
        with pytest.raises(ValidationError, match="formula has no clauses"):
            assemble(Cnf(0, ()), 3)

    def test_empty_clause_kills_every_model(self):
        out = assemble(Cnf(1, ((),)), 3)
        assert out.predicted == 0
        res = count_hc_pathdp(out.graph, modulus=3)
        assert res.value == 0

    def test_padding_with_wider_encoding(self):
        out = assemble(Cnf(1, ((1,),)), 3, beta=5, gamma=2)
        assert out.pad_vars == 1
        assert out.q == 1
        assert out.padded_cnf == Cnf(2, ((1,),))
        # the padding variable is free, so the padded model count doubles
        assert out.predicted == 2
        res = count_hc_pathdp(out.graph, modulus=3)
        assert res.value == 2

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValidationError):
            assemble(Cnf(1, ((1,),)), 3, gamma=0)

    def test_too_many_variables_refused_before_select_basis(self, monkeypatch):
        def no_basis(*args):
            raise AssertionError("select_basis ran")

        monkeypatch.setattr(reduction, "select_basis", no_basis)
        for cnf, gamma in ((Cnf(200, ((1,),)), 1), (Cnf(MAX_SAT_VARS, ((1,),)), 3)):
            with pytest.raises(ValidationError, match=f"exceed the brute-force cap {MAX_SAT_VARS}"):
                assemble(cnf, 3, gamma=gamma)

    def test_stage_prefix_on_failures(self):
        with pytest.raises(ValidationError) as exc:
            assemble(Cnf(1, ((1,),)), 3, beta=4)
        assert str(exc.value).startswith("[select_basis]")


# ---------------------------------------------------------------------------
# the pieces the compiler no longer validates, and its single validation


def ref_build_fingerprint_gadget(spec, start_id=None):
    """build_fingerprint_gadget as one add_edge per edge, the labels of each
    site collected on the way."""
    a, b = spec.anchors
    graph = AnnotatedGraph()
    for v in spec.boundary:
        graph.add_vertex(v)
    ids = itertools.count(start_id if start_id is not None else max(spec.boundary) + 1)
    tail_mid = next(ids)
    chain_start = next(ids)
    collector = next(ids)
    entry_hub = next(ids)
    graph.add_edge(a, tail_mid)
    graph.add_edge(tail_mid, chain_start)
    graph.add_edge(collector, entry_hub)

    sequence = []
    for fp, mult in spec.counts:
        sequence.extend([fp] * mult)

    labels = {}

    def mark(site, u, v, lab):
        labels.setdefault(site, {})[edge_key(u, v)] = lab

    anchor_pair = edge_key(a, b)
    chains = []
    for fp in sequence:
        two = sorted(fp.degree_set(2))
        path = [chain_start, *two, collector]
        edge_seq = list(zip(path, path[1:]))
        edge_seq.extend(p for p in fp.matching.pairs if p != anchor_pair)
        sites = []
        for u, v in edge_seq:
            site = next(ids)
            graph.add_vertex(site)
            graph.add_edge(site, u)
            mark(site, site, u, 1)
            graph.add_edge(site, v)
            mark(site, site, v, 2)
            if sites:
                prev = sites[-1]
                graph.add_edge(prev, site)
                mark(prev, prev, site, 4)
                mark(site, prev, site, 3)
            sites.append(site)
        chains.append(sites)

    for i in range(1, len(chains)):
        u, v = chains[i - 1][-1], chains[i][0]
        graph.add_edge(u, v)
        mark(u, u, v, 4)
        mark(v, u, v, 3)
    for i in range(2, len(chains)):
        u, v = chains[i - 2][-1], chains[i][0]
        graph.add_edge(u, v)
        mark(u, u, v, 4)
        mark(v, u, v, 3)
    for i in (0, 1):
        head = chains[i][0]
        graph.add_edge(entry_hub, head)
        mark(head, entry_hub, head, 3)
    for i in (len(chains) - 2, len(chains) - 1):
        last = chains[i][-1]
        graph.add_edge(last, b)
        mark(last, last, b, 4)
    graph.annotations = labels

    core = tuple(sorted(set(spec.boundary) | {chain_start, collector, entry_hub}))
    bags = [tuple(sorted(core + (tail_mid,)))]
    for ci, sites in enumerate(chains):
        for j, site in enumerate(sites):
            extra = {site}
            if j > 0:
                extra.add(sites[j - 1])
            if ci > 0:
                extra.add(chains[ci - 1][-1])
            if ci > 1 and j == 0:
                extra.add(chains[ci - 2][-1])
            bags.append(tuple(sorted(set(core) | extra)))
    graph.decomposition = PathDecomposition(bags)
    return graph


class TestGadgetAgainstReference:
    @pytest.mark.parametrize("seed", range(50))
    def test_random_specs_match_the_per_edge_builder(self, seed):
        rng = random.Random(seed)
        boundary = tuple(range(1, rng.choice([5, 6, 7]) + 1))
        spec = random_gadget_spec(rng, boundary=boundary, budget=rng.choice([12, 64]))
        start_id = rng.choice([None, len(spec.boundary) + 1 + rng.randrange(100)])
        got = build_fingerprint_gadget(spec, start_id)
        assert_same_graph(got, ref_build_fingerprint_gadget(spec, start_id))

    def test_start_id_must_exceed_the_boundary(self):
        spec = random_gadget_spec(random.Random(0))
        with pytest.raises(GadgetError, match="does not exceed the boundary"):
            build_fingerprint_gadget(spec, spec.boundary[-1])


def write_and_read(tmp_path, out):
    """The graph `reduce` writes for an assemble output, read back."""
    path = tmp_path / "out.hcg"
    write_hcgraph(path, out.graph)
    return read_hcgraph(path)


def assert_written_like_the_reference(graph):
    """The file written for the graph and its bags equals the per-line
    writer's on the per-edge expansion, whose bags are valid and as wide as
    validate_expansion says."""
    expanded = ref_expand_label_gadgets(graph)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.hcg", Path(tmp) / "want.hcg"
        write_hcgraph(got, graph)
        ref_write_hcgraph(want, expanded)
        assert got.read_bytes() == want.read_bytes()
    expanded.decomposition.validate(expanded)
    assert graph.decomposition.validate_expansion(graph) == expanded.decomposition.width
    return expanded


def clause_pieces(params, clauses, q=1):
    """Base cases for consecutive clauses over q blocks of one variable each."""
    beta = params.beta
    ids = itertools.count(1)
    boundaries = [
        [tuple(next(ids) for _ in range(beta)) for _ in range(q)]
        for _ in range(len(clauses) + 1)
    ]
    start = next(ids)
    pieces = []
    for j, clause in enumerate(clauses):
        piece = build_base_case(
            params, boundaries[j], boundaries[j + 1], [(i + 1,) for i in range(q)], clause, start
        )
        start = next_id(piece)
        pieces.append(piece)
    return pieces


def next_id(piece):
    """The first id above the vertices of a clause piece."""
    return max(map(max, piece.bags)) + 1


def piece_graph(piece):
    """The graph of a clause piece, on the vertices of its bags, with its
    bags as the decomposition."""
    graph = AnnotatedGraph.from_edges(
        itertools.chain.from_iterable(piece.bags), piece.edges, site_labels(piece.edges, piece.tags)
    )
    graph.decomposition = PathDecomposition(piece.bags)
    return graph


class TestPiecesValidateOutsideTheCompiler:
    @given(st.integers(min_value=0, max_value=2**32), st.sampled_from([5, 6, 7]))
    @settings(max_examples=40, deadline=None)
    def test_random_gadgets_and_their_expansions(self, seed, size):
        spec = random_gadget_spec(random.Random(seed), boundary=tuple(range(1, size + 1)))
        gadget = build_fingerprint_gadget(spec)
        gadget.decomposition.validate(gadget)
        assert_written_like_the_reference(gadget)

    def test_gadget_with_a_repeated_bag_vertex_expands_like_the_reference(self):
        spec = random_gadget_spec(random.Random(7))
        gadget = build_fingerprint_gadget(spec)
        bags = gadget.decomposition.bags
        site = next(v for v in bags[1] if v in gadget.annotations)
        bags[1] = bags[1] + (site,)
        bags[2] = bags[2] + tuple(v for v in bags[2] if v in gadget.annotations)
        assert_written_like_the_reference(gadget)

    @pytest.mark.parametrize("beta,p", [(5, 3), (5, 5), (6, 5)])
    @pytest.mark.parametrize("q", [1, 2])
    def test_base_cases_columns_and_expansions(self, beta, p, q):
        params = select_basis(beta, 1, p)
        pieces = clause_pieces(params, [(1,), (-1, q), (q,)][: q + 1], q=q)
        for piece in pieces:
            graph = piece_graph(piece)
            graph.decomposition.validate(graph)
        column = piece_graph(compose_clause(*pieces))
        column.decomposition.validate(column)
        assert_written_like_the_reference(column)

    def test_column_of_three_equals_pairwise_gluing(self):
        params = select_basis(5, 1, 3)
        p1, p2, p3 = clause_pieces(params, [(1,), (-1,), (1,)])
        once = compose_clause(p1, p2, p3)
        twice = compose_clause(compose_clause(p1, p2), p3)
        assert_same_graph(piece_graph(once), piece_graph(twice))
        assert once.bags == twice.bags
        assert (once.left_blocks, once.right_blocks) == (p1.left_blocks, p3.right_blocks)
        alone = compose_clause(p1)
        assert_same_graph(piece_graph(alone), piece_graph(p1))
        assert alone.edges is not p1.edges
        assert alone.tags is not p1.tags
        assert alone.bags is not p1.bags

    def test_compose_refuses_an_edge_inside_the_shared_boundary(self):
        params = select_basis(5, 1, 3)
        p1, p2 = clause_pieces(params, [(1,), (1,)])
        a, b = p2.left_blocks[0][:2]
        p2.edges.append((a, b))
        with pytest.raises(ValidationError, match=f"not independent in the right piece .edge {a}-{b}"):
            compose_clause(p1, p2)

    def test_compose_refuses_overlap_with_an_earlier_piece(self):
        # the third piece reuses an interior id of the first, which is not on
        # any boundary the third piece shares
        params = select_basis(5, 1, 3)
        p1, p2, p3 = clause_pieces(params, [(1,), (1,), (1,)])
        interior = max(itertools.chain.from_iterable(p1.bags))
        p3.bags.append((interior,))
        with pytest.raises(ValidationError, match=f"overlap off the shared boundary: .{interior}"):
            compose_clause(p1, p2, p3)
        with pytest.raises(ValidationError):
            compose_clause()


# (p, beta, gamma) of the corpus compiles checked against the references
COMPILE_SHAPES = ((3, 5, 1), (5, 5, 2), (7, 6, 1), (5, 6, 2))


class TestSingleValidation:
    def test_assemble_validates_exactly_once(self, monkeypatch):
        # one decomposition check, on arrays: no graph is passed to it
        calls = []
        bag_runs = graphs._bag_runs

        def spy(bags, graph, edges=None):
            calls.append(graph)
            return bag_runs(bags, graph, edges)

        monkeypatch.setattr(graphs, "_bag_runs", spy)
        out = assemble(CNF_CORPUS[4][1], 5)
        assert calls == [None]
        assert out.written.runs.count == len(out.graph.decomposition.bags)

    def test_a_corrupted_piece_fails_the_final_validation(self, monkeypatch):
        parts = reduction._gadget_parts
        built = []

        def drop_last_bag(spec, start_id):
            edges, tags, bags, after = parts(spec, start_id)
            built.append(spec)
            if len(built) == 3:
                bags.pop()
            return edges, tags, bags, after

        monkeypatch.setattr(reduction, "_gadget_parts", drop_last_bag)
        with pytest.raises(DecompositionError) as exc:
            assemble(CNF_CORPUS[4][1], 5)
        assert str(exc.value).startswith("[assemble] ")
        assert len(built) > 3

    @pytest.mark.parametrize("defect", ["duplicate", "loop", "unsorted", "label 5", "unlabelled"])
    def test_the_array_check_refuses_what_from_edges_refuses(self, monkeypatch, defect):
        # one defect in the third gadget's parts; assemble refuses it with
        # the words from_edges has for the same gadget
        parts = reduction._gadget_parts
        built, refused = [], []

        def damage(spec, start_id):
            edges, tags, bags, after = parts(spec, start_id)
            built.append(spec)
            if len(built) == 3:
                (u, v), site = edges[0], tags.index((0, 1))
                if defect == "duplicate":
                    edges.append((u, v))
                    tags.append((0, 0))
                elif defect in ("loop", "unsorted"):
                    edges.append((v, v) if defect == "loop" else (v, u))
                    tags.append((0, 0))
                else:
                    tags[site] = (0, 5) if defect == "label 5" else (0, 0)
                with pytest.raises(ValidationError) as exc:
                    AnnotatedGraph.from_edges(spec.boundary, edges, site_labels(edges, tags))
                refused.append(str(exc.value))
            return edges, tags, bags, after

        monkeypatch.setattr(reduction, "_gadget_parts", damage)
        with pytest.raises(ValidationError) as exc:
            assemble(CNF_CORPUS[4][1], 5)
        assert str(exc.value) == f"[assemble] {refused[0]}"
        assert not isinstance(exc.value, DecompositionError)
        words = {"duplicate": "duplicate edge", "loop": "loop edge at vertex", "unsorted": "is not sorted",
                 "label 5": "label 5 outside 1..4", "unlabelled": "leaves incident edges unlabeled"}
        assert words[defect] in refused[0]

    @pytest.mark.parametrize("name,cnf", CNF_CORPUS)
    def test_corpus_compiles_match_the_per_edge_builders(self, tmp_path, monkeypatch, name, cnf):
        # assemble builds no graph; the one its output builds on first
        # access is written byte for byte as the arrays it checked are
        def no_graph(*args):
            raise AssertionError("assemble built a graph")

        for p, beta, gamma in COMPILE_SHAPES:
            with monkeypatch.context() as patch:
                patch.setattr(AnnotatedGraph, "__init__", no_graph)
                patch.setattr(reduction, "build_fingerprint_gadget", no_graph)
                out = assemble(cnf, p, beta=beta, gamma=gamma)
            assert out.graph is out.graph
            write_hcgraph(tmp_path / "arrays.hcg", out.written)
            write_hcgraph(tmp_path / "graph.hcg", out.graph)
            assert (tmp_path / "arrays.hcg").read_bytes() == (tmp_path / "graph.hcg").read_bytes()
            expanded = assert_written_like_the_reference(out.graph)
            assert out.width == expanded.decomposition.width

    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(st.lists(st.integers(min_value=-3, max_value=3).filter(bool), max_size=3),
                 min_size=1, max_size=3),
        st.sampled_from(COMPILE_SHAPES),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_compiles_are_written_like_the_reference(self, num_vars, clauses, shape):
        p, beta, gamma = shape
        cnf = Cnf(num_vars, tuple(tuple(l for l in c if abs(l) <= num_vars) for c in clauses))
        out = assemble(cnf, p, beta=beta, gamma=gamma)
        expanded = assert_written_like_the_reference(out.graph)
        assert out.width == expanded.decomposition.width


# write_hcgraph output measured before the single kernel and before the
# single validation: select_basis must keep choosing the same interface
# basis, and the compiler must keep building the same graph. The gamma = 2
# shapes pad one variable.
GOLDEN_HCGRAPH_SHA256 = {
    (4, 5, 5, 1): "906a6ac9afef3fa3b2d8b7d0501a499d3801f88c922e6d544a22859c486bbea9",
    (3, 3, 5, 1): "b05ca8d199c0ea9fbf9e9f78b4f308415390e53df333ff36e20f166ecd0b04d9",
    (2, 5, 5, 2): "95640c6b304062dbdaeee8a529484d887f97756efd264fe8709e16d2a6cf22e4",
    (2, 5, 6, 2): "9c374479e886be46d6f5a8676524adc53b7b4be1304e4a26718644b96e1f8ab0",
}


@pytest.mark.parametrize("corpus_index,p,beta,gamma", sorted(GOLDEN_HCGRAPH_SHA256))
def test_compiled_graph_bytes_unchanged(tmp_path, corpus_index, p, beta, gamma):
    result = assemble(CNF_CORPUS[corpus_index][1], p, beta=beta, gamma=gamma)
    assert result.pad_vars == (1 if gamma == 2 else 0)
    path = tmp_path / "g.hcg"
    write_hcgraph(path, result.graph)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_HCGRAPH_SHA256[(corpus_index, p, beta, gamma)]
