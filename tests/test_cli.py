"""Command-line surface: exit codes, report stability, file round trips."""

import hashlib
import json
import re
import time

import pytest

from matchconn import __version__, cli, hcount, reduction
from matchconn.checks import CNF_CORPUS, PUBLISHED
from matchconn.cli import MAX_TABLEAUX_N, main
from matchconn.graphs import AnnotatedGraph, PathDecomposition, write_hcgraph
from matchconn.matchings import build_H, build_M
from test_graphs import BAD_HCGRAPH_FILES
from test_reduction import GOLDEN_HCGRAPH_SHA256, format_dimacs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_prints_the_order_six_value(capsys):
    code, out, _ = run(capsys, "det", "--k", "6")
    assert code == 0
    assert "-131072" in out
    assert out.startswith("# matchconn")
    assert "# command: det" in out


def test_det_over_the_bareiss_ceiling_exits_2(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "det", "--kind", "M", "--k", "10")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "ceiling" in err and out == ""


def test_rank_mod_p(capsys):
    code, out, _ = run(capsys, "rank", "--k", "10", "--field", "p:7")
    assert code == 0
    assert str(PUBLISHED["ranks_order_10_mod_p"][7]) in out


@pytest.mark.parametrize("p", [65537, 999983])
def test_rank_mod_primes_up_to_the_elimination_ceiling(capsys, p):
    code, out, _ = run(capsys, "rank", "--k", "8", "--field", f"p:{p}")
    assert code == 0
    assert out.splitlines()[-1] == "105"


def test_rank_mod_a_prime_above_the_elimination_ceiling_exits_2(capsys):
    code, out, err = run(capsys, "rank", "--k", "8", "--field", "p:1000033")
    assert code == 2 and out == ""
    assert "float64 elimination ceiling 1000003" in err


def test_a_bad_memory_setting_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("MATCHCONN_MEMORY_MB", "abc")
    code, out, err = run(capsys, "rank", "--kind", "M", "--k", "4", "--field", "p:7")
    assert code == 2 and out == ""
    assert "MATCHCONN_MEMORY_MB='abc'" in err


def test_rank_rational(capsys):
    code, out, _ = run(capsys, "rank", "--k", "6", "--field", "q")
    assert code == 0
    assert "15" in out


def test_rank_rejects_odd_order(capsys):
    code, _, err = run(capsys, "rank", "--k", "7", "--field", "q")
    assert code == 2
    assert "error:" in err


def test_bad_field_token(capsys):
    code, _, err = run(capsys, "rank", "--k", "6", "--field", "gf4")
    assert code == 2
    assert "error:" in err


def test_non_numeric_prime_is_bad_input(capsys):
    code, _, err = run(capsys, "rank", "--k", "4", "--field", "p:x")
    assert code == 2
    assert "error:" in err


def test_field_token_is_case_insensitive(capsys):
    code, out, _ = run(capsys, "rank", "--k", "4", "--field", "Q")
    assert code == 0
    assert out.splitlines()[-1] == "3"


@pytest.mark.parametrize(
    "body", ["n abc", "n", "n 3\ne 1 x", "n 3\nbag 1 x", "n 1000000000000"]
)
def test_malformed_graph_lines_are_bad_input(tmp_path, capsys, body):
    graph = tmp_path / "bad.hcg"
    graph.write_text(f"hcgraph v1\n{body}\n", encoding="ascii")
    code, _, err = run(capsys, "count", "--graph", str(graph))
    assert code == 2
    assert err.startswith("error: line ")


def test_dp_state_ceiling_is_over_capacity(tmp_path, capsys, monkeypatch):
    g = AnnotatedGraph()
    for u in range(1, 6):
        for v in range(u + 1, 6):
            g.add_edge(u, v)
    graph = tmp_path / "k5.hcg"
    g.decomposition = PathDecomposition([(1, 2, 3, 4, 5)])
    write_hcgraph(graph, g)
    monkeypatch.setattr(hcount, "MAX_DP_STATES", 3)
    code, _, err = run(capsys, "count", "--graph", str(graph))
    assert code == 2
    assert "ceiling" in err


def test_count_mod_takes_any_modulus(tmp_path, capsys):
    # K5 has 12 Hamiltonian cycles, 3 mod 9
    g = AnnotatedGraph.from_edges((), [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    g.decomposition = PathDecomposition([(1, 2, 3, 4, 5)])
    graph = tmp_path / "k5.hcg"
    write_hcgraph(graph, g)
    code, out, _ = run(capsys, "count", "--graph", str(graph), "--mod", "9")
    assert code == 0
    assert json.loads(out)["residue"] == 3


def four_cycle_file(tmp_path, bags):
    g = AnnotatedGraph()
    for u, v in ((1, 2), (2, 3), (3, 4), (4, 1)):
        g.add_edge(u, v)
    path = tmp_path / "c4.hcg"
    g.decomposition = PathDecomposition(bags) if bags else None
    write_hcgraph(path, g)
    return path


@pytest.mark.parametrize("bags", [None, [(1, 2, 3, 4)]], ids=["brute-force", "decomposed"])
@pytest.mark.parametrize("mod", ["0", "1", "-1"])
def test_count_rejects_a_modulus_below_two(tmp_path, capsys, bags, mod):
    graph = four_cycle_file(tmp_path, bags)
    code, out, err = run(capsys, "count", "--graph", str(graph), "--mod", mod)
    assert code == 2
    assert out == ""
    assert f"modulus {mod} must be at least 2" in err


@pytest.mark.parametrize("bags", [None, [(1, 2, 3, 4)]], ids=["brute-force", "decomposed"])
def test_count_residue_of_a_four_cycle(tmp_path, capsys, bags):
    graph = four_cycle_file(tmp_path, bags)
    code, out, _ = run(capsys, "count", "--graph", str(graph), "--mod", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["residue"], payload["modulus"]) == (1, 3)


def test_spectrum_table(capsys):
    code, out, _ = run(capsys, "spectrum", "4")
    assert code == 0
    assert "-6" in out and "14" in out
    assert "56" in out


def test_tableaux_listing(capsys):
    code, out, _ = run(capsys, "tableaux", "3")
    assert code == 0
    assert "15" in out


def test_tableaux_above_the_ceiling_is_over_capacity(capsys):
    code, out, err = run(capsys, "tableaux", str(MAX_TABLEAUX_N + 1))
    assert code == 2
    assert out == ""
    assert "ceiling" in err


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_tableaux_below_two_is_bad_input(capsys, n):
    # the report's rows start at n = 2, so a smaller n would report nothing
    code, out, err = run(capsys, "tableaux", n)
    assert code == 2
    assert out == ""
    assert f"tableaux report n={n} is outside 2..{MAX_TABLEAUX_N}" in err


def test_amplify_reports_identity(capsys):
    code, out, _ = run(capsys, "amplify", "--B", "4", "--t", "2", "--p", "3")
    assert code == 0
    assert "ok" in out.lower() or "holds" in out.lower()


def test_amplify_without_a_base_is_bad_input(capsys):
    code, _, err = run(capsys, "amplify", "--p", "5", "--B", "0")
    assert code == 2
    assert "need base size >= 2" in err


def test_amplify_over_the_family_ceiling_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "amplify", "--B", "6", "--t", "3", "--p", "5")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "exceeds the ceiling" in err


def test_amplify_over_the_copies_ceiling_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "amplify", "--B", "2", "--t", "1000000000", "--p", "5")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "copies exceeds the ceiling" in err


def test_basis_report_is_byte_identical_across_runs(capsys):
    code1, out1, _ = run(capsys, "basis", "--beta", "5", "--gamma", "1", "--p", "3")
    code2, out2, _ = run(capsys, "basis", "--beta", "5", "--gamma", "1", "--p", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "d=11101;M=1-3|2-5" in out1


def test_basis_too_small_is_a_validation_failure(capsys):
    code, _, err = run(capsys, "basis", "--beta", "4", "--gamma", "1", "--p", "3")
    assert code == 2
    assert "increase beta" in err


def test_reduce_then_count_round_trip(tmp_path, capsys):
    cnf = tmp_path / "xor.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n", encoding="ascii")
    out = tmp_path / "xor.hcg"
    code, text, _ = run(
        capsys, "reduce", "--cnf", str(cnf), "--p", "5", "--out", str(out)
    )
    assert code == 0
    assert "predicted residue 2 mod 5" in text
    assert out.exists()
    sidecar = json.loads((tmp_path / "xor.hcg.json").read_text())
    assert sidecar == {
        "p": 5,
        "beta": 5,
        "gamma": 1,
        "q": 2,
        "width": sidecar["width"],
        "predicted_mod_p": 2,
    }

    code, text, _ = run(capsys, "count", "--graph", str(out), "--mod", "5")
    assert code == 0
    payload = json.loads(text)
    assert payload["residue"] == 2
    assert payload["modulus"] == 5
    assert payload["states_peak"] > 0
    assert "runtime_ms" in payload


def test_reduce_reports_the_written_graph(tmp_path, capsys):
    # the expansion's counts: V + 8 and E + 10 per label site of the
    # assembled graph; the line as the expanding compiler printed it
    cnf = tmp_path / "pair.cnf"
    cnf.write_text(format_dimacs(CNF_CORPUS[4][1]), encoding="ascii")
    out = tmp_path / "pair.hcg"
    code, text, _ = run(capsys, "reduce", "--cnf", str(cnf), "--p", "5", "--out", str(out))
    assert code == 0
    assert text == (
        f"wrote {out} (1402 vertices, 1988 edges, width 32 <= 40) and "
        f"{out}.json (predicted residue 2 mod 5)\n"
    )


@pytest.mark.parametrize("corpus_index,p,beta,gamma", sorted(GOLDEN_HCGRAPH_SHA256))
def test_reduce_writes_the_golden_bytes_without_an_expanded_graph(
    tmp_path, capsys, monkeypatch, corpus_index, p, beta, gamma
):
    def no_expansion(graph):
        raise AssertionError("the expanded graph was built")

    monkeypatch.setattr(reduction, "expand_label_gadgets", no_expansion, raising=False)
    cnf = tmp_path / "f.cnf"
    cnf.write_text(format_dimacs(CNF_CORPUS[corpus_index][1]), encoding="ascii")
    out = tmp_path / "f.hcg"
    code, _, _ = run(capsys, "reduce", "--cnf", str(cnf), "--p", str(p), "--beta", str(beta),
                     "--gamma", str(gamma), "--out", str(out))
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_HCGRAPH_SHA256[(corpus_index, p, beta, gamma)]


@pytest.mark.parametrize("corpus_index,p,beta,gamma", sorted(GOLDEN_HCGRAPH_SHA256))
def test_reduce_builds_no_graph(tmp_path, capsys, monkeypatch, corpus_index, p, beta, gamma):
    # reduce checks, writes and reports from arrays alone
    def no_graph(*args, **kwargs):
        raise AssertionError("reduce built a graph")

    monkeypatch.setattr(AnnotatedGraph, "from_edges", no_graph)
    monkeypatch.setattr(AnnotatedGraph, "__init__", no_graph)
    cnf = tmp_path / "f.cnf"
    cnf.write_text(format_dimacs(CNF_CORPUS[corpus_index][1]), encoding="ascii")
    out = tmp_path / "f.hcg"
    code, text, _ = run(capsys, "reduce", "--cnf", str(cnf), "--p", str(p), "--beta", str(beta),
                        "--gamma", str(gamma), "--out", str(out))
    assert code == 0 and text.startswith(f"wrote {out} (")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_HCGRAPH_SHA256[(corpus_index, p, beta, gamma)]


def test_one_parser_serves_successive_calls(capsys, monkeypatch):
    real, built = cli.build_parser, []

    def build():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", build)
    code, out, _ = run(capsys, "det", "--k", "4")
    assert code == 0 and "# command: det" in out
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"matchconn {__version__}\n"
    code, out, _ = run(capsys, "rank", "--k", "4", "--field", "p:3")
    assert code == 0 and out.splitlines()[-1] == "3"
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--k"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    # the failed parse leaves nothing behind for the next call
    code, out, _ = run(capsys, "det", "--k", "4")
    assert code == 0 and "parameters: kind=M k=4" in out
    assert built == [1]


def test_count_output_stable_except_runtime(tmp_path, capsys):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n", encoding="ascii")
    out = tmp_path / "one.hcg"
    run(capsys, "reduce", "--cnf", str(cnf), "--p", "3", "--out", str(out))
    _, text1, _ = run(capsys, "count", "--graph", str(out), "--mod", "3")
    _, text2, _ = run(capsys, "count", "--graph", str(out), "--mod", "3")
    p1, p2 = json.loads(text1), json.loads(text2)
    p1.pop("runtime_ms")
    p2.pop("runtime_ms")
    assert p1 == p2
    assert p1["residue"] == 1


def test_count_missing_file(capsys):
    code, _, err = run(capsys, "count", "--graph", "/nonexistent/g.hcg")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text,line", [
    # repeated after the edges: used to count the triangle and exit 0
    ("n 3\ne 1 2\ne 2 3\ne 1 3\nn 3\n", 6),
    # shrinking: used to fail later with "edge endpoint outside 1..n"
    ("n 4\nn 3\ne 1 2\ne 2 3\ne 1 3\n", 3),
])
def test_count_refuses_a_second_vertex_count_line(tmp_path, capsys, text, line):
    graph = tmp_path / "g.hcg"
    graph.write_text("hcgraph v1\n" + text, encoding="ascii")
    code, out, err = run(capsys, "count", "--graph", str(graph), "--mod", "5")
    assert code == 2 and out == ""
    assert f"line {line}: second 'n' line" in err


def test_count_builds_one_graph(tmp_path, capsys, monkeypatch):
    # read_hcgraph builds the graph; the sweep contracts its label gadgets
    # from the decomposition's arrays without building another
    cnf = tmp_path / "xor.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n", encoding="ascii")
    out = tmp_path / "xor.hcg"
    assert run(capsys, "reduce", "--cnf", str(cnf), "--p", "5", "--out", str(out))[0] == 0
    calls = []
    build = AnnotatedGraph.from_edges.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(AnnotatedGraph, "from_edges", classmethod(counted))
    code, text, _ = run(capsys, "count", "--graph", str(out), "--mod", "5")
    assert code == 0 and json.loads(text)["residue"] == 2
    assert len(calls) == 1


def test_reduce_refuses_an_empty_formula_with_exit_2(tmp_path, capsys):
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("p cnf 0 0\n", encoding="ascii")
    code, out, err = run(capsys, "reduce", "--cnf", str(cnf), "--p", "3")
    assert code == 2 and out == ""
    assert err == "error: formula has no clauses\n"
    assert not (tmp_path / "empty.hcg").exists()


def test_reduce_refuses_a_second_problem_line(tmp_path, capsys):
    # used to take the second line as the header: 3 variables, 2 clauses
    cnf = tmp_path / "two.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\np cnf 3 2\n-3 0\n", encoding="ascii")
    out = tmp_path / "two.hcg"
    code, text, err = run(capsys, "reduce", "--cnf", str(cnf), "--p", "3", "--out", str(out))
    assert code == 2 and text == ""
    assert "line 3: second problem line" in err
    assert not out.exists()


@pytest.mark.parametrize("text,message", BAD_HCGRAPH_FILES)
def test_count_refuses_a_bad_graph_file_with_exit_2(tmp_path, capsys, text, message):
    graph = tmp_path / "g.hcg"
    graph.write_text(text, encoding="ascii")
    code, out, err = run(capsys, "count", "--graph", str(graph), "--mod", "5")
    assert code == 2 and out == ""
    assert re.search(message, err)


def test_reduce_rejects_bad_dimacs(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n1\n", encoding="ascii")
    code, _, err = run(capsys, "reduce", "--cnf", str(bad), "--p", "3")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text,line", [
    # both used to raise a bare ValueError and exit 1 with a traceback
    ("p cnf two 1\n1 0\n", 1),
    ("p cnf 1 1\n1 x 0\n", 2),
])
def test_reduce_refuses_a_non_integer_dimacs_token_with_exit_2(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.cnf"
    bad.write_text(text, encoding="ascii")
    code, out, err = run(capsys, "reduce", "--cnf", str(bad), "--p", "3")
    assert code == 2 and out == ""
    assert f"line {line}: non-integer field" in err


def test_count_refuses_a_non_ascii_graph_file_with_exit_2(tmp_path, capsys):
    # used to die in a UnicodeDecodeError traceback with exit 1
    graph = tmp_path / "bad.hcg"
    graph.write_bytes(b"hcgraph v1\nn 3\ne 1 2\n\xff\n")
    code, out, err = run(capsys, "count", "--graph", str(graph))
    assert code == 2 and out == ""
    assert err == f"error: {graph}: byte 0xff is not ASCII\n"


def test_reduce_refuses_a_non_ascii_dimacs_file_with_exit_2(tmp_path, capsys):
    # used to die in a UnicodeDecodeError traceback with exit 1
    cnf = tmp_path / "bad.cnf"
    cnf.write_bytes(b"c caf\xc3\xa9\np cnf 1 1\n1 0\n")
    code, out, err = run(capsys, "reduce", "--cnf", str(cnf), "--p", "3")
    assert code == 2 and out == ""
    assert err == f"error: {cnf}: byte 0xc3 is not ASCII\n"
    assert not (tmp_path / "bad.hcg").exists()


def test_reduce_refuses_too_many_variables_at_once(tmp_path, capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 1000000 1\n1 0\n", encoding="ascii")
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce", "--cnf", str(cnf), "--p", "3")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "brute-force cap" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "determinant")
    assert code == 0
    assert "PASS [determinant]" in out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


@pytest.mark.parametrize("kind,k", [("M", 6), ("H", 4)])
def test_matrix_dump_is_the_entry_by_entry_csv(capsys, kind, k):
    matrix = build_M(k) if kind == "M" else build_H(k)
    code, out, _ = run(capsys, "matrix", "--kind", kind, "--k", str(k))
    assert code == 0
    lines = [
        f"# matchconn {__version__}",
        "# command: matrix",
        f"# parameters: kind={kind} k={k}",
        f"# shape: {matrix.nrows}x{matrix.ncols}",
    ]
    for i in range(matrix.nrows):
        lines.append(",".join(str(matrix[i, j]) for j in range(matrix.ncols)))
    assert out == "\n".join(lines) + "\n"


def test_matrix_dump(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "M", "--k", "4")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert any("0 1 1" in l.replace(",", " ") for l in body) or "011" in out.replace(
        " ", ""
    ).replace(",", "")
