"""Command line front end for the workbench.

Subcommands map onto the package modules: matrix/rank/det export and measure
the connectivity and fingerprint matrices, spectrum and tableaux cover the
eigenstructure and the rank formulas, amplify runs the Kronecker product
checks, basis/reduce/count drive the CNF compiler and the cycle counter, and
verify prints the certification suites of ``matchconn.checks``.

Reports are plain CSV or JSON with a leading header recording the tool
version and the parameters, so reruns are diffable byte for byte. The one
exception is the count subcommand, whose JSON carries a runtime_ms field as
part of its interface. Exit status: 0 when every requested check passes, 1
when a certification check fails, 2 on invalid arguments or inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .amplify import mod_rank_report, verify_tensor_identity
from .checks import SUITE_NAMES, run_suite
from .exactalg import (
    RATIONALS,
    CapacityError,
    PrimeField,
    ValidationError,
    det,
    parse_field,
    rank,
)
from .graphs import open_ascii, read_hcgraph, write_hcgraph, write_sidecar
from .hcount import count_hc_bruteforce, count_hc_pathdp
from .matchings import build_H, build_M
from .reduction import assemble, parse_dimacs, select_basis
from .scheme import certify_spectrum
from .tableaux import domino_hook_report

__all__ = ["build_parser", "main"]

# The report rows grow with the partitions of n: n = 40 takes a few
# seconds, n = 70 runs for minutes.
MAX_TABLEAUX_N = 40


# ---------------------------------------------------------------------------
# report plumbing


def _header(command: str, params: dict) -> list[str]:
    kv = " ".join(f"{k}={v}" for k, v in params.items())
    return [f"# matchconn {__version__}", f"# command: {command}", f"# parameters: {kv}"]


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text, encoding="ascii")


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text, encoding="ascii")


def _build_matrix(kind: str, k: int, large: bool):
    if kind == "M":
        return build_M(k, large=large)
    return build_H(k)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_matrix(args) -> int:
    matrix = _build_matrix(args.kind, args.k, args.large)
    lines = _header("matrix", {"kind": args.kind, "k": args.k})
    lines.append(f"# shape: {matrix.nrows}x{matrix.ncols}")
    lines.extend(",".join(map(str, row)) for row in matrix.rows())
    _emit(lines, args.out)
    return 0


def _cmd_rank(args) -> int:
    field = parse_field(args.field)
    matrix = _build_matrix(args.kind, args.k, args.large)
    if field is not RATIONALS:
        matrix = matrix.with_field(field)
    value = rank(matrix)
    lines = _header("rank", {"kind": args.kind, "k": args.k, "field": args.field})
    lines.append("kind,k,field,rank")
    lines.append(f"{args.kind},{args.k},{args.field},{value}")
    _emit(lines, args.out)
    print(value)
    return 0


def _cmd_det(args) -> int:
    value = det(_build_matrix(args.kind, args.k, args.large))
    lines = _header("det", {"kind": args.kind, "k": args.k})
    lines.append("kind,k,det")
    lines.append(f"{args.kind},{args.k},{value}")
    _emit(lines, args.out)
    return 0


def _cmd_spectrum(args) -> int:
    spectral_lines, overall = certify_spectrum(args.n)
    lines = _header("spectrum", {"n": args.n})
    lines.append("partition,eigenvalue,multiplicity,measured_nullity,ok")
    for sl in spectral_lines:
        lines.append(
            f"{sl.lam},{sl.eta},{sl.multiplicity},{sl.nullity_measured},{sl.ok}"
        )
    lines.append(f"# certified: {overall}")
    _emit(lines, args.out)
    return 0 if overall else 1


def _cmd_tableaux(args) -> int:
    if args.n < 2:
        raise ValidationError(f"tableaux report n={args.n} is outside 2..{MAX_TABLEAUX_N}")
    if args.n > MAX_TABLEAUX_N:
        raise CapacityError(f"tableaux report n={args.n} exceeds the ceiling {MAX_TABLEAUX_N}")
    lines = _header("tableaux", {"n": args.n})
    lines.append("n,rank_formula,catalan_product,floor_4n_over_n3,literal_sum")
    ok = True
    for n in range(2, args.n + 1):
        row = domino_hook_report(n)
        floor = -(-(4**n) // n**3)
        ok = ok and row.noncover_sum >= row.catalan_product >= floor
        lines.append(
            f"{n},{row.noncover_sum},{row.catalan_product},{floor},{row.literal_sum}"
        )
    lines.append(f"# chain inequalities hold: {ok}")
    _emit(lines, args.out)
    return 0 if ok else 1


def _cmd_amplify(args) -> int:
    check = verify_tensor_identity(args.B, args.t)
    block_rank = rank(check.big_block.with_field(PrimeField(args.p)))
    lines = _header("amplify", {"B": args.B, "t": args.t, "p": args.p})
    lines.append("section,order,dimension,rank,base")
    lines.append(
        f"product-block,{args.B * args.t},{check.family_size},{block_rank},"
        f"{check.family_size ** (1 / (args.B * args.t)):.6f}"
    )
    for row in mod_rank_report(args.p, large=args.large):
        lines.append(
            f"initial,{row.order},{row.dimension},{row.rank_mod_p},{row.rank_root:.6f}"
        )
    lines.append(f"# tensor identity holds: {check.identity_holds}")
    lines.append(f"# product block full rank mod {args.p}: {block_rank == check.family_size}")
    _emit(lines, args.out)
    return 0 if check.identity_holds else 1


def _cmd_basis(args) -> int:
    params = select_basis(args.beta, args.gamma, args.p)
    lines = _header(
        "basis", {"beta": args.beta, "gamma": args.gamma, "p": args.p}
    )
    lines.append("side,index,fingerprint,assignment_bits")
    for i, fp in enumerate(params.left_basis):
        lines.append(f"left,{i},{fp.text()},")
    for i, fp in enumerate(params.right_basis):
        bits = params.encoding_assignment(i)
        encoded = "" if bits is None else "".join(str(b) for b in bits)
        lines.append(f"right,{i},{fp.text()},{encoded}")
    lines.append("# interface matrix rows (left basis order, mod p):")
    for i, fl in enumerate(params.left_basis):
        row = ",".join(
            str(params.f_matrix[i, j])
            for j in range(len(params.right_basis))
        )
        lines.append(f"# F[{i}] = {row}")
    _emit(lines, args.out)
    return 0


def _cmd_reduce(args) -> int:
    with open_ascii(args.cnf) as fh:
        cnf = parse_dimacs(fh.read())
    result = assemble(cnf, args.p, beta=args.beta, gamma=args.gamma)
    out = args.out or str(Path(args.cnf).with_suffix(".hcg"))
    write_hcgraph(out, result.graph)
    write_sidecar(out + ".json", result.sidecar())
    # each label site is written as nine vertices and ten more edges
    graph, sites = result.graph, len(result.graph.annotations)
    print(
        f"wrote {out} ({len(graph.vertices) + 8 * sites} vertices, "
        f"{len(graph.edges) + 10 * sites} edges, width {result.width} <= "
        f"{result.width_bound}) and {out}.json "
        f"(predicted residue {result.predicted} mod {args.p})"
    )
    return 0


def _cmd_count(args) -> int:
    graph = read_hcgraph(args.graph)
    if graph.decomposition is not None:
        result = count_hc_pathdp(graph, modulus=args.mod)
    else:
        result = count_hc_bruteforce(graph, modulus=args.mod)
    payload = {
        "version": __version__,
        "command": "count",
        "parameters": {"graph": args.graph, "mod": args.mod},
    }
    payload.update(result.to_json_dict())
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    lines = run_suite(args.suite, large=args.large)
    for line in lines:
        print(line.render())
    failed = [line for line in lines if not line.ok]
    print(f"# {len(lines) - len(failed)}/{len(lines)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchconn",
        description="Exact workbench for matchings connectivity matrices "
        "and the counting-Hamiltonian-cycles reduction.",
    )
    parser.add_argument("--version", action="version", version=f"matchconn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_matrix(p):
        p.add_argument("--kind", choices=("M", "H"), default="M", help="connectivity (M) or fingerprint (H) matrix")
        p.add_argument("--k", type=int, required=True, help="matrix order")
        p.add_argument("--large", action="store_true", help="allow the order-12 tier")
        p.add_argument("--out", help="also write the report to this path")

    p = sub.add_parser("matrix", help="build and export a matrix as CSV")
    common_matrix(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("rank", help="exact rank over the rationals or a prime field")
    common_matrix(p)
    p.add_argument("--field", default="q", help="'q' or 'p:<prime>' (default q)")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("det", help="exact determinant over the rationals")
    common_matrix(p)
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("spectrum", help="eigenvalue certification table")
    p.add_argument("n", type=int, help="half the matrix order")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("tableaux", help="rank formula and Catalan chain report")
    p.add_argument("n", type=int, help="report rows for 2..n")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tableaux)

    p = sub.add_parser("amplify", help="Kronecker product family checks")
    p.add_argument("--B", type=int, default=6, help="base order")
    p.add_argument("--t", type=int, default=2, help="number of copies")
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--large", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_amplify)

    p = sub.add_parser("basis", help="interface basis and matrix for the compiler")
    p.add_argument("--beta", type=int, required=True, help="interface width")
    p.add_argument("--gamma", type=int, required=True, help="variables per block")
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("reduce", help="compile a DIMACS CNF into a counting instance")
    p.add_argument("--cnf", required=True, help="input DIMACS file")
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--beta", type=int, default=5)
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--out", help="output graph path (default: input with .hcg)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("count", help="count Hamiltonian cycles of a graph file")
    p.add_argument("--graph", required=True, help="hcgraph v1 file")
    p.add_argument("--mod", type=int, help="count modulo this modulus, any integer >= 2")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="run certification suites")
    p.add_argument("suite", choices=("all",) + SUITE_NAMES)
    p.add_argument("--large", action="store_true", help="include the order-12 tier")
    p.set_defaults(func=_cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on first use, then kept for the process
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:  # CapacityError, DecompositionError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
