"""Command line front end for the workbench.

Subcommands map onto the package modules: matrix/rank/det export and measure
the connectivity and fingerprint matrices, spectrum and tableaux cover the
eigenstructure and the rank formulas, amplify runs the Kronecker product
checks, basis/reduce/count drive the CNF compiler and the cycle counter, and
verify replays the certification suites.

Reports are plain CSV or JSON with a leading header recording the tool
version and the parameters, so reruns are diffable byte for byte. The one
exception is the count subcommand, whose JSON carries a runtime_ms field as
part of its interface. Exit status: 0 when every requested check passes, 1
when a certification check fails, 2 on invalid arguments or inputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .amplify import mod_rank_report, verify_tensor_identity
from .exactalg import (
    RATIONALS,
    PrimeField,
    ValidationError,
    det,
    parse_field,
    rank,
)
from .graphs import AnnotatedGraph, read_hcgraph, write_hcgraph, write_sidecar
from .hcount import (
    count_hc_bruteforce,
    count_hc_pathdp,
    enumerate_hamiltonian_cycles,
    partial_solution_spectrum,
)
from .matchings import (
    Fingerprint,
    GraphConstructionError,
    Matching,
    boundaried_graph_for_fingerprint,
    build_H,
    build_M,
    glue_boundaried,
)
from .reduction import (
    LABEL_GADGET_EDGES,
    Cnf,
    GadgetSpec,
    assemble,
    build_fingerprint_gadget,
    count_sat,
    expand_label_gadgets,
    parse_dimacs,
    select_basis,
)
from .scheme import certify_spectrum, sphere_size, verify_scheme_axioms
from .tableaux import (
    bipartite_rank_check,
    catalan,
    domino_hook_report,
    double_factorial,
    partitions,
    rational_rank_formula,
)

__all__ = ["main", "run_suite", "SUITE_NAMES", "CheckLine"]


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
# certification suites (the same checks the acceptance tests freeze)


@dataclass
class CheckLine:
    suite: str
    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        return f"{tag} [{self.suite}] {self.name}: {self.detail}"


PUBLISHED_DET_6 = -(2**17)
PUBLISHED_MOD2_RANKS = {2: 1, 4: 2, 6: 4, 8: 8, 10: 16}
PUBLISHED_MOD_RANKS_10 = {3: 567, 5: 945, 7: 945, 11: 945, 13: 945}
PUBLISHED_MOD_RANKS_12 = {3: 3618, 5: 9890, 7: 9933}
PUBLISHED_RANK_FORMULA = {2: 3, 3: 15, 4: 105, 5: 945, 6: 9933}
PUBLISHED_SPECTRUM_3 = ((8, 1), (-2, 9), (2, 5))
PUBLISHED_SPECTRUM_4 = ((48, 1), (-8, 20), (-2, 14), (4, 56), (-6, 14))
PUBLISHED_BIPARTITE = {2: 2, 3: 6, 4: 20}
PUBLISHED_SPHERE_ROW_4 = (48, 32, 12, 12, 1)

VERIFY_SEED = 20260823

CNF_CORPUS = (
    ("single positive literal", Cnf(1, ((1,),))),
    ("single negative literal", Cnf(1, ((-1,),))),
    ("contradiction", Cnf(1, ((1,), (-1,)))),
    ("two-literal clause", Cnf(2, ((1, 2),))),
    ("exclusive pair", Cnf(2, ((1, 2), (-1, -2)))),
    ("tautology on two variables", Cnf(2, ((1, -1),))),
)


def random_gadget_spec(rng: random.Random, boundary=(1, 2, 3, 4, 5), budget=12) -> GadgetSpec:
    """A random well-formed gadget request: anchored fingerprints with small counts."""
    anchors = tuple(rng.sample(boundary, 2))
    others = [v for v in boundary if v not in anchors]

    def one_fingerprint() -> Fingerprint:
        ones = rng.sample(others, rng.choice([0, 2]))
        degs = tuple(
            1 if v in anchors or v in ones else rng.choice([0, 2]) for v in boundary
        )
        rest = [v for v, d in zip(boundary, degs) if d == 1 and v not in anchors]
        rng.shuffle(rest)
        pairs = [tuple(sorted(anchors))]
        pairs += [tuple(sorted(rest[i : i + 2])) for i in range(0, len(rest), 2)]
        return Fingerprint(boundary, degs, Matching(tuple(sorted(pairs))))

    counts: dict[Fingerprint, int] = {}
    total = 0
    while len(counts) < 2 or total < 2:
        fp = one_fingerprint()
        if fp in counts:
            continue
        m = rng.randint(1, 4)
        if total + m > budget:
            continue
        counts[fp] = m
        total += m
        if len(counts) >= 2 and rng.random() < 0.4:
            break
    return GadgetSpec.make(boundary, anchors, counts)


def random_label_closure(rng: random.Random):
    """The 9-vertex label blob wired into a random outer ring with chords.

    Returns (graph, stubs) where stubs maps each external attachment edge to
    its label. Ports 1 and 2 get one stub each, ports 3 and 4 one or two.
    """
    g = AnnotatedGraph()
    for v in range(1, 10):
        g.add_vertex(v)
    for u, v in LABEL_GADGET_EDGES:
        g.add_edge(u, v)
    outer = list(range(10, 10 + rng.randint(3, 6)))
    for w in outer:
        g.add_vertex(w)
    ring = outer[:]
    rng.shuffle(ring)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        g.add_edge(a, b)
    for a, b in itertools.combinations(outer, 2):
        if not g.has_edge(a, b) and rng.random() < 0.2:
            g.add_edge(a, b)
    stubs: dict[tuple[int, int], int] = {}
    for port in (1, 2, 3, 4):
        n_stubs = 1 if port in (1, 2) else rng.choice([1, 1, 2])
        for w in rng.sample(outer, n_stubs):
            if not g.has_edge(port, w):
                g.add_edge(port, w)
                stubs[(port, w)] = port
    return g, stubs


def _suite_determinant() -> list[CheckLine]:
    value = det(build_M(6))
    return [
        CheckLine(
            "determinant",
            "order-6 connectivity matrix",
            value == PUBLISHED_DET_6,
            f"got {value}, published {PUBLISHED_DET_6}",
        )
    ]


def _suite_rank_mod_2() -> list[CheckLine]:
    out = []
    for k, want in PUBLISHED_MOD2_RANKS.items():
        got = rank(build_M(k).with_field(PrimeField(2)))
        out.append(
            CheckLine(
                "rank-mod-2",
                f"order {k}",
                got == want,
                f"rank {got}, published {want}",
            )
        )
    return out


def _suite_rank_mod_p(large: bool) -> list[CheckLine]:
    out = []
    for p, want in PUBLISHED_MOD_RANKS_10.items():
        got = rank(build_M(10).with_field(PrimeField(p)))
        out.append(
            CheckLine(
                "rank-mod-p",
                f"order 10 mod {p}",
                got == want,
                f"rank {got}, published {want}",
            )
        )
    if large:
        for p, want in PUBLISHED_MOD_RANKS_12.items():
            got = rank(build_M(12, large=True).with_field(PrimeField(p)))
            out.append(
                CheckLine(
                    "rank-mod-p",
                    f"order 12 mod {p}",
                    got == want,
                    f"rank {got}, published {want}",
                )
            )
    return out


def _suite_rank_formula(large: bool) -> list[CheckLine]:
    out = []
    for n in (2, 3, 4, 5):
        formula = rational_rank_formula(n)
        measured = rank(build_M(2 * n))
        ok = formula == measured == PUBLISHED_RANK_FORMULA[n]
        out.append(
            CheckLine(
                "rank-formula",
                f"n={n}",
                ok,
                f"formula {formula}, measured rank {measured}",
            )
        )
    if large:
        formula = rational_rank_formula(6)
        mod7 = rank(build_M(12, large=True).with_field(PrimeField(7)))
        ok = formula == mod7 == PUBLISHED_RANK_FORMULA[6]
        out.append(
            CheckLine(
                "rank-formula",
                "n=6 certified through the mod-7 rank",
                ok,
                f"formula {formula}, rank mod 7 {mod7}",
            )
        )
    return out


def _suite_spectrum() -> list[CheckLine]:
    out = []
    lines3, ok3 = certify_spectrum(3)
    got3 = tuple((line.eta, line.multiplicity) for line in lines3)
    prod = 1
    for eta, mult in got3:
        prod *= eta**mult
    out.append(
        CheckLine(
            "spectrum",
            "n=3 eigenvalues and multiplicities",
            ok3 and got3 == PUBLISHED_SPECTRUM_3,
            f"got {got3}",
        )
    )
    out.append(
        CheckLine(
            "spectrum",
            "n=3 eigenvalue product equals the determinant",
            prod == PUBLISHED_DET_6,
            f"product {prod}, determinant {PUBLISHED_DET_6}",
        )
    )
    lines4, ok4 = certify_spectrum(4)
    got4 = tuple((line.eta, line.multiplicity) for line in lines4)
    out.append(
        CheckLine(
            "spectrum",
            "n=4 eigenvalue column with nullities",
            ok4 and got4 == PUBLISHED_SPECTRUM_4,
            f"got {got4}",
        )
    )
    for n in (1, 2, 5):
        _, ok = certify_spectrum(n)
        out.append(
            CheckLine(
                "spectrum",
                f"n={n} nullities and trace identities",
                ok,
                "all eigenspace dimensions and traces match",
            )
        )
    return out


def _suite_bipartite() -> list[CheckLine]:
    out = []
    for n, want in PUBLISHED_BIPARTITE.items():
        formula, measured = bipartite_rank_check(n)
        out.append(
            CheckLine(
                "bipartite",
                f"n={n}",
                formula == measured == want,
                f"formula {formula}, measured {measured}, published {want}",
            )
        )
    return out


def _suite_scheme() -> list[CheckLine]:
    out = []
    for n in (1, 2, 3, 4):
        report = verify_scheme_axioms(n)
        out.append(
            CheckLine(
                "scheme",
                f"axioms at n={n}",
                report.all_ok,
                "; ".join(report.failures) or "all five axioms hold",
            )
        )
    row = tuple(sphere_size(4, lam) for lam in partitions(4))
    out.append(
        CheckLine(
            "scheme",
            "sphere sizes at n=4",
            row == PUBLISHED_SPHERE_ROW_4,
            f"got {row}, published {PUBLISHED_SPHERE_ROW_4}",
        )
    )
    for n in range(1, 9):
        total = sum(sphere_size(n, lam) for lam in partitions(n))
        want = double_factorial(2 * n - 1)
        out.append(
            CheckLine(
                "scheme",
                f"sphere sizes sum at n={n}",
                total == want,
                f"sum {total}, double factorial {want}",
            )
        )
    return out


def _suite_tensor() -> list[CheckLine]:
    check = verify_tensor_identity(6, 2)
    out = [
        CheckLine(
            "tensor",
            "order-6 base, two copies: block equals the Kronecker square",
            check.identity_holds,
            f"family size {check.family_size}",
        )
    ]
    r = rank(check.big_block.with_field(PrimeField(5)))
    out.append(
        CheckLine(
            "tensor",
            "product block rank mod 5",
            r == check.family_size == 225,
            f"rank {r} of {check.family_size}x{check.family_size}",
        )
    )
    return out


def _suite_fingerprint_rank() -> list[CheckLine]:
    out = []
    ranks_m = {i: (1 if i == 0 else rank(build_M(i))) for i in range(0, 7, 2)}
    for k in range(1, 7):
        from math import comb

        want = sum(
            comb(k, i) * 2 ** (k - i) * ranks_m[i] for i in range(0, k + 1, 2)
        )
        got = rank(build_H(k))
        out.append(
            CheckLine(
                "fingerprint-rank",
                f"order {k}",
                got == want,
                f"rank {got}, block-sum value {want}",
            )
        )
    return out


def _suite_gadgets() -> list[CheckLine]:
    rng = random.Random(VERIFY_SEED)
    out = []
    for trial in range(25):
        spec = random_gadget_spec(rng)
        gadget = build_fingerprint_gadget(spec)
        expanded = expand_label_gadgets(gadget)
        spectrum = partial_solution_spectrum(
            expanded, spec.boundary, decomposition=expanded.decomposition
        )
        want = {fp: m for fp, m in spec.counts}
        out.append(
            CheckLine(
                "gadgets",
                f"random spec {trial}",
                spectrum == want,
                f"{len(want)} fingerprints, total count {spec.total()}",
            )
        )
    return out


def _suite_label_gadget() -> list[CheckLine]:
    rng = random.Random(VERIFY_SEED)
    out = []
    closures_with_cycles = 0
    for trial in range(50):
        graph, stubs = random_label_closure(rng)
        bad: tuple | None = None
        any_cycle = False
        for cycle in enumerate_hamiltonian_cycles(graph):
            any_cycle = True
            used = tuple(sorted(stubs[e] for e in cycle if e in stubs))
            if used not in ((1, 2), (3, 4)):
                bad = used
                break
        closures_with_cycles += any_cycle
        out.append(
            CheckLine(
                "label-gadget",
                f"closure {trial}",
                bad is None,
                "every cycle used label pair {1,2} or {3,4}"
                if bad is None
                else f"cycle with label multiset {bad}",
            )
        )
    out.append(
        CheckLine(
            "label-gadget",
            "battery is not vacuous",
            closures_with_cycles >= 10,
            f"{closures_with_cycles} of 50 closures had Hamiltonian cycles",
        )
    )
    return out


def _suite_reduction() -> list[CheckLine]:
    out = []
    for name, cnf in CNF_CORPUS:
        want_exact = count_sat(cnf)
        for p in (3, 5):
            result = assemble(cnf, p)
            result.decomposition.validate(result.graph)
            measured = count_hc_pathdp(
                result.graph, result.decomposition, modulus=p
            ).value
            want = want_exact % p
            ok = (
                measured == want
                and result.predicted == want
                and result.width <= result.width_bound
            )
            out.append(
                CheckLine(
                    "reduction",
                    f"{name}, mod {p}",
                    ok,
                    f"models {want_exact}, residue {measured}, predicted "
                    f"{result.predicted}, width {result.width}/{result.width_bound}",
                )
            )
    return out


def _suite_glue() -> list[CheckLine]:
    H4 = build_H(4)
    fps = H4.row_labels
    realized = {}
    skipped = 0
    for fp in fps:
        try:
            realized[fp] = boundaried_graph_for_fingerprint(fp)
        except GraphConstructionError:
            skipped += 1
    mismatches = 0
    pairs = 0
    for i, f in enumerate(fps):
        if f not in realized:
            continue
        for j, g in enumerate(fps):
            if g not in realized:
                continue
            glued = glue_boundaried(realized[f], realized[g], f.boundary)
            pairs += 1
            if count_hc_bruteforce(glued).value != H4[i, j]:
                mismatches += 1
    return [
        CheckLine(
            "glue",
            "order-4 realizations against the fingerprint matrix",
            mismatches == 0 and skipped == 10,
            f"{pairs} pairs over {len(realized)} constructible fingerprints, "
            f"{mismatches} mismatches, {skipped} unconstructible",
        )
    ]


def _suite_catalan() -> list[CheckLine]:
    out = []
    for n in range(2, 9):
        value = rational_rank_formula(n)
        chain = catalan(n - 1) * catalan(n)
        floor = -(-(4**n) // n**3)
        out.append(
            CheckLine(
                "catalan",
                f"n={n}",
                value >= chain >= floor,
                f"formula {value} >= Catalan product {chain} >= floor {floor}",
            )
        )
    rows = [domino_hook_report(n) for n in range(2, 9)]
    diffs = [r.n for r in rows if r.literal_sum != r.catalan_product]
    out.append(
        CheckLine(
            "catalan",
            "literal shape sums (reported, not asserted)",
            True,
            "literal sums differ from the Catalan products at n in "
            f"{diffs}" if diffs else "literal sums equal the Catalan products",
        )
    )
    return out


SUITES = {
    "determinant": lambda large: _suite_determinant(),
    "rank-mod-2": lambda large: _suite_rank_mod_2(),
    "rank-mod-p": _suite_rank_mod_p,
    "rank-formula": _suite_rank_formula,
    "spectrum": lambda large: _suite_spectrum(),
    "bipartite": lambda large: _suite_bipartite(),
    "scheme": lambda large: _suite_scheme(),
    "tensor": lambda large: _suite_tensor(),
    "fingerprint-rank": lambda large: _suite_fingerprint_rank(),
    "gadgets": lambda large: _suite_gadgets(),
    "label-gadget": lambda large: _suite_label_gadget(),
    "reduction": lambda large: _suite_reduction(),
    "glue": lambda large: _suite_glue(),
    "catalan": lambda large: _suite_catalan(),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, large: bool = False) -> list[CheckLine]:
    if name == "all":
        lines: list[CheckLine] = []
        for suite in SUITES.values():
            lines.extend(suite(large))
        return lines
    return SUITES[name](large)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_matrix(args) -> int:
    matrix = _build_matrix(args.kind, args.k, args.large)
    lines = _header("matrix", {"kind": args.kind, "k": args.k})
    lines.append(f"# shape: {matrix.nrows}x{matrix.ncols}")
    for i in range(matrix.nrows):
        lines.append(",".join(str(matrix[i, j]) for j in range(matrix.ncols)))
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
    cnf = parse_dimacs(Path(args.cnf).read_text(encoding="ascii"))
    result = assemble(cnf, args.p, beta=args.beta, gamma=args.gamma)
    out = args.out or str(Path(args.cnf).with_suffix(".hcg"))
    write_hcgraph(out, result.graph, result.decomposition)
    write_sidecar(out + ".json", result.sidecar())
    print(
        f"wrote {out} ({len(result.graph.vertices)} vertices, "
        f"{len(result.graph.edges)} edges, width {result.width} <= "
        f"{result.width_bound}) and {out}.json "
        f"(predicted residue {result.predicted} mod {args.p})"
    )
    return 0


def _cmd_count(args) -> int:
    graph = read_hcgraph(args.graph)
    decomposition = getattr(graph, "decomposition", None)
    if decomposition is not None:
        result = count_hc_pathdp(graph, decomposition, modulus=args.mod)
    else:
        result = count_hc_bruteforce(graph)
        if args.mod is not None:
            result.value %= args.mod
            result.modulus = args.mod
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
    p.add_argument("--mod", type=int, help="count modulo this prime")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="run certification suites")
    p.add_argument("suite", choices=("all",) + SUITE_NAMES)
    p.add_argument("--large", action="store_true", help="include the order-12 tier")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:  # CapacityError, DecompositionError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
