"""Request streams, answer oracles and answer checks for the three workloads.

A workload is a fixed *round*: a list of request shapes whose cost does not
depend on the seed. The seed picks everything that leaves the cost alone
(primes inside a cost class, eigenvalues, literals, request order), so runs
with different seeds do the same amount of work. Runs execute whole rounds,
so the mix of a run is the mix of a round.

Every request calls the program through module attributes looked up at call
time (``mc.exactalg.rank``, not a local alias), so the traced run's wrappers
see it. Oracles never come from the code path being measured: ranks and
determinants come from the published tables and the closed-form spectrum,
model counts from this file's own brute-force counter, and compiled graphs
are re-read and their path decompositions checked here in linear time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def load_program() -> types.SimpleNamespace:
    """Import the package modules once; requests reach them through this."""
    names = ("matchings", "exactalg", "tableaux", "scheme", "amplify",
             "hcount", "reduction", "graphs", "cli")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"matchconn.{n}") for n in names}
    )


@dataclass
class Request:
    """One checked call into the program."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    # (kind, order) of the connectivity/combine matrix the request builds
    matrix: tuple[str, int] | None = None
    # output properties noted by set-up and check(): graph sizes, states_peak
    seen: dict = field(default_factory=dict, repr=False)


@dataclass
class Prepared:
    """Set-up output: the round to replay and the warm-up request."""

    round: list[Request]
    warmup: Request


# ---------------------------------------------------------------------------
# small independent helpers


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


SMALL_PRIMES = tuple(p for p in range(5, 100) if _is_prime(p))
LARGE_PRIMES = tuple(p for p in range(1 << 15, 1 << 16) if _is_prime(p))


def quiet_cli(mc, argv: list[str]) -> tuple[int, str]:
    """Run ``matchconn`` in-process with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mc.cli.main(argv)
    return code, buf.getvalue()


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int):
    """Clauses over min(3, num_vars) distinct variables with random signs."""
    width = min(3, num_vars)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in sorted(vs)))
    return num_vars, clauses


def dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def model_count(num_vars: int, clauses) -> int:
    """Brute-force #SAT, the oracle for every residue the program reports."""
    total = 0
    for bits in range(1 << num_vars):
        if all(any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in c) for c in clauses):
            total += 1
    return total


def check_hcgraph(graph) -> dict:
    """Linear-time path decomposition check; returns the graph's sizes.

    Every vertex must sit in a contiguous run of bags and every edge's two
    runs must overlap (with contiguous runs, overlap means a shared bag).
    Raises ValueError on the first violation.
    """
    bags = graph.decomposition.bags if graph.decomposition is not None else []
    if not bags:
        raise ValueError("graph file carries no decomposition")
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    seen: dict[int, int] = {}
    for i, bag in enumerate(bags):
        if len(set(bag)) != len(bag):
            raise ValueError(f"bag {i} repeats a vertex")
        for v in bag:
            if v not in graph.vertices:
                raise ValueError(f"bag {i} holds unknown vertex {v}")
            first.setdefault(v, i)
            last[v] = i
            seen[v] = seen.get(v, 0) + 1
    for v in graph.vertices:
        if v not in first:
            raise ValueError(f"vertex {v} in no bag")
        if seen[v] != last[v] - first[v] + 1:
            raise ValueError(f"vertex {v} has a gap in its bag run")
    for u, v in graph.edges:
        if max(first[u], first[v]) > min(last[u], last[v]):
            raise ValueError(f"edge {u}-{v} fits in no bag")
    return {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "width": max(len(b) for b in bags) - 1,
    }


# ---------------------------------------------------------------------------
# certify: exact certificates for the connectivity matrices

# (request kind, copies per round). Sorted by cost a round is six cheap
# requests and the tensor check, the two mod-3 ranks of M_10, six ~1 s
# order-10 eliminations and the nullity. The median is thus a mod-3 rank and
# the tail an order-10 elimination for any number of rounds from two up.
CERTIFY_ROUND = (
    ("rank_M10_small_p", 2),
    ("rank_M10_large_p", 2),
    ("rank_M10_mod3", 2),
    ("rank_M10_mod2", 1),
    ("rank_M8_p", 1),
    ("rank_Q_M8", 1),
    ("rank_Q_M10", 1),
    ("rank_Q_H6", 1),
    ("spectrum_4", 1),
    ("nullity_M10", 1),
    ("det_M6", 1),
    ("det_M8", 1),
    ("tensor_6_2", 1),
)
CERTIFY_SMALL_ROUND = (("rank_M8_p", 2), ("rank_Q_M8", 1), ("det_M6", 1), ("det_M8", 1))

# Published values (README table): ranks mod 2 and 3, the combine-matrix
# rank at order 6, and det of the order-6 matrix.
RANK_MOD2 = {8: 8, 10: 16}
RANK_M10_MOD3 = 567
RANK_Q_H6 = 499
DET_M6 = -(2**17)


def certify_oracles(mc) -> dict:
    """Closed-form answers, computed in set-up from the tableaux formulas.

    For p >= 5 the order-8 and order-10 matrices have full rank mod p: every
    eigenvalue eta(lambda) for n = 4, 5 factors over {2, 3} and det M is the
    product of eta^multiplicity.
    """
    tab, sch = mc.tableaux, mc.scheme
    etas = {
        n: [(lam, sch.eigenvalue_eta(n, lam), tab.f_lambda(lam.double()))
            for lam in tab.partitions(n)]
        for n in (4, 5)
    }
    for n, lines in etas.items():
        for _, eta, _ in lines:
            rest = abs(eta)
            for q in (2, 3):
                while rest % q == 0:
                    rest //= q
            if rest != 1:
                raise RuntimeError(f"eta {eta} at n={n} has a prime factor >= 5")
    return {
        "rank_q": {k: tab.rational_rank_formula(k // 2) for k in (8, 10)},
        "dim": {k: math.prod(range(1, k, 2)) for k in (8, 10)},
        "det_M8": math.prod(eta**mult for _, eta, mult in etas[4]),
        "nullity": {lam: mult for lam, _, mult in etas[5]},
        "eta5": {lam: eta for lam, eta, _ in etas[5]},
        "spectrum_primes": mc.scheme.spectrum_primes(5),
    }


def _certify_request(mc, kind: str, rng: random.Random, orc: dict) -> Request:
    def rank_mod(k: int, p: int, want: int) -> Request:
        return Request(
            kind,
            lambda: mc.exactalg.rank(mc.matchings.build_M(k).with_field(mc.exactalg.PrimeField(p))),
            lambda r: r == want,
            ("M", k),
        )

    if kind == "rank_M10_small_p":
        return rank_mod(10, rng.choice(SMALL_PRIMES), orc["dim"][10])
    if kind == "rank_M10_large_p":
        return rank_mod(10, rng.choice(LARGE_PRIMES), orc["dim"][10])
    if kind == "rank_M10_mod3":
        return rank_mod(10, 3, RANK_M10_MOD3)
    if kind == "rank_M10_mod2":
        return rank_mod(10, 2, RANK_MOD2[10])
    if kind == "rank_M8_p":
        p = rng.choice((2,) + SMALL_PRIMES + LARGE_PRIMES)
        return rank_mod(8, p, RANK_MOD2[8] if p == 2 else orc["dim"][8])
    if kind in ("rank_Q_M8", "rank_Q_M10"):
        k = 8 if kind == "rank_Q_M8" else 10
        return Request(kind, lambda: mc.exactalg.rank(mc.matchings.build_M(k)),
                       lambda r: r == orc["rank_q"][k], ("M", k))
    if kind == "rank_Q_H6":
        return Request(kind, lambda: mc.exactalg.rank(mc.matchings.build_H(6)),
                       lambda r: r == RANK_Q_H6, ("H", 6))
    if kind == "spectrum_4":
        return Request(kind, lambda: mc.scheme.certify_spectrum(4),
                       lambda r: r[1] is True and all(l.ok for l in r[0]), ("M", 8))
    if kind == "nullity_M10":
        lam = rng.choice(sorted(orc["nullity"]))
        p = rng.choice(orc["spectrum_primes"])
        eta = orc["eta5"][lam]
        return Request(
            kind,
            lambda: mc.exactalg.nullity_shift(
                mc.matchings.build_M(10).with_field(mc.exactalg.PrimeField(p)), eta),
            lambda r: r == orc["nullity"][lam],
            ("M", 10),
        )
    if kind == "det_M6":
        return Request(kind, lambda: mc.exactalg.det(mc.matchings.build_M(6)),
                       lambda r: r == DET_M6, ("M", 6))
    if kind == "det_M8":
        return Request(kind, lambda: mc.exactalg.det(mc.matchings.build_M(8)),
                       lambda r: r == orc["det_M8"], ("M", 8))
    if kind == "tensor_6_2":
        return Request(kind, lambda: mc.amplify.verify_tensor_identity(6, 2),
                       lambda r: r.identity_holds is True and r.family_size == 15**2)
    raise ValueError(f"unknown certify request {kind!r}")


def prepare_certify(mc, rng: random.Random, workdir: Path, small: bool) -> Prepared:
    orc = certify_oracles(mc)
    shape = CERTIFY_SMALL_ROUND if small else CERTIFY_ROUND
    round_ = [_certify_request(mc, kind, rng, orc) for kind, n in shape for _ in range(n)]
    rng.shuffle(round_)
    warmup = _certify_request(mc, "rank_M8_p" if small else "rank_M10_mod2", rng, orc)
    return Prepared(round_, warmup)


# ---------------------------------------------------------------------------
# count: recount compiled graphs through the command line

# (variables, clauses, p) per request. Cost grows with the clause count and
# the variable count, not with the literals or the prime, so the shape is
# fixed per slot and the seed draws only the literals. Sorted by cost a round
# is one 1-clause formula (931 vertices), eight 2-clause ones (1402 vertices,
# one cost class) and one three-variable formula (width 37, about five times
# the cost of the others). The class of eight spans the sorted latencies from
# 10% to 90%, so the median and, for two to seven rounds, the tail both fall
# inside it rather than on a boundary between two costs.
COUNT_ROUND = (
    (2, 1, 3),
    (2, 2, 3), (2, 2, 5), (2, 2, 7), (2, 2, 3),
    (2, 2, 5), (2, 2, 7), (2, 2, 3), (2, 2, 5),
    (3, 1, 7),
)
COUNT_SMALL_ROUND = ((2, 1, 3),)


def _count_request(mc, path: Path, p: int, want: int) -> Request:
    seen: dict = {}

    def call():
        code, out = quiet_cli(mc, ["count", "--graph", str(path), "--mod", str(p)])
        return code, json.loads(out) if code == 0 else None

    def check(result) -> bool:
        code, payload = result
        if code != 0:
            return False
        seen["states_peak"] = payload["states_peak"]
        return (payload["modulus"] == p and payload["residue"] == want
                and payload["states_peak"] > 0)

    return Request("count", call, check, seen=seen)


def prepare_count(mc, rng: random.Random, workdir: Path, small: bool) -> Prepared:
    round_ = []
    for i, (n, m, p) in enumerate(COUNT_SMALL_ROUND if small else COUNT_ROUND):
        num_vars, clauses = random_3cnf(rng, n, m)
        cnf = workdir / f"count{i}.cnf"
        hcg = workdir / f"count{i}.hcg"
        cnf.write_text(dimacs(num_vars, clauses), encoding="ascii")
        code, _ = quiet_cli(mc, ["reduce", "--cnf", str(cnf), "--p", str(p), "--out", str(hcg)])
        if code != 0:
            raise RuntimeError(f"set-up could not compile {cnf.name}")
        req = _count_request(mc, hcg, p, model_count(num_vars, clauses) % p)
        req.seen.update(check_hcgraph(mc.graphs.read_hcgraph(hcg)))
        round_.append(req)
    rng.shuffle(round_)
    cheapest = min(round_, key=lambda r: r.seen["vertices"])
    return Prepared(round_, cheapest)


# ---------------------------------------------------------------------------
# compile: CNF to bounded-width graph through the command line

# (variables, clauses, beta, gamma, p) per request: three light slots, three
# middle ones and four heavy ones, each class of one cost. The median request
# is then a middle one and, from three rounds up, the tail a heavy one. The
# heavy shape (8098 vertices) is large enough that PathDecomposition.validate,
# whose edge check scans every bag, dominates, and small enough for three
# rounds in a 30 s run on a host at half speed.
COMPILE_ROUND = (
    (3, 3, 5, 1, 3), (3, 4, 5, 2, 11), (3, 3, 6, 2, 5),
    (4, 6, 5, 2, 5), (4, 6, 5, 2, 5), (4, 6, 5, 2, 5),
    (5, 6, 5, 1, 7), (5, 6, 5, 1, 7), (5, 6, 5, 1, 7), (5, 6, 5, 1, 7),
)
COMPILE_SMALL_ROUND = ((3, 2, 5, 1, 3), (3, 3, 5, 2, 5))


def _compile_request(mc, workdir: Path, i: int, shape, rng: random.Random) -> Request:
    n, m, beta, gamma, p = shape
    num_vars, clauses = random_3cnf(rng, n, m)
    cnf = workdir / f"compile{i}.cnf"
    out = workdir / f"compile{i}.hcg"
    cnf.write_text(dimacs(num_vars, clauses), encoding="ascii")
    pad = -num_vars % gamma
    q = (num_vars + pad) // gamma
    want = model_count(num_vars, clauses) * 2**pad % p
    argv = ["reduce", "--cnf", str(cnf), "--p", str(p), "--beta", str(beta),
            "--gamma", str(gamma), "--out", str(out)]
    seen: dict = {}

    def check(code) -> bool:
        if code != 0:
            return False
        meta = json.loads(Path(f"{out}.json").read_text(encoding="ascii"))
        sizes = check_hcgraph(mc.graphs.read_hcgraph(out))
        seen.update(sizes)
        return (meta["predicted_mod_p"] == want and meta["q"] == q
                and (meta["p"], meta["beta"], meta["gamma"]) == (p, beta, gamma)
                and meta["width"] == sizes["width"]
                and sizes["width"] <= (q + mc.reduction.WIDTH_CONSTANT) * beta)

    return Request("compile", lambda: quiet_cli(mc, argv)[0], check, seen=seen)


def prepare_compile(mc, rng: random.Random, workdir: Path, small: bool) -> Prepared:
    shapes = COMPILE_SMALL_ROUND if small else COMPILE_ROUND
    round_ = [_compile_request(mc, workdir, i, s, rng) for i, s in enumerate(shapes)]
    rng.shuffle(round_)
    warmup = _compile_request(mc, workdir, len(shapes), (3, 2, 5, 1, 3), rng)
    return Prepared(round_, warmup)


PREPARE = {"certify": prepare_certify, "count": prepare_count, "compile": prepare_compile}
