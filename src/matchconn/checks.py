"""The certification table: the published values and the checks of them.

This module is the single source of certification. It holds every
published value about the matchings connectivity matrix in one table,
``PUBLISHED``, and the fourteen suites that check them. ``matchconn verify``
prints their lines; the acceptance tests run the same suites, one per
criterion and in the same order, and assert that every line passed.

Suites call ``rank``, ``det`` and ``count_hc_pathdp`` through this module's
globals, so a test can replace one of them and watch the suites fail.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from types import MappingProxyType

from .amplify import verify_tensor_identity
from .exactalg import PrimeField, det, rank
from .graphs import LABEL_GADGET_EDGES, AnnotatedGraph, edge_key
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
    Cnf,
    GadgetSpec,
    assemble,
    build_fingerprint_gadget,
    count_sat,
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

__all__ = [
    "CNF_CORPUS",
    "CheckLine",
    "PUBLISHED",
    "SUITES",
    "SUITE_NAMES",
    "VERIFY_SEED",
    "order_12_ranks",
    "random_gadget_spec",
    "random_label_closure",
    "run_suite",
]


@dataclass
class CheckLine:
    suite: str
    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        return f"{tag} [{self.suite}] {self.name}: {self.detail}"


# Ranks are over Q unless a prime is named; orders are matrix orders k = 2n.
# The order-4 gluing counts are not in the paper: they pin how many of the
# 43 fingerprints have a boundaried realization.
PUBLISHED = {
    "det_order_6": -(2**17),
    "ranks_mod_2": {2: 1, 4: 2, 6: 4, 8: 8, 10: 16},
    "ranks_order_10_mod_p": {3: 567, 5: 945, 7: 945, 11: 945, 13: 945},
    "ranks_order_12_mod_p": {3: 3618, 5: 9890, 7: 9933},
    "rank_formula_by_n": {2: 3, 3: 15, 4: 105, 5: 945, 6: 9933},
    "spectrum_n_3": ((8, 1), (-2, 9), (2, 5)),
    "spectrum_n_4": ((48, 1), (-8, 20), (-2, 14), (4, 56), (-6, 14)),
    "bipartite_ranks_by_n": {2: 2, 3: 6, 4: 20, 5: 70},
    "sphere_sizes_n_4": (48, 32, 12, 12, 1),
    "tensor_ranks_mod_5": {"base": 15, "block": 225},
    "fingerprint_ranks": {0: 1, 2: 5, 4: 43, 6: 499},
    "glue_order_4": {"realizable": 33, "unconstructible": 10},
}

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
    edges = {edge_key(u, v) for u, v in LABEL_GADGET_EDGES}
    outer = list(range(10, 10 + rng.randint(3, 6)))
    ring = outer[:]
    rng.shuffle(ring)
    edges.update(edge_key(a, b) for a, b in zip(ring, ring[1:] + ring[:1]))
    for a, b in itertools.combinations(outer, 2):
        if (a, b) not in edges and rng.random() < 0.2:
            edges.add((a, b))
    stubs: dict[tuple[int, int], int] = {}
    for port in (1, 2, 3, 4):
        n_stubs = 1 if port in (1, 2) else rng.choice([1, 1, 2])
        # ports sit below the outer ids and each w is drawn once per port
        for w in rng.sample(outer, n_stubs):
            stubs[(port, w)] = port
    edges.update(stubs)
    return AnnotatedGraph.from_edges(outer, sorted(edges)), stubs


@lru_cache(maxsize=1)
def order_12_ranks() -> MappingProxyType:
    """Ranks of the order-12 matrix mod 3, 5 and 7, computed once per process.

    Each is an elimination of 35-70 s and 0.6 GB on a 2-core VM; rank-mod-p
    and rank-formula both read them.
    """
    m12 = build_M(12, large=True)
    return MappingProxyType(
        {p: rank(m12.with_field(PrimeField(p))) for p in PUBLISHED["ranks_order_12_mod_p"]}
    )


def _suite_determinant(large: bool) -> list[CheckLine]:
    value = det(build_M(6))
    want = PUBLISHED["det_order_6"]
    return [
        CheckLine(
            "determinant",
            "order-6 connectivity matrix",
            value == want,
            f"got {value}, published {want}",
        )
    ]


def _suite_rank_mod_2(large: bool) -> list[CheckLine]:
    out = []
    for k, want in PUBLISHED["ranks_mod_2"].items():
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
    for p, want in PUBLISHED["ranks_order_10_mod_p"].items():
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
        ranks = order_12_ranks()
        for p, want in PUBLISHED["ranks_order_12_mod_p"].items():
            got = ranks[p]
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
    published = PUBLISHED["rank_formula_by_n"]
    for n in (2, 3, 4, 5):
        formula = rational_rank_formula(n)
        measured = rank(build_M(2 * n))
        ok = formula == measured == published[n]
        out.append(
            CheckLine(
                "rank-formula",
                f"n={n}",
                ok,
                f"formula {formula}, measured rank {measured}",
            )
        )
    if large:
        # Rank mod p never exceeds the rational rank, and the rational rank
        # never exceeds the formula value, so reaching it mod 7 pins it.
        formula = rational_rank_formula(6)
        mod7 = order_12_ranks()[7]
        ok = formula == mod7 == published[6]
        out.append(
            CheckLine(
                "rank-formula",
                "n=6 certified through the mod-7 rank",
                ok,
                f"formula {formula}, rank mod 7 {mod7}",
            )
        )
    return out


def _suite_spectrum(large: bool) -> list[CheckLine]:
    certified = {n: certify_spectrum(n) for n in range(1, 6)}
    want_det = PUBLISHED["det_order_6"]
    out = []
    lines3, ok3 = certified[3]
    got3 = tuple((line.eta, line.multiplicity) for line in lines3)
    prod = 1
    for eta, mult in got3:
        prod *= eta**mult
    out.append(
        CheckLine(
            "spectrum",
            "n=3 eigenvalues and multiplicities",
            ok3 and got3 == PUBLISHED["spectrum_n_3"],
            f"got {got3}",
        )
    )
    out.append(
        CheckLine(
            "spectrum",
            "n=3 eigenvalue product equals the determinant",
            prod == want_det,
            f"product {prod}, determinant {want_det}",
        )
    )
    lines4, ok4 = certified[4]
    got4 = tuple((line.eta, line.multiplicity) for line in lines4)
    out.append(
        CheckLine(
            "spectrum",
            "n=4 eigenvalue column with nullities",
            ok4 and got4 == PUBLISHED["spectrum_n_4"],
            f"got {got4}",
        )
    )
    for n in (1, 2, 5):
        _, ok = certified[n]
        out.append(
            CheckLine(
                "spectrum",
                f"n={n} nullities and trace identities",
                ok,
                "all eigenspace dimensions and traces match",
            )
        )
    for n in range(1, 6):
        total = sum(line.multiplicity for line in certified[n][0])
        want = double_factorial(2 * n - 1)
        out.append(
            CheckLine(
                "spectrum",
                f"n={n} multiplicities sum to (2n-1)!!",
                total == want,
                f"sum {total}, double factorial {want}",
            )
        )
    return out


def _suite_bipartite(large: bool) -> list[CheckLine]:
    out = []
    for n, want in PUBLISHED["bipartite_ranks_by_n"].items():
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


def _suite_scheme(large: bool) -> list[CheckLine]:
    out = []
    for n in (1, 2, 3, 4):
        failures = verify_scheme_axioms(n)
        out.append(
            CheckLine(
                "scheme",
                f"axioms at n={n}",
                not failures,
                "; ".join(failures) or "all five axioms hold",
            )
        )
    row = tuple(sphere_size(4, lam) for lam in partitions(4))
    want_row = PUBLISHED["sphere_sizes_n_4"]
    out.append(
        CheckLine(
            "scheme",
            "sphere sizes at n=4",
            row == want_row,
            f"got {row}, published {want_row}",
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


def _suite_tensor(large: bool) -> list[CheckLine]:
    want = PUBLISHED["tensor_ranks_mod_5"]
    check = verify_tensor_identity(6, 2)
    block = rank(check.big_block.with_field(PrimeField(5)))
    base = rank(check.base_matrix.with_field(PrimeField(5)))
    return [
        CheckLine(
            "tensor",
            "order-6 base, two copies: block equals the Kronecker square",
            check.identity_holds,
            f"family size {check.family_size}",
        ),
        CheckLine(
            "tensor",
            "product block rank mod 5",
            block == check.family_size == want["block"],
            f"rank {block} of {check.family_size}x{check.family_size}",
        ),
        CheckLine(
            "tensor",
            "base rank mod 5",
            base == want["base"],
            f"rank {base}, published {want['base']}",
        ),
        CheckLine(
            "tensor",
            "block rank equals the base rank squared",
            block == base**2,
            f"block {block}, base {base}",
        ),
    ]


def _suite_fingerprint_rank(large: bool) -> list[CheckLine]:
    out = []
    published = PUBLISHED["fingerprint_ranks"]
    ranks_m = {i: (1 if i == 0 else rank(build_M(i))) for i in range(0, 7, 2)}
    for k in range(7):
        want = sum(
            comb(k, i) * 2 ** (k - i) * ranks_m[i] for i in range(0, k + 1, 2)
        )
        got = rank(build_H(k))
        detail = f"rank {got}, block-sum value {want}"
        if k in published:
            detail += f", published {published[k]}"
        out.append(
            CheckLine(
                "fingerprint-rank",
                f"order {k}",
                got == want == published.get(k, want),
                detail,
            )
        )
    return out


def _suite_gadgets(large: bool) -> list[CheckLine]:
    rng = random.Random(VERIFY_SEED)
    out = []
    for trial in range(25):
        spec = random_gadget_spec(rng)
        gadget = build_fingerprint_gadget(spec)
        spectrum = partial_solution_spectrum(gadget, spec.boundary)
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


def _suite_label_gadget(large: bool) -> list[CheckLine]:
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
    covers = _label_gadget_covers()
    out.append(
        CheckLine(
            "label-gadget",
            "every internal edge subset",
            covers == {(1, 2): [1], (3, 4): [1]},
            "2^10 subsets, ports taking 0-2 outside edges; paths of each cover "
            f"by outside labels: {covers}",
        )
    )
    return out


def _label_gadget_covers() -> dict[tuple[int, ...], list[int]]:
    """Every way the gadget's internal edges can be part of a Hamiltonian
    cycle: the subsets of LABEL_GADGET_EDGES where roles 5..9 have degree 2,
    each port i has degree at most 2 and takes 2 - degree outside edges
    labelled i, and no cycle closes inside. Returns, for each multiset of
    outside labels, the number of paths of each such subset.
    """
    covers: dict[tuple[int, ...], list[int]] = {}
    for mask in range(1 << len(LABEL_GADGET_EDGES)):
        chosen = [e for i, e in enumerate(LABEL_GADGET_EDGES) if mask >> i & 1]
        degree = dict.fromkeys(range(1, 10), 0)
        for u, v in chosen:
            degree[u] += 1
            degree[v] += 1
        if any(degree[r] != 2 for r in range(5, 10)) or any(degree[r] > 2 for r in range(1, 5)):
            continue
        # union-find over the roles: an edge inside one component closes a cycle
        root = list(range(10))
        closes = False
        for u, v in chosen:
            while root[u] != u:
                u = root[u]
            while root[v] != v:
                v = root[v]
            closes |= u == v
            root[u] = v
        if not closes:
            labels = tuple(r for r in range(1, 5) for _ in range(2 - degree[r]))
            # a forest on nine vertices has 9 - |edges| components, all paths
            covers.setdefault(labels, []).append(9 - len(chosen))
    return dict(sorted(covers.items()))


def _suite_reduction(large: bool) -> list[CheckLine]:
    out = []
    for name, cnf in CNF_CORPUS:
        for p in (3, 5):
            result = assemble(cnf, p)
            graph = result.graph
            width = graph.decomposition.validate_expansion(graph)
            measured = count_hc_pathdp(graph, modulus=p).value
            sites = len(graph.annotations)
            swept = len(graph.vertices)
            want_exact = count_sat(result.padded_cnf)
            want = want_exact % p
            ok = (
                measured == want
                and result.predicted == want
                and result.width == width <= result.width_bound
            )
            out.append(
                CheckLine(
                    "reduction",
                    f"{name}, mod {p}",
                    ok,
                    f"models {want_exact}, residue {measured}, predicted "
                    f"{result.predicted}, width {result.width}/{result.width_bound}, "
                    f"{sites} label sites, {swept + 8 * sites} written -> {swept} swept vertices",
                )
            )
    return out


def _suite_glue(large: bool) -> list[CheckLine]:
    want = PUBLISHED["glue_order_4"]
    H4 = build_H(4)
    fps = H4.row_labels
    realized = {}
    unconstructible = []
    for fp in fps:
        try:
            realized[fp] = boundaried_graph_for_fingerprint(fp)
        except GraphConstructionError:
            unconstructible.append(fp)
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
    # A cycle needs three vertices, so only closed walks over one or two
    # degree-2 vertices with nothing matched may lack a realization.
    odd_shapes = [
        fp.text()
        for fp in unconstructible
        if fp.matching.pairs or not 1 <= sum(d == 2 for d in fp.degrees) <= 2
    ]
    return [
        CheckLine(
            "glue",
            "order-4 realizations against the fingerprint matrix",
            mismatches == 0
            and len(realized) == want["realizable"]
            and len(unconstructible) == want["unconstructible"],
            f"{pairs} pairs over {len(realized)} constructible fingerprints, "
            f"{mismatches} mismatches, {len(unconstructible)} unconstructible",
        ),
        CheckLine(
            "glue",
            "unconstructible fingerprints are short closed walks",
            not odd_shapes,
            f"other shapes {odd_shapes}" if odd_shapes
            else "no matched pairs and one or two degree-2 vertices each",
        ),
    ]


def _suite_catalan(large: bool) -> list[CheckLine]:
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


# One suite per acceptance criterion, in criterion order. Every suite takes
# `large`; only rank-mod-p and rank-formula read it.
SUITES = {
    "determinant": _suite_determinant,
    "rank-mod-2": _suite_rank_mod_2,
    "rank-mod-p": _suite_rank_mod_p,
    "rank-formula": _suite_rank_formula,
    "spectrum": _suite_spectrum,
    "bipartite": _suite_bipartite,
    "scheme": _suite_scheme,
    "tensor": _suite_tensor,
    "fingerprint-rank": _suite_fingerprint_rank,
    "gadgets": _suite_gadgets,
    "label-gadget": _suite_label_gadget,
    "reduction": _suite_reduction,
    "glue": _suite_glue,
    "catalan": _suite_catalan,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, large: bool = False) -> list[CheckLine]:
    """The check lines of one suite, or of every suite for ``all``.

    ``large`` adds the order-12 tier to rank-mod-p and rank-formula.
    """
    if name == "all":
        lines: list[CheckLine] = []
        for suite in SUITES.values():
            lines.extend(suite(large))
        return lines
    return SUITES[name](large)
