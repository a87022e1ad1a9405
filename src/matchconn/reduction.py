"""Compile CNF model counting into Hamiltonian cycle counting mod p.

The compiler turns a formula phi into a graph whose Hamiltonian cycle count
is congruent to #SAT(phi) modulo a chosen prime, while keeping the pathwidth
close to the number of variables. The stages:

  * select_basis extracts index sets B_l, B_r of fingerprints on a small
    boundary whose combine submatrix F is invertible mod p, plus the
    encoding of truth assignments into the first members of B_r.
  * build_fingerprint_gadget realizes any prescribed list of partial-solution
    multiplicities (all sharing one anchor pair) as an explicit graph built
    from label gadgets, with a narrow path decomposition.
  * build_base_case stacks one gadget per variable block to express a single
    clause; compose_clause glues clause columns along shared boundaries.
  * assemble adds the left and right attachment gadgets that close every
    boundary, expands all label gadgets, and returns the final graph with
    its decomposition and the predicted residue.

Label annotations (1..4) survive until the final expansion step, so a label
site stays one vertex instead of nine while gadgets, clause columns and the
assembly are built. Each of those stages validates its path decomposition,
which costs O(sum of bag sizes + edges).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .exactalg import (
    ExactMatrix,
    PrimeField,
    ValidationError,
    full_rank_submatrix,
    inverse,
)
from .graphs import AnnotatedGraph, PathDecomposition, edge_key
from .matchings import Fingerprint, Matching, build_H

__all__ = [
    "BasisTooSmallError",
    "GadgetError",
    "Cnf",
    "parse_dimacs",
    "format_dimacs",
    "count_sat",
    "ReductionParams",
    "select_basis",
    "GadgetSpec",
    "build_fingerprint_gadget",
    "expand_label_gadgets",
    "ClausePiece",
    "build_base_case",
    "compose_clause",
    "ReductionOutput",
    "assemble",
    "LABEL_GADGET_EDGES",
    "MAX_SAT_VARS",
    "DEFAULT_GADGET_BUDGET",
    "WIDTH_CONSTANT",
]

MAX_SAT_VARS = 20
DEFAULT_GADGET_BUDGET = 512

# Extra pathwidth the compiled graph may use beyond one block row; the
# assembled decomposition is measured and checked against
# q*beta + WIDTH_CONSTANT*beta every time.
WIDTH_CONSTANT = 6

# Internal wiring of the 9-vertex replacement for an annotated vertex.
# External edges labeled i attach to replacement vertex i (1 <= i <= 4).
LABEL_GADGET_EDGES = (
    (1, 5),
    (5, 3),
    (6, 7),
    (7, 8),
    (4, 9),
    (9, 2),
    (2, 8),
    (1, 6),
    (3, 8),
    (6, 4),
)


class BasisTooSmallError(ValidationError):
    """The invertible fingerprint submatrix cannot host the encoding."""

    def __init__(self, message: str, achieved: int, needed: int) -> None:
        super().__init__(message)
        self.achieved = achieved
        self.needed = needed


class GadgetError(ValidationError):
    """A gadget description violates the construction's preconditions."""


# ---------------------------------------------------------------------------
# CNF formulas


@dataclass(frozen=True)
class Cnf:
    """CNF formula; literals are nonzero ints, clause tuples may be empty."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValidationError("variable count cannot be negative")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0:
                    raise ValidationError("literal 0 is reserved as a clause terminator")
                if abs(lit) > self.num_vars:
                    raise ValidationError(
                        f"literal {lit} exceeds declared variable count {self.num_vars}"
                    )

    @classmethod
    def from_clauses(cls, num_vars: int, clauses: Iterable[Iterable[int]]) -> "Cnf":
        return cls(num_vars, tuple(tuple(c) for c in clauses))


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS cnf text; clauses are 0-terminated, '%' ends the file."""
    num_vars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValidationError(f"bad problem line {line!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ValidationError("clause data before the problem line")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if num_vars is None:
        raise ValidationError("missing problem line")
    if current:
        raise ValidationError("last clause is not 0-terminated")
    if declared is not None and declared != len(clauses):
        raise ValidationError(
            f"problem line declares {declared} clauses, found {len(clauses)}"
        )
    return Cnf(num_vars, tuple(clauses))


def format_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause + (0,)))
    return "\n".join(lines) + "\n"


def count_sat(cnf: Cnf) -> int:
    """Exact model count by exhaustive assignment sweep (small formulas)."""
    if cnf.num_vars > MAX_SAT_VARS:
        raise ValidationError(
            f"{cnf.num_vars} variables exceeds the brute-force cap {MAX_SAT_VARS}"
        )
    total = 0
    for bits in range(1 << cnf.num_vars):
        ok = True
        for clause in cnf.clauses:
            if not any(
                ((bits >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in clause
            ):
                ok = False
                break
        if ok:
            total += 1
    return total


def _clause_satisfied_by_block(
    clause: Sequence[int], variables: Sequence[int], bits: Sequence[int]
) -> bool:
    """Does setting this variable block already satisfy the clause?"""
    assign = {v: b for v, b in zip(variables, bits)}
    for lit in clause:
        val = assign.get(abs(lit))
        if val is not None and (val == 1) == (lit > 0):
            return True
    return False


# ---------------------------------------------------------------------------
# basis selection


@dataclass(frozen=True)
class ReductionParams:
    """Prime, block size, encoding width and the invertible combine block.

    left_basis lives on the row side (each member has degrees 1 at vertices
    1,2,3 and matches 1 with 3); right_basis on the column side (1 matched
    with 2). The first 2**gamma right members encode assignments in binary
    counter order, most significant variable first.
    """

    beta: int
    gamma: int
    p: int
    left_basis: tuple[Fingerprint, ...]
    right_basis: tuple[Fingerprint, ...]
    f_matrix: ExactMatrix
    f_inverse: ExactMatrix

    def encoding_assignment(self, index: int) -> tuple[int, ...] | None:
        """Bits encoded by right_basis[index], or None past the encoding range."""
        if index < 0 or index >= len(self.right_basis):
            raise ValidationError(f"basis index {index} out of range")
        if index >= 1 << self.gamma:
            return None
        return tuple((index >> (self.gamma - 1 - j)) & 1 for j in range(self.gamma))

    def inverse_entry(self, f_right: Fingerprint, f_left: Fingerprint) -> int:
        """Canonical lift in 0..p-1 of F^{-1}[f_right, f_left]."""
        i = self.right_basis.index(f_right)
        j = self.left_basis.index(f_left)
        return self.f_inverse[i, j] % self.p

    def inverse_column_sum(self, f_left: Fingerprint) -> int:
        """Canonical lift of sum_{f in right_basis} F^{-1}[f, f_left]."""
        j = self.left_basis.index(f_left)
        return sum(self.f_inverse[i, j] for i in range(len(self.right_basis))) % self.p


def select_basis(beta: int, gamma: int, p: int) -> ReductionParams:
    """Pick the invertible fingerprint block used by the whole compiler.

    Rows are restricted to fingerprints with degree 1 at vertices 1, 2, 3
    and the pair {1,3} matched; columns to the same degrees with {1,2}
    matched. The greedy full-rank extraction on the combine matrix mod p is
    deterministic, so the basis (and hence the compiled graphs) depend only
    on (beta, gamma, p).
    """
    if beta < 4:
        raise ValidationError(f"block size {beta} too small, need at least 4")
    if gamma < 0:
        raise ValidationError("encoding width cannot be negative")
    field = PrimeField(p)
    h = build_H(beta).with_field(field)

    def left_ok(f: Fingerprint) -> bool:
        d = f.degrees
        return d[0] == 1 and d[1] == 1 and d[2] == 1 and (1, 3) in f.matching.pairs

    def right_ok(f: Fingerprint) -> bool:
        d = f.degrees
        return d[0] == 1 and d[1] == 1 and d[2] == 1 and (1, 2) in f.matching.pairs

    rows, cols = full_rank_submatrix(h, left_ok, right_ok)
    needed = 1 << gamma
    if len(rows) < needed:
        raise BasisTooSmallError(
            f"basis too small: extracted {len(rows)} fingerprints mod {p} "
            f"with block size {beta}, but the encoding needs {needed}; "
            f"increase beta",
            achieved=len(rows),
            needed=needed,
        )
    f_matrix = h.submatrix(rows, cols)
    f_inv = inverse(f_matrix)
    return ReductionParams(
        beta=beta,
        gamma=gamma,
        p=p,
        left_basis=tuple(h.row_labels[i] for i in rows),
        right_basis=tuple(h.col_labels[j] for j in cols),
        f_matrix=f_matrix,
        f_inverse=f_inv,
    )


# ---------------------------------------------------------------------------
# fingerprint gadgets


@dataclass(frozen=True)
class GadgetSpec:
    """Prescribed partial-solution multiplicities over one boundary.

    counts holds (fingerprint, multiplicity) sorted canonically. Every
    supported fingerprint must match the anchor pair, at least two distinct
    fingerprints must be supported, and the total multiplicity is capped by
    the budget.
    """

    boundary: tuple[int, ...]
    anchors: tuple[int, int]
    counts: tuple[tuple[Fingerprint, int], ...]
    budget: int = DEFAULT_GADGET_BUDGET

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.boundary))) != self.boundary:
            raise GadgetError("boundary must be sorted distinct ids")
        a, b = self.anchors
        if a == b or a not in self.boundary or b not in self.boundary:
            raise GadgetError(f"anchors {self.anchors} must be two distinct boundary ids")
        pair = edge_key(a, b)
        seen = set()
        for fp, mult in self.counts:
            if fp.boundary != self.boundary:
                raise GadgetError(
                    f"fingerprint boundary {fp.boundary} differs from {self.boundary}"
                )
            if mult <= 0:
                raise GadgetError("multiplicities must be positive")
            if pair not in fp.matching.pairs:
                raise GadgetError(
                    f"supported fingerprint {fp.text()} does not match anchors {pair}"
                )
            if fp in seen:
                raise GadgetError(f"fingerprint {fp.text()} listed twice")
            seen.add(fp)
        if len(seen) < 2:
            raise GadgetError(
                f"need at least 2 distinct supported fingerprints, got {len(seen)}"
            )
        total = self.total()
        if total > self.budget:
            raise GadgetError(f"total multiplicity {total} exceeds budget {self.budget}")

    @classmethod
    def make(
        cls,
        boundary: Sequence[int],
        anchors: Sequence[int],
        counts: Mapping[Fingerprint, int],
        budget: int = DEFAULT_GADGET_BUDGET,
    ) -> "GadgetSpec":
        items = tuple(sorted((fp, m) for fp, m in counts.items() if m))
        return cls(tuple(sorted(boundary)), (anchors[0], anchors[1]), items, budget)

    def multiplicity(self, fp: Fingerprint) -> int:
        for f, m in self.counts:
            if f == fp:
                return m
        return 0

    def total(self) -> int:
        return sum(m for _, m in self.counts)


class _IdAlloc:
    """Hands out consecutive fresh vertex ids."""

    def __init__(self, start: int) -> None:
        self.next = start

    def take(self) -> int:
        v = self.next
        self.next += 1
        return v


def build_fingerprint_gadget(spec: GadgetSpec, start_id: int | None = None) -> AnnotatedGraph:
    """Realize the prescribed multiplicities with chains of label gadgets.

    One chain per supported fingerprint occurrence (repeats consecutive, in
    canonical fingerprint order). Chain i covers the edge sequence made of a
    path from the chain start through the fingerprint's degree-2 vertices to
    the collector, followed by the non-anchor matching pairs; each edge in
    the sequence becomes a label-gadget vertex whose label-1/label-2 edges
    attach its endpoints. Consecutive positions link with labels 4 -> 3, as
    do consecutive chains and the skip edges that jump one whole chain.
    Entry edges reach the first two chains through a forced hub next to the
    collector, and the last two chains exit to the second anchor.

    The returned graph carries annotations plus a path decomposition whose
    bags all contain boundary + {chain start, collector, hub}, so its width
    is the boundary size plus a constant.
    """
    a, b = spec.anchors
    graph = AnnotatedGraph()
    for v in spec.boundary:
        graph.add_vertex(v)
    ids = _IdAlloc(start_id if start_id is not None else max(spec.boundary) + 1)
    tail_mid = ids.take()  # forces the tail: degree 2 with neighbors a, chain start
    chain_start = ids.take()
    collector = ids.take()
    entry_hub = ids.take()  # degree-2 hub: collector on one side, one entry on the other
    graph.add_edge(a, tail_mid)
    graph.add_edge(tail_mid, chain_start)
    graph.add_edge(collector, entry_hub)

    sequence: list[Fingerprint] = []
    for fp, mult in spec.counts:
        sequence.extend([fp] * mult)

    labels: dict[int, dict[tuple[int, int], int]] = {}

    def mark(site: int, u: int, v: int, lab: int) -> None:
        labels.setdefault(site, {})[edge_key(u, v)] = lab

    anchor_pair = edge_key(a, b)
    chains: list[list[int]] = []
    for fp in sequence:
        two = sorted(fp.degree_set(2))
        path = [chain_start, *two, collector]
        edge_seq = list(zip(path, path[1:]))
        edge_seq.extend(p for p in fp.matching.pairs if p != anchor_pair)
        sites: list[int] = []
        for u, v in edge_seq:
            site = ids.take()
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

    for site, labs in labels.items():
        graph.annotate(site, labs)

    core = tuple(sorted(set(spec.boundary) | {chain_start, collector, entry_hub}))
    bags: list[tuple[int, ...]] = [tuple(sorted(core + (tail_mid,)))]
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
    graph.decomposition.validate(graph)
    return graph


def expand_label_gadgets(graph: AnnotatedGraph) -> AnnotatedGraph:
    """Replace every annotated vertex by its 9-vertex implementation.

    External edges move to the replacement vertex named by their label; the
    internal wiring is LABEL_GADGET_EDGES. If the input carries a path
    decomposition, each bag occurrence of an annotated vertex is rewritten:
    the first occurrence receives all nine replacement ids, later
    occurrences keep only vertices 3 and 4 (the only ones with edges to
    later-introduced sites). Graphs without annotations come back unchanged.
    """
    if not graph.annotations:
        return graph
    out = AnnotatedGraph()
    base = max(graph.vertices, default=0) + 1
    blob: dict[int, dict[int, int]] = {}
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

    def image(v: int, other: int) -> int:
        if v not in blob:
            return v
        lab = graph.annotations[v][edge_key(v, other)]
        return blob[v][lab]

    for u, v in sorted(graph.edges):
        out.add_edge(image(u, v), image(v, u))

    if graph.decomposition is not None:
        first, _, _ = graph.decomposition.occurrence_intervals()
        bags = []
        for idx, bag in enumerate(graph.decomposition.bags):
            new_bag: list[int] = []
            for v in bag:
                if v not in blob:
                    new_bag.append(v)
                elif idx == first[v]:
                    new_bag.extend(blob[v].values())
                else:
                    new_bag.extend((blob[v][3], blob[v][4]))
            bags.append(tuple(sorted(set(new_bag))))
        out.decomposition = PathDecomposition(bags)
        out.decomposition.validate(out)
    return out


# ---------------------------------------------------------------------------
# clause columns


@dataclass
class ClausePiece:
    """One or more glued clause columns, open at the left and right boundary."""

    graph: AnnotatedGraph
    bags: list[tuple[int, ...]]
    left_blocks: tuple[tuple[int, ...], ...]
    right_blocks: tuple[tuple[int, ...], ...]


# Interface degree patterns (top, bottom) a block may expose, depending on
# whether its encoded assignment already satisfies the clause. Free chain
# ends must reach degree 2, which forces exactly one block to the (2, 2)
# pattern and makes it the unique transition between the two regimes; no
# globally consistent pattern exists when no block satisfies the clause.
_SATISFIED_PATTERNS = ((2, 2), (0, 2))
_UNSATISFIED_PATTERNS = ((2, 0), (0, 2))


def _map_block(fp_vertex: int, block: Sequence[int]) -> int:
    return block[fp_vertex - 1]


def _block_fingerprint(
    f_left: Fingerprint,
    f_right: Fingerprint,
    left_ids: Sequence[int],
    right_ids: Sequence[int],
    top: int,
    bottom: int,
    d_top: int,
    d_bottom: int,
) -> Fingerprint:
    """Combined fingerprint of one clause block with the crossing rewiring.

    The pair 1-2 of the left fingerprint and 1-3 of the right one are
    replaced by the crossings left1-right1 and left2-right3; the interface
    vertices carry the given degrees and stay unmatched.
    """
    deg: dict[int, int] = {}
    for j, d in zip(f_left.boundary, f_left.degrees):
        deg[_map_block(j, left_ids)] = d
    for j, d in zip(f_right.boundary, f_right.degrees):
        deg[_map_block(j, right_ids)] = d
    deg[top] = d_top
    deg[bottom] = d_bottom
    pairs = [
        (_map_block(u, left_ids), _map_block(v, left_ids))
        for u, v in f_left.matching.pairs
        if (u, v) != (1, 2)
    ]
    pairs += [
        (_map_block(u, right_ids), _map_block(v, right_ids))
        for u, v in f_right.matching.pairs
        if (u, v) != (1, 3)
    ]
    pairs.append((_map_block(1, left_ids), _map_block(1, right_ids)))
    pairs.append((_map_block(2, left_ids), _map_block(3, right_ids)))
    boundary = tuple(sorted(deg))
    degrees = tuple(deg[v] for v in boundary)
    return Fingerprint(boundary, degrees, Matching.from_pairs(pairs))


def build_base_case(
    params: ReductionParams,
    left_blocks: Sequence[Sequence[int]],
    right_blocks: Sequence[Sequence[int]],
    var_blocks: Sequence[Sequence[int]],
    clause: Sequence[int],
    start_id: int,
) -> ClausePiece:
    """One clause column: a stack of fingerprint gadgets joined by a chain.

    Block i spans left_blocks[i] and right_blocks[i] plus two interface
    vertices shared with the neighboring blocks (the bottom of block i is
    the top of block i-1). Supported fingerprints combine an encoding right
    member on the left boundary with a left-basis member on the right
    boundary, the crossing rewiring, an interface degree pattern gated by
    whether the block's assignment satisfies the clause, and multiplicity
    equal to the lifted inverse-matrix entry. Non-encoding members are not
    supported at all, so only genuine assignments contribute.
    """
    q = len(left_blocks)
    if q == 0 or len(right_blocks) != q or len(var_blocks) != q:
        raise ValidationError("need matching nonempty block lists")
    ids = _IdAlloc(start_id)
    chain = [ids.take() for _ in range(q + 1)]  # chain[i-1]=bottom_i, chain[i]=top_i
    graph = AnnotatedGraph()
    bags: list[tuple[int, ...]] = []
    all_left = [v for blk in left_blocks for v in blk]
    all_right = [v for blk in right_blocks for v in blk]
    bags.append(tuple(sorted(all_left)))
    encodings = 1 << params.gamma
    for i in range(1, q + 1):
        left_ids = tuple(left_blocks[i - 1])
        right_ids = tuple(right_blocks[i - 1])
        top, bottom = chain[i], chain[i - 1]
        counts: dict[Fingerprint, int] = {}
        for idx in range(min(encodings, len(params.right_basis))):
            f_left = params.right_basis[idx]
            bits = params.encoding_assignment(idx)
            satisfied = _clause_satisfied_by_block(clause, var_blocks[i - 1], bits)
            patterns = _SATISFIED_PATTERNS if satisfied else _UNSATISFIED_PATTERNS
            for f_right in params.left_basis:
                mult = params.inverse_entry(f_left, f_right)
                if mult == 0:
                    continue
                for d_top, d_bottom in patterns:
                    fp = _block_fingerprint(
                        f_left, f_right, left_ids, right_ids, top, bottom, d_top, d_bottom
                    )
                    if fp in counts:
                        raise GadgetError("block fingerprint produced twice")
                    counts[fp] = mult
        boundary = tuple(sorted(left_ids + right_ids + (top, bottom)))
        spec = GadgetSpec.make(boundary, (left_ids[0], right_ids[0]), counts)
        gadget = build_fingerprint_gadget(spec, ids.next)
        ids.next = max(gadget.vertices) + 1
        graph.union_into(gadget)
        hold = set(
            v
            for blk in itertools.chain(left_blocks[i - 1 :], right_blocks[: i - 1])
            for v in blk
        )
        for gb in gadget.decomposition.bags:
            bags.append(tuple(sorted(hold | set(gb))))
        sep = set(
            v for blk in itertools.chain(left_blocks[i:], right_blocks[:i]) for v in blk
        )
        sep.add(chain[i])
        bags.append(tuple(sorted(sep)))
    bags.append(tuple(sorted(all_right)))
    piece = ClausePiece(
        graph=graph,
        bags=bags,
        left_blocks=tuple(tuple(b) for b in left_blocks),
        right_blocks=tuple(tuple(b) for b in right_blocks),
    )
    PathDecomposition(piece.bags).validate(graph)
    return piece


def compose_clause(left: ClausePiece, right: ClausePiece) -> ClausePiece:
    """Glue two clause pieces along the shared variable boundary."""
    if left.right_blocks != right.left_blocks:
        raise ValidationError(
            "clause pieces do not share a boundary: "
            f"{left.right_blocks} vs {right.left_blocks}"
        )
    shared = set(v for blk in right.left_blocks for v in blk)
    for side, g in (("left", left.graph), ("right", right.graph)):
        for u, v in g.edges:
            if u in shared and v in shared:
                raise ValidationError(
                    f"shared boundary is not independent in the {side} piece "
                    f"(edge {u}-{v})"
                )
    overlap = (left.graph.vertices & right.graph.vertices) - shared
    if overlap:
        raise ValidationError(
            f"clause pieces overlap off the shared boundary: {sorted(overlap)[:5]}"
        )
    graph = AnnotatedGraph()
    graph.union_into(left.graph)
    graph.union_into(right.graph)
    return ClausePiece(
        graph=graph,
        bags=list(left.bags) + list(right.bags),
        left_blocks=left.left_blocks,
        right_blocks=right.right_blocks,
    )


# ---------------------------------------------------------------------------
# final assembly


def _left_attachment_fingerprint(
    f_left_basis: Fingerprint, block: Sequence[int], top: int, bottom: int
) -> Fingerprint:
    """Left-basis member rerouted through the two ring vertices.

    The pair 1-3 opens up; vertex 1 matches the top ring vertex and vertex 3
    the bottom one, both with degree 1, so the partial solutions thread the
    ring vertex pair into the global cycle.
    """
    deg = {_map_block(j, block): d for j, d in zip(f_left_basis.boundary, f_left_basis.degrees)}
    deg[top] = 1
    deg[bottom] = 1
    pairs = [
        (_map_block(u, block), _map_block(v, block))
        for u, v in f_left_basis.matching.pairs
        if (u, v) != (1, 3)
    ]
    pairs.append((_map_block(1, block), top))
    pairs.append((_map_block(3, block), bottom))
    boundary = tuple(sorted(deg))
    degrees = tuple(deg[v] for v in boundary)
    return Fingerprint(boundary, degrees, Matching.from_pairs(pairs))


@dataclass
class ReductionOutput:
    """Compiled graph plus everything needed to check it."""

    graph: AnnotatedGraph
    decomposition: PathDecomposition
    params: ReductionParams
    predicted: int
    width: int
    width_bound: int
    q: int
    pad_vars: int
    padded_cnf: Cnf

    def sidecar(self) -> dict:
        return {
            "p": self.params.p,
            "beta": self.params.beta,
            "gamma": self.params.gamma,
            "q": self.q,
            "width": self.width,
            "predicted_mod_p": self.predicted,
        }


class _stage:
    """Prefix validation errors with the pipeline stage that raised them."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_stage":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None and isinstance(exc, ValidationError) and exc.args:
            first = exc.args[0]
            if isinstance(first, str) and not first.startswith("["):
                exc.args = (f"[{self.name}] {first}",) + exc.args[1:]
        return False


def assemble(
    cnf: Cnf,
    p: int,
    beta: int = 5,
    gamma: int = 1,
    allow_empty: bool = False,
) -> ReductionOutput:
    """Compile the formula into a closed graph counting its models mod p.

    Variables are padded to a multiple of gamma (free padding variables);
    clause columns are built and glued left to right; right attachments pin
    every right-basis fingerprint once on the last boundary; left
    attachments carry the lifted inverse-column sums and thread a ring of
    interface vertices so everything closes into Hamiltonian cycles. The
    result is fully expanded (no annotations) and its decomposition width
    is checked against q*beta + WIDTH_CONSTANT*beta.

    The predicted residue refers to the padded formula; with gamma = 1 no
    padding ever happens and it equals #SAT(cnf) mod p.
    """
    if gamma < 1:
        raise ValidationError("encoding width must be at least 1")
    if not cnf.clauses and not allow_empty:
        raise ValidationError(
            "formula has no clauses; pass allow_empty to compile it anyway"
        )
    with _stage("select_basis"):
        params = select_basis(beta, gamma, p)

    pad = (-cnf.num_vars) % gamma
    nvars = cnf.num_vars + pad
    if nvars == 0:
        nvars = gamma
        pad = gamma
    q = nvars // gamma
    clauses = cnf.clauses if cnf.clauses else ((1, -1),)
    padded = Cnf(nvars, clauses)
    m = len(clauses)
    var_blocks = [tuple(range(i * gamma + 1, (i + 1) * gamma + 1)) for i in range(q)]

    ids = _IdAlloc(1)
    boundaries: list[list[tuple[int, ...]]] = []
    for _ in range(m + 1):
        boundaries.append([tuple(ids.take() for _ in range(beta)) for _ in range(q)])

    with _stage("build_base_case"):
        pieces = []
        for j, clause in enumerate(clauses):
            piece = build_base_case(
                params, boundaries[j], boundaries[j + 1], var_blocks, clause, ids.next
            )
            ids.next = max(piece.graph.vertices) + 1
            pieces.append(piece)
    with _stage("compose_clause"):
        column = pieces[0]
        for piece in pieces[1:]:
            column = compose_clause(column, piece)

    # Right attachments: every right-basis fingerprint realized once.
    with _stage("right_attachment"):
        right_gadgets = []
        for i in range(q):
            block = boundaries[m][i]
            mapping = {j + 1: block[j] for j in range(beta)}
            counts = {fp.relabel(mapping): 1 for fp in params.right_basis}
            spec = GadgetSpec.make(block, (block[0], block[1]), counts)
            gadget = build_fingerprint_gadget(spec, ids.next)
            ids.next = max(gadget.vertices) + 1
            right_gadgets.append(gadget)

    # Left attachments thread a ring: the top of block i is the bottom of
    # block i+1 (cyclically); one block collapses to a subdivided edge
    # between two distinct interface vertices instead of a self-loop.
    with _stage("left_attachment"):
        ring_edges: list[tuple[int, int]] = []
        if q >= 2:
            ring = [ids.take() for _ in range(q)]
            tops = ring
            bottoms = [ring[(i + 1) % q] for i in range(q)]
        else:
            top_v = ids.take()
            bottom_v = ids.take()
            mid_v = ids.take()
            ring = [top_v, bottom_v, mid_v]
            tops = [top_v]
            bottoms = [bottom_v]
            ring_edges = [(top_v, mid_v), (mid_v, bottom_v)]
        left_gadgets = []
        for i in range(q):
            block = boundaries[0][i]
            counts: dict[Fingerprint, int] = {}
            for f_a in params.left_basis:
                weight = params.inverse_column_sum(f_a)
                if weight == 0:
                    continue
                counts[_left_attachment_fingerprint(f_a, block, tops[i], bottoms[i])] = weight
            boundary = tuple(sorted(block + (tops[i], bottoms[i])))
            spec = GadgetSpec.make(boundary, (block[0], tops[i]), counts)
            gadget = build_fingerprint_gadget(spec, ids.next)
            ids.next = max(gadget.vertices) + 1
            left_gadgets.append(gadget)

    with _stage("assemble"):
        full = AnnotatedGraph()
        full.union_into(column.graph)
        for g in right_gadgets:
            full.union_into(g)
        for g in left_gadgets:
            full.union_into(g)
        for u, v in ring_edges:
            full.add_edge(u, v)

        all_left = set(v for blk in boundaries[0] for v in blk)
        all_right = set(v for blk in boundaries[m] for v in blk)
        bags: list[tuple[int, ...]] = []
        # the wrap-around ring vertex stays in every prefix bag
        pin = {ring[0]} if q >= 2 else set()
        for g in left_gadgets:
            for gb in g.decomposition.bags:
                bags.append(tuple(sorted(all_left | pin | set(gb))))
        if q == 1:
            bags.append(tuple(sorted(all_left | set(ring))))
        bags.extend(column.bags)
        for g in right_gadgets:
            for gb in g.decomposition.bags:
                bags.append(tuple(sorted(all_right | set(gb))))
        full.decomposition = PathDecomposition(bags)
        full.decomposition.validate(full)

    with _stage("expand_label_gadgets"):
        expanded = expand_label_gadgets(full)

    width = expanded.decomposition.width
    bound = q * beta + WIDTH_CONSTANT * beta
    if width > bound:
        raise ValidationError(
            f"[assemble] decomposition width {width} exceeds {q}*{beta} + "
            f"{WIDTH_CONSTANT}*{beta} = {bound}"
        )
    predicted = count_sat(padded) % p
    return ReductionOutput(
        graph=expanded,
        decomposition=expanded.decomposition,
        params=params,
        predicted=predicted,
        width=width,
        width_bound=bound,
        q=q,
        pad_vars=pad,
        padded_cnf=padded,
    )
