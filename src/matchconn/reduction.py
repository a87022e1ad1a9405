"""Compile CNF model counting into Hamiltonian cycle counting mod p.

The compiler turns a formula phi into a graph whose Hamiltonian cycle count
is congruent to #SAT(phi) modulo a chosen prime, while keeping the pathwidth
close to the number of variables. The stages:

  * select_basis extracts index sets B_l, B_r of fingerprints on a small
    boundary whose combine submatrix F is invertible mod p, plus the
    encoding of truth assignments into the first members of B_r.
  * build_fingerprint_gadget realizes any prescribed list of partial-solution
    multiplicities (all sharing one anchor pair) as an explicit graph built
    from label gadgets, with a narrow path decomposition; the compiler
    takes the same gadget as its edges, labels and bags.
  * build_base_case stacks one gadget per variable block to express a single
    clause; compose_clause glues clause columns along shared boundaries.
  * assemble adds the left and right attachment gadgets that close every
    boundary and returns the final graph with its decomposition and the
    predicted residue.

The stages pass plain data, not graphs: sorted edge keys, the labels
(1..4) of each label site, and bags, which hold every vertex, so the next
free id is one above the largest bag vertex. assemble builds the one graph from all of it in a single `AnnotatedGraph.from_edges` call, which
also checks that every edge at a site carries a label. A label site stays
one vertex instead of nine all the way through: `write_hcgraph` writes each
site as its 9-vertex gadget, and the bag sweep counts sites directly. Every
stage runs in passes linear in its edges and bags and trusts the parts it
wrote itself; assemble validates once, with
`PathDecomposition.validate_expansion`, the bags written for the graph it
returns, at a cost of O(sum of bag sizes + edges).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .exactalg import (
    ExactMatrix,
    PrimeField,
    ValidationError,
    full_rank_submatrix,
    inverse,
)
from .graphs import AnnotatedGraph, PathDecomposition, _line_ints, edge_key
from .matchings import Fingerprint, Matching, build_H

__all__ = [
    "BasisTooSmallError",
    "GadgetError",
    "Cnf",
    "parse_dimacs",
    "count_sat",
    "ReductionParams",
    "select_basis",
    "GadgetSpec",
    "build_fingerprint_gadget",
    "ClausePiece",
    "build_base_case",
    "compose_clause",
    "ReductionOutput",
    "assemble",
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


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS cnf text: one problem line, then 0-terminated clauses;
    '%' ends the file."""
    num_vars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValidationError(f"bad problem line {line!r}")
            if num_vars is not None:
                raise ValidationError(f"line {lineno}: second problem line")
            num_vars, declared = _line_ints(parts[2:], lineno)
            continue
        if num_vars is None:
            raise ValidationError("clause data before the problem line")
        for lit in _line_ints(line.split(), lineno):
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

    def total(self) -> int:
        return sum(m for _, m in self.counts)


def _gadget_parts(spec: GadgetSpec, start_id: int | None):
    """The edge keys, site labels and bags of `build_fingerprint_gadget`'s
    graph, and the first id above the fresh ones it took. Every vertex of
    the gadget is in its bags."""
    a, b = spec.anchors
    start = start_id if start_id is not None else spec.boundary[-1] + 1
    if start <= spec.boundary[-1]:
        raise GadgetError(f"start id {start} does not exceed the boundary {spec.boundary}")
    # tail_mid forces the tail: degree 2 with neighbors a and the chain start;
    # entry_hub is a degree-2 hub: collector on one side, one entry on the other
    tail_mid, chain_start, collector, entry_hub = range(start, start + 4)
    next_id = start + 4
    # Fresh ids exceed the boundary and grow in the order they are taken, so
    # every key below is written sorted: (older id, newer id).
    edges = [(a, tail_mid), (tail_mid, chain_start), (collector, entry_hub)]
    labels: dict[int, dict[tuple[int, int], int]] = {}

    anchor_pair = edge_key(a, b)
    chains: list[list[int]] = []
    for fp, mult in spec.counts:
        path = [chain_start, *sorted(fp.degree_set(2)), collector]
        edge_seq = list(zip(path, path[1:]))
        edge_seq.extend(p for p in fp.matching.pairs if p != anchor_pair)
        for _ in range(mult):
            sites = list(range(next_id, next_id + len(edge_seq)))
            next_id += len(edge_seq)
            for j, (site, (u, v)) in enumerate(zip(sites, edge_seq)):
                e1, e2 = (u, site), (v, site)
                edges += (e1, e2)
                labs = labels[site] = {e1: 1, e2: 2}
                if j:
                    link = (sites[j - 1], site)
                    edges.append(link)
                    labels[link[0]][link] = 4
                    labs[link] = 3
            chains.append(sites)

    heads = [sites[0] for sites in chains]
    ends = [sites[-1] for sites in chains]
    # consecutive chains, then the skip edges that jump one whole chain
    for link in itertools.chain(zip(ends, heads[1:]), zip(ends, heads[2:])):
        edges.append(link)
        labels[link[0]][link] = 4
        labels[link[1]][link] = 3
    for head in heads[:2]:
        edges.append((entry_hub, head))
        labels[head][entry_hub, head] = 3
    for end in ends[-2:]:
        edges.append((b, end))
        labels[end][b, end] = 4

    core = spec.boundary + (chain_start, collector, entry_hub)
    bags: list[tuple[int, ...]] = [tuple(sorted(core + (tail_mid,)))]
    for ci, sites in enumerate(chains):
        for j, site in enumerate(sites):
            extra = {site}
            if j > 0:
                extra.add(sites[j - 1])
            if ci > 0:
                extra.add(ends[ci - 1])
            if ci > 1 and j == 0:
                extra.add(ends[ci - 2])
            bags.append(core + tuple(sorted(extra)))
    return edges, labels, bags, next_id


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

    The returned graph is built in one pass from its edge list and site
    labels, and carries a path decomposition whose bags all contain
    boundary + {chain start, collector, hub}, so its width is the boundary
    size plus a constant. Fresh ids start at `start_id`, by default one
    above the boundary, and must exceed it.
    """
    edges, labels, bags, _ = _gadget_parts(spec, start_id)
    graph = AnnotatedGraph.from_edges(spec.boundary, edges, labels)
    graph.decomposition = PathDecomposition(bags)
    return graph


# ---------------------------------------------------------------------------
# clause columns


@dataclass
class ClausePiece:
    """One or more glued clause columns, open at the left and right boundary.

    The piece is its sorted edge keys, the labels of its label sites and
    its bags; its vertices are the vertices of its bags.
    """

    edges: list[tuple[int, int]]
    labels: dict[int, dict[tuple[int, int], int]]
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
    chain = list(range(start_id, start_id + q + 1))  # chain[i-1]=bottom_i, chain[i]=top_i
    next_id = chain[-1] + 1
    edges: list[tuple[int, int]] = []
    labels: dict[int, dict[tuple[int, int], int]] = {}
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
        g_edges, g_labels, g_bags, next_id = _gadget_parts(spec, next_id)
        edges += g_edges
        labels.update(g_labels)  # fresh sites: no gadget labels another's
        hold = set(
            v
            for blk in itertools.chain(left_blocks[i - 1 :], right_blocks[: i - 1])
            for v in blk
        )
        for gb in g_bags:
            bags.append(tuple(sorted(hold | set(gb))))
        sep = set(
            v for blk in itertools.chain(left_blocks[i:], right_blocks[:i]) for v in blk
        )
        sep.add(chain[i])
        bags.append(tuple(sorted(sep)))
    bags.append(tuple(sorted(all_right)))
    return ClausePiece(
        edges=edges,
        labels=labels,
        bags=bags,
        left_blocks=tuple(tuple(b) for b in left_blocks),
        right_blocks=tuple(tuple(b) for b in right_blocks),
    )


def compose_clause(*pieces: ClausePiece) -> ClausePiece:
    """Glue clause pieces left to right, each along the boundary it shares
    with the next.

    Each neighbouring pair must share its boundary blocks, no edge of
    either piece may join two vertices of that boundary, and no piece may
    meet an earlier one off the boundary they share. The glued piece copies
    each piece's edges, labels and bags once.
    """
    if not pieces:
        raise ValidationError("need at least one clause piece")
    edges = list(pieces[0].edges)
    labels = dict(pieces[0].labels)
    bags = list(pieces[0].bags)
    seen = set(itertools.chain.from_iterable(bags))
    for left, right in zip(pieces, pieces[1:]):
        if left.right_blocks != right.left_blocks:
            raise ValidationError(
                "clause pieces do not share a boundary: "
                f"{left.right_blocks} vs {right.left_blocks}"
            )
        shared = set(v for blk in right.left_blocks for v in blk)
        for side, piece in (("left", left), ("right", right)):
            inside = [e for e in piece.edges if e[0] in shared and e[1] in shared]
            if inside:
                u, v = min(inside)
                raise ValidationError(
                    f"shared boundary is not independent in the {side} piece "
                    f"(edge {u}-{v})"
                )
        mine = set(itertools.chain.from_iterable(right.bags))
        overlap = (seen & mine) - shared
        if overlap:
            raise ValidationError(
                f"clause pieces overlap off the shared boundary: {sorted(overlap)[:5]}"
            )
        seen |= mine
        edges += right.edges
        labels.update(right.labels)
        bags += right.bags
    return ClausePiece(
        edges=edges,
        labels=labels,
        bags=bags,
        left_blocks=pieces[0].left_blocks,
        right_blocks=pieces[-1].right_blocks,
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
    """Compiled graph, label sites kept, plus everything needed to check it;
    `width` is that of the bags write_hcgraph writes."""

    graph: AnnotatedGraph
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
) -> ReductionOutput:
    """Compile the formula into a closed graph counting its models mod p.

    Variables are padded to a multiple of gamma (free padding variables);
    clause columns are built and glued left to right; right attachments pin
    every right-basis fingerprint once on the last boundary; left
    attachments carry the lifted inverse-column sums and thread a ring of
    interface vertices so everything closes into Hamiltonian cycles. The
    result keeps its label sites; the width of the decomposition written
    for its expansion is checked against q*beta + WIDTH_CONSTANT*beta and
    returned as `width`.

    The predicted residue refers to the padded formula; with gamma = 1 no
    padding ever happens and it equals #SAT(cnf) mod p.
    """
    if gamma < 1:
        raise ValidationError("encoding width must be at least 1")
    if not cnf.clauses:
        raise ValidationError("formula has no clauses")
    pad = (-cnf.num_vars) % gamma
    nvars = cnf.num_vars + pad
    if nvars == 0:
        nvars = gamma
        pad = gamma
    # count_sat predicts the residue at the end; refuse before compiling
    if nvars > MAX_SAT_VARS:
        raise ValidationError(
            f"{nvars} variables after padding exceed the brute-force cap {MAX_SAT_VARS}"
        )
    with _stage("select_basis"):
        params = select_basis(beta, gamma, p)

    q = nvars // gamma
    clauses = cnf.clauses
    padded = Cnf(nvars, clauses)
    m = len(clauses)
    var_blocks = [tuple(range(i * gamma + 1, (i + 1) * gamma + 1)) for i in range(q)]

    ids = itertools.count(1)
    boundaries = [[tuple(itertools.islice(ids, beta)) for _ in range(q)] for _ in range(m + 1)]
    next_id = next(ids)

    with _stage("build_base_case"):
        pieces = []
        for j, clause in enumerate(clauses):
            piece = build_base_case(
                params, boundaries[j], boundaries[j + 1], var_blocks, clause, next_id
            )
            next_id = max(map(max, piece.bags)) + 1
            pieces.append(piece)
    with _stage("compose_clause"):
        column = compose_clause(*pieces)
    # compose_clause returned fresh lists, so the attachments' parts are
    # added to them in place
    edges, labels = column.edges, column.labels

    # Right attachments: every right-basis fingerprint realized once.
    with _stage("right_attachment"):
        right_bags = []
        for i in range(q):
            block = boundaries[m][i]
            mapping = {j + 1: block[j] for j in range(beta)}
            counts = {fp.relabel(mapping): 1 for fp in params.right_basis}
            spec = GadgetSpec.make(block, (block[0], block[1]), counts)
            g_edges, g_labels, g_bags, next_id = _gadget_parts(spec, next_id)
            edges += g_edges
            labels.update(g_labels)
            right_bags.append(g_bags)

    # Left attachments thread a ring: the top of block i is the bottom of
    # block i+1 (cyclically); one block collapses to a subdivided edge
    # between two distinct interface vertices instead of a self-loop.
    with _stage("left_attachment"):
        if q >= 2:
            ring = tops = list(range(next_id, next_id + q))
            bottoms = [ring[(i + 1) % q] for i in range(q)]
        else:
            ring = [top_v, bottom_v, mid_v] = list(range(next_id, next_id + 3))
            tops = [top_v]
            bottoms = [bottom_v]
            edges += [(top_v, mid_v), (bottom_v, mid_v)]
        next_id += len(ring)
        left_bags = []
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
            g_edges, g_labels, g_bags, next_id = _gadget_parts(spec, next_id)
            edges += g_edges
            labels.update(g_labels)
            left_bags.append(g_bags)

    with _stage("assemble"):
        all_left = set(v for blk in boundaries[0] for v in blk)
        all_right = set(v for blk in boundaries[m] for v in blk)
        bags: list[tuple[int, ...]] = []
        # the wrap-around ring vertex stays in every prefix bag
        pin = {ring[0]} if q >= 2 else set()
        for g_bags in left_bags:
            for gb in g_bags:
                bags.append(tuple(sorted(all_left | pin | set(gb))))
        if q == 1:
            bags.append(tuple(sorted(all_left | set(ring))))
        bags.extend(column.bags)
        for g_bags in right_bags:
            for gb in g_bags:
                bags.append(tuple(sorted(all_right | set(gb))))
        # every vertex of the parts is in a bag
        full = AnnotatedGraph.from_edges(itertools.chain.from_iterable(bags), edges, labels)
        full.decomposition = PathDecomposition(bags)

        # The one validation of the pipeline, of the bags write_hcgraph
        # writes for this graph: a bad bag anywhere upstream is caught here.
        width = full.decomposition.validate_expansion(full)

    bound = q * beta + WIDTH_CONSTANT * beta
    if width > bound:
        raise ValidationError(
            f"[assemble] decomposition width {width} exceeds {q}*{beta} + "
            f"{WIDTH_CONSTANT}*{beta} = {bound}"
        )
    predicted = count_sat(padded) % p
    return ReductionOutput(
        graph=full,
        params=params,
        predicted=predicted,
        width=width,
        width_bound=bound,
        q=q,
        pad_vars=pad,
        padded_cnf=padded,
    )
