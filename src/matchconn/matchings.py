"""Perfect matchings of complete graphs and their connectivity matrices.

The central object is the 0/1 matrix indexed by perfect matchings of an
even-size vertex set, with a 1 exactly where the union of the two matchings
(as a multigraph) is a single cycle. Two matched copies of one edge count as
a 2-cycle, so the order-2 matrix is [[1]], and the empty vertex set gets the
convention [[1]] as well.

Fingerprints extend this to boundaried graphs: a degree vector over the
boundary (values 0, 1, 2, with evenly many 1s) plus a perfect matching of
the degree-1 vertices. The fingerprint combine matrix is block structured,
pairing each degree vector only with its pointwise complement to 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .exactalg import (
    RATIONALS,
    CapacityError,
    ExactMatrix,
    ValidationError,
)
from .graphs import AnnotatedGraph, edge_key

__all__ = [
    "Matching",
    "Fingerprint",
    "CycleType",
    "enumerate_matchings",
    "enumerate_matchings_of",
    "matching_count",
    "union_cycle_type",
    "is_single_cycle",
    "union_table",
    "build_M",
    "enumerate_fingerprints",
    "build_H",
    "boundaried_graph_for_fingerprint",
    "glue_boundaried",
    "GraphConstructionError",
    "MAX_PLAIN_ORDER",
    "MAX_LARGE_ORDER",
]

# build_M works routinely up to order 10 (945 matchings); order 12 (10395)
# is allowed only when the caller opts into the large tier.
MAX_PLAIN_ORDER = 10
MAX_LARGE_ORDER = 12

MAX_H_ORDER = 8


class GraphConstructionError(ValidationError):
    """A fingerprint admits no boundaried-graph realization."""


@dataclass(frozen=True, order=True)
class Matching:
    """Perfect matching stored as sorted (low, high) pairs, sorted by low end."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[int]]) -> "Matching":
        canon = []
        seen = set()
        for p in pairs:
            u, v = p
            if u == v:
                raise ValidationError(f"matching pair ({u},{v}) is a loop")
            lo, hi = (u, v) if u < v else (v, u)
            canon.append((lo, hi))
            for x in (lo, hi):
                if x in seen:
                    raise ValidationError(f"vertex {x} matched twice")
                seen.add(x)
        return cls(tuple(sorted(canon)))

    def text(self) -> str:
        return "|".join(f"{u}-{v}" for u, v in self.pairs)

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for p in self.pairs for v in p))

    def partner(self) -> dict[int, int]:
        d = {}
        for u, v in self.pairs:
            d[u] = v
            d[v] = u
        return d

    def __len__(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        return self.text() or "(empty)"


@dataclass(frozen=True, order=True)
class CycleType:
    """Multiset of cycle lengths (in matched-pair units), as a sorted-desc tuple."""

    parts: tuple[int, ...]

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts) if self.parts else "0"


def enumerate_matchings_of(vertices: Sequence[int]) -> list[Matching]:
    """All perfect matchings of the given vertex set, canonical order.

    Canonical order: recursively match the smallest unmatched vertex with
    each larger partner in increasing order. The first matching is the
    consecutive-pairs one; the count is (n-1)!! for n vertices.
    """
    vs = sorted(vertices)
    if len(vs) != len(set(vs)):
        raise ValidationError("duplicate vertices")
    if len(vs) % 2:
        raise ValidationError(f"odd vertex set of size {len(vs)} has no perfect matching")
    out: list[Matching] = []

    def rec(remaining: tuple[int, ...], acc: list[tuple[int, int]]) -> None:
        if not remaining:
            out.append(Matching(tuple(acc)))
            return
        first = remaining[0]
        rest = remaining[1:]
        for idx, mate in enumerate(rest):
            acc.append((first, mate))
            rec(rest[:idx] + rest[idx + 1 :], acc)
            acc.pop()

    rec(tuple(vs), [])
    return out


@lru_cache(maxsize=None)
def _matchings_cached(k: int) -> tuple[Matching, ...]:
    return tuple(enumerate_matchings_of(range(1, k + 1)))


def enumerate_matchings(k: int) -> list[Matching]:
    """Perfect matchings of {1, ..., k} in canonical order (k even)."""
    if k < 0 or k % 2:
        raise ValidationError(f"order {k} must be even and nonnegative")
    return list(_matchings_cached(k))


def matching_count(k: int) -> int:
    """(k-1)!! for even k, the number of perfect matchings of k points."""
    if k < 0 or k % 2:
        raise ValidationError(f"order {k} must be even and nonnegative")
    out = 1
    for i in range(1, k, 2):
        out *= i
    return out


def union_cycle_type(a: Matching, b: Matching) -> CycleType:
    """Cycle type of the multigraph union, lengths counted in pairs of edges.

    Both matchings must cover the same vertex set. A doubled edge is a cycle
    of length 1 in these units; the parts sum to half the vertex count.
    """
    va, vb = a.vertices(), b.vertices()
    if va != vb:
        raise ValidationError("cycle type of matchings on different vertex sets")
    pa, pb = a.partner(), b.partner()
    seen: set[int] = set()
    parts = []
    for start in va:
        if start in seen:
            continue
        length = 0
        v = start
        while True:
            w = pa[v]
            v = pb[w]
            seen.add(w)
            seen.add(v)
            length += 1
            if v == start:
                break
        parts.append(length)
    return CycleType(tuple(sorted(parts, reverse=True)))


def is_single_cycle(a: Matching, b: Matching) -> bool:
    """True iff the union multigraph is one cycle through every vertex."""
    va = a.vertices()
    if va != b.vertices():
        raise ValidationError("single-cycle test on different vertex sets")
    if not va:
        return False
    pa, pb = a.partner(), b.partner()
    start = va[0]
    v = start
    length = 0
    while True:
        v = pb[pa[v]]
        length += 1
        if v == start:
            break
    return length == len(va) // 2


def build_M(k: int, large: bool = False) -> ExactMatrix:
    """The matchings connectivity matrix of order k over Q, entries 0/1.

    Indexed by canonical matching order both ways. Order 0 yields [[1]] by
    convention. The array is built once per order and shared read-only by
    every returned matrix; each call returns a fresh ExactMatrix with its own
    label lists.
    """
    if k < 0 or k % 2:
        raise ValidationError(f"order {k} must be even and nonnegative")
    limit = MAX_LARGE_ORDER if large else MAX_PLAIN_ORDER
    if k > limit:
        raise CapacityError(
            f"order {k} exceeds the ceiling {limit}"
            + ("" if large else " (pass large=True / --large for order 12)")
        )
    ms = _matchings_cached(k)
    return ExactMatrix(RATIONALS, _connectivity_array(k), ms, ms)


@lru_cache(maxsize=None)
def _connectivity_array(k: int) -> np.ndarray:
    """Read-only int8 array of M_k: union_table of the order-k matchings with
    themselves, except that order 0 is [[1]] by convention."""
    ms = _matchings_cached(k)
    out = union_table(ms, ms) if k else np.ones((1, 1), dtype=np.int8)
    out.setflags(write=False)
    return out


def union_table(
    rows: Sequence[Matching], cols: Sequence[Matching], cycle_types: bool = False
) -> np.ndarray:
    """The union of every row matching with every column matching, as a table.

    All matchings must cover one vertex set, of any even size and labels.
    The default table is the int8 is_single_cycle. With cycle_types=True it
    holds int64 codes: m_L cycles of length L (in pairs, as in
    union_cycle_type) give the sum of m_L * (h + 1)^(L - 1), h being half the
    vertex count, so equal codes mean equal cycle types.

    Each row steps "column partner, then row partner" for all columns at
    once; a vertex first returns after as many steps as its cycle has pairs.
    """
    verts = (rows or cols or [Matching(())])[0].vertices()
    k, h = len(verts), len(verts) // 2
    if cycle_types and (h + 1) ** h > np.iinfo(np.int64).max:
        raise CapacityError(f"cycle-type codes of {k} vertices overflow int64")
    pos = {v: i for i, v in enumerate(verts)}

    def partners(family: Sequence[Matching]) -> np.ndarray:
        out = np.empty((len(family), k), dtype=np.min_scalar_type(k))
        for i, m in enumerate(family):
            if m.vertices() != verts:
                raise ValidationError("union table of matchings on different vertex sets")
            p = m.partner()
            out[i] = [pos[p[v]] for v in verts]
        return out

    row_p = partners(rows)
    col_p = row_p if cols is rows else partners(cols)
    out = np.zeros((len(rows), len(cols)), dtype=np.int64 if cycle_types else np.int8)
    flat = col_p.ravel()  # col_p[j, x] is flat[j * k + x]
    col_base = np.arange(len(cols)) * k
    start = np.arange(k)
    for i, pa in enumerate(row_p):
        if cycle_types:
            # count first returns from every vertex: 2s per cycle of length s
            x = np.broadcast_to(start, (len(cols), k))
            back = np.zeros((len(cols), k), dtype=bool)
            for s in range(1, h + 1):
                x = pa[flat[col_base[:, None] + x]]
                new = (x == start) & ~back
                out[i] += new.sum(axis=1) // (2 * s) * (h + 1) ** (s - 1)
                back |= new
        else:
            # the first vertex returns before step h iff there are more
            # cycles; with no vertices there is no cycle
            x = np.zeros(len(cols), dtype=np.intp)
            single = np.full(len(cols), h > 0)
            for _ in range(h - 1):
                x = pa[flat[col_base + x]]
                single &= x != 0
            out[i] = single
    return out


# ---------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True, order=True)
class Fingerprint:
    """Boundary degree data: vertex ids, their degrees, matching on degree-1 set."""

    boundary: tuple[int, ...]
    degrees: tuple[int, ...]
    matching: Matching

    def __post_init__(self) -> None:
        if tuple(sorted(self.boundary)) != self.boundary:
            raise ValidationError("fingerprint boundary must be sorted")
        if len(set(self.boundary)) != len(self.boundary):
            raise ValidationError("duplicate boundary vertices")
        if len(self.boundary) != len(self.degrees):
            raise ValidationError("boundary and degree vector lengths differ")
        if any(d not in (0, 1, 2) for d in self.degrees):
            raise ValidationError("degrees must be 0, 1 or 2")
        ones = self.degree_set(1)
        if self.matching.vertices() != ones:
            raise ValidationError("matching must pair exactly the degree-1 vertices")

    def degree_set(self, d: int) -> tuple[int, ...]:
        return tuple(v for v, dv in zip(self.boundary, self.degrees) if dv == d)

    def text(self) -> str:
        """Text form 'd=<digits>;M=<matching>' with digits in boundary order."""
        return "d=" + "".join(str(d) for d in self.degrees) + ";M=" + self.matching.text()

    def relabel(self, mapping: dict[int, int]) -> "Fingerprint":
        """Push the fingerprint along an injective vertex-id mapping."""
        new_b = tuple(sorted(mapping[v] for v in self.boundary))
        deg = {mapping[v]: d for v, d in zip(self.boundary, self.degrees)}
        new_d = tuple(deg[v] for v in new_b)
        new_m = Matching.from_pairs(
            (mapping[u], mapping[v]) for u, v in self.matching.pairs
        )
        return Fingerprint(new_b, new_d, new_m)

    def __str__(self) -> str:
        return self.text()


def enumerate_fingerprints(boundary: Sequence[int]) -> list[Fingerprint]:
    """All fingerprints on the boundary, canonical order.

    Degree vectors run as a ternary counter (last position fastest), keeping
    those with an even number of 1s; for each, matchings of the degree-1
    vertices in canonical matching order.
    """
    b = tuple(sorted(boundary))
    if len(b) != len(set(b)):
        raise ValidationError("duplicate boundary vertices")
    out = []
    for degs in itertools.product((0, 1, 2), repeat=len(b)):
        ones = [v for v, d in zip(b, degs) if d == 1]
        if len(ones) % 2:
            continue
        for m in enumerate_matchings_of(ones):
            out.append(Fingerprint(b, degs, m))
    return out


def build_H(k: int) -> ExactMatrix:
    """Fingerprint combine matrix of order k over Q, canonical order both ways.

    Rows with degree vector d meet only the columns with the complement
    2 - d. Both share one degree-1 set, and each one's fingerprints are
    contiguous and in canonical matching order, so that block is the cached
    connectivity array of the degree-1 set's size; order 0 gives [[1]].
    """
    if k < 0 or k > MAX_H_ORDER:
        raise CapacityError(f"fingerprint order {k} outside 0..{MAX_H_ORDER}")
    fps = enumerate_fingerprints(range(1, k + 1))
    start: dict[tuple[int, ...], int] = {}
    for i, f in enumerate(fps):
        start.setdefault(f.degrees, i)
    out = np.zeros((len(fps), len(fps)), dtype=np.int8)
    for degs, i in start.items():
        j = start[tuple(2 - d for d in degs)]
        block = _connectivity_array(degs.count(1))
        out[i : i + len(block), j : j + len(block)] = block
    return ExactMatrix(RATIONALS, out, fps, fps)


# ---------------------------------------------------------------------------
# boundaried realizations


def boundaried_graph_for_fingerprint(fp: Fingerprint) -> AnnotatedGraph:
    """A boundaried graph whose single partial solution has this fingerprint.

    Construction: take the matching's first pair (lexicographically) and
    replace that edge by a path threading the degree-2 vertices in
    increasing id order; keep the other pairs as direct edges; with an empty
    matching put a cycle on the degree-2 vertices instead. Finally subdivide
    every edge once so the two sides never interfere after gluing.
    """
    two = sorted(fp.degree_set(2))
    base_edges: list[tuple[int, int]] = []
    if fp.matching.pairs:
        (u0, v0), *rest = fp.matching.pairs
        chain = [u0, *two, v0]
        base_edges.extend(zip(chain, chain[1:]))
        base_edges.extend(rest)
    else:
        if 1 <= len(two) <= 2:
            raise GraphConstructionError(
                f"no simple cycle through {len(two)} degree-2 vertices "
                f"(fingerprint {fp.text()})"
            )
        if len(two) >= 3:
            base_edges.extend(zip(two, two[1:]))
            base_edges.append((two[-1], two[0]))
    # edge number i is subdivided by the fresh id top + i, above the boundary
    top = (max(fp.boundary) if fp.boundary else 0) + 1
    edges = [e for w, (u, v) in enumerate(base_edges, start=top) for e in ((u, w), (v, w))]
    return AnnotatedGraph.from_edges(fp.boundary, edges)


def glue_boundaried(g1: AnnotatedGraph, g2: AnnotatedGraph, boundary: Sequence[int]) -> AnnotatedGraph:
    """Identify the two graphs along shared boundary ids; other ids of g2 shift."""
    b = set(boundary)
    offset = (max(g1.vertices, default=0) + max(g2.vertices, default=0)) + 1
    remap = {v: (v if v in b else v + offset) for v in g2.vertices}
    edges = list(g1.edges)
    edges += [edge_key(remap[u], remap[v]) for u, v in g2.edges]
    return AnnotatedGraph.from_edges(g1.vertices | set(remap.values()), edges)
