"""Hamiltonian cycle counting: brute-force oracles and the bag-sweep DP.

Three counters with deliberately different mechanics so they can check each
other:

  * count_hc_bruteforce: sparse frontier walk over (visited-mask, endpoint)
    states, each cycle found twice and halved at the end. Capacity 20
    vertices.
  * count_partial_solutions without a decomposition: backtracking over edge
    subsets with degree pruning and an explicit path/cycle shape check at
    the leaves. Capacity 24 edges.
  * count_hc_pathdp, partial_solution_spectrum and count_partial_solutions
    with a decomposition: one bag-sweep DP over packed-int states that
    returns fingerprint counts on the pinned boundary; all three counters
    read that one table. Capacity MAX_DP_STATES live states.

Conventions: the empty graph has exactly one Hamiltonian cycle; graphs on
one or two vertices have none.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Sequence

from .exactalg import CapacityError, ValidationError
from .graphs import AnnotatedGraph, PathDecomposition
from .matchings import Fingerprint, Matching

__all__ = [
    "CountResult",
    "count_hc_bruteforce",
    "count_hc_pathdp",
    "count_partial_solutions",
    "partial_solution_spectrum",
    "enumerate_hamiltonian_cycles",
    "layered_decomposition",
    "MAX_BRUTEFORCE_VERTICES",
    "MAX_SUBSET_EDGES",
    "MAX_DP_STATES",
]

MAX_BRUTEFORCE_VERTICES = 20
MAX_SUBSET_EDGES = 24
# Ceiling on the live state table of the bag sweep. A state is one int key
# of 1 + 2S + S*ceil(log2 S) bits for bags of S vertices plus its dict slot,
# about 120 bytes at S = 38, and compiled graphs peak at a few hundred to a
# few thousand states.
MAX_DP_STATES = 1_000_000


@dataclass
class CountResult:
    """Counter outcome. value is an exact count, or a residue if modulus set."""

    value: int
    modulus: int | None = None
    states_peak: int = 0
    runtime_ms: float = 0.0

    def to_json_dict(self) -> dict:
        key = "residue" if self.modulus is not None else "count"
        return {
            key: self.value,
            "modulus": self.modulus,
            "states_peak": self.states_peak,
            "runtime_ms": round(self.runtime_ms, 3),
        }


def _check_modulus(modulus: int | None) -> None:
    if modulus is not None and modulus < 2:
        raise ValidationError(f"modulus {modulus} must be at least 2")


def count_hc_bruteforce(graph: AnnotatedGraph, modulus: int | None = None) -> CountResult:
    """Exact Hamiltonian cycle count (or residue) by frontier walk; capacity 20 vertices."""
    t0 = time.perf_counter()
    _check_modulus(modulus)
    n = len(graph.vertices)
    if n > MAX_BRUTEFORCE_VERTICES:
        raise CapacityError(f"{n} vertices exceed the brute-force ceiling {MAX_BRUTEFORCE_VERTICES}")
    if n == 0:
        return CountResult(1 % modulus if modulus else 1, modulus, runtime_ms=(time.perf_counter() - t0) * 1e3)
    if n < 3 or any(graph.degree(v) < 2 for v in graph.vertices):
        return CountResult(0, modulus, runtime_ms=(time.perf_counter() - t0) * 1e3)
    order = sorted(graph.vertices)
    idx = {v: i for i, v in enumerate(order)}
    adj = [0] * n
    for u, v in graph.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    full = (1 << n) - 1
    start = 0
    frontier: dict[tuple[int, int], int] = {(1 << start, start): 1}
    total = 0
    peak = 1
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (mask, last), cnt in frontier.items():
            nbrs = adj[last] & ~mask
            while nbrs:
                b = nbrs & -nbrs
                nbrs ^= b
                w = b.bit_length() - 1
                key = (mask | b, w)
                nxt[key] = nxt.get(key, 0) + cnt
        frontier = nxt
        peak = max(peak, len(frontier))
    start_bit = 1 << start
    for (mask, last), cnt in frontier.items():
        if mask == full and adj[last] & start_bit:
            total += cnt
    total //= 2
    if modulus is not None:
        total %= modulus
    return CountResult(total, modulus, peak, (time.perf_counter() - t0) * 1e3)


def enumerate_hamiltonian_cycles(graph: AnnotatedGraph):
    """Yield each Hamiltonian cycle once, as a tuple of sorted edge pairs.

    Backtracking walk anchored at the smallest vertex; the orientation is
    fixed by requiring the second vertex on the walk to be smaller than the
    final one, so each undirected cycle appears exactly once. Same capacity
    ceiling as the brute-force counter.
    """
    n = len(graph.vertices)
    if n > MAX_BRUTEFORCE_VERTICES:
        raise CapacityError(f"{n} vertices exceed the brute-force ceiling {MAX_BRUTEFORCE_VERTICES}")
    if n < 3 or any(graph.degree(v) < 2 for v in graph.vertices):
        return
    order = sorted(graph.vertices)
    start = order[0]
    adj = {v: sorted(graph.neighbors(v)) for v in order}
    path = [start]
    visited = {start}

    def walk():
        last = path[-1]
        if len(path) == n:
            if start in adj[last] and path[1] < path[-1]:
                yield tuple(
                    (min(a, b), max(a, b))
                    for a, b in zip(path, path[1:] + [start])
                )
            return
        for w in adj[last]:
            if w in visited:
                continue
            path.append(w)
            visited.add(w)
            yield from walk()
            path.pop()
            visited.remove(w)

    yield from walk()


# ---------------------------------------------------------------------------
# subset backtracking oracle for partial solutions


def _shape_ok(chosen: list[tuple[int, int]], fp: Fingerprint) -> bool:
    """Do the chosen edges form the paths/cycle pattern the fingerprint demands?

    Callers guarantee the degree profile already matches (every covered
    vertex has degree 1 or 2, degree-1 exactly at the matching's vertices),
    so components are paths or cycles and only the component structure is
    left to check.
    """
    adj: dict[int, list[int]] = {}
    for u, v in chosen:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[int] = set()
    found_pairs: set[tuple[int, int]] = set()
    for s in sorted(v for v in adj if len(adj[v]) == 1):
        if s in seen:
            continue
        prev, cur = None, s
        seen.add(s)
        while True:
            nxts = [w for w in adj[cur] if w != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            seen.add(cur)
        found_pairs.add((s, cur) if s < cur else (cur, s))
    cycles = 0
    for s in sorted(adj):
        if s in seen:
            continue
        cycles += 1
        prev, cur = None, s
        while True:
            seen.add(cur)
            nxts = [w for w in adj[cur] if w != prev]
            prev, cur = cur, nxts[0]
            if cur == s:
                break
    want_pairs = set(fp.matching.pairs)
    if want_pairs:
        return cycles == 0 and found_pairs == want_pairs
    return cycles == (1 if chosen else 0) and not found_pairs


def _count_partial_bruteforce(
    graph: AnnotatedGraph, boundary: Sequence[int], fp: Fingerprint
) -> int:
    edges = sorted(graph.edges)
    if len(edges) > MAX_SUBSET_EDGES:
        raise CapacityError(
            f"{len(edges)} edges exceed the subset oracle ceiling {MAX_SUBSET_EDGES}"
        )
    bset = set(boundary)
    internal = set(graph.vertices) - bset
    target = {v: 2 for v in internal}
    for v in boundary:
        target[v] = fp.degree_of(v)
    # remaining degree capacity per vertex as edges are scanned in order
    remaining: dict[int, int] = {v: 0 for v in graph.vertices}
    for u, v in edges:
        remaining[u] += 1
        remaining[v] += 1
    deg = {v: 0 for v in graph.vertices}
    hits = 0

    def rec(i: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal hits
        if i == len(edges):
            if all(deg[v] == target[v] for v in graph.vertices):
                if _shape_ok(chosen, fp):
                    hits += 1
            return
        u, v = edges[i]
        # prune: even taking every remaining edge cannot reach the target
        if any(deg[w] + remaining[w] < target[w] for w in (u, v)):
            return
        remaining[u] -= 1
        remaining[v] -= 1
        # branch: take the edge if both endpoints have capacity
        if deg[u] < target[u] and deg[v] < target[v]:
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            rec(i + 1, chosen)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
        rec(i + 1, chosen)
        remaining[u] += 1
        remaining[v] += 1

    rec(0, [])
    return hits


# ---------------------------------------------------------------------------
# bag sweep DP


def _bag_schedule(graph: AnnotatedGraph, bags: list[tuple[int, ...]], first: dict[int, int]):
    """Per-bag introduce and edge lists from each vertex's first bag. An
    edge's home is max(first[u], first[v]), the first bag holding both ends
    once every run is contiguous; costs O(sum of bag sizes + |E|) + sorting.
    """
    intro = [[] for _ in bags]
    edges_at = [[] for _ in bags]
    for v in sorted(graph.vertices):
        intro[first[v]].append(v)
    for u, v in sorted(graph.edges):
        edges_at[max(first[u], first[v])].append((u, v))
    return intro, edges_at


def _sweep(
    graph: AnnotatedGraph,
    decomposition: PathDecomposition,
    boundary: tuple[int, ...],
    modulus: int | None,
) -> tuple[dict[Fingerprint, int], int]:
    """The bag DP with the sorted boundary appended to every bag; returns
    (fingerprint counts on the boundary, states_peak). All three DP counters
    read this one table. Raises CapacityError above MAX_DP_STATES states.

    A state is one int, closed | d1 << 1 | d2 << (1 + S) | partner fields
    << (1 + 2S). S bounds the vertex slots, freed after a vertex's last edge
    and reused; d1 and d2 are the degree-1 and degree-2 slot masks; a slot's
    W-bit field names the other end of its open path and is nonzero only
    while the slot is in d1, so each state has one encoding.

    A vertex off the boundary must reach degree 2, so the skip branch of the
    edge that leaves it one edge to go keeps only states where it already
    has degree 1 or 2; this takes the forced edges at degree-2 vertices.

    Decoding merges no states: an open state without path ends has no
    edges, so it survives only when every vertex is on the boundary, and a
    closed state's cycle covers every vertex off the boundary.
    """
    bags = [tuple(bag) + tuple(v for v in boundary if v not in bag) for bag in decomposition.bags]
    bags = bags or [boundary]
    keep = set(boundary)
    first, _ = PathDecomposition(bags).validate(graph)
    if any(graph.degree(v) == 0 for v in graph.vertices if v not in keep):
        # an isolated vertex can never reach degree 2
        return {}, 1
    intro, edges_at = _bag_schedule(graph, bags, first)
    # Slot bound: a vertex off the boundary is freed at its last edge's home bag,
    # so every slot holder at bag i is in bag i; smallest-first reuse keeps slots < S.
    S = max(len(set(bag)) for bag in bags)
    W = (S - 1).bit_length()
    FIELD = (1 << W) - 1
    D1 = ((1 << S) - 1) << 1
    D2 = D1 << S
    off = [1 + 2 * S + s * W for s in range(S)]
    slot_of: dict[int, int] = {}
    free_slots: list[int] = []
    states: dict[int, int] = {0: 1}
    peak = 1
    # a vertex is forgotten eagerly once its last incident edge is processed
    remaining = {v: graph.degree(v) for v in graph.vertices}

    for i in range(len(bags)):
        for v in intro[i]:
            # with no slot free, slots 0 .. len(slot_of) - 1 are all taken
            slot_of[v] = heapq.heappop(free_slots) if free_slots else len(slot_of)
            assert slot_of[v] < S
        for u, v in edges_at[i]:
            su, sv = slot_of[u], slot_of[v]
            bu, bv = 2 << su, 2 << sv  # degree-1 bits
            cu, cv = bu << S, bv << S  # degree-2 bits
            fu, fv = off[su], off[sv]
            # skip branch, minus the states it strands: an endpoint outside
            # `keep` with one edge left after this one needs degree 1 or 2 now
            nxt = states
            for w, b in ((u, bu), (v, bv)):
                if remaining[w] == 2 and w not in keep:
                    nxt = {k: c for k, c in nxt.items() if k & (b | b << S)}
            if nxt is states:
                nxt = states.copy()
            dead = 1 | cu | cv
            for key, cnt in states.items():
                if key & dead:
                    continue
                if key & bu:
                    pu = key >> fu & FIELD
                    if key & bv:
                        if pu == sv:
                            # taking u-v closes the cycle; legal only if it
                            # is the last open path
                            if key & D1 != bu | bv:
                                continue
                            nk = (key & D2) | cu | cv | 1
                        else:
                            # join two paths: their far ends pu, pv now pair
                            pv = key >> fv & FIELD
                            nk = (
                                key ^ bu ^ bv ^ cu ^ cv
                                ^ (pu << fu) ^ (pv << fv)
                                ^ ((su ^ pv) << off[pu]) ^ ((sv ^ pu) << off[pv])
                            )
                    else:
                        # u's path extends onto the fresh vertex v
                        nk = (
                            key ^ bu ^ bv ^ cu
                            ^ (pu << fu) ^ (pu << fv) ^ ((su ^ sv) << off[pu])
                        )
                elif key & bv:
                    pv = key >> fv & FIELD
                    nk = (
                        key ^ bu ^ bv ^ cv
                        ^ (pv << fv) ^ (pv << fu) ^ ((su ^ sv) << off[pv])
                    )
                else:
                    # open a new path u-v
                    nk = key | bu | bv | (sv << fu) | (su << fv)
                cur = nxt.get(nk, 0) + cnt
                if modulus is not None:
                    cur %= modulus
                nxt[nk] = cur
            states = nxt
            if len(states) > peak:
                peak = len(states)
                if peak > MAX_DP_STATES:
                    raise CapacityError(
                        f"{peak} DP states at bag {i} exceed the {MAX_DP_STATES} ceiling"
                    )
            gone = 0
            for w in (u, v):
                remaining[w] -= 1
                if remaining[w] == 0 and w not in keep:
                    s = slot_of.pop(w)
                    heapq.heappush(free_slots, s)
                    gone |= (2 | 2 << S) << s
            if gone:
                # every forgotten vertex must have degree exactly 2; the
                # survivors agree on those bits, so clearing them merges nothing
                d2 = gone & D2
                states = {k ^ d2: c for k, c in states.items() if k & gone == d2}

    vertex_of = {s: v for v, s in slot_of.items()}
    table: dict[Fingerprint, int] = {}
    for key, cnt in states.items():
        degrees, pairs = [], []
        for v in boundary:
            s = slot_of[v]
            if key >> (1 + s) & 1:
                degrees.append(1)
                w = vertex_of[key >> off[s] & FIELD]
                if v < w:
                    pairs.append((v, w))
            else:
                degrees.append(2 if key >> (1 + S + s) & 1 else 0)
        table[Fingerprint(boundary, tuple(degrees), Matching(tuple(sorted(pairs))))] = cnt
    return table, peak


def _pinned_boundary(graph: AnnotatedGraph, boundary: Sequence[int], modulus: int | None):
    """Check a pinned counter's modulus and boundary; return the boundary sorted."""
    _check_modulus(modulus)
    b = tuple(sorted(boundary))
    if len(set(b)) != len(b):
        raise ValidationError("duplicate boundary vertices")
    missing = [v for v in b if v not in graph.vertices]
    if missing:
        raise ValidationError(f"boundary vertices {missing} not in graph")
    return b


def count_hc_pathdp(
    graph: AnnotatedGraph,
    decomposition: PathDecomposition | None = None,
    modulus: int | None = None,
) -> CountResult:
    """Hamiltonian cycle count (or residue) along a path decomposition."""
    t0 = time.perf_counter()
    _check_modulus(modulus)
    decomposition = decomposition or graph.decomposition or layered_decomposition(graph)
    table, peak = _sweep(graph, decomposition, (), modulus)
    total = table.get(Fingerprint((), (), Matching(())), 0)
    return CountResult(total, modulus, peak, (time.perf_counter() - t0) * 1e3)


def count_partial_solutions(
    graph: AnnotatedGraph,
    boundary: Sequence[int],
    fp: Fingerprint,
    modulus: int | None = None,
    decomposition: PathDecomposition | None = None,
) -> CountResult:
    """Count edge subsets realizing the fingerprint over the boundary.

    Vertices off the boundary end at degree 2 and boundary vertices at their
    prescribed degree. With a nonempty matching the subset is disjoint paths
    joining its pairs; with an empty one it is one cycle through every
    covered vertex, or empty when nothing needs covering. With a
    decomposition this is the bag sweep's entry at fp; without one, the
    edge-subset backtracking oracle runs.
    """
    t0 = time.perf_counter()
    b = _pinned_boundary(graph, boundary, modulus)
    if b != fp.boundary:
        raise ValidationError("fingerprint boundary does not match the given boundary")
    decomposition = decomposition or graph.decomposition
    if decomposition is None:
        val, peak = _count_partial_bruteforce(graph, b, fp), 0
        if modulus is not None:
            val %= modulus
    else:
        table, peak = _sweep(graph, decomposition, b, modulus)
        val = table.get(fp, 0)
    return CountResult(val, modulus, peak, (time.perf_counter() - t0) * 1e3)


def partial_solution_spectrum(
    graph: AnnotatedGraph,
    boundary: Sequence[int],
    modulus: int | None = None,
    decomposition: PathDecomposition | None = None,
) -> dict[Fingerprint, int]:
    """Partial-solution counts for every realizable fingerprint in one sweep:
    the nonzero entries of the bag sweep's table, so checking a gadget
    against its whole support costs one pass, not one per fingerprint.
    """
    b = _pinned_boundary(graph, boundary, modulus)
    decomposition = decomposition or graph.decomposition or layered_decomposition(graph)
    table, _ = _sweep(graph, decomposition, b, modulus)
    return {fp: c for fp, c in table.items() if c}


def layered_decomposition(graph: AnnotatedGraph) -> PathDecomposition:
    """Simple valid decomposition: BFS layers, bags of consecutive layer pairs.

    Meant for small test graphs; the width is whatever the layering gives.
    """
    remaining = set(graph.vertices)
    layers: list[list[int]] = []
    while remaining:
        start = min(remaining)
        comp_layers = [[start]]
        seen = {start}
        while True:
            nxt = sorted(
                w
                for v in comp_layers[-1]
                for w in graph.neighbors(v)
                if w not in seen and w in remaining
            )
            if not nxt:
                break
            comp_layers.append(nxt)
            seen.update(nxt)
        layers.extend(comp_layers)
        remaining -= seen
    if len(layers) == 1:
        return PathDecomposition([tuple(layers[0])])
    bags = [tuple(layers[i] + layers[i + 1]) for i in range(len(layers) - 1)]
    return PathDecomposition(bags)
