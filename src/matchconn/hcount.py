"""Hamiltonian cycle counting: brute-force oracles and the bag-sweep DP.

Two counters with deliberately different mechanics so they can check each
other:

  * count_hc_bruteforce: sparse frontier walk over (visited-mask, endpoint)
    states, each cycle found twice and halved at the end. Capacity 20
    vertices.
  * count_hc_pathdp and partial_solution_spectrum: one bag-sweep DP over
    packed-int states along the graph's own path decomposition (or a
    layered one when it has none) that returns fingerprint counts on the
    pinned boundary; both counters read that one table. Before the sweep,
    every 9-vertex label gadget off the boundary in the layout
    write_hcgraph writes is contracted to one label site; any other copy
    of the gadget is counted as plain vertices. The contracted graph is
    read from the checked decomposition's arrays, never built. The sweep
    lets a site's cycle edges be partner labels only, 1 with 2 or 3 with 4,
    which counts exactly what the gadget does. So the DP counters accept
    annotated graphs as well as the plain graphs they expand to. Each bag's
    edges go in greedy order, the one whose ends have the fewest edges left
    first, so vertices close and leave the state early. Capacity
    MAX_DP_STATES live states.

The oracle and enumerate_hamiltonian_cycles read plain graphs only and
refuse label sites, as a pinned boundary does.

Conventions: the empty graph has exactly one Hamiltonian cycle; graphs on
one or two vertices have none.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exactalg import CapacityError, ValidationError
from .graphs import AnnotatedGraph, BagRuns, PathDecomposition, edge_key
from .matchings import Fingerprint, Matching

__all__ = [
    "CountResult",
    "count_hc_bruteforce",
    "count_hc_pathdp",
    "partial_solution_spectrum",
    "enumerate_hamiltonian_cycles",
    "layered_decomposition",
    "MAX_BRUTEFORCE_VERTICES",
    "MAX_DP_STATES",
]

MAX_BRUTEFORCE_VERTICES = 20
# Ceiling on the live state table of the bag sweep. A state is one int key
# of 1 + 4S + S*ceil(log2 S) bits for bags of S vertices plus its dict slot,
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


def _refuse_labels(graph: AnnotatedGraph, counter: str) -> None:
    """The oracles read plain graphs only: a label site's edges obey a rule
    they do not check, so they would overcount."""
    if graph.annotations:
        site = min(graph.annotations)
        raise ValidationError(
            f"{counter} cannot read label sites (vertex {site}); write them out or use the bag sweep"
        )


def count_hc_bruteforce(graph: AnnotatedGraph, modulus: int | None = None) -> CountResult:
    """Exact Hamiltonian cycle count (or residue) by frontier walk; capacity
    20 vertices. A graph with label sites raises ValidationError."""
    t0 = time.perf_counter()
    _check_modulus(modulus)
    _refuse_labels(graph, "the brute-force counter")
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
    ceiling as the brute-force counter, and it refuses label sites too.
    """
    _refuse_labels(graph, "the cycle enumerator")
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
# bag sweep DP


def _edge_order(edges: list[tuple[int, int]], remaining: dict[int, int]):
    """Yield a bag's edges greedily: next is the pending edge (u, v) with the
    smallest remaining[u] + remaining[v], ties broken by (u, v).

    remaining counts the edges still to come at each vertex over the whole
    sweep; the caller lowers it at both ends of each yielded edge before
    resuming. Then only the pending edges at those two ends get fresh heap
    entries. Keys only fall, so an entry whose key no longer matches is stale.
    """
    pending_at: dict[int, set[tuple[int, int]]] = {}
    heap = []
    for e in edges:
        u, v = e
        pending_at.setdefault(u, set()).add(e)
        pending_at.setdefault(v, set()).add(e)
        heap.append((remaining[u] + remaining[v], e))
    heapq.heapify(heap)
    while heap:
        key, e = heapq.heappop(heap)
        u, v = e
        if key != remaining[u] + remaining[v]:
            continue
        yield e
        pending_at[u].remove(e)
        pending_at[v].remove(e)
        for w in (u, v):
            for f in pending_at[w]:
                heapq.heappush(heap, (remaining[f[0]] + remaining[f[1]], f))


def _contract_label_gadgets(
    graph: AnnotatedGraph, runs: BagRuns, keep: set[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Find the label gadgets, in the layout write_hcgraph writes, that the
    sweep contracts to one label site each.

    `runs` is the graph's validated decomposition (PathDecomposition.validate),
    read for its vertex ids and edges. Returns two arrays over the indices
    of runs.ids: `site`, the index of the vertex each one becomes (role 1
    of its gadget, the smallest of the nine ids, which names the site, or
    itself), and `port_label`, the label its outside edges take at its
    site (the port's role, 1..4, and 0 off a port).

    The written gadgets are found at once (BagRuns.written_gadgets) and
    tried in sorted order of their role 1. A copy of the gadget numbered in
    any other way stays expanded, and the sweep counts its plain vertices
    exactly. A match is taken unless one of its nine ids is in `keep`, is
    a label site or is already contracted, or two of its ports' outside
    edges would meet one vertex once contracted, which would make a
    parallel edge. Each outside edge of a port takes the port's role as its
    label at the site. The gadget's only covers are one path leaving
    through ports 1 and 2 and one through 3 and 4, so a site whose two
    cycle edges carry partner labels, 1 with 2 or 3 with 4, counts exactly
    what the gadget counts.
    """
    adj = graph._adj
    # the ids no later gadget may hold, each mapped to the vertex it becomes:
    # kept ids and label sites stay, contracted ids go to their site
    site_of = {v: v for v in keep | graph.annotations.keys()}
    taken = []
    found = runs.written_gadgets()
    for a, s in zip(found.tolist(), runs.ids[found].tolist()):
        roles = range(s, s + 9)
        if site_of.keys().isdisjoint(roles):
            outside = [site_of.get(w, w) for p in roles[:4] for w in adj[p] if w not in roles]
            if len(set(outside)) == len(outside):
                site_of.update(dict.fromkeys(roles, s))
                taken.append(a)
    # the nine vertices of a gadget taken at index a are at a .. a + 8
    at = np.array(taken, np.intp)[:, None] + np.arange(9)
    site = np.arange(len(runs.ids))
    site[at] = at[:, :1]
    port_label = np.zeros(len(site), np.int64)
    port_label[at[:, :4]] = np.arange(1, 5)
    return site, port_label


def _schedule(runs: BagRuns, site: np.ndarray, port_label: np.ndarray, sites: dict, count: int):
    """What the bag sweep reads of the graph with vertex i (by index in
    runs.ids) merged into site[i], along `count` bags: (intro, edges_at,
    labels, remaining).

    The vertices are the ids i with site[i] == i, each introduced, in sorted
    order, at the first bag of the runs merged into it. An edge whose ends
    merge goes; every other edge (u, v), u < v, is listed, sorted, at its
    home bag max(first[u], first[v]), the first holding both ends once every
    run is contiguous. An edge's label at a port's site is the port_label of
    that end, and at a label site of the graph (`sites`, its annotations)
    its own label there. remaining counts each vertex's edges. Costs
    O(sum of bag sizes + |E|) + sorting.
    """
    ids, n = runs.ids, len(site)
    first = np.full(n, count, runs.first.dtype)
    np.minimum.at(first, site, runs.first)
    stays = np.flatnonzero(site == np.arange(n))
    intro = [[] for _ in range(count)]
    for b, v in zip(first[stays].tolist(), ids[stays].tolist()):
        intro[b].append(v)
    ends = runs.ends[site[runs.ends[:, 0]] != site[runs.ends[:, 1]]]
    merged, lab = site[ends], port_label[ends]
    # each edge's ends in sorted order, and each end's port label with it
    swap = merged[:, 0] > merged[:, 1]
    merged[swap], lab[swap] = merged[swap, ::-1], lab[swap, ::-1]
    home = np.maximum(first[merged[:, 0]], first[merged[:, 1]])
    order = np.lexsort((merged[:, 1], merged[:, 0], home))
    ends, merged, lab, home = ends[order], merged[order], lab[order], home[order]
    keys = list(zip(ids[merged[:, 0]].tolist(), ids[merged[:, 1]].tolist()))
    edges_at = [[] for _ in range(count)]
    for b, e in zip(home.tolist(), keys):
        edges_at[b].append(e)
    labels: dict[int, dict[tuple[int, int], int]] = {}
    for side in (0, 1):
        at = np.flatnonzero(lab[:, side])
        for e, s, code in zip(at.tolist(), ids[merged[at, side]].tolist(), lab[at, side].tolist()):
            labels.setdefault(s, {})[keys[e]] = code
    if sites:
        for e, (u, v) in enumerate(zip(ids[ends[:, 0]].tolist(), ids[ends[:, 1]].tolist())):
            for w in (u, v):
                if w in sites:
                    labels.setdefault(w, {})[keys[e]] = sites[w][edge_key(u, v)]
    degree = np.bincount(merged.ravel(), minlength=n)
    remaining = dict(zip(ids[stays].tolist(), degree[stays].tolist()))
    return intro, edges_at, labels, remaining


def _sweep(
    graph: AnnotatedGraph, boundary: tuple[int, ...], modulus: int | None
) -> tuple[dict[Fingerprint, int], int]:
    """The bag DP along graph.decomposition (layered_decomposition when it
    has none) with the sorted boundary appended to every bag; returns
    (fingerprint counts on the boundary, states_peak). Both DP counters
    read this one table. Raises CapacityError above MAX_DP_STATES states.

    Once the decomposition is validated, every written label gadget off
    the boundary is contracted to one label site (_contract_label_gadgets)
    and each bag holds the site in place of its nine ids; the gadget is
    connected, so the bags stay a decomposition and get no wider. The sweep
    reads the contracted graph from the validated arrays (_schedule),
    without building it, and a plain vertex is a site without labels.

    A state is one int, closed | d1 << 1 | d2 << (1 + S) | partner fields
    << (1 + 2S) | label fields << (1 + 2S + SW). S bounds the vertex slots,
    freed after a vertex's last edge and reused; d1 and d2 are the degree-1
    and degree-2 slot masks; a slot's W-bit field names the other end of its
    open path and is nonzero only while the slot is in d1, so each state has
    one encoding. A site's 2-bit label field holds its first edge's label
    minus 1 while the slot is in d1, and is 0 otherwise; its second edge must
    carry the partner label, 1 with 2 or 3 with 4, that is the stored code
    xor 1. Plain vertices keep the field at 0 and pass every check.

    Each bag's edges come from _edge_order: next is the pending edge whose
    ends have the fewest edges left over the whole sweep. A vertex is
    forgotten after its last edge, so finishing nearly done vertices first
    keeps few open vertices, and few states, alive; the order changes
    states_peak, never the table.

    A vertex off the boundary must reach degree 2, so the skip branch of the
    edge that leaves it one edge to go keeps only states where it already
    has degree 1 or 2; this takes the forced edges at degree-2 vertices. The
    sweep stops as soon as its table is empty.

    Decoding merges no states: an open state without path ends has no
    edges, so it survives only when every vertex is on the boundary, and a
    closed state's cycle covers every vertex off the boundary.
    """
    decomposition = graph.decomposition or layered_decomposition(graph)
    bags = [tuple(bag) + tuple(v for v in boundary if v not in bag) for bag in decomposition.bags]
    bags = bags or [boundary]
    keep = set(boundary)
    runs = PathDecomposition(bags).validate(graph)
    site, port_label = _contract_label_gadgets(graph, runs, keep)
    # a vertex is forgotten eagerly once its last incident edge is processed
    intro, edges_at, labels, remaining = _schedule(runs, site, port_label, graph.annotations, len(bags))
    if any(not remaining[v] for v in remaining.keys() - keep):
        # an isolated vertex can never reach degree 2
        return {}, 1
    n = len(site)
    # Slot bound: a vertex off the boundary is freed at its last edge's home bag,
    # so every slot holder at bag i is in bag i; smallest-first reuse keeps slots < S.
    # S is the most distinct vertices of the contracted graph in one bag.
    held = np.sort(runs.entry_bag.astype(np.int64) * n + site[runs.entries])
    held = held[np.diff(held, prepend=-1) != 0]
    S = int(np.bincount(held // n).max()) if len(held) else 0
    W = (S - 1).bit_length()
    FIELD = (1 << W) - 1
    D1 = ((1 << S) - 1) << 1
    D2 = D1 << S
    off = [1 + 2 * S + s * W for s in range(S)]
    lab_off = [1 + 2 * S + S * W + 2 * s for s in range(S)]
    slot_of: dict[int, int] = {}
    free_slots: list[int] = []
    states: dict[int, int] = {0: 1}
    peak = 1

    for i in range(len(bags)):
        for v in intro[i]:
            # with no slot free, slots 0 .. len(slot_of) - 1 are all taken
            slot_of[v] = heapq.heappop(free_slots) if free_slots else len(slot_of)
            assert slot_of[v] < S
        for e in _edge_order(edges_at[i], remaining):
            u, v = e
            su, sv = slot_of[u], slot_of[v]
            bu, bv = 2 << su, 2 << sv  # degree-1 bits
            cu, cv = bu << S, bv << S  # degree-2 bits
            fu, fv = off[su], off[sv]
            # label codes: set_u enters u's field at its first edge, and u's
            # field must equal need_u for this edge to be its second
            set_u = need_u = mask_u = set_v = need_v = mask_v = 0
            if u in labels:
                at, code = lab_off[su], labels[u][e] - 1
                set_u, need_u, mask_u = code << at, (code ^ 1) << at, 3 << at
            if v in labels:
                at, code = lab_off[sv], labels[v][e] - 1
                set_v, need_v, mask_v = code << at, (code ^ 1) << at, 3 << at
            mask_uv, need_uv = mask_u | mask_v, need_u | need_v
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
                        if key & mask_uv != need_uv:
                            continue
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
                                key ^ bu ^ bv ^ cu ^ cv ^ need_uv
                                ^ (pu << fu) ^ (pv << fv)
                                ^ ((su ^ pv) << off[pu]) ^ ((sv ^ pu) << off[pv])
                            )
                    else:
                        # u's path extends onto the fresh vertex v
                        if key & mask_u != need_u:
                            continue
                        nk = (
                            key ^ bu ^ bv ^ cu ^ need_u ^ set_v
                            ^ (pu << fu) ^ (pu << fv) ^ ((su ^ sv) << off[pu])
                        )
                elif key & bv:
                    if key & mask_v != need_v:
                        continue
                    pv = key >> fv & FIELD
                    nk = (
                        key ^ bu ^ bv ^ cv ^ need_v ^ set_u
                        ^ (pv << fv) ^ (pv << fu) ^ ((su ^ sv) << off[pv])
                    )
                else:
                    # open a new path u-v
                    nk = key | bu | bv | (sv << fu) | (su << fv) | set_u | set_v
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
            if not states:
                # no later edge can revive an empty table
                return {}, peak

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
    sites = [v for v in b if v in graph.annotations]
    if sites:
        # a pinned vertex may end at degree 0 or 1, which a label site cannot
        raise ValidationError(f"boundary vertices {sites} are label sites")
    return b


def count_hc_pathdp(graph: AnnotatedGraph, modulus: int | None = None) -> CountResult:
    """Hamiltonian cycle count (or residue) along graph.decomposition, or
    along layered_decomposition(graph) when it has none."""
    t0 = time.perf_counter()
    _check_modulus(modulus)
    table, peak = _sweep(graph, (), modulus)
    total = table.get(Fingerprint((), (), Matching(())), 0)
    return CountResult(total, modulus, peak, (time.perf_counter() - t0) * 1e3)


def partial_solution_spectrum(
    graph: AnnotatedGraph, boundary: Sequence[int], modulus: int | None = None
) -> dict[Fingerprint, int]:
    """Partial-solution counts for every realizable fingerprint in one sweep.

    A partial solution is an edge subset in which vertices off the boundary
    have degree 2 and boundary vertices the fingerprint's degrees; with a
    nonempty matching it is disjoint paths joining its pairs, with an empty
    one a single cycle through every covered vertex, or nothing when nothing
    needs covering. The result is the nonzero entries of the bag sweep's
    table, so checking a gadget against its whole support costs one pass.
    """
    b = _pinned_boundary(graph, boundary, modulus)
    table, _ = _sweep(graph, b, modulus)
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
