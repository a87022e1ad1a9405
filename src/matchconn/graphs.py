"""Graph containers, path decompositions, and the on-disk graph format.

AnnotatedGraph is a simple undirected graph with stable integer vertex ids.
Vertices may carry a label-gadget annotation: a map from incident edges to
labels 1..4. `write_hcgraph` writes each such label site as the 9-vertex
LABEL_GADGET_EDGES graph, and the bag sweep in hcount counts sites directly.
Labels are fixed at construction: `AnnotatedGraph.from_edges` takes them
with the edge list and checks in the same pass that every edge at a site
carries one, and `add_edge` refuses an edge that a site would leave
unlabeled. A graph may also carry a path decomposition of itself.

File format ("hcgraph v1"), plain ASCII text:

    hcgraph v1
    n <vertex-count>
    e <u> <v>          (one line per edge, 1-based contiguous ids)
    bag <v1> <v2> ...  (one line per decomposition bag, in order)

A file may declare at most MAX_HCGRAPH_VERTICES vertices.

`read_hcgraph` parses a file in the layout `write_hcgraph` writes (the
header, the `n` line, the edge lines, then the bag lines, unsigned
integers between spaces, each line ended) as arrays: each block's fields
are checked and converted in bulk, and the graph and bags are built from
the arrays. A file in any other layout, or with anything wrong, goes
through the line parser instead, which names a bad line by its number;
both give the same graph, bags and messages.

`PathDecomposition.validate` checks a decomposition as arrays too, in one
pass that returns each vertex's run of bags (`BagRuns`) or names the
violations it found. `BagRuns.written_gadgets` finds the label gadgets in
the layout `write_hcgraph` writes, which the bag sweep contracts.

The compiler builds no graph: `GraphArrays.check` takes its edge keys, the
labels at their ends and its bags, refuses what `from_edges` and
`validate` refuse, in their words, and returns the checked arrays
(`GraphArrays`). `write_hcgraph` writes from those arrays; it converts an
AnnotatedGraph to them on entry, so both go through one writer.
`GraphArrays.graph` builds the AnnotatedGraph of the arrays for the
callers that want one.

An optional JSON sidecar next to the graph records reduction metadata.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np

from .exactalg import CapacityError, ValidationError

__all__ = [
    "AnnotatedGraph",
    "PathDecomposition",
    "DecompositionError",
    "GraphArrays",
    "write_hcgraph",
    "read_hcgraph",
    "write_sidecar",
    "LABEL_GADGET_EDGES",
]


# Ceiling on the vertex count a graph file may declare. The graph read back
# holds a vertex set and an adjacency set per vertex, a few hundred bytes a
# vertex; the file's integer arrays are 8 bytes an id, and compiled graphs
# stay in the tens of thousands of vertices.
MAX_HCGRAPH_VERTICES = 1_000_000

# Internal wiring of the 9-vertex replacement for a label site. External
# edges labeled i attach to replacement vertex i (1 <= i <= 4); roles 5..9
# have no other edges.
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
# the same edges as sorted (smaller, larger) offsets from role 1
_GADGET_OFFSETS = tuple(sorted((min(r, s) - 1, max(r, s) - 1) for r, s in LABEL_GADGET_EDGES))
# Degrees of the gadget's roles 5..9, which have no outside edges.
_INTERIOR_DEGREES = tuple(sum(r in e for e in LABEL_GADGET_EDGES) for r in range(5, 10))


def edge_key(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValidationError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


class DecompositionError(ValidationError):
    """A bag list fails the path decomposition axioms for its graph."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class BagRuns:
    """A decomposition and its graph as integer arrays; the check
    (`_bag_runs`) returns them only for a valid decomposition.

    `ids` holds the graph's vertex ids sorted, and every other array names
    a vertex by its index there. Vertex i lives in bags first[i]..last[i];
    `ends` holds each edge's two ends, one row per edge; `entries` lists
    every bag entry, bag by bag, and `entry_bag` the bag of each. These two,
    the longest arrays, and `first` and `last` are int32. There are `count`
    bags.
    """

    ids: np.ndarray
    first: np.ndarray
    last: np.ndarray
    ends: np.ndarray
    entries: np.ndarray
    entry_bag: np.ndarray
    count: int

    def index(self, vertices: Iterable[int]) -> np.ndarray:
        """The index in `ids` of each of the given vertices of the graph."""
        at, known = _positions(self.ids, np.array(list(vertices), dtype=self.ids.dtype))
        assert known.all()
        return at

    def written_gadgets(self) -> np.ndarray:
        """The indices a, sorted, of role 1 of every label gadget in the
        layout write_hcgraph writes: ids[a] .. ids[a] + 8 are vertices, at
        indices a .. a + 8, that hold the ten edges of LABEL_GADGET_EDGES
        at their offsets, exactly ten edges join two of them, and roles
        5..9 have no other edge.
        """
        ids, ends = self.ids, self.ends
        n = len(ids)
        deg = np.bincount(ends.ravel(), minlength=n)
        a = np.flatnonzero(deg[6 : n - 2] == 2)  # role 7 at a + 6, role 9 at a + 8 < n
        a = a[(ids[a + 8] - ids[a] == 8).astype(bool)]  # nine consecutive ids
        if not len(a):
            return a
        # one row per role or edge, one column per candidate
        a = a[(deg[a + np.arange(4, 9)[:, None]] == np.array(_INTERIOR_DEGREES)[:, None]).all(axis=0)]
        lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        offsets = np.array(_GADGET_OFFSETS)
        codes = np.sort(lo * n + hi)
        want = (a + offsets[:, :1]) * n + a + offsets[:, 1:]
        at = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
        a = a[(codes[at] == want).all(axis=0)]
        # edges inside the window a .. a + 8: those with hi - 8 <= a <= lo
        short = hi - lo <= 8
        inside = np.cumsum(
            np.bincount(np.maximum(hi[short] - 8, 0), minlength=n + 1)
            - np.bincount(lo[short] + 1, minlength=n + 1)
        )
        return a[inside[a] == len(LABEL_GADGET_EDGES)]


def _positions(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's index in the sorted distinct `ids`, 0 for a value that
    is not one of them, and the mask of those that are. Values are compared
    with the ends of `ids` before any is used as an index."""
    n = len(ids)
    if n and ids.dtype == np.int64 and int(ids[-1]) - int(ids[0]) == n - 1:
        known = (values >= ids[0]) & (values <= ids[-1])
        index = values - ids[0]
    else:
        index = np.searchsorted(ids, values)
        known = index < n
        known[known] = ids[index[known]] == values[known]
    index[~known] = 0
    return index, known


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The values sorted, each once; sorts `values` in place. One sort and
    a mask, which here beat np.unique's hash pass."""
    values.sort()
    keep = np.ones(len(values), bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _bag_runs(
    bags: list[tuple[int, ...]], graph: "AnnotatedGraph | None", edges: np.ndarray | None = None
) -> BagRuns:
    """The decomposition check: each vertex's run of bags as arrays, or
    DecompositionError naming the first 20 violations.

    The graph is `graph` or, when that is None, the graph of `edges`, an
    (E, 2) int64 array of sorted edge keys, on the vertices of the bags
    and of the edges. That graph is built, as AnnotatedGraph.from_edges
    builds it, only to name the violations of a failed check, so both
    entries name them alike.

    A run is broken when its vertex lies in fewer distinct bags than
    last - first + 1; an edge fits when neither end's run is broken and
    the runs meet, max(first) <= min(last), since two unbroken runs that
    meet share a bag. A failed check names its violations in this order:
    unknown entries bag by bag (each gets a run too), vertices in no bag,
    broken runs by first appearance at their first missing bag, then the
    edges that fit no bag, where only an edge at a broken run scans bags.
    Ids beyond int64 compare as Python ints.
    """
    count = len(bags)
    sizes = np.fromiter(map(len, bags), np.int64, count)
    if graph is None:
        flat = np.fromiter(itertools.chain.from_iterable(bags), np.int64, int(sizes.sum()))
        edge_ends = edges.ravel()
        ids = _sorted_distinct(np.concatenate((flat, edge_ends)))
    else:
        try:
            ids = np.fromiter(graph.vertices, np.int64, len(graph.vertices))
        except OverflowError:
            ids = np.array(list(graph.vertices), dtype=object)
        ids.sort()
        try:
            flat = np.fromiter(itertools.chain.from_iterable(bags), ids.dtype, int(sizes.sum()))
        except OverflowError:  # an entry beyond int64, which no vertex is
            flat = np.array(list(itertools.chain.from_iterable(bags)), dtype=object)
            ids = ids.astype(object)
        edge_ends = np.fromiter(itertools.chain.from_iterable(graph.edges), ids.dtype, 2 * len(graph.edges))
    entries, known = _positions(ids, flat)
    unknown = np.flatnonzero(~known)
    strays = flat[unknown]
    if len(unknown):
        # unknown entries join the ids, so that their runs are computed too
        ids = np.union1d(ids, strays)
        entries, _ = _positions(ids, flat)
    del flat, known  # the arrays here are transient; hold few at once
    size = len(ids)
    entries = entries.astype(np.int32)
    entry_bag = np.repeat(np.arange(count, dtype=np.int32), sizes)
    first = np.full(size, count, np.int32)  # ufunc.at is fast on one dtype
    np.minimum.at(first, entries, entry_bag)
    last = np.full(size, -1, np.int32)
    np.maximum.at(last, entries, entry_bag)
    # a vertex listed twice in a bag gives two equal (bag, vertex) codes;
    # each repeat is taken off the vertex's count of bags
    codes = entry_bag.astype(np.int64)
    codes *= size
    codes += entries
    codes.sort()
    repeats = codes[1:][codes[1:] == codes[:-1]] % size
    del codes
    held = np.bincount(entries, minlength=size)
    held -= np.bincount(repeats, minlength=size)
    broken = held < last - first + 1
    ends, _ = _positions(ids, edge_ends)
    ends = ends.reshape(-1, 2)
    u, v = ends.T
    lo = np.maximum(first[u], first[v])
    hi = np.minimum(last[u], last[v])
    meet = lo <= hi
    if not len(unknown) and (last >= 0).all() and not broken.any() and meet.all():
        return BagRuns(ids, first, last, ends, entries, entry_bag, count)
    if graph is None:
        # the graph's own check fails too, and names the violations
        keys = list(map(tuple, edges.tolist()))
        return _bag_runs(bags, AnnotatedGraph.from_edges(itertools.chain.from_iterable(bags), keys))

    probs = [
        f"bag {b} contains unknown vertex {x}"
        for b, x in zip(entry_bag[unknown].tolist(), strays.tolist())
    ]
    absent = set(ids[last < 0].tolist())
    probs += [f"vertex {x} appears in no bag" for x in graph.vertices if x in absent]
    if broken.any():
        # sorted by (vertex, bag), a run breaks at its first jump past a bag
        order = np.lexsort((entry_bag, entries))
        at, at_bag = entries[order], entry_bag[order]
        jump = np.flatnonzero((at[1:] == at[:-1]) & (at_bag[1:] > at_bag[:-1] + 1))
        jump = jump[np.r_[True, at[jump[1:]] != at[jump[:-1]]]]
        gap = dict(zip(ids[at[jump]].tolist(), (at_bag[jump] + 1).tolist()))
        probs += [
            f"vertex {x} missing from bag {gap[x]} inside its run"
            for x in dict.fromkeys(itertools.chain.from_iterable(bags))
            if x in gap
        ]
    edges = list(graph.edges)
    for i in np.flatnonzero(meet & (broken[u] | broken[v])).tolist():
        a, b = edges[i]
        meet[i] = any(a in bag and b in bag for bag in bags[lo[i] : hi[i] + 1])
    probs += [f"edge {a}-{b} fits in no bag" for (a, b), fits in zip(edges, meet.tolist()) if not fits]
    raise DecompositionError(probs[:20])


@dataclass
class PathDecomposition:
    """Ordered bags of vertex ids."""

    bags: list[tuple[int, ...]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def validate(self, graph: "AnnotatedGraph") -> BagRuns:
        """Return the bags' runs as arrays, or raise DecompositionError
        naming the first 20 violations (_bag_runs)."""
        return _bag_runs(self.bags, graph)

    def validate_expansion(self, graph: "AnnotatedGraph") -> int:
        """Validate the bags write_hcgraph writes for the graph's expansion
        from these, and return their width (GraphArrays.expansion_width)."""
        return GraphArrays.of(graph, self.validate(graph)).expansion_width()


def _check_labelled_edges(edges: np.ndarray, tags: np.ndarray) -> None:
    """AnnotatedGraph.from_edges' checks of edges and labels, in its words,
    on an (E, 2) array of edge keys and the labels at their ends, 0 at a
    plain end; a site is a vertex with a label at one of its edges.

    The first repeated key in edge order is refused, then the first loop or
    unsorted key; then, at the smallest site with a fault, a label outside
    1..4 or, failing that, the edges left without a label there.
    """
    u, v = edges.T
    order = np.lexsort((v, u))
    same = (u[order][1:] == u[order][:-1]) & (v[order][1:] == v[order][:-1])
    if same.any():
        # lexsort is stable, so the later of two equal keys sorts second
        raise ValidationError(f"duplicate edge {tuple(edges[order[1:][same].min()].tolist())}")
    bad = np.flatnonzero(u >= v)
    if len(bad):
        a, b = edges[bad[0]].tolist()
        raise ValidationError(f"loop edge at vertex {a}" if a == b else f"edge key {(a, b)} is not sorted")
    outside = (tags < 0) | (tags > 4)
    faults = outside | ((tags == 0) & np.isin(edges, edges[tags != 0]))
    if faults.any():
        site = edges[faults].min()
        at = edges == site
        wrong = tags[at & outside]
        if len(wrong):
            raise ValidationError(f"label {wrong[0]} outside 1..4")
        missing = sorted(map(tuple, edges[(at & (tags == 0)).any(axis=1)].tolist()))
        raise ValidationError(f"vertex {site} leaves incident edges unlabeled: {missing}")


@dataclass(frozen=True)
class GraphArrays:
    """A graph with label sites and its bags, as the integer arrays
    write_hcgraph writes from: `runs` holds its vertices, edges and bag
    entries, `tags` the label at each end of each edge of runs.ends, 0 at a
    plain end, and `sites` the indices in runs.ids of its label sites,
    sorted.
    """

    runs: BagRuns
    tags: np.ndarray
    sites: np.ndarray

    @classmethod
    def check(cls, edges: np.ndarray, tags: np.ndarray, bags: list[tuple[int, ...]]) -> "GraphArrays":
        """The graph of `edges`, an (E, 2) int64 array of edge keys whose
        ends carry the labels `tags`, on the vertices of the bags and the
        edges, and its bags, checked without building it: as
        AnnotatedGraph.from_edges and then PathDecomposition.validate check
        it, in their words (_check_labelled_edges, _bag_runs)."""
        _check_labelled_edges(edges, tags)
        runs = _bag_runs(bags, None, edges)
        return cls(runs, tags, np.flatnonzero(np.bincount(runs.ends[tags > 0], minlength=len(runs.ids))))

    @classmethod
    def of(cls, graph: "AnnotatedGraph", runs: BagRuns) -> "GraphArrays":
        """The arrays of a graph whose edges `runs` lists in graph.edges
        order."""
        sites = graph.annotations
        tags = np.fromiter(
            itertools.chain.from_iterable(
                (sites[u][u, v] if u in sites else 0, sites[v][u, v] if v in sites else 0)
                for u, v in graph.edges
            ),
            np.int64,
            2 * len(graph.edges),
        )
        return cls(runs, tags.reshape(-1, 2), np.sort(runs.index(sites)))

    def graph(self) -> "AnnotatedGraph":
        """The AnnotatedGraph and bags these arrays hold, built as
        from_edges builds it from the bags' vertices, the edges and their
        labels."""
        runs = self.runs
        ids = runs.ids.tolist()
        keys = [(ids[a], ids[b]) for a, b in runs.ends.tolist()]
        flat = [ids[i] for i in runs.entries.tolist()]
        stops = np.cumsum(np.bincount(runs.entry_bag, minlength=runs.count)).tolist()
        bags = [tuple(flat[a:b]) for a, b in zip([0] + stops, stops)]
        graph = AnnotatedGraph.from_edges(
            itertools.chain.from_iterable(bags), keys, site_labels(keys, self.tags.tolist())
        )
        graph.decomposition = PathDecomposition(bags)
        return graph

    def expansion_width(self) -> int:
        """Validate the bags write_hcgraph writes for the expansion of this
        graph, whose own bags passed the check, and return their width.

        Roles 3 and 4 of a label site s live over the run of s and the other
        roles in first[s] alone. So once the check passes, only an edge
        labelled 1 or 2 at s can miss: its other end must be in first[s].
        A miss raises DecompositionError, naming the first 20 by site.
        """
        runs, tags, sites = self.runs, self.tags, self.sites
        if not len(sites):
            # written as they are, repeats too
            return int(np.bincount(runs.entry_bag, minlength=runs.count).max(initial=0)) - 1
        # each edge end labelled 1 or 2 at a site s, and the edge's other end w
        early = (tags == 1) | (tags == 2)
        row, side = np.nonzero(early)
        s, w = runs.ends[row, side], runs.ends[row, 1 - side]
        at = runs.first[s]
        # w's end, too, may live in its site's first bag alone
        hi = np.where(early[row, 1 - side], runs.first[w], runs.last[w])
        miss = np.flatnonzero((runs.first[w] > at) | (at > hi))
        if len(miss):
            miss = miss[np.argsort(s[miss], kind="stable")][:20]
            ids = runs.ids
            raise DecompositionError([
                f"edge {ids[runs.ends[r, 0]]}-{ids[runs.ends[r, 1]]} labelled {tags[r, j]} "
                f"at site {ids[s[i]]} misses bag {at[i]}"
                for i, r, j in zip(miss.tolist(), row[miss].tolist(), side[miss].tolist())
            ])
        # each vertex fills the bags of its run once: one id, or a site's nine
        # in its first bag and two later, so bag sizes are prefix sums
        k = np.ones(len(runs.ids), np.int64)
        k[sites] = 2
        size = np.zeros(runs.count + 1, np.int64)
        np.add.at(size, runs.first, k)
        np.add.at(size, runs.last + 1, -k)
        np.add.at(size, runs.first[sites], 7)
        np.add.at(size, runs.first[sites] + 1, -7)
        return int(np.cumsum(size).max()) - 1


def site_labels(
    edges: list[tuple[int, int]], tags: Iterable[tuple[int, int]]
) -> dict[int, dict[tuple[int, int], int]]:
    """The `labels` AnnotatedGraph.from_edges takes, from edge keys and the
    label at each end of each, 0 at a plain end; sites in sorted order."""
    labels: dict[int, dict[tuple[int, int], int]] = {}
    for k, (a, b) in zip(edges, tags):
        if a:
            labels.setdefault(k[0], {})[k] = a
        if b:
            labels.setdefault(k[1], {})[k] = b
    return dict(sorted(labels.items()))


class AnnotatedGraph:
    """Simple undirected graph; optional per-vertex edge-label annotations."""

    def __init__(self) -> None:
        self.vertices: set[int] = set()
        self.edges: set[tuple[int, int]] = set()
        self._adj: dict[int, set[int]] = {}
        # annotations[v][edge_key] = label in 1..4; v is a label-gadget site
        self.annotations: dict[int, dict[tuple[int, int], int]] = {}
        self.decomposition: PathDecomposition | None = None

    # -- construction --------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if v in self.vertices:
            return
        self.vertices.add(v)
        self._adj[v] = set()

    def add_edge(self, u: int, v: int) -> None:
        """Add the plain edge u-v. An edge at a label site would have no
        label, so it raises ValidationError, as a repeated edge does."""
        k = edge_key(u, v)
        for w in k:
            if w in self.annotations:
                raise ValidationError(f"label site {w} would leave edge {k} unlabeled")
        self.add_vertex(u)
        self.add_vertex(v)
        if k in self.edges:
            raise ValidationError(f"duplicate edge {k}")
        self.edges.add(k)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @classmethod
    def from_edges(
        cls,
        vertices: Iterable[int],
        edges: list[tuple[int, int]],
        labels: Mapping[int, Mapping[tuple[int, int], int]] | None = None,
    ) -> "AnnotatedGraph":
        """Graph on `vertices` and the endpoints of `edges`, built in one pass.

        Each edge is a sorted key (u, v) with u < v. A loop or a repeated
        edge raises ValidationError, as add_edge does. `labels` maps each
        label-gadget site to a label in 1..4 for every one of its edges,
        keyed by the same sorted keys; an unknown site, a key that is not
        an edge at its site, a label outside 1..4 or an unlabeled edge at a
        site raises ValidationError. The labels are copied.
        """
        g = cls()
        g.edges = set(edges)
        if len(g.edges) != len(edges):
            seen: set[tuple[int, int]] = set()
            for k in edges:
                if k in seen:
                    raise ValidationError(f"duplicate edge {k}")
                seen.add(k)
        g.vertices = set(vertices)
        g.vertices.update(itertools.chain.from_iterable(edges))
        adj = g._adj = {v: set() for v in g.vertices}
        for u, v in edges:
            if u >= v:
                if u == v:
                    raise ValidationError(f"loop edge at vertex {u}")
                raise ValidationError(f"edge key {(u, v)} is not sorted")
            adj[u].add(v)
            adj[v].add(u)
        for v, labs in (labels or {}).items():
            if v not in adj:
                raise ValidationError(f"annotating unknown vertex {v}")
            for k, lab in labs.items():
                if k not in g.edges or v not in k:
                    raise ValidationError(f"annotation on non-incident edge {k} at {v}")
                if lab not in (1, 2, 3, 4):
                    raise ValidationError(f"label {lab} outside 1..4")
            # the keys are distinct edges at v, so they cover v's edges iff
            # there are as many
            if len(labs) != len(adj[v]):
                missing = sorted(k for u in adj[v] if (k := edge_key(u, v)) not in labs)
                raise ValidationError(f"vertex {v} leaves incident edges unlabeled: {missing}")
            g.annotations[v] = dict(labs)
        return g

    def __repr__(self) -> str:
        return f"AnnotatedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


# ---------------------------------------------------------------------------
# serialization


def _layout(bags: list[tuple[int, ...]], graph: AnnotatedGraph) -> BagRuns:
    """The arrays of the graph and of `bags`, which need not be a valid
    decomposition of it; a bag entry that is no vertex raises
    ValidationError."""
    order = sorted(graph.vertices)
    at = dict(zip(order, itertools.count()))
    try:
        entries = np.array([at[x] for x in itertools.chain.from_iterable(bags)], np.int32)
    except KeyError:
        b, x = next((b, x) for b, bag in enumerate(bags) for x in bag if x not in at)
        raise ValidationError(f"bag {b} contains unknown vertex {x}") from None
    ends = np.array([at[x] for x in itertools.chain.from_iterable(graph.edges)], np.int64)
    try:
        ids = np.array(order, np.int64)
    except OverflowError:
        ids = np.array(order, object)
    count = len(bags)
    entry_bag = np.repeat(np.arange(count, dtype=np.int32), np.fromiter(map(len, bags), np.int64, count))
    first = np.full(len(order), count, np.int32)
    np.minimum.at(first, entries, entry_bag)
    last = np.full(len(order), -1, np.int32)
    np.maximum.at(last, entries, entry_bag)
    return BagRuns(ids, first, last, ends.reshape(-1, 2), entries, entry_bag, count)


def write_hcgraph(path, graph: AnnotatedGraph | GraphArrays) -> None:
    """Write the graph and its bags, if it has any, with vertices renumbered
    to 1..n in sorted order.

    The graph is an AnnotatedGraph with its decomposition, whose bags need
    not be valid, or the checked arrays of one (GraphArrays); the first is
    converted to the second on entry, and a bag vertex it lacks raises
    ValidationError before any file is written.

    A label site is written as its gadget, the sorted sites in blocks of
    nine ids above the plain vertices, role r at offset r - 1; an edge
    labelled r ends at role r. A site's first bag lists its nine ids and
    later bags roles 3 and 4. The edges are sorted by one sort of their
    codes. Bags with sites come out sorted, each id once: one sort of the
    (bag, id) codes, a site standing for its block. Bags without sites are
    written as they are, repeats too.
    """
    if isinstance(graph, AnnotatedGraph):
        bags = graph.decomposition.bags if graph.decomposition is not None else []
        graph = GraphArrays.of(graph, _layout(bags, graph))
    runs, sites = graph.runs, graph.sites
    size = len(runs.ids)
    top = size - len(sites)
    n = top + 9 * len(sites)
    # a site is named by its role 1
    name = np.empty(size, np.int64)
    plain = np.ones(size, bool)
    plain[sites] = False
    name[plain] = np.arange(1, top + 1)
    base = name[sites] = np.arange(top + 1, n, 9)
    ends = name[runs.ends] + np.maximum(graph.tags - 1, 0)
    inner = (base[:, None, None] + np.array(_GADGET_OFFSETS)).reshape(-1, 2)
    codes = np.concatenate((ends.min(axis=1) * (n + 1) + ends.max(axis=1), inner[:, 0] * (n + 1) + inner[:, 1]))
    codes.sort()
    x, y = np.divmod(codes, n + 1)
    digits = list(map(str, range(n + 1)))
    # the word of each id, and from n + 1 on the words of sites' first bags
    word = np.full(2 * (n + 1), "", object)
    word[: n + 1] = digits
    # one block at a time: the edge lines are gone before the bag lines come
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"hcgraph v1\nn {n}\n")
        fh.write("".join([f"e {a} {b}\n" for a, b in zip(word[x].tolist(), word[y].tolist())]))
        if not runs.count:
            return
        if len(sites):
            # (bag, id) codes, in int32 when they fit
            small = np.int32 if (runs.count + 1) * (n + 1) < 2**31 else np.int64
            codes = runs.entry_bag.astype(small)
            codes *= n + 1
            codes += name.astype(small)[runs.entries]
            bag, at = np.divmod(_sorted_distinct(codes), n + 1)
            # a site's word is its nine ids in its first bag and its roles 3
            # and 4 in later bags
            first = np.full(n + 1, -1, small)
            first[base] = runs.first[sites]
            at += (n + 1) * (first[at] == bag)
            word[base + n + 1] = [" ".join(digits[i : i + 9]) for i in base.tolist()]
            word[base] = [f"{i + 2} {i + 3}" for i in base.tolist()]
        else:
            bag, at = runs.entry_bag, name[runs.entries]
        words = word[at].tolist()
        stops = np.cumsum(np.bincount(bag, minlength=runs.count)).tolist()
        fh.write("".join(["bag " + " ".join(words[a:b]) + "\n" for a, b in zip([0] + stops, stops)]))


def _line_ints(fields: list[str], lineno: int) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise ValidationError(f"line {lineno}: non-integer field in {fields}") from None


@contextmanager
def open_ascii(path) -> Iterator[TextIO]:
    """Open a text file to read as ASCII. A byte outside ASCII, met while
    reading, raises ValidationError naming the file and the byte."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path}: byte 0x{exc.object[exc.start]:02x} is not ASCII"
            ) from None


def read_hcgraph(path) -> AnnotatedGraph:
    """The graph and bags of an `hcgraph v1` file.

    A file in the writer's layout is parsed as arrays (_parse_arrays); any
    other file, and any file with something wrong, is read line by line
    (_read_lines), which names the first bad line. Both give the same graph
    and bags, and raise the same errors.
    """
    with open(path, "rb") as fh:
        parsed = _parse_arrays(fh.read())
    if parsed is None:
        return _read_lines(path)
    # the file's bytes are gone by now, so the graph does not share the peak
    n, ends, bags = parsed
    u, v = ends.T
    graph = AnnotatedGraph.from_edges(
        range(1, n + 1), list(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
    )
    if bags:
        graph.decomposition = PathDecomposition(bags)
    return graph


# the bytes a block of lines may hold besides its tags
_BLANK_AND_DIGITS = b" \n0123456789"
# the letters of the tags `e` and `bag`, blanked before the integers are read
_TAG_LETTERS = bytes.maketrans(b"abeg", b"    ")


def _int_lines(block: bytes, tag: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The integers of a block of lines `<tag> <i> <j> ...`, each line
    ended, as one int64 array, and how many each line holds.

    None unless every line starts with the tag and a space and the rest is
    unsigned decimal integers and spaces: the block's bytes are counted and
    checked once, and its integers converted in one call. An integer too
    large for int64 reads as the int64 maximum, so callers range-check
    every value.
    """
    lines = block.count(b"\n")
    if block[-1:] not in (b"", b"\n") or (b"\n" + block).count(b"\n" + tag + b" ") != lines:
        return None
    if block.translate(None, _BLANK_AND_DIGITS) != tag * lines:
        return None
    text = np.frombuffer(block, np.uint8)
    digit = text - np.uint8(ord("0")) < 10
    # a line's numbers are those that start before its end; no line starts
    # with a digit
    starts = np.flatnonzero(digit[1:] & ~digit[:-1])
    per_line = np.diff(np.searchsorted(starts, np.flatnonzero(text == ord("\n"))), prepend=0)
    if not len(starts):
        return np.zeros(0, np.int64), per_line
    values = np.fromstring(block.translate(_TAG_LETTERS), dtype=np.int64, sep=" ")
    return (values, per_line) if len(values) == len(starts) else None


def _parse_arrays(data: bytes) -> tuple[int, np.ndarray, list[tuple[int, ...]]] | None:
    """The vertex count, the edges as an (E, 2) array and the bags of a
    file in the layout write_hcgraph writes: the header, the `n` line,
    every edge line, then every bag line. None for a file in any other
    layout, or one whose edges or bags name an id outside 1..n."""
    head_end = data.find(b"\n")
    if head_end < 0 or data[:head_end] != b"hcgraph v1" or not data.isascii():
        return None
    count_end = data.find(b"\n", head_end + 1)
    count_end = len(data) if count_end < 0 else count_end
    count = data[head_end + 1 : count_end]
    if not count.startswith(b"n ") or not count[2:].isdigit():
        return None
    n = int(count[2:])
    if n > MAX_HCGRAPH_VERTICES:
        return None
    # the bag lines start at the first line after the `n` line that is one
    at = data.find(b"\nbag ", count_end) + 1 or len(data)
    edges = _int_lines(data[count_end + 1 : at], b"e")
    bags = _int_lines(data[at:], b"bag")
    if edges is None or bags is None or (edges[1] != 2).any():
        return None
    ends, (flat, sizes) = edges[0].reshape(-1, 2), bags
    if not all(((a >= 1) & (a <= n)).all() for a in (ends, flat)):
        return None
    ids = flat.tolist()
    offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
    return n, ends, [tuple(ids[a:b]) for a, b in zip(offsets, offsets[1:])]


def _read_lines(path) -> AnnotatedGraph:
    """read_hcgraph one line at a time: any line order, blank lines and any
    whitespace, each field converted by int(); the first bad line raises
    ValidationError naming its number."""
    edges: list[tuple[int, int]] = []
    bags: list[tuple[int, ...]] = []
    declared = None
    with open_ascii(path) as fh:
        header = fh.readline().strip()
        if header != "hcgraph v1":
            raise ValidationError(f"bad header {header!r}, expected 'hcgraph v1'")
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == "e":
                if len(parts) != 3:
                    raise ValidationError(f"line {lineno}: bad edge line")
                u, v = _line_ints(parts[1:], lineno)
                edges.append((u, v) if u < v else (v, u))
            elif tag == "bag":
                bags.append(tuple(_line_ints(parts[1:], lineno)))
            elif tag == "n":
                if len(parts) != 2:
                    raise ValidationError(f"line {lineno}: bad vertex-count line")
                if declared is not None:
                    raise ValidationError(f"line {lineno}: second 'n' line")
                (declared,) = _line_ints(parts[1:], lineno)
                if declared < 0:
                    raise ValidationError(f"line {lineno}: negative vertex count {declared}")
                if declared > MAX_HCGRAPH_VERTICES:
                    raise CapacityError(
                        f"line {lineno}: {declared} vertices exceed the "
                        f"{MAX_HCGRAPH_VERTICES} ceiling"
                    )
            else:
                raise ValidationError(f"line {lineno}: unknown tag {tag!r}")
    if declared is None:
        raise ValidationError("missing 'n' line")
    g = AnnotatedGraph.from_edges(range(1, declared + 1), edges)
    if g.vertices and (min(g.vertices) < 1 or max(g.vertices) > declared):
        raise ValidationError("edge endpoint outside 1..n")
    if bags:
        g.decomposition = PathDecomposition(bags)
    return g


def write_sidecar(path, meta: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
