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

An optional JSON sidecar next to the graph records reduction metadata.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, TextIO

from .exactalg import CapacityError, ValidationError

__all__ = [
    "AnnotatedGraph",
    "PathDecomposition",
    "DecompositionError",
    "write_hcgraph",
    "read_hcgraph",
    "write_sidecar",
    "LABEL_GADGET_EDGES",
]


# Ceiling on the vertex count a graph file may declare. Each vertex costs a
# few hundred bytes of sets and dicts before any edge is read, and compiled
# graphs stay in the tens of thousands of vertices.
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


def edge_key(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValidationError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


class DecompositionError(ValidationError):
    """A bag list fails the path decomposition axioms for its graph."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass
class PathDecomposition:
    """Ordered bags of vertex ids."""

    bags: list[tuple[int, ...]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def occurrence_intervals(self) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
        """Each vertex's first and last bag, and where its run breaks.

        Returns (first, last, gap) from one pass over the bags. `gap` maps
        each vertex whose bags are not contiguous to the first bag between
        its first and last that lacks it; a vertex listed twice in one bag
        counts once. Costs O(sum of bag sizes).
        """
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        gap: dict[int, int] = {}
        for i, bag in enumerate(self.bags):
            for v in bag:
                j = last.get(v)
                if j is None:
                    first[v] = i
                elif j == i:
                    continue
                elif j != i - 1 and v not in gap:
                    gap[v] = j + 1
                last[v] = i
        return first, last, gap

    def violations(self, graph: "AnnotatedGraph") -> list[str]:
        """Empty list iff this is a valid path decomposition of the graph.

        Checks: every bag vertex belongs to the graph, every vertex occurs in
        a nonempty contiguous run of bags, and every edge fits inside some bag.
        Two contiguous runs share a bag exactly when their intervals meet, so
        only an edge at a broken run scans bags; on a valid decomposition the
        cost is O(sum of bag sizes + |E|).
        """
        return self._violations(graph, *self.occurrence_intervals())

    def _violations(
        self,
        graph: "AnnotatedGraph",
        first: dict[int, int],
        last: dict[int, int],
        gap: dict[int, int],
    ) -> list[str]:
        probs: list[str] = []
        vset = graph.vertices
        if not vset.issuperset(first):
            for i, bag in enumerate(self.bags):
                probs += [f"bag {i} contains unknown vertex {v}" for v in bag if v not in vset]
        probs += [f"vertex {v} appears in no bag" for v in vset if v not in first]
        if gap:
            probs += [
                f"vertex {v} missing from bag {gap[v]} inside its run" for v in first if v in gap
            ]
        for u, v in graph.edges:
            if u in first and v in first:
                lo = max(first[u], first[v])
                hi = min(last[u], last[v])
                if lo <= hi and (
                    (u not in gap and v not in gap)
                    or any(u in b and v in b for b in self.bags[lo : hi + 1])
                ):
                    continue
            probs.append(f"edge {u}-{v} fits in no bag")
        return probs

    def validate(
        self, graph: "AnnotatedGraph"
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Raise DecompositionError naming the first 20 violations; otherwise
        return each vertex's first and last bag, from the same pass."""
        first, last, gap = self.occurrence_intervals()
        probs = self._violations(graph, first, last, gap)
        if probs:
            raise DecompositionError(probs[:20])
        return first, last

    def validate_expansion(self, graph: "AnnotatedGraph") -> int:
        """Validate the bags write_hcgraph writes for the graph's expansion
        from these, and return their width.

        Roles 3 and 4 of a label site s live over the run of s and the other
        roles in first[s] alone. So once `validate` passes, only an edge
        labelled 1 or 2 at s can miss: its other end must be in first[s].
        """
        first, last = self.validate(graph)
        sites = graph.annotations
        if not sites:
            return self.width  # written as they are, repeats too
        probs = []
        for s, labs in sites.items():
            at = first[s]
            for (u, v), lab in labs.items():
                w = u if v == s else v
                # w's end, too, may live in its site's first bag alone
                hi = first[w] if w in sites and sites[w][u, v] < 3 else last[w]
                if lab < 3 and not first[w] <= at <= hi:
                    probs.append(f"edge {u}-{v} labelled {lab} at site {s} misses bag {at}")
        if probs:
            raise DecompositionError(probs[:20])
        # each vertex fills the bags of its run once: one id, or a site's nine
        # in its first bag and two later, so bag sizes are prefix sums
        size = [0] * (len(self.bags) + 1)
        for v, i in first.items():
            k = 2 if v in sites else 1
            size[i] += k
            size[last[v] + 1] -= k
        for i in map(first.__getitem__, sites):
            size[i] += 7
            size[i + 1] -= 7
        return max(itertools.accumulate(size), default=0) - 1


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


def write_hcgraph(path, graph: AnnotatedGraph) -> None:
    """Write the graph and its decomposition's bags, if it has one, with
    vertices renumbered to 1..n in sorted order.

    A label site is written as its gadget, the sorted sites in blocks of
    nine ids above the plain vertices, role r at offset r - 1; an edge
    labelled r ends at role r. A site's first bag lists its nine ids and
    later bags roles 3 and 4. Bags with sites come out sorted, each id once.
    """
    sites = graph.annotations
    decomp = graph.decomposition
    order = sorted(graph.vertices.difference(sites))
    top = len(order)
    n = top + 9 * len(sites)
    # a site is named by its role 1
    name = {v: i for i, v in enumerate(order, start=1)}
    name.update(zip(sorted(sites), range(top + 1, n, 9)))
    edges = [(i + r, i + s) for i in range(top + 1, n, 9) for r, s in _GADGET_OFFSETS]
    for e in graph.edges:
        u, v = e
        x = name[u] + sites[u][e] - 1 if u in sites else name[u]
        y = name[v] + sites[v][e] - 1 if v in sites else name[v]
        edges.append((x, y) if x < y else (y, x))
    edges.sort()
    word = list(map(str, range(n + 1)))
    lines = ["hcgraph v1", f"n {n}"]
    lines += [f"e {word[x]} {word[y]}" for x, y in edges]
    if decomp is not None:
        # a site's word is its nine ids until its first bag is written
        for i in range(top + 1, n, 9):
            word[i] = " ".join(word[i : i + 9])
        for bag in decomp.bags:
            ids = map(name.__getitem__, bag)
            # with sites, as the expansion lists them: sorted, each id once
            ids = sorted(set(ids)) if sites else list(ids)
            lines.append("bag " + " ".join(map(word.__getitem__, ids)))
            # sites sort last; their later bags hold roles 3 and 4
            for i in reversed(ids):
                if i <= top:
                    break
                word[i] = f"{i + 2} {i + 3}"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


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
