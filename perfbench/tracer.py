"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each public function of the package modules by
a wrapper in every ``matchconn.*`` namespace that holds the same object,
because ``from .x import y`` copies the reference. Spans stay in memory as
``[name, start, end, parent, request]`` lists and are written as JSON once
the run ends. Outside a request the wrappers only forward the call.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("matchings", "exactalg", "tableaux", "scheme", "amplify",
          "hcount", "reduction", "graphs", "cli")

# Inner predicates that run up to ~1e5 times per request: a span each would
# cost more than the work it measures.
HOT = {"matchings.is_single_cycle", "matchings.union_cycle_type", "graphs.edge_key"}


def _min_dim_ops(matrix) -> int:
    m, n = matrix.nrows, matrix.ncols
    return m * n * min(m, n)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.built: set[tuple[str, int]] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def begin_request(self, request_id: int, kind: str) -> None:
        self.request = request_id
        self.stack = [len(self.spans)]
        self.spans.append([f"request.{kind}", perf_counter(), 0.0, None, request_id])

    def end_request(self) -> None:
        self.spans[self.stack[0]][2] = perf_counter()
        self.request = None
        self.stack = []

    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            span = [name, 0.0, 0.0, parent, tracer.request]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer, tracer.spans[parent][0], args, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer, plus validate."""
        mods = {n: sys.modules[f"matchconn.{n}"] for n in LAYERS}
        targets = []
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in HOT or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                targets.append((name, obj))
        namespaces = [m for k, m in sys.modules.items() if k.startswith("matchconn.")]
        for name, obj in targets:
            wrapped = self._wrap(name, obj)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is obj:
                        self._restore.append((ns, attr, val))
                        setattr(ns, attr, wrapped)
        decomp = mods["graphs"].PathDecomposition
        self._restore.append((decomp, "validate", decomp.validate))
        decomp.validate = self._wrap("graphs.validate", decomp.validate)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans, "counters": self.counters}, fh)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name self time and call count, and total request time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent is None:
                total += end - start
        return self_s, calls, total


# ---------------------------------------------------------------------------
# counters taken at the same boundaries as the spans


def _after_rank(tr: Tracer, parent: str, args, result) -> None:
    matrix = args[0]
    if parent != "exactalg.nullity_shift":
        tr.counters["exactalg.rank.ops_computed"] += _min_dim_ops(matrix)
    if not hasattr(matrix.field, "p"):  # Rationals; a PrimeField carries p
        tr.counters["exactalg.rank.q_calls"] += 1
        if result == min(matrix.nrows, matrix.ncols):
            tr.counters["exactalg.rank.q_full"] += 1


def _after_nullity(tr: Tracer, parent: str, args, result) -> None:
    tr.counters["exactalg.rank.ops_computed"] += _min_dim_ops(args[0])


def _after_build(kind: str):
    def hook(tr: Tracer, parent: str, args, result) -> None:
        tr.built.add((kind, args[0]))

    return hook


def _after_count(tr: Tracer, parent: str, args, result) -> None:
    tr.counters["hcount.edges"] += len(args[0].edges)


def _after_assemble(tr: Tracer, parent: str, args, result) -> None:
    tr.counters["reduction.vertices_out"] += len(result.graph.vertices)
    tr.counters["reduction.edges_out"] += len(result.graph.edges)
    tr.counters["reduction.width_max"] = max(tr.counters["reduction.width_max"], result.width)


def _after_write(tr: Tracer, parent: str, args, result) -> None:
    tr.counters["graphs.bytes_written"] += os.path.getsize(args[0])


def _after_read(tr: Tracer, parent: str, args, result) -> None:
    tr.counters["graphs.bytes_read"] += os.path.getsize(args[0])


_AFTER = {
    "exactalg.rank": _after_rank,
    "exactalg.nullity_shift": _after_nullity,
    "matchings.build_M": _after_build("M"),
    "matchings.build_H": _after_build("H"),
    "hcount.count_hc_pathdp": _after_count,
    "reduction.assemble": _after_assemble,
    "graphs.write_hcgraph": _after_write,
    "graphs.write_sidecar": _after_write,
    "graphs.read_hcgraph": _after_read,
}
