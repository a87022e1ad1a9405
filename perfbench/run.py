#!/usr/bin/env python3
"""Closed-loop benchmark of matchconn: one client, one process, no threads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. Set-up (input generation, oracles, one warm-up request)
runs SETUP_REPS times and the median counts. The timed part replays whole
rounds of the workload until ``--seconds`` of request time have passed,
checking every answer; checking is not timed. With ``--trace 1`` the time is
split between an untraced and a traced half, and the traced half reports
per-layer self times and counters. The last line of standard output is one
JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3


def import_program():
    """Import matchconn from this checkout's src directory, nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import matchconn
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import matchconn from {src}: {exc}")
    if Path(matchconn.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: matchconn was imported from {matchconn.__file__}, not {src}")
    return workloads.load_program()


@dataclass
class Phase:
    """Outcome of one timed loop over whole rounds."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    rounds: int = 0
    matrices: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.busy_s if self.busy_s else 0.0


def serve(req: workloads.Request, tr: tracer.Tracer | None, rid: int) -> tuple[float, bool]:
    """Time one request, then check its answer; returns (seconds, ok)."""
    if tr is not None:
        tr.begin_request(rid, req.kind)
    t = time.perf_counter()
    try:
        result = req.call()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t, False
    finally:
        if tr is not None:
            tr.end_request()
    dt = time.perf_counter() - t
    try:
        ok = bool(req.check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"perfbench: wrong answer for {req.kind} request {rid}", file=sys.stderr)
    return dt, ok


def measure(prepared: workloads.Prepared, seconds: float, tr: tracer.Tracer | None = None) -> Phase:
    phase = Phase()
    while phase.rounds == 0 or phase.busy_s < seconds:
        for req in prepared.round:
            dt, ok = serve(req, tr, phase.attempted)
            phase.attempted += 1
            phase.failed += not ok
            phase.busy_s += dt
            phase.latencies.append(dt)
            phase.matrices.append(req.matrix)
            if tr is not None and ok and "states_peak" in req.seen:
                peak = req.seen["states_peak"]
                tr.counters["hcount.states_peak_sum"] += peak
                tr.counters["hcount.states_peak_max"] = max(tr.counters["hcount.states_peak_max"], peak)
        phase.rounds += 1
    return phase


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with ten samples beyond it.

    Returns (value, percentile). With ten samples or fewer the maximum is
    returned at percentile 100.
    """
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def properties(name: str, phase: Phase, prepared: workloads.Prepared) -> dict:
    """Workload properties that caching or width-dependent claims cite."""
    if name == "certify":
        seen, reuse = set(), 0
        for key in phase.matrices:
            if key is not None:
                reuse += key in seen
                seen.add(key)
        return {"matrix_reuse_share": reuse / len(phase.matrices),
                "distinct_matrices": sorted(f"{k}{o}" for k, o in seen)}
    out = {}
    for key in ("vertices", "edges", "width"):
        xs = [r.seen[key] for r in prepared.round if key in r.seen]
        out[key] = {"min": min(xs), "median": statistics.median(xs), "max": max(xs)}
    return out


def layer_metrics(tr: tracer.Tracer, traced: Phase, plain: Phase) -> dict[str, float]:
    self_s, calls, total = tr.self_times()
    c = tr.counters
    m: dict[str, float] = {}
    for layer in tracer.LAYERS:
        s = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m[f"{layer}.self_s"] = s
        m[f"{layer}.share"] = s / total
    m["harness.share"] = sum(v for k, v in self_s.items() if k.startswith("request.")) / total
    for fn in ("exactalg.rank", "exactalg.nullity_shift", "exactalg.det", "exactalg.kronecker",
               "exactalg.inverse", "exactalg.full_rank_submatrix", "matchings.build_M",
               "matchings.build_H", "scheme.certify_spectrum", "amplify.verify_tensor_identity",
               "hcount.count_hc_pathdp", "reduction.assemble", "reduction.select_basis",
               "reduction.build_base_case", "reduction.compose_clause",
               "reduction.build_fingerprint_gadget", "reduction.expand_label_gadgets",
               "reduction.parse_dimacs", "graphs.validate", "graphs.write_hcgraph",
               "graphs.read_hcgraph", "cli.main"):
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
        m[f"{fn}.calls"] = calls.get(fn, 0)
    m["graphs.validate.share"] = m["graphs.validate.self_s"] / total
    elim_s = m["exactalg.rank.self_s"] + m["exactalg.nullity_shift.self_s"]
    m["exactalg.rank.ops_computed"] = c["exactalg.rank.ops_computed"]
    m["exactalg.rank.ops_per_s"] = c["exactalg.rank.ops_computed"] / elim_s if elim_s else 0.0
    q = c["exactalg.rank.q_calls"]
    m["exactalg.rank.q_shortcut_ratio"] = c["exactalg.rank.q_full"] / q if q else 0.0
    builds = m["matchings.build_M.calls"] + m["matchings.build_H.calls"]
    m["matchings.builds_per_distinct"] = builds / len(tr.built) if tr.built else 0.0
    dp_s = m["hcount.count_hc_pathdp.self_s"]
    m["hcount.edges_per_s"] = c["hcount.edges"] / dp_s if dp_s else 0.0
    for k in ("hcount.states_peak_max", "hcount.states_peak_sum", "reduction.vertices_out",
              "reduction.edges_out", "reduction.width_max", "graphs.bytes_written",
              "graphs.bytes_read"):
        m[k] = c[k]
    m["tracing.throughput_ratio"] = traced.throughput / plain.throughput if plain.throughput else 0.0
    m["tracing.spans"] = len(tr.spans)
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
        setup_reps: int = SETUP_REPS) -> dict:
    """Set up, measure and report one workload; returns the result object."""
    mc = import_program()
    import_s = time.perf_counter() - T0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        reps, warm_failed = [], 0
        for i in range(setup_reps):
            t = time.perf_counter()
            workdir = Path(tmp) / f"setup{i}"
            workdir.mkdir()
            prepared = workloads.PREPARE[workload](mc, random.Random(seed), workdir, small)
            warm_failed += not serve(prepared.warmup, None, -1)[1]
            reps.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(reps)

        plain = measure(prepared, seconds / 2 if trace else seconds)
        if trace:
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = measure(prepared, seconds / 2, tr)
            finally:
                tr.uninstall()
            tr.write(WORK / f"trace-{workload}-seed{seed}.json")
            phases = [plain, traced]
            values = layer_metrics(tr, traced, plain)
            wanted = spec["per_layer"]
        else:
            phases = [plain]
            values = {
                "throughput_rps": plain.throughput,
                "latency_p50_s": statistics.median(plain.latencies),
                "latency_tail_s": tail(plain.latencies)[0],
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            wanted = spec["end_to_end"]
        last = phases[-1]
        props = properties(workload, last, prepared)

    attempted = setup_reps + sum(ph.attempted for ph in phases)
    failed = warm_failed + sum(ph.failed for ph in phases)
    n = len(last.latencies)
    print(f"workload {workload} seed {seed} trace {int(trace)}: {last.rounds} rounds, "
          f"{n} timed requests, {attempted} attempted with {setup_reps} warm-ups, "
          f"{failed} failed (failed_frac {failed / attempted:.4f})")
    print(f"latency_tail_s is the p{tail(last.latencies)[1]:.1f} latency: {n} samples, "
          f"{10 if n > 10 else 0} beyond it")
    print("properties " + json.dumps(props, sort_keys=True))
    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<40} {value:.6g} {entry['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="matchconn closed-loop benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
