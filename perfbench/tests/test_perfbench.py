"""Tests of the benchmark itself, at a tiny size.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def tiny(workload: str, trace: bool = False) -> dict:
    return run.run(workload, seed=3, seconds=0.01, trace=trace, small=True, setup_reps=1)


@pytest.mark.parametrize("workload", ["certify", "count", "compile"])
def test_each_workload_emits_every_end_to_end_metric(workload):
    result = tiny(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == END_TO_END
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", ["certify", "compile"])
def test_traced_run_emits_the_per_layer_names(workload):
    result = tiny(workload, trace=True)
    metrics = result["metrics"]
    assert list(metrics) == PER_LAYER
    assert metrics["tracing.spans"]["value"] > 0
    shares = sum(metrics[f"{layer}.share"]["value"] for layer in run.tracer.LAYERS)
    assert shares + metrics["harness.share"]["value"] == pytest.approx(1.0)
    # the wrappers are gone once the run ends
    assert run.workloads.load_program().exactalg.rank.__module__ == "matchconn.exactalg"
    assert not hasattr(run.workloads.load_program().exactalg.rank, "__wrapped__")


def test_wrong_rank_is_counted_as_failed(monkeypatch):
    mc = workloads.load_program()
    real = mc.exactalg.rank
    monkeypatch.setattr(mc.exactalg, "rank", lambda m: real(m) - 1)
    result = tiny("certify")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 2  # the two det requests use no rank


def test_wrong_residue_from_the_cli_is_counted_as_failed(monkeypatch):
    mc = workloads.load_program()
    real = mc.cli.count_hc_pathdp

    def off_by_one(*args, **kwargs):
        out = real(*args, **kwargs)
        out.value = (out.value + 1) % out.modulus
        return out

    monkeypatch.setattr(mc.cli, "count_hc_pathdp", off_by_one)
    result = tiny("count")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_decomposition_check_rejects_an_uncovered_edge():
    mc = workloads.load_program()
    g = mc.graphs.AnnotatedGraph()
    for u, v in ((1, 2), (2, 3), (3, 1)):
        g.add_edge(u, v)
    g.decomposition = mc.graphs.PathDecomposition([(1, 2, 3)])
    assert workloads.check_hcgraph(g) == {"vertices": 3, "edges": 3, "width": 2}
    g.decomposition = mc.graphs.PathDecomposition([(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="fits in no bag"):
        workloads.check_hcgraph(g)
    g.decomposition = mc.graphs.PathDecomposition([(1, 2, 3), (1,), (2, 1)])
    with pytest.raises(ValueError, match="gap"):
        workloads.check_hcgraph(g)


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(1, 31)]
    assert run.tail(xs) == (20.0, pytest.approx(100 * 20 / 30))
    assert run.tail(xs[:5]) == (5.0, 100.0)


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
