"""Tests of the benchmark itself, on the smoke workloads.

usage: python3 -m pytest perfbench      (from the root of a checkout)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import POOL, REGIONS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload,trace,kind", [
    ("smoke-grid", 0, "end_to_end"),
    ("smoke-probe", 0, "end_to_end"),
    ("smoke-grid", 1, "per_layer"),
    ("smoke-probe", 1, "per_layer"),
])
def test_every_metric_emitted_and_checks_pass(workload, trace, kind):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert "check_fail_frac" in proc.stdout


def test_traced_run_covers_its_wall_time():
    proc = run_bench("smoke-probe", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["coupling.nufft"]["value"] == 1
    assert metrics["nufft.plan3_built"]["value"] > 0
    assert sum(metrics[f"solver.eval_{r}_pts"]["value"]
               for r in REGIONS if r.startswith("mid_")) > 0
    assert abs(metrics["trace.top_span_share"]["value"] - 1) < 0.05


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("smoke-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_absent_entry_point_is_reported_not_fatal():
    tracer = Tracer()
    tracer.install([("layerscatter.coupling", "NoSuchPlan.apply",
                     "coupling.b", False),
                    ("layerscatter.solver", "gmres", "solver.gmres", False)])
    try:
        assert tracer.absent == ["layerscatter.coupling.NoSuchPlan.apply"]
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert "coupling.b_s" not in metrics
    assert "solver.arnoldi_s" in metrics


def test_reference_check_catches_a_wrong_field():
    points, values = checks.load_reference("smoke-probe", 5)
    wl = WORKLOADS["smoke-probe"]
    assert len(values) == wl.n_uniform + wl.n_disk   # all probes are checked
    ok = checks.reference_checks("smoke-probe", 5 + POOL, points, values,
                                 1e-6)
    assert all(checks.passed(c) for c in ok)
    bad = values.copy()
    bad[0] *= 1 + 1e-3
    res = checks.reference_checks("smoke-probe", 5, points, bad, 1e-6)
    assert sum(not checks.passed(c) for c in res) == 1
    moved = checks.reference_checks("smoke-probe", 6, points, values, 1e-6)
    assert not any(checks.passed(c) for c in moved)
    assert np.isfinite(values).all()
