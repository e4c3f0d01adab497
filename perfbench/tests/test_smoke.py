"""Smoke test of the benchmark harness on tiny meshes.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests

Each workload is shrunk to a one-unit mesh and a few steps. Both modes
must pass their checks and emit exactly the metrics BENCHMARK.json names;
the traced mode must also show the layers each workload is predicted to
bypass as never called.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per workload: layers that must run, and layers it must bypass
CALLED = {
    "vortex-tri-convex": (
        ["limiter.ConvexLimiter", "rhs_low.LowOrderRHS.pair_fluxes"],
        ["rhs_high.LDGGradient", "limiter.zhang_shu_limit",
         "bc.BCSet.exterior_state"]),
    "dmr-quad-convex": (
        ["limiter.ConvexLimiter", "rhs_low.LowOrderRHS.pair_fluxes",
         "bc.BCSet.exterior_state"],
        ["rhs_high.LDGGradient", "limiter.zhang_shu_limit"]),
    "daru-quad-elementwise": (
        ["rhs_high.LDGGradient", "limiter.zhang_shu_limit",
         "bc.BCSet.exterior_state"],
        ["limiter.ConvexLimiter", "rhs_low.LowOrderRHS.pair_fluxes"]),
}


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_emits_every_end_to_end_metric(workload):
    out = bench(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        value = out["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and value["value"] > 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_emits_every_layer_metric(workload):
    out = bench(workload, 1)
    assert out["correct"] and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    called, bypassed = CALLED[workload]
    for layer in called:
        assert metrics[f"{layer}.calls"] > 0, layer
    for layer in bypassed:
        assert metrics[f"{layer}.calls"] == 0, layer
    assert metrics["timestepping.Stepper.prepare.self_ms"] > 0.0
    assert 0.0 <= metrics["trace.unattributed_frac"] < 1.0
