"""Smoke test of the benchmark harness: every workload at its smallest
size, traced and untraced, emits every metric BENCHMARK.json declares,
with its unit, and reports no failed operation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Names the workloads' own metrics go by, printed next to the generic ones.
NAMED = {
    "trend-sweep": {"cells_per_s", "failed_ratio"},
    "dof-analysis": {"inputs_per_s", "input_p50_ms", "input_p90_ms", "failed_ratio", "mc_rechecked"},
    "verify-suite": {"failed_ratio"},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    named = dict(line.split()[1:3] for line in lines if line.startswith("named "))
    assert set(named) >= ({"failed_ratio"} if trace else NAMED[workload])
    assert float(named["failed_ratio"]) == 0.0
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
