"""Smoke test of the benchmark at its smallest sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload with --tiny, untraced and traced, and checks the
output contract: the last line is the JSON result, every metric that
BENCHMARK.json names is printed with its unit, the end-to-end table
names all eight metrics, and the traced run writes spans with name,
start, end and parent. Also checks that the benchmark refuses to run
without the package beside it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["noisy-descent-pool"]
ISSUE_END_TO_END = {
    "setup_s": "s", "wall_s": "s", "forward_per_s": "1/s", "descent_iters_per_s": "1/s",
    "shots_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
}


def run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_end_to_end_metrics(workload):
    proc = run(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = {line.split()[0]: line.split()[2] for line in lines[:-1]
             if line.startswith("  ") and len(line.split()) >= 3}
    assert {k: table.get(k) for k in ISSUE_END_TO_END} == ISSUE_END_TO_END


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_prints_per_layer_metrics_and_spans(workload):
    proc = run(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    spans_line = next(line for line in proc.stdout.splitlines() if line.startswith("spans "))
    spans = [json.loads(line) for line in (ROOT / spans_line.split()[1]).read_text().splitlines()]
    assert spans
    ids = {s["id"] for s in spans}
    for s in spans:
        assert {"name", "start", "end", "parent"} <= set(s)
        assert s["end"] >= s["start"]
        assert s["parent"] is None or s["parent"] in ids
    drivers = {s["name"] for s in spans if s["parent"] is None}
    assert drivers and all(name.startswith("experiments.") for name in drivers)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("exact-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
