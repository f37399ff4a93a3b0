"""Whole runs of every workload in short mode, each in a fresh process."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END
from tracing import PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(cwd, workload, trace=0, seed=4):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "short"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run(workload):
    proc = _run(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0 and result["attempted"] % 3 == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _run(ROOT, "sampling", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    for name in ("semigroup.at.calls", "trajectories.sample_batch.calls", "trajectories.clicks",
                 "renewal.theoretical_cdf.points", "cli.read_trajectory_csv.rows",
                 "cli.bytes_written", "cli.trajectories.self_s"):
        assert metrics[name]["value"] > 0, name
    for name in ("davies.davies_map.calls", "guichardet.oracle_davies_map.calls"):
        assert metrics[name]["value"] == 0, name


def test_harness_imports_leave_out_the_checks():
    # the checks and the reference load SciPy; set-up time and peak memory
    # must not include them
    code = ("import sys, run, tracing, workloads; "
            "sys.exit(bool({'checks', 'reference'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_fails_without_the_program(tmp_path):
    # only BENCHMARK.json and the benchmark's own files: no src to import
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", ".pytest_cache"))
    proc = _run(tmp_path, "sampling")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
