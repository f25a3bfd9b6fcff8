"""The benchmark's own test: every workload at reduced size, both modes.

    python3 -m pytest bench/test_bench.py

Each run must print, as its last line, the result object with exactly the
metric names BENCHMARK.json declares, report correct outputs, and fail
only the one documented operation. A directory holding only the benchmark
must refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: every workload run.py offers; BENCHMARK.json gates a subset of them
WORKLOADS = ("scaling-sweep", "simulate-jet-long", "field-fixed-step",
             "field-adaptive")
#: failed operations per pass, out of the pass's operations: the jet bound
#: comes out NaN at t >= 1, so one of its seven operations fails in every
#: pass; every other workload fails nothing
FAILED_PER_PASS = {"simulate-jet-long": (1, 7)}


def _run(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    failed, per_pass = FAILED_PER_PASS.get(workload, (0, 1))
    assert result["failed"] * per_pass == failed * result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "scaling-sweep", 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
