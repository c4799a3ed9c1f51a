"""Smoke-size self-test of the benchmark.

Runs every workload on tiny inputs, traced and untraced, through the real
command line, and checks that

* the last line is the result object, every metric ``BENCHMARK.json`` names
  is printed with its unit and a finite value, and nothing else is;
* every answer agrees with the whole-graph oracle (``correct``, no failures);
* without ``src/`` next to it the benchmark exits non-zero and prints no result.

Run with ``python3 perfbench/selftest.py`` (or ``python3 -m pytest
perfbench/selftest.py``) from the repository root; it takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_catalog_matches_benchmark_json() -> None:
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def check_workload(workload: str) -> None:
    for trace, catalog in ((0, END_TO_END), (1, PER_LAYER)):
        completed = run_benchmark(ROOT, workload, trace)
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, completed.stderr
        assert result["failed"] == 0, completed.stderr
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(catalog)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == catalog[name], name
            assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name


def test_cold_reads() -> None:
    check_workload("cold-reads")


def test_hot_reads_net() -> None:
    check_workload("hot-reads-net")


def test_read_write_mix() -> None:
    check_workload("read-write-mix")


def test_kron_reach() -> None:
    check_workload("kron-reach")


def test_fails_without_the_program() -> None:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as directory:
        bare = Path(directory)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_benchmark(bare, "cold-reads", 0)
        assert completed.returncode != 0
        assert completed.stdout.strip() == ""


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
