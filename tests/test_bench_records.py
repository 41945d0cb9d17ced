"""The benchmark harness leaves an honest record of every outcome.

Each case runs a throwaway benchmark module under a copy of
``benchmarks/conftest.py`` in a fresh pytest process and reads back the
``BENCH_<name>.json`` record it leaves.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

GATE_FAILS = """
def test_gate(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = 0.5
    assert benchmark.extra_info["speedup"] >= 3.0
"""

FAILS_BEFORE_MEASURING = """
def test_gate(benchmark):
    raise RuntimeError("workload broke before the timed pass")
"""

PASSES = """
def test_gate(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = 4.0
"""


def run_benchmark(tmp_path, body):
    shutil.copy(BENCHMARKS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "bench_probe.py").write_text(body)
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-o",
            "python_files=bench_*.py",
            "bench_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    record = tmp_path / "results" / "BENCH_probe.json"
    return completed.returncode, json.loads(record.read_text())


class TestBenchRecords:
    def test_failed_gate_leaves_a_failed_record(self, tmp_path):
        code, record = run_benchmark(tmp_path, GATE_FAILS)
        assert code == 1
        assert record["status"] == "failed"
        # What was measured before the gate fired stays inspectable.
        assert record["speedup"] == 0.5
        assert record["wall_s"] >= 0

    def test_failure_before_measuring_still_leaves_a_record(self, tmp_path):
        code, record = run_benchmark(tmp_path, FAILS_BEFORE_MEASURING)
        assert code == 1
        assert record["status"] == "failed"
        assert record["wall_s"] is None

    def test_passing_benchmark_is_marked_passed(self, tmp_path):
        code, record = run_benchmark(tmp_path, PASSES)
        assert code == 0
        assert record["status"] == "passed"
        assert record["speedup"] == 4.0
