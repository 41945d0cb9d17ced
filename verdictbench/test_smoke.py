"""Self-test of the benchmark on tiny instances.

Run from the repository root with ``python3 -m pytest verdictbench`` (or
``python3 -m unittest discover verdictbench``); it takes about 15 s.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE = ["--workload", "smoke", "--seed", "3", "--seconds", "1"]


def in_process(argv: list[str], stub) -> tuple[int, str]:
    """``run.main`` with its process starter replaced by ``stub``."""
    out = io.StringIO()
    with mock.patch.object(run, "run_child", stub), redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue()


class SmokeTest(unittest.TestCase):
    def test_every_metric_name_is_present(self) -> None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), *SMOKE, "--trace", trace],
                capture_output=True,
                text=True,
                timeout=170,
            )
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertEqual(
                set(result), {"correct", "attempted", "failed", "metrics"}
            )
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                set(result["metrics"]), {metric["name"] for metric in spec[kind]}
            )
            for metric in spec[kind]:
                reported = result["metrics"][metric["name"]]
                self.assertEqual(reported["unit"], metric["unit"])
                self.assertIsInstance(reported["value"], (int, float))

    def test_wrong_verdict_fails_the_command(self) -> None:
        real = run.run_child

        def wrong_verdicts(workload: str, seed: int, mode: str) -> dict:
            report = real(workload, seed, mode)
            for query in report.get("queries", ()):
                if query["label"].startswith("is_solvable"):
                    query["answer"] = not query["expected"]
            return report

        code, out = in_process(SMOKE + ["--trace", "0"], wrong_verdicts)
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.splitlines()[-1])["correct"])
        self.assertIn("wrong verdict: is_solvable n=2 eps=1/3 m=3 t=0", out)

    def test_failed_query_is_charged_the_limit(self) -> None:
        real = run.run_child

        def one_failure(workload: str, seed: int, mode: str) -> dict:
            report = real(workload, seed, mode)
            for query in report.get("queries", ())[:1]:
                query.update(error="RecursionError", answer=None)
            return report

        code, out = in_process(SMOKE + ["--trace", "0"], one_failure)
        result = json.loads(out.splitlines()[-1])
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreaterEqual(
            result["metrics"]["wall_s"]["value"], workloads.QUERY_LIMIT_S
        )

    def test_missing_hook_nulls_only_its_layer(self) -> None:
        gone = (("repro.core.closure", "ClosureComputer.no_such_method"),)
        with mock.patch.dict(layers.HOOKS, {"closure": gone}):
            trace = layers.Trace()
            trace.install()
            try:
                trace.start()
                elapsed = sum(
                    run_and_time(query) for query in workloads.setup("smoke", 3)
                )
                trace.stop()
                metrics = trace.report(elapsed)
            finally:
                trace.uninstall()
        self.assertTrue(any("no_such_method" in w for w in trace.warnings))
        for name, value in metrics.items():
            if name.startswith("closure."):
                self.assertIsNone(value, name)
            else:
                self.assertIsInstance(value, (int, float), name)
        self.assertGreater(metrics["compile.calls"], 0)


def run_and_time(query: workloads.Prepared) -> float:
    start = time.perf_counter()
    query.run()
    return time.perf_counter() - start


if __name__ == "__main__":
    unittest.main()
