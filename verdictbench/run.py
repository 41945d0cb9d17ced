"""The repo benchmark: time to a correct verdict on paper instances.

Usage::

    python3 verdictbench/run.py --workload aa-refute --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``aa-refute``, ``aa-tight``, ``closure-sweep``,
``lower-bound`` (see README.md for why each exists), ``all`` for every
one of them in turn, or ``smoke`` for the self-test's tiny instances.

Every measured repetition runs the workload's queries once, serially, in a
fresh Python process (``child.py``), so the program's caches start cold as
they do for a user; one process runs at a time.  With ``--trace 0`` the run
reports the end-to-end metrics ``wall_s``, ``setup_s`` and ``peak_rss_mb``
(medians over repetitions); with ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics of ``layers.py``.
Every answer is checked against the paper's (``workloads.py``): a wrong
verdict makes the command exit 1 and name the query.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(host, commit, seed, sample counts, every query) is written under
``verdictbench/records/``; it is written as ``incomplete`` first, so a run
that dies leaves a record that says so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARKED = ("aa-refute", "aa-tight", "closure-sweep", "lower-bound")
#: Set-up-only processes per untraced run, after one unmeasured warm-up
#: process (which also compiles bytecode in a fresh checkout).
SETUP_SAMPLES = 5
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{name: unit for name, (unit, _) in layers.METRICS.items()},
}


class HarnessError(Exception):
    """The benchmark could not measure: no result may be printed."""


def child_env() -> dict[str, str]:
    """The environment of every measured process.

    ``REPRO_*`` settings (worker count, sanitizer, ...) are removed so the
    program runs in its default serial configuration; only ``src`` is on
    the import path; string hashing is fixed; bytecode caching is on, as
    for an installed package (the warm-up process fills the cache).
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, mode: str) -> dict[str, Any]:
    """Start one measured process, wait for it, return its report.

    ``started_at`` is taken just before the process starts, on the same
    system-wide monotonic clock as the child's ``ready_at``.
    """
    queries = len(workloads.WORKLOADS[workload])
    timeout = 30 + workloads.QUERY_LIMIT_S * queries
    started_at = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), mode],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} process ran over {timeout:g} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise HarnessError(
            f"{mode} process exited with {done.returncode}:\n{done.stderr[-2000:]}"
        )
    report = json.loads(lines[-1])
    report["started_at"] = started_at
    report["setup_s"] = report["ready_at"] - started_at
    return report


def charged_wall(report: dict[str, Any]) -> float:
    """Wall time of one repetition, a failed query charged the limit."""
    return sum(
        workloads.QUERY_LIMIT_S if query["error"] else query["seconds"]
        for query in report["queries"]
    )


def repeat(workload: str, seed: int, seconds: float, modes: tuple[str, ...]) -> list[dict]:
    """Run rounds of ``modes`` until another round would end past ``seconds``.

    At least one round runs; a round that would overshoot the budget,
    judged by the longest round so far, is not started.
    """
    reports: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        round_start = time.monotonic()
        reports.extend(run_child(workload, seed, mode) for mode in modes)
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            return reports


def judge(reports: list[dict]) -> tuple[list[str], int, int]:
    """Wrong verdicts (as messages), queries attempted, queries failed."""
    wrong: list[str] = []
    attempted = failed = 0
    for report in reports:
        for query in report.get("queries", ()):
            attempted += 1
            if query["error"]:
                failed += 1
            elif query["answer"] != query["expected"]:
                wrong.append(
                    f"wrong verdict: {query['label']}: got {_short(query['answer'])}, "
                    f"the paper says {_short(query['expected'])}"
                )
    return wrong, attempted, failed


def _short(value: Any) -> str:
    text = json.dumps(value)
    return text if len(text) <= 200 else text[:200] + "..."


def median(values: list[Optional[float]]) -> Optional[float]:
    return None if any(v is None for v in values) else statistics.median(values)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One run: the metrics, their sample counts and every process report."""
    run_child(workload, seed, "setup")  # warm-up, not measured
    if not trace:
        setups = [run_child(workload, seed, "setup") for _ in range(SETUP_SAMPLES)]
        reps = repeat(workload, seed, seconds, ("run",))
        metrics = {
            "wall_s": statistics.median(charged_wall(r) for r in reps),
            "setup_s": statistics.median(r["setup_s"] for r in setups + reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        samples = {
            "wall_s": len(reps),
            "setup_s": len(setups) + len(reps),
            "peak_rss_mb": len(reps),
        }
        reports = setups + reps
        warnings: list[str] = []
    else:
        reports = repeat(workload, seed, seconds, ("run", "trace"))
        untraced = [r for r in reports if "layers" not in r]
        traced = [r for r in reports if "layers" in r]
        overhead = statistics.median(r["elapsed_s"] for r in traced) - statistics.median(
            r["elapsed_s"] for r in untraced
        )
        metrics = {
            name: overhead
            if name == "trace.overhead_s"
            else median([r["layers"][name] for r in traced])
            for name in layers.METRICS
        }
        samples = {name: len(traced) for name in metrics}
        samples["trace.overhead_s"] = len(traced) + len(untraced)
        warnings = sorted({w for r in traced for w in r.get("warnings", ())})
    wrong, attempted, failed = judge(reports)
    return {
        "workload": workload,
        "traced": trace,
        "metrics": metrics,
        "samples": samples,
        "wrong": wrong,
        "attempted": attempted,
        "failed": failed,
        "warnings": warnings,
        "queries": query_table(reports),
    }


def query_table(reports: list[dict]) -> list[dict[str, Any]]:
    """Per query: its times over the repetitions and how each ended."""
    table: dict[str, dict[str, Any]] = {}
    for report in reports:
        for query in report.get("queries", ()):
            row = table.setdefault(
                query["label"], {"label": query["label"], "seconds": [], "outcomes": []}
            )
            row["seconds"].append(query["seconds"])
            if query["error"]:
                row["outcomes"].append(query["error"])
            else:
                row["outcomes"].append(
                    "correct" if query["answer"] == query["expected"] else "WRONG"
                )
    return list(table.values())


# ----------------------------------------------------------------------
# Records and output
# ----------------------------------------------------------------------
def host() -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def program_version() -> dict[str, Optional[str]]:
    """The commit if this is a git checkout, and a digest of ``src``."""
    commit: Optional[str] = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def write_record(path: Path, record: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(record, indent=2, default=str) + "\n")
    temporary.replace(path)


def print_run(run: dict[str, Any]) -> None:
    share = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    print(
        f"== {run['workload']} ({'traced' if run['traced'] else 'untraced'}): "
        f"{run['attempted']} queries, {run['failed']} failed "
        f"(failed_share {share:.3f}), {len(run['wrong'])} wrong"
    )
    for name, value in run["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        print(
            f"  {name:<30} {shown:>14} {UNITS[name]:<6} "
            f"n={run['samples'][name]}"
        )
    for row in run["queries"]:
        print(
            f"  query {row['label']}: median {statistics.median(row['seconds']):.3f} s, "
            f"{', '.join(sorted(set(row['outcomes'])))}"
        )
    for warning in run["warnings"]:
        print(f"  warning: {warning}")
    for message in run["wrong"]:
        print(f"  {message}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=BENCHMARKED + ("all", "smoke")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # ``all`` gives every workload's end-to-end metrics, and with
    # ``--trace 1`` its layer table as well.
    if args.workload == "all":
        plan = [(name, False) for name in BENCHMARKED]
        if args.trace:
            plan += [(name, True) for name in BENCHMARKED]
    else:
        plan = [(args.workload, bool(args.trace))]

    stamp = datetime.now(timezone.utc)
    record_path = HERE / "records" / (
        f"{stamp:%Y%m%dT%H%M%S%fZ}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    record: dict[str, Any] = {
        "status": "incomplete",
        "started": stamp.isoformat(),
        "arguments": vars(args),
        "host": host(),
        "query_limit_s": workloads.QUERY_LIMIT_S,
    }
    write_record(record_path, record)
    try:
        record["program"] = program_version()
        runs = [measure(name, args.seed, args.seconds, trace) for name, trace in plan]
    except Exception as exc:
        record["status"] = "error"
        record["error"] = traceback.format_exc()
        write_record(record_path, record)
        print(f"benchmark could not measure: {exc}", file=sys.stderr)
        return 2

    wrong = [message for run in runs for message in run["wrong"]]
    record["status"] = "wrong-verdict" if wrong else "ok"
    record["runs"] = runs
    write_record(record_path, record)
    for run in runs:
        print_run(run)
    print(f"record: {record_path.relative_to(ROOT)}")

    # With ``all``, metric names carry their workload: ``aa-tight/wall_s``.
    prefix = "{workload}/" if len(runs) > 1 else ""
    metrics = {
        prefix.format(workload=run["workload"]) + name: {
            "value": value,
            "unit": UNITS[name],
        }
        for run in runs
        for name, value in run["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
