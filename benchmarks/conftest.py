"""Benchmark-harness plumbing.

Every benchmark regenerates one of the paper's evaluation artifacts
(figure, claim, corollary, or theorem — see the per-experiment index in
DESIGN.md), asserts the reproduced *shape*, and records a paper-vs-measured
table under ``benchmarks/results/`` so EXPERIMENTS.md can cite it.

Since the parallel-engine PR every benchmark test additionally emits a
machine-readable ``benchmarks/results/BENCH_<name>.json`` record with the
standard schema ``{name, status, workers, wall_s, facets, timestamp}``
(plus any extra keys the test stashes in ``benchmark.extra_info``), so
the perf trajectory can be diffed across PRs without parsing rendered
tables.  ``status`` is ``"passed"`` or ``"failed"``.
"""

from __future__ import annotations

import json
import pathlib
from datetime import datetime, timezone

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Write a rendered experiment table to results/<experiment>.txt."""

    def write(experiment_id: str, text: str) -> None:
        path = results_dir / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print()
        print(text)

    return write


def _bench_wall_s(bench) -> float:
    """Total measured wall time of a finished ``benchmark`` fixture."""
    stats = getattr(bench, "stats", None)
    inner = getattr(stats, "stats", None)
    total = getattr(inner, "total", None)
    return float(total) if total is not None else 0.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Keep the call-phase report on the item for :func:`emit_bench_json`."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        item.bench_call_report = report


@pytest.fixture(autouse=True)
def emit_bench_json(request):
    """Standardized BENCH_<name>.json emission for every benchmark test.

    Runs after the test body (and after pytest-benchmark collected its
    stats).  The record name defaults to the module stem without its
    ``bench_`` prefix; tests override it — or add ``workers``, ``facets``
    and arbitrary extra keys — through ``benchmark.extra_info``.

    Every record carries the call-phase outcome as ``status``.  A failed
    body still writes its record, marked ``"status": "failed"``, so a
    failing benchmark can never leave a success-shaped record behind;
    what it measured before failing stays in the record.
    """
    bench = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    yield
    if bench is None:
        return
    report = getattr(request.node, "bench_call_report", None)
    failed = report is not None and report.failed
    measured = getattr(bench, "stats", None) is not None
    if not (failed or measured):
        return  # requested but never run (e.g. skipped)
    extra = dict(getattr(bench, "extra_info", None) or {})
    stem = pathlib.Path(str(request.node.fspath)).stem
    default_name = stem[6:] if stem.startswith("bench_") else stem
    name = str(extra.pop("bench_name", default_name))
    record = {
        "name": name,
        "status": "failed" if failed else "passed",
        "workers": extra.pop("workers", 1),
        "wall_s": extra.pop(
            "wall_s", _bench_wall_s(bench) if measured else None
        ),
        "facets": extra.pop("facets", None),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    record.update(extra)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
