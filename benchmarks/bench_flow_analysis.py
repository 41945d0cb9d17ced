"""BENCH (static lint) — full-tree lint under a wall-clock gate.

The AST lint (:mod:`repro.checks.astlint`, every RPR rule including the
determinism and worker-purity rules RPR007–RPR009) is a CI gate: every
push re-lints all of ``src/repro``, so its cost is paid on every commit
and must stay budgeted.  This harness runs the complete self-lint — the
exact workload of ``repro check --lint src/`` — and asserts:

* the whole tree lints inside ``MAX_WALL_S`` seconds (a generous
  multiple of the ~1.5 s observed on a 2-core host, so the gate catches
  order-of-magnitude regressions — an accidentally quadratic scope walk
  — not machine noise);
* the lint visits the full tree (file count sanity floor) and reports
  zero findings, i.e. the gate the CI step enforces is actually green.

The record lands in ``benchmarks/results/BENCH_flow_analysis.json``
with per-file throughput so the perf trajectory is diffable.
"""

from __future__ import annotations

import os
import pathlib
import time

from repro.checks.astlint import iter_python_files, lint_paths

#: Wall-clock gate for one full-tree lint (seconds).
MAX_WALL_S = float(os.environ.get("REPRO_BENCH_FLOW_BUDGET_S", "10.0"))

#: The tree must not silently shrink out from under the benchmark.
MIN_FILES = 50

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def test_flow_analysis_budget(benchmark):
    files = sum(1 for _ in iter_python_files([str(_SRC)]))
    assert files >= MIN_FILES, (
        f"only {files} files under {_SRC}; the full-tree benchmark "
        "no longer measures a full tree"
    )

    start = time.perf_counter()
    findings = lint_paths([str(_SRC)])
    wall_s = time.perf_counter() - start

    assert not findings, (
        "self-lint of src/repro must be clean, got: "
        + "; ".join(f"{f.rule_id} {f.path}" for f in findings[:5])
    )
    assert wall_s <= MAX_WALL_S, (
        f"full-tree lint took {wall_s:.2f}s, over the "
        f"{MAX_WALL_S:.1f}s budget — a rule's scope walk regressed"
    )

    # The benchmarked pass is the same workload, so pytest-benchmark
    # stats (and conftest's wall_s fallback) describe the gated path.
    benchmark.pedantic(
        lambda: lint_paths([str(_SRC)]), rounds=3, iterations=1
    )
    benchmark.extra_info.update(
        bench_name="flow_analysis",
        files=files,
        findings=len(findings),
        wall_s=round(wall_s, 4),
        per_file_ms=round(wall_s * 1000.0 / files, 3),
        budget_s=MAX_WALL_S,
        cores=os.cpu_count(),
    )
