"""Parallel-engine scaling — the engine's two fan-outs.

Times both fan-outs at different worker counts and proves the engine's
determinism contract on each:

* the per-input-simplex protocol expansion
  (``ProtocolOperator.carriers``) of the ``aa-refute`` benchmark query
  ε-AA, ``n = 3``, ``ε = 1/5``, ``m = 5``, ``t = 2`` in IIS must build
  the *same* ``σ → P^(2)(σ)`` table at every worker count;
* an E23-style chaos campaign must render a *byte-identical* JSON
  report at every worker count (seeds derive from ``(campaign seed,
  trial index)`` alone; shards fold in ascending index order).

Wall-clock speedup is asserted only when the host actually has the
cores (``os.cpu_count()``): on a single-core container the pool still
runs — and must still be bit-identical — but cannot be faster.  The
default run records the 1- and 2-worker baselines in
``BENCH_parallel.json``; the 4-worker sweep is marked ``slow`` and
records ``BENCH_parallel-w4.json``.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

import pytest

from repro.faults import CampaignConfig, report_to_json, run_campaign
from repro.models import ImmediateSnapshotModel
from repro.models.protocol import ProtocolOperator
from repro.parallel import parallel_map
from repro.tasks import approximate_agreement_task

ROUNDS = 2


def _expand(workers: int):
    """Cold-cache carrier table; returns (wall seconds, table)."""
    task = approximate_agreement_task([1, 2, 3], Fraction(1, 5), 5)
    operator = ProtocolOperator(ImmediateSnapshotModel())
    start = time.perf_counter()
    table = operator.carriers(task.input_complex, ROUNDS, workers=workers)
    return time.perf_counter() - start, table


def _campaign(workers: int):
    """E23-style chaos slice; returns (wall seconds, canonical JSON)."""
    config = CampaignConfig(
        cell="aa-broken", n=3, t=1, executions=60, seed=7
    )
    start = time.perf_counter()
    report = run_campaign(config, workers=workers)
    wall = time.perf_counter() - start
    rendered = json.dumps(report_to_json(report), sort_keys=True)
    return wall, rendered


def _warm_pool(workers: int) -> None:
    """Fork the workers before timing so pool start-up is not billed."""
    parallel_map(len, [(), ()], workers=workers, label="warmup")


def _sweep(benchmark, workers: int, bench_name: str) -> None:
    _warm_pool(workers)
    serial_expand_s, serial_table = _expand(1)
    parallel_expand_s, parallel_table = benchmark.pedantic(
        _expand, args=(workers,), rounds=1, iterations=1
    )
    assert parallel_table == serial_table

    serial_chaos_s, serial_json = _campaign(1)
    parallel_chaos_s, parallel_json = _campaign(workers)
    assert parallel_json == serial_json  # byte-identical report

    serial_s = serial_expand_s + serial_chaos_s
    parallel_s = parallel_expand_s + parallel_chaos_s
    speedup = serial_s / parallel_s if parallel_s else 0.0
    cores = os.cpu_count() or 1
    # Recorded before the gate, so a failing run still leaves its
    # measurement (and the host's core count) in the record.
    benchmark.extra_info.update(
        bench_name=bench_name,
        workers=workers,
        input_simplices=len(serial_table),
        facets=sum(len(facets) for facets in serial_table.values()),
        wall_s=parallel_s,
        serial_wall_s=serial_s,
        expand_wall_s=parallel_expand_s,
        serial_expand_wall_s=serial_expand_s,
        chaos_wall_s=parallel_chaos_s,
        serial_chaos_wall_s=serial_chaos_s,
        speedup=round(speedup, 3),
        cores=cores,
        byte_identical=True,
    )
    if cores >= workers:
        # The acceptance bar for the engine; only meaningful when the
        # host can actually run the workers concurrently.
        assert speedup >= 1.6, (
            f"{workers}-worker sweep only {speedup:.2f}x over serial "
            f"on a {cores}-core host"
        )


def test_parallel_scaling_two_workers(benchmark):
    _sweep(benchmark, workers=2, bench_name="parallel")


@pytest.mark.slow
def test_parallel_scaling_four_workers(benchmark):
    _sweep(benchmark, workers=4, bench_name="parallel-w4")
