"""Process-pool parallel execution engine.

Two fan-outs route through one stdlib :mod:`concurrent.futures` pool
managed here, the two that a measurement shows pay:

* per-input-simplex protocol expansion — the independent complexes
  ``P^(t)(σ)`` of Section 2.2, built on the pool and seeded into the
  operator's memo (:mod:`repro.parallel.expansion`), after which the
  solvability search runs serially in the parent;
* chaos campaigns — independent seeded trials
  (:mod:`repro.parallel.chaos`).

Everything stays deterministic by construction:

* ``workers=1`` (the default) is a *serial fallback* that runs the exact
  pre-engine code paths, so results are bit-identical to the unparallel
  library;
* work is sharded deterministically (sorted inputs, contiguous chunks)
  and results are folded in input order, never completion order;
* per-trial / per-simplex seeds and memo keys do not depend on the
  worker count.

Worker counts resolve in priority order: explicit argument, process
default (:func:`set_default_workers`, set by the CLI ``--workers``
flag), the ``REPRO_WORKERS`` environment variable, then ``1``.  Inside a
worker process the resolution is pinned to ``1`` so nested fan-outs
cannot fork-bomb.

Cross-process payloads use the compact bitmask codec of
:mod:`repro.topology.wire`.  Fan-outs that must survive worker failure
route through the supervision layer (:mod:`repro.parallel.supervisor`):
bounded retries with deterministic backoff, per-task timeouts, pool
rebuild on ``BrokenProcessPool``, poison-task quarantine, and a circuit
breaker degrading to bit-identical serial execution.  See
``docs/PARALLELISM.md`` for the engine design and determinism contract
and ``docs/RESILIENCE.md`` for the supervision model.
"""

from repro.parallel.chaos import run_campaign_sharded
from repro.parallel.expansion import materialize_protocol_complexes
from repro.parallel.pool import (
    WORKERS_ENV,
    MapOutcome,
    discard_pool,
    get_default_workers,
    parallel_map,
    resolve_workers,
    set_default_workers,
    shutdown_pools,
)
from repro.parallel.supervisor import (
    QuarantineRecord,
    SupervisedOutcome,
    SupervisorConfig,
    TaskAttempt,
    backoff_delay,
    get_default_supervisor,
    resolve_supervisor,
    set_default_supervisor,
    supervised_map,
)

__all__ = [
    "WORKERS_ENV",
    "MapOutcome",
    "resolve_workers",
    "get_default_workers",
    "set_default_workers",
    "parallel_map",
    "shutdown_pools",
    "discard_pool",
    "SupervisorConfig",
    "TaskAttempt",
    "QuarantineRecord",
    "SupervisedOutcome",
    "set_default_supervisor",
    "get_default_supervisor",
    "resolve_supervisor",
    "backoff_delay",
    "supervised_map",
    "materialize_protocol_complexes",
    "run_campaign_sharded",
]
