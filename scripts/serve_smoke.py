#!/usr/bin/env python3
"""End-to-end smoke check of the solver service (``repro.serve``).

Boots a real server on localhost with a fresh content-addressed store,
then drives the serving tier through its whole contract:

* **cold requests** for every cacheable endpoint family, byte-compared
  (canonical JSON) against the in-process ``handlers.execute`` result;
* **warm repeats**, which must be byte-identical *and* carry store
  provenance (``served.cached``);
* **concurrent duplicates** of one fresh query, which must coalesce to
  a single computation (nonzero coalesce count in ``stats``);
* **a warm restart**: a second server on the same store directory must
  answer the earlier queries from disk without recomputing.

Run directly (``python scripts/serve_smoke.py``).  Exit status 0 on
success, 1 on any failed check.
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile
import threading

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

PROBES = [
    ("lower_bound", {"n": 4, "eps": "1/8"}),
    (
        "solvability",
        {"task": "consensus", "n": 2, "rounds": 1, "model": "iis"},
    ),
    ("closure", {"n": 2, "eps": "1/2", "m": 2, "model": "iis"}),
]

#: The query duplicated concurrently to exercise single-flight dedup.
DUP_PROBE = (
    "solvability",
    {"task": "consensus", "n": 2, "rounds": 2, "model": "iis"},
)
DUP_FANOUT = 6


def run_smoke() -> list[str]:
    """Run every check; the list of failure descriptions (empty = pass)."""
    from repro.serve.handlers import execute
    from repro.serve.protocol import canonical_json
    from repro.serve.server import ServeConfig
    from repro.serve.testing import ServerHandle

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        store_dir = os.path.join(tmp, "store")
        config = ServeConfig(store_dir=store_dir, batch_window=0.01)

        with ServerHandle(config) as handle:
            baselines: dict[str, str] = {}
            # Cold + warm parity per endpoint family.
            for method, params in PROBES:
                expected = canonical_json(execute(method, dict(params)))
                baselines[method] = expected
                with handle.connect() as client:
                    cold = client.call_raw(method, dict(params))
                    warm = client.call_raw(method, dict(params))
                for label, envelope in (("cold", cold), ("warm", warm)):
                    got = canonical_json(envelope.get("result"))
                    if got != expected:
                        failures.append(
                            f"{method}: {label} served bytes diverge "
                            f"from in-process ({got[:80]} != "
                            f"{expected[:80]})"
                        )
                if not warm.get("served", {}).get("cached"):
                    failures.append(
                        f"{method}: warm repeat not served from the "
                        f"store ({warm.get('served')})"
                    )

            # Concurrent duplicates must coalesce to one computation.
            method, params = DUP_PROBE
            results: list[str] = []
            errors: list[str] = []

            def fire() -> None:
                try:
                    results.append(
                        canonical_json(handle.call(method, dict(params)))
                    )
                except Exception as exc:  # surfaced as a smoke failure
                    errors.append(f"{type(exc).__name__}: {exc}")

            threads = [
                threading.Thread(target=fire) for _ in range(DUP_FANOUT)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            failures.extend(f"duplicate request failed: {e}" for e in errors)
            if len(set(results)) > 1:
                failures.append(
                    "concurrent duplicates returned diverging payloads"
                )
            dup_expected = canonical_json(execute(method, dict(params)))
            if results and results[0] != dup_expected:
                failures.append(
                    "duplicated query diverges from in-process result"
                )
            stats = handle.call("stats")
            if stats["serve"]["coalesced"] < 1:
                failures.append(
                    f"expected nonzero coalesce count, got "
                    f"{stats['serve']['coalesced']}"
                )
            print(
                "serve smoke: "
                f"{stats['serve']['requests']} requests, "
                f"{stats['serve']['computed']} computed, "
                f"{stats['serve']['cache_hits']} cache hits, "
                f"{stats['serve']['coalesced']} coalesced, "
                f"{stats['store']['writes']} store writes"
            )

        # Warm restart: a fresh server on the same store directory must
        # answer from disk.
        with ServerHandle(
            ServeConfig(store_dir=store_dir, batch_window=0.01)
        ) as handle:
            for method, params in PROBES:
                with handle.connect() as client:
                    envelope = client.call_raw(method, dict(params))
                got = canonical_json(envelope.get("result"))
                if got != baselines[method]:
                    failures.append(
                        f"{method}: post-restart bytes diverge"
                    )
                if not envelope.get("served", {}).get("cached"):
                    failures.append(
                        f"{method}: post-restart request recomputed "
                        "instead of hitting the persisted store"
                    )
            restart_stats = handle.call("stats")
            print(
                "serve smoke: warm restart answered "
                f"{restart_stats['serve']['cache_hits']}/{len(PROBES)} "
                "probes from the persisted store"
            )
    return failures


def main() -> int:
    failures = run_smoke()
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
