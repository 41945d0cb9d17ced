"""One measured process: set up a workload, run its queries, report JSON.

Usage: ``python3 child.py WORKLOAD SEED MODE`` with ``MODE`` one of

* ``setup``: import ``repro`` and build the workload's model and tasks,
  then stop;
* ``run``: set up, then run every query once, untraced;
* ``trace``: set up, wrap the layers (see ``layers.py``), run every query.

The last line of standard output is one JSON object.  ``ready_at`` is the
``time.monotonic()`` reading when set-up finished: the parent subtracts its
own reading from just before it started this process, which gives the
set-up time from process start (the clock is system-wide on Linux).
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

import workloads


class QueryTimeout(BaseException):
    """Raised in the query by the interval timer.

    A ``BaseException`` so that no ``except Exception`` in the program
    can swallow it.
    """


def _on_alarm(signum: int, frame: object) -> None:
    raise QueryTimeout


def run_query(query: workloads.Prepared) -> dict:
    """Run one query under the per-query limit; never raises.

    Only the program call is timed; turning its result into a verdict and
    working out the expected answer happen after.
    """
    result = error = None
    signal.setitimer(signal.ITIMER_REAL, workloads.QUERY_LIMIT_S)
    start = time.monotonic()
    try:
        result = query.run()
    except QueryTimeout:
        error = f"over the {workloads.QUERY_LIMIT_S:g} s limit"
    except Exception as exc:  # the program failed; recorded, not fatal
        error = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.monotonic() - start
    answer = None if error else query.verdict(result)
    if answer is None and error is None:
        error = "no verdict"
    return {
        "label": query.label,
        "seconds": seconds,
        "error": error,
        "answer": answer,
        "expected": query.expected(),
    }


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Kilobytes on Linux, bytes on macOS.
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def main(argv: list[str]) -> int:
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    queries = workloads.setup(name, seed)
    ready_at = time.monotonic()
    report: dict = {"ready_at": ready_at}
    if mode != "setup":
        trace = None
        if mode == "trace":
            import layers

            trace = layers.Trace()
            trace.install()
            trace.start()
        signal.signal(signal.SIGALRM, _on_alarm)
        report["queries"] = [run_query(query) for query in queries]
        report["elapsed_s"] = sum(q["seconds"] for q in report["queries"])
        report["peak_rss_mb"] = peak_rss_mb()
        if trace is not None:
            trace.stop()
            report["layers"] = trace.report(report["elapsed_s"])
            report["warnings"] = trace.warnings
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
