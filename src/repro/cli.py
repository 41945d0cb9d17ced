"""Command-line interface.

Exposes the library's headline computations without writing Python::

    repro models                      # Fig. 8 census of the three models
    repro impossibility consensus --n 3 --model iis
    repro closure --n 3 --eps 1/4 --m 4 --liberal --model tas
    repro bounds --eps 1/8 --n 3
    repro run halving --eps 1/8 --inputs 0,1/2,1 --seed 7 --crash 0.2
    repro check --all                 # audit every experiment's invariants
    repro check --lint src/           # repo-specific AST lint (RPR rules)
    repro chaos --algorithm aa --model iis -n 3 --executions 2000 --seed 0
    repro chaos --replay trace.json --shrink
    repro chaos --workers 2 --retries 2 --inject-exec-faults 0 --json

The ``run``, ``experiment``, and ``chaos`` subcommands accept
``--retries/--task-timeout/--no-degrade`` to tune the execution
supervisor (see docs/RESILIENCE.md); ``chaos`` additionally accepts
``--inject-exec-faults SEED`` for executor-level chaos (worker kills,
transient task errors) that the supervisor must absorb without
changing the report.

The ``run``, ``experiment``, and ``chaos`` subcommands accept
``--trace PATH [--trace-format json|chrome|text]`` to record a telemetry
span tree of the invocation (see docs/OBSERVABILITY.md)::

    repro experiment E9 --trace e9.trace.json
    repro trace summarize e9.trace.json --top 10
    repro check --trace e9.trace.json     # AUD011 artifact audit

The ``serve`` subcommand runs the batched solver service (single-flight
deduplication, micro-batched solvability fan-outs, a persistent
content-addressed result store — see docs/SERVICE.md); ``client`` sends
it one request::

    repro serve --port 7341 --store .repro-store --trace-dir traces/
    repro client lower_bound --params '{"n": 4, "eps": "1/8"}'
    repro trace summarize traces/        # merge per-request artifacts

Also available as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from repro.algorithms import (
    BitwiseAA,
    ConsensusViaBinaryConsensus,
    HalvingAA,
    TwoProcessConsensusTAS,
    TwoProcessThirdsAA,
)
from repro.analysis import ExperimentRow, figure8_census, render_table
from repro.core import (
    ClosureComputer,
    aa_lower_bound_iis,
    aa_lower_bound_iis_bc,
    aa_lower_bound_iis_tas,
    impossibility_from_fixed_point,
)
from repro.models import ImmediateSnapshotModel
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.objects.base import BlackBox
from repro.errors import ExperimentError, ReproError
from repro.runtime import (
    Adversary,
    IteratedExecutor,
    RandomAdversary,
    RandomMatrixAdversary,
)
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    liberal_approximate_agreement_task,
    relaxed_consensus_task,
)
from repro.tasks.inputs import input_simplex

__all__ = ["main", "build_parser"]


def _resolve_model(name: str, n: int):
    """Map a CLI model name to a computation model instance."""
    if name == "iis":
        return ImmediateSnapshotModel()
    if name == "tas":
        return AugmentedModel(TestAndSetBox())
    if name == "bc":
        # Theorem 4 style: ID-called, alternating bits.
        beta = {i: i % 2 for i in range(1, n + 1)}
        return AugmentedModel(BinaryConsensusBox(), beta_input_function(beta))
    raise SystemExit(f"unknown model {name!r}: use iis, tas, or bc")


def _cmd_models(args: argparse.Namespace) -> int:
    data = figure8_census()
    rows = [
        ExperimentRow(
            "immediate snapshot",
            "13 facets (chromatic subdivision)",
            f"{data['immediate_snapshot'].facets} facets, "
            f"f-vector {data['immediate_snapshot'].f_vector}",
            data["immediate_snapshot"].facets == 13,
        ),
        ExperimentRow(
            "snapshot",
            "19 facets",
            f"{data['snapshot'].facets} facets",
            data["snapshot"].facets == 19,
        ),
        ExperimentRow(
            "collect",
            "25 facets",
            f"{data['collect'].facets} facets",
            data["collect"].facets == 25,
        ),
        ExperimentRow(
            "strict hierarchy IIS ⊂ snap ⊂ collect",
            "yes",
            str(
                data["iis_strictly_inside_snapshot"]
                and data["snapshot_strictly_inside_collect"]
            ),
            True,
        ),
    ]
    print(render_table("One-round models, n = 3 (Fig. 8)", rows))
    return 0


def _cmd_impossibility(args: argparse.Namespace) -> int:
    ids = list(range(1, args.n + 1))
    if args.task == "consensus":
        task = binary_consensus_task(ids)
    elif args.task == "relaxed-consensus":
        task = relaxed_consensus_task(ids)
    else:
        raise SystemExit(f"unknown task {args.task!r}")
    model = _resolve_model(args.model, args.n)
    report = impossibility_from_fixed_point(task, model)
    print(report.summary())
    return 0 if report.fixed_point or report.zero_round_solvable else 1


def _cmd_closure(args: argparse.Namespace) -> int:
    ids = list(range(1, args.n + 1))
    eps = Fraction(args.eps)
    builder = (
        liberal_approximate_agreement_task
        if args.liberal
        else approximate_agreement_task
    )
    task = builder(ids, eps, args.m)
    model = _resolve_model(args.model, args.n)
    computer = ClosureComputer(task, model)
    values = {i: Fraction(k, args.n - 1) for k, i in enumerate(ids)}
    # Snap onto the grid.
    values = {
        i: Fraction(round(v * args.m), args.m) for i, v in values.items()
    }
    sigma = input_simplex(values)
    outputs = computer.legal_outputs(sigma)
    spreads = sorted(
        {
            max(v.value for v in tau.vertices)
            - min(v.value for v in tau.vertices)
            for tau in outputs
        }
    )
    print(f"task      : {task.name}")
    print(f"model     : {model.name}")
    print(f"input σ   : { {i: str(v) for i, v in values.items()} }")
    print(f"|Δ'(σ)|   : {len(outputs)} legal output sets")
    print(f"spreads   : {[str(s) for s in spreads]}")
    print(f"max spread: {max(spreads)}  (ε = {eps})")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    eps = Fraction(args.eps)
    n = args.n
    rows = [
        ExperimentRow(
            "wait-free IIS",
            "⌈log₃ 1/ε⌉ (n=2) / ⌈log₂ 1/ε⌉ (n≥3)",
            f"{aa_lower_bound_iis(n, eps)} rounds",
            True,
        ),
        ExperimentRow(
            "IIS + test&set",
            "1 (n=2) / ⌈log₂ 1/ε⌉ (n≥3)",
            f"{aa_lower_bound_iis_tas(n, eps)} rounds",
            True,
        ),
    ]
    if n >= 3:
        rows.append(
            ExperimentRow(
                "IIS + binary consensus (ID-called)",
                "min(⌈log₂ 1/ε⌉, ⌈log₂ n⌉ − 1)",
                f"{aa_lower_bound_iis_bc(n, eps)} rounds",
                True,
            )
        )
    print(
        render_table(
            f"ε-approximate agreement round bounds — n = {n}, ε = {eps}",
            rows,
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    eps = Fraction(args.eps) if args.eps else None
    raw_inputs = [Fraction(part) for part in args.inputs.split(",")]
    inputs = {i + 1: value for i, value in enumerate(raw_inputs)}

    box: Optional[BlackBox] = None
    if args.algorithm == "halving":
        algorithm = HalvingAA(eps)
    elif args.algorithm == "thirds":
        algorithm = TwoProcessThirdsAA(eps)
    elif args.algorithm == "tas-consensus":
        algorithm = TwoProcessConsensusTAS()
        box = TestAndSetBox()
    elif args.algorithm == "bc-consensus":
        algorithm = ConsensusViaBinaryConsensus(len(inputs))
        box = BinaryConsensusBox()
    elif args.algorithm == "bitwise":
        algorithm = BitwiseAA(eps)
        box = BinaryConsensusBox()
    else:
        raise SystemExit(f"unknown algorithm {args.algorithm!r}")

    if args.adversary == "random":
        adversary: Adversary = RandomAdversary(
            seed=args.seed, crash_probability=args.crash
        )
    else:
        # Seeded matrix adversary over the weaker snapshot/collect models.
        if box is not None:
            raise SystemExit(
                f"algorithm {args.algorithm!r} uses a black box, which "
                "requires immediate-snapshot schedules; use "
                "--adversary random"
            )
        if args.crash:
            raise SystemExit(
                "--crash is only supported with --adversary random"
            )
        adversary = RandomMatrixAdversary(kind=args.adversary, seed=args.seed)

    executor = IteratedExecutor(box=box)
    result = executor.run(algorithm, inputs, adversary)
    print(f"algorithm : {algorithm.name} ({algorithm.rounds} rounds)")
    for record in result.trace:
        blocks = " | ".join(",".join(map(str, b)) for b in record.blocks)
        extra = (
            f"  box={dict(record.box_outputs)}" if record.box_outputs else ""
        )
        print(f"  round {record.round_index}: [{blocks}]{extra}")
    if result.crashed:
        print(f"crashed   : {result.crashed}")
    print(
        "decisions :",
        {p: str(v) for p, v in sorted(result.decisions.items())},
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.checks import (
        audit_all,
        audit_experiments,
        lint_report,
        parse_severity,
        render_json,
        render_text,
        trace_report,
    )

    try:
        fail_on = parse_severity(args.fail_on)
    except ValueError as exc:
        raise SystemExit(str(exc))

    reports = []
    if args.lint:
        reports.append(lint_report(args.lint))
    if args.trace_paths:
        reports.append(trace_report(args.trace_paths))
    if args.all:
        reports.append(audit_all())
    elif args.ids:
        try:
            reports.append(audit_experiments(args.ids))
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
    if not reports:
        # Bare `repro check` audits everything, like `--all`.
        reports.append(audit_all())

    merged = reports[0]
    for report in reports[1:]:
        merged = merged.merged_with(report)
    renderer = render_json if args.format == "json" else render_text
    print(renderer(merged))
    return merged.exit_code(fail_on)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from pprint import pformat

    from repro.experiments import EXPERIMENTS, get_experiment

    if args.id is None:
        print("Available experiments (see DESIGN.md §4):")
        for identifier in sorted(
            EXPERIMENTS, key=lambda e: int(e[1:])
        ):
            entry = EXPERIMENTS[identifier]
            print(f"  {identifier:<4} {entry.artifact:<28} {entry.summary}")
        return 0
    from repro.experiments import run_experiment

    experiment = get_experiment(args.id)
    print(f"{experiment.identifier} — {experiment.artifact}")
    print(experiment.summary)
    print()
    try:
        data = run_experiment(experiment.identifier)
    except ExperimentError as exc:
        # One-line diagnosable cause instead of a raw traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(pformat(data))
    return 0


def _load_trace_file(path: str) -> dict:
    from repro.telemetry import load_trace

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load_trace(handle.read())
    except OSError as exc:
        raise SystemExit(f"cannot read trace {path!r}: {exc}")
    except ReproError as exc:
        raise SystemExit(f"invalid trace {path!r}: {exc}")


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from repro.telemetry import merge_traces
    from repro.telemetry import render_text as render_trace_text

    if os.path.isdir(args.path):
        # A directory of per-request artifacts (repro serve --trace-dir):
        # merge every artifact's roots into one forest and summarize
        # that, in deterministic filename order.
        names = sorted(
            name
            for name in os.listdir(args.path)
            if name.endswith(".json")
        )
        if not names:
            raise SystemExit(
                f"no trace artifacts (*.json) in directory {args.path!r}"
            )
        trace = merge_traces(
            [
                _load_trace_file(os.path.join(args.path, name))
                for name in names
            ]
        )
    else:
        trace = _load_trace_file(args.path)
    print(render_trace_text(trace, top=args.top))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix_socket,
        store_dir=args.store,
        store_max_bytes=args.store_max_bytes,
        batch_window=args.batch_window,
        batch_max=args.batch_max,
        workers=getattr(args, "workers", None),
        trace_dir=args.trace_dir,
        ready_file=args.ready_file,
    )
    try:
        config.validate()
    except ReproError as exc:
        raise SystemExit(str(exc))
    where = f"{config.host}:{config.port}"
    if config.unix_path is not None:
        where += f" and unix:{config.unix_path}"
    print(f"repro serve: listening on {where}", file=sys.stderr)
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    except ReproError as exc:
        raise SystemExit(str(exc))
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient

    try:
        params = json.loads(args.params)
    except ValueError as exc:
        raise SystemExit(f"--params is not JSON: {exc}")
    if not isinstance(params, dict):
        raise SystemExit("--params must be a JSON object")
    try:
        with ServeClient(
            host=args.host,
            port=args.port,
            unix_path=args.unix_socket,
            timeout=args.timeout,
        ) as client:
            if args.envelope:
                payload = client.call_raw(args.method, params)
            else:
                payload = client.call(args.method, params)
    except (ReproError, OSError) as exc:
        raise SystemExit(f"request failed: {exc}")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults import (
        CampaignConfig,
        FaultTrace,
        replay_trace,
        render_report,
        report_to_json,
        run_campaign,
        shrink_trace,
        trace_weight,
    )
    from repro.faults.campaign import get_cell

    eps = Fraction(args.eps)
    if args.replay is not None:
        try:
            with open(args.replay, "r", encoding="utf-8") as handle:
                trace = FaultTrace.from_json(handle.read())
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot load trace {args.replay!r}: {exc}")
        try:
            if args.shrink:
                trace = shrink_trace(trace, epsilon=eps)
            classification, violation = replay_trace(trace, epsilon=eps)
        except ReproError as exc:
            raise SystemExit(f"replay failed: {exc}")
        payload = {
            "classification": classification,
            "property": violation.property if violation else None,
            "witness": violation.witness if violation else None,
            "weight": trace_weight(trace),
            "trace": trace.to_json(),
        }
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"classification: {classification}")
            if violation is not None:
                print(f"property      : {violation.property}")
                print(f"witness       : {violation.witness}")
            print(f"trace weight  : {payload['weight']}")
            if args.shrink:
                print(f"shrunk trace  : {payload['trace']}")
        return 0

    config = CampaignConfig(
        cell=args.algorithm,
        model=args.model,
        n=args.n,
        t=args.t,
        executions=args.executions,
        seed=args.seed,
        epsilon=eps,
        deadline=args.deadline,
        illegal=args.inject_illegal,
        allow_illegal=args.allow_illegal,
    )
    try:
        report = run_campaign(config)
    except ReproError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(report_to_json(report), indent=2, sort_keys=True))
    else:
        print(render_report(report))
    if get_cell(config.cell).broken:
        # Violations/hangs are the expected outcome for broken fixtures.
        return 0
    return 0 if report.clean else 1


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--workers`` option (parallel execution)."""
    group = parser.add_argument_group("parallelism")
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool workers for per-input-simplex protocol "
        "expansion and chaos trials; the solvability search itself "
        "stays serial (default: $REPRO_WORKERS or 1; results are "
        "identical at every worker count)",
    )


def _add_supervisor_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared supervision options (retry/timeout/degrade)."""
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-attempts per pool task before quarantine (default: 2); "
        "retried and recovered runs stay byte-identical to fault-free "
        "serial runs",
    )
    group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task busy-time budget; an attempt exceeding it is "
        "classified as a timeout failure (retried, then quarantined). "
        "Distinct from the whole-campaign --deadline",
    )
    group.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable the circuit breaker's serial fallback: raise "
        "instead of degrading to in-process execution when the pool "
        "keeps breaking",
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace``/``--trace-format`` options."""
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a telemetry span tree of this invocation to PATH",
    )
    group.add_argument(
        "--trace-format",
        default="json",
        choices=["json", "chrome", "text"],
        help="trace artifact format: canonical span tree (json), "
        "chrome://tracing / Perfetto events (chrome), or the top-N "
        "self-time table (text); default: json",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Asynchronous speedup theorem toolbox (Fraigniaud–Paz–Rajsbaum, "
            "PODC 2022)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="census of the three one-round models")

    p = sub.add_parser(
        "impossibility", help="run the Lemma 1 fixed-point pipeline"
    )
    p.add_argument("task", choices=["consensus", "relaxed-consensus"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--model", default="iis", choices=["iis", "tas", "bc"])

    p = sub.add_parser("closure", help="compute Δ' of ε-approximate agreement")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eps", default="1/4")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--liberal", action="store_true")
    p.add_argument("--model", default="iis", choices=["iis", "tas", "bc"])

    p = sub.add_parser("bounds", help="ε-AA round-bound table per model")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--eps", default="1/8")

    p = sub.add_parser(
        "experiment",
        help="list or run the paper's experiments (E1–E23)",
    )
    p.add_argument("id", nargs="?", default=None)
    _add_workers_argument(p)
    _add_supervisor_arguments(p)
    _add_trace_arguments(p)

    p = sub.add_parser(
        "check",
        help="static analysis: audit domain invariants and lint sources",
        description=(
            "Audit the library's structural invariants over the experiment "
            "registry's live objects (chromaticity, facet maximality, "
            "carrier monotonicity, schedule matrix conditions, memo "
            "coherence, task/closure well-formedness), and/or run the "
            "repo-specific AST lint (RPR001, RPR002, "
            "RPR004–RPR009: interning, from_maximal, exception hygiene, "
            "annotations, mask confinement, determinism, worker purity)."
        ),
    )
    p.add_argument(
        "ids",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids to audit (e.g. E7 E12); default: all",
    )
    p.add_argument(
        "--all",
        action="store_true",
        help="audit every registered experiment's machinery",
    )
    p.add_argument(
        "--lint",
        nargs="+",
        metavar="PATH",
        help="lint the given files/directories with every RPR rule "
        "(RPR001, RPR002, RPR004–RPR009); a path with no .py file fails",
    )
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    p.add_argument(
        "--fail-on",
        default="error",
        metavar="SEVERITY",
        help="exit non-zero when a finding reaches this severity "
        "(info, warning, error; default: error)",
    )
    p.add_argument(
        "--trace",
        dest="trace_paths",
        nargs="+",
        metavar="PATH",
        help="audit recorded telemetry trace artifacts (AUD011)",
    )

    p = sub.add_parser(
        "trace",
        help="inspect recorded telemetry trace artifacts",
        description=(
            "Work with trace artifacts recorded via --trace on the run/"
            "experiment/chaos subcommands."
        ),
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summarize",
        help="print the top-N self-time table of a recorded trace",
    )
    ps.add_argument(
        "path",
        metavar="PATH",
        help="a trace artifact, or a directory of per-request "
        "artifacts (repro serve --trace-dir) to merge and summarize",
    )
    ps.add_argument(
        "--top",
        type=int,
        default=15,
        help="number of span names to show (default: 15)",
    )

    p = sub.add_parser(
        "serve",
        help="run the batched solver service (JSON-RPC over TCP lines)",
        description=(
            "Serve solvability/closure/lower_bound/chaos_campaign "
            "queries over newline-delimited JSON-RPC with single-flight "
            "deduplication, micro-batched solvability fan-outs through "
            "the execution supervisor, and an optional disk-backed "
            "content-addressed result store.  See docs/SERVICE.md."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=7341,
        help="TCP port (0 binds an ephemeral port; default: 7341)",
    )
    p.add_argument(
        "--unix-socket",
        metavar="PATH",
        default=None,
        help="additionally listen on a Unix domain socket",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="directory of the persistent content-addressed result "
        "store (omit to serve without a store)",
    )
    p.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="LRU-evict store entries beyond this total size",
    )
    p.add_argument(
        "--batch-window",
        type=float,
        default=0.02,
        metavar="SECONDS",
        help="how long the first queued solvability query waits for "
        "companions before its batch flushes (default: 0.02)",
    )
    p.add_argument(
        "--batch-max",
        type=int,
        default=16,
        metavar="N",
        help="flush a solvability batch early at this size (default: 16)",
    )
    p.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="write one repro-trace artifact per request into DIR "
        "(summarize with: repro trace summarize DIR)",
    )
    p.add_argument(
        "--ready-file",
        metavar="PATH",
        default=None,
        help="write a JSON readiness file (host/port/pid) once bound — "
        "how scripts discover an ephemeral port",
    )
    _add_workers_argument(p)
    _add_supervisor_arguments(p)

    p = sub.add_parser(
        "client",
        help="send one request to a running solver service",
    )
    p.add_argument(
        "method",
        help="method name (solvability, closure, lower_bound, "
        "chaos_campaign, health, stats)",
    )
    p.add_argument(
        "--params",
        default="{}",
        metavar="JSON",
        help="request params as a JSON object (default: {})",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7341)
    p.add_argument(
        "--unix-socket",
        metavar="PATH",
        default=None,
        help="connect over a Unix domain socket instead of TCP",
    )
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument(
        "--envelope",
        action="store_true",
        help="print the full response envelope (including the served "
        "metadata: digest, cached, coalesced) instead of just result",
    )

    p = sub.add_parser("run", help="execute an algorithm under an adversary")
    p.add_argument(
        "algorithm",
        choices=["halving", "thirds", "tas-consensus", "bc-consensus", "bitwise"],
    )
    p.add_argument("--eps", default="1/8")
    p.add_argument("--inputs", default="0,1/2,1", help="comma-separated rationals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crash", type=float, default=0.0)
    p.add_argument(
        "--adversary",
        default="random",
        choices=["random", "snapshot", "collect"],
        help="schedule source: seeded immediate-snapshot blocks (random), "
        "or seeded matrix schedules of the weaker models",
    )
    _add_workers_argument(p)
    _add_supervisor_arguments(p)
    _add_trace_arguments(p)

    p = sub.add_parser(
        "chaos",
        help="run a randomized fault-injection campaign, or replay a trace",
        description=(
            "Execute N seeded randomized executions of an algorithm cell "
            "under crash/black-box fault injection, classify each against "
            "the cell's property oracle, and report the tally.  With "
            "--replay, re-execute a recorded trace file instead (add "
            "--shrink to delta-debug it to a locally minimal "
            "counterexample first)."
        ),
    )
    p.add_argument(
        "--algorithm",
        default="aa",
        help="campaign cell key (aa, aa2, consensus, aa-broken, "
        "consensus-broken, hang, exploding)",
    )
    p.add_argument(
        "--model",
        default="iis",
        choices=["iis", "snapshot", "collect"],
    )
    p.add_argument("-n", type=int, default=3, help="number of processes")
    p.add_argument(
        "-t", type=int, default=1, help="max crash faults per execution"
    )
    p.add_argument("--executions", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", default="1/8")
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="campaign wall-clock budget in seconds (monotonic)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit a deterministic JSON report",
    )
    p.add_argument(
        "--replay",
        metavar="TRACE_FILE",
        default=None,
        help="replay a recorded FaultTrace JSON file instead of campaigning",
    )
    p.add_argument(
        "--shrink",
        action="store_true",
        help="with --replay: minimize the trace before replaying",
    )
    p.add_argument(
        "--inject-illegal",
        default=None,
        choices=["lost-write", "stale-snapshot", "bad-box"],
        help="inject a model-illegal fault the executor must detect "
        "(requires --allow-illegal)",
    )
    p.add_argument(
        "--allow-illegal",
        action="store_true",
        help="acknowledge that --inject-illegal makes executions invalid",
    )
    p.add_argument(
        "--inject-exec-faults",
        type=int,
        default=None,
        metavar="SEED",
        help="inject seeded executor-level chaos (worker kills and "
        "transient task errors on first attempts) around the pool "
        "tasks of this campaign; the report must stay byte-identical "
        "to a fault-free serial run (AUD014)",
    )
    _add_workers_argument(p)
    _add_supervisor_arguments(p)
    _add_trace_arguments(p)

    return parser


_COMMANDS = {
    "models": _cmd_models,
    "impossibility": _cmd_impossibility,
    "closure": _cmd_closure,
    "bounds": _cmd_bounds,
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "check": _cmd_check,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "client": _cmd_client,
}


def _supervisor_from_args(args: argparse.Namespace):
    """A SupervisorConfig from the resilience flags, or None if unset.

    Only invocations that pass at least one of ``--retries``,
    ``--task-timeout``, ``--no-degrade``, or ``--inject-exec-faults``
    install a process-default policy; everything else keeps the stock
    supervision defaults.
    """
    retries = getattr(args, "retries", None)
    task_timeout = getattr(args, "task_timeout", None)
    no_degrade = getattr(args, "no_degrade", False)
    fault_seed = getattr(args, "inject_exec_faults", None)
    if (
        retries is None
        and task_timeout is None
        and not no_degrade
        and fault_seed is None
    ):
        return None
    from repro.faults.executor import default_plan
    from repro.parallel.supervisor import SupervisorConfig

    stock = SupervisorConfig()
    return SupervisorConfig(
        retries=stock.retries if retries is None else retries,
        task_timeout=task_timeout,
        degrade=not no_degrade,
        fault_plan=None if fault_seed is None else default_plan(fault_seed),
    )


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command, recording a trace when asked to.

    ``--trace`` turns the whole invocation into one traced region: the
    tracer is installed before the command runs, uninstalled afterwards
    (even on error), and the artifact is written once the command
    returns — including non-zero returns, so a failing experiment still
    leaves a trace to inspect.
    """
    workers = getattr(args, "workers", None)
    if workers is not None:
        # The flag becomes the process-wide default so every library
        # call of this invocation inherits it (see repro.parallel.pool).
        from repro.parallel.pool import set_default_workers

        set_default_workers(workers)
    supervisor = _supervisor_from_args(args)
    if supervisor is not None:
        from repro.parallel.supervisor import set_default_supervisor

        try:
            set_default_supervisor(supervisor)
        except ReproError as exc:
            raise SystemExit(str(exc))
    try:
        return _dispatch_traced(args)
    finally:
        if supervisor is not None:
            from repro.parallel.supervisor import set_default_supervisor

            set_default_supervisor(None)
        if workers is not None:
            from repro.parallel.pool import set_default_workers

            set_default_workers(None)


def _dispatch_traced(args: argparse.Namespace) -> int:
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return _COMMANDS[args.command](args)

    from repro.telemetry import Tracer, disable, enable, write_trace

    tracer = Tracer()
    enable(tracer)
    try:
        code = _COMMANDS[args.command](args)
    finally:
        disable()
    try:
        write_trace(trace_path, tracer, args.trace_format)
    except OSError as exc:
        print(
            f"cannot write trace {trace_path!r}: {exc}", file=sys.stderr
        )
        return 1
    return code


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (`| head`).
        import os

        try:
            os.close(sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
