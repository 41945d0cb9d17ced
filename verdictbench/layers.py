"""The traced run: per-layer self time and counts, from outside the program.

Each layer is a list of hooks, ``(module, attribute path)`` pairs naming a
public function or method of ``repro``.  :meth:`Trace.install` replaces
each with a wrapper that keeps a stack of open layer frames, so a layer's
self time is its wall time minus the time of layer frames opened inside it
(time in a recursive call is counted once).  Counts come from the
wrappers and from cache-counter deltas read through
``repro.telemetry.default_registry()``.

If a hook no longer resolves, every metric of its layer is ``None`` and a
warning names the hook; the other layers and the end-to-end metrics are
unaffected.  Nothing under ``src/`` is changed: the wrappers live only in
the traced child process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: name -> (unit, better); the order is the order of the printed table.
METRICS: dict[str, tuple[str, str]] = {
    "model.one_round.self_s": ("s", "lower"),
    "model.one_round.calls": ("count", "lower"),
    "model.one_round.hit_ratio": ("ratio", "higher"),
    "protocol.self_s": ("s", "lower"),
    "protocol.calls": ("count", "lower"),
    "protocol.memo_hit_ratio": ("ratio", "higher"),
    "compile.self_s": ("s", "lower"),
    "compile.calls": ("count", "lower"),
    "compile.variables": ("count", "lower"),
    "compile.constraints": ("count", "lower"),
    "propagate.self_s": ("s", "lower"),
    "propagate.calls": ("count", "lower"),
    "propagate.refuted_share": ("ratio", "higher"),
    "search.self_s": ("s", "lower"),
    "search.nodes": ("count", "lower"),
    "search.nodes_per_s": ("1/s", "higher"),
    "local_task.self_s": ("s", "lower"),
    "local_task.calls": ("count", "lower"),
    "closure.self_s": ("s", "lower"),
    "closure.decisions": ("count", "lower"),
    "closure.membership_hit_ratio": ("ratio", "higher"),
    "closure.member_share": ("ratio", "higher"),
    "lower_bound.self_s": ("s", "lower"),
    "lower_bound.iterations": ("count", "lower"),
    "topology.pruned_builds": ("count", "lower"),
    "topology.trusted_builds": ("count", "lower"),
    "unattributed.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Which layer each metric belongs to (for the missing-hook rule); the
# ``topology``, ``unattributed`` and ``trace`` metrics hang on no hook.
LAYER_OF = {name: name.rsplit(".", 1)[0] for name in METRICS}

HOOKS: dict[str, tuple[tuple[str, str], ...]] = {
    "model.one_round": (
        ("repro.models.base", "ComputationModel.one_round_complex"),
    ),
    "protocol": (("repro.models.protocol", "ProtocolOperator.of_simplex"),),
    # Wrapped at its home module and at the binding the closure imported.
    "compile": (
        ("repro.core.solvability", "build_solvability_problem"),
        ("repro.core.closure", "build_solvability_problem"),
    ),
    "propagate": (
        ("repro.core.solvability", "SolvabilityProblem.prepare_search"),
    ),
    # ``solve`` minus the ``prepare_search`` frame nested in it.
    "search": (("repro.core.solvability", "SolvabilityProblem.solve"),),
    "local_task": (
        ("repro.core.local_task", "local_task"),
        ("repro.core.closure", "local_task"),
    ),
    "closure": (
        ("repro.core.closure", "ClosureComputer.legal_outputs"),
        ("repro.core.closure", "ClosureComputer.contains"),
        ("repro.core.closure", "ClosureComputer.as_task"),
    ),
    "lower_bound": (
        ("repro.core.lower_bounds", "iterated_closure_lower_bound"),
        ("repro", "iterated_closure_lower_bound"),
    ),
}

# Cache counters of the telemetry registry (``name -> (hits, misses)``).
ONE_ROUND_PREFIX = "one-round-complex["
OF_SIMPLEX = "protocol-operator.of-simplex"
MEMBERSHIP = "closure.membership"
PRUNED_BUILDS = "simplicial-complex.pruned-builds"
TRUSTED_BUILDS = "simplicial-complex.trusted-builds"


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def _ratio(part: float, whole: float) -> float:
    """``part / whole``; 0 when ``whole`` is 0 (the layer saw no work)."""
    return part / whole if whole else 0.0


class Trace:
    """Installed wrappers plus their running totals for one process."""

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in HOOKS}
        self.missing: dict[str, str] = {}
        # Layers whose per-call counts could not be read, with the reason.
        self.broken: dict[str, str] = {}
        self.warnings: list[str] = []
        # Open frames: [start, time spent in frames opened inside].
        self._stack: list[list[float]] = []
        self._registry: Any = None
        self._replaced: list[tuple[Any, str, Callable[..., Any]]] = []
        self._before: dict[str, tuple[int, int]] = {}
        self._after: dict[str, tuple[int, int]] = {}

    # -- installation --------------------------------------------------
    def install(self) -> None:
        for layer, hooks in HOOKS.items():
            resolved = []
            for module_name, path in hooks:
                try:
                    owner, attribute, original = _resolve(module_name, path)
                except (ImportError, AttributeError) as exc:
                    self.missing[layer] = f"{module_name}:{path}"
                    self.warnings.append(
                        f"hook {module_name}:{path} not found ({exc}); "
                        f"layer {layer} metrics are null"
                    )
                    break
                resolved.append((owner, attribute, original))
            else:
                for owner, attribute, original in resolved:
                    setattr(owner, attribute, self._wrap(layer, original))
                    self._replaced.append((owner, attribute, original))
        try:
            from repro.telemetry import default_registry

            self._registry = default_registry()
        except ImportError as exc:
            self.warnings.append(
                f"repro.telemetry.default_registry not found ({exc}); "
                "counter metrics are null"
            )

    def uninstall(self) -> None:
        """Put back every function :meth:`install` replaced."""
        for owner, attribute, original in reversed(self._replaced):
            setattr(owner, attribute, original)
        self._replaced.clear()

    def _wrap(self, layer: str, original: Callable[..., Any]) -> Callable[..., Any]:
        stats = self.stats[layer]
        stack = self._stack
        broken = self.broken
        observe = _OBSERVERS.get(layer)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            result: Any = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.self_s += elapsed - frame[1]
                stats.calls += 1
                if observe is not None and layer not in broken:
                    try:
                        observe(stats, original, args, kwargs, result)
                    except Exception as exc:  # a renamed attribute, say
                        broken[layer] = f"{type(exc).__name__}: {exc}"

        return wrapper

    # -- counters ------------------------------------------------------
    def start(self) -> None:
        """Snapshot the counters; call right before the first query."""
        if self._registry is not None:
            self._before = self._registry.cache_snapshot()

    def stop(self) -> None:
        """Snapshot the counters; call right after the last query."""
        if self._registry is not None:
            self._after = self._registry.cache_snapshot()

    def _counter(self, name: str, layer_ran: bool) -> Optional[tuple[int, int]]:
        """``(hits, misses)`` added to a counter (or, for a name ending in
        ``[``, to every counter with that prefix) during the queries.

        ``None`` when the registry is unreadable, or when the counter is
        gone although its layer ran (with a warning naming it).
        """
        if self._registry is None:
            return None
        keys = [
            key
            for key in self._after
            if key == name or (name.endswith("[") and key.startswith(name))
        ]
        if not keys:
            if not layer_ran:
                return (0, 0)
            self.warnings.append(f"counter {name} not found; its metrics are null")
            return None
        hits = misses = 0
        for key in keys:
            base_hits, base_misses = self._before.get(key, (0, 0))
            hits += self._after[key][0] - base_hits
            misses += self._after[key][1] - base_misses
        return hits, misses

    # -- report --------------------------------------------------------
    def report(self, elapsed_s: float) -> dict[str, Optional[float]]:
        """Every metric of :data:`METRICS` except ``trace.overhead_s``,
        which needs an untraced run; ``elapsed_s`` is the queries' wall
        time in this traced process."""
        s = self.stats
        out: dict[str, Optional[float]] = {}
        for layer, stats in s.items():
            out[f"{layer}.self_s"] = stats.self_s
            if f"{layer}.calls" in METRICS:
                out[f"{layer}.calls"] = stats.calls

        one_round = self._counter(ONE_ROUND_PREFIX, s["model.one_round"].calls > 0)
        out["model.one_round.hit_ratio"] = (
            None if one_round is None else _ratio(one_round[0], sum(one_round))
        )
        of_simplex = self._counter(OF_SIMPLEX, s["protocol"].calls > 0)
        out["protocol.memo_hit_ratio"] = (
            None if of_simplex is None else _ratio(of_simplex[0], sum(of_simplex))
        )
        out["compile.variables"] = s["compile"].extra.get("variables", 0)
        out["compile.constraints"] = s["compile"].extra.get("constraints", 0)
        out["propagate.refuted_share"] = _ratio(
            s["propagate"].extra.get("refuted", 0), s["propagate"].calls
        )
        nodes = s["search"].extra.get("nodes", 0)
        out["search.nodes"] = nodes
        out["search.nodes_per_s"] = _ratio(nodes, s["search"].self_s)
        membership = self._counter(MEMBERSHIP, s["closure"].calls > 0)
        if membership is None:
            out["closure.decisions"] = None
            out["closure.membership_hit_ratio"] = None
            out["closure.member_share"] = None
        else:
            out["closure.decisions"] = membership[1]
            out["closure.membership_hit_ratio"] = _ratio(
                membership[0], sum(membership)
            )
            out["closure.member_share"] = _ratio(
                s["closure"].extra.get("members", 0), sum(membership)
            )
        out["lower_bound.iterations"] = s["lower_bound"].extra.get("iterations", 0)
        for metric, name in (
            ("topology.pruned_builds", PRUNED_BUILDS),
            ("topology.trusted_builds", TRUSTED_BUILDS),
        ):
            delta = self._counter(name, True)
            out[metric] = None if delta is None else delta[1]

        for layer, reason in self.broken.items():
            self.warnings.append(
                f"layer {layer} counts unreadable ({reason}); they are null"
            )
            for metric in OBSERVED[layer]:
                out[metric] = None
        for layer in self.missing:
            for metric in out:
                if LAYER_OF[metric] == layer:
                    out[metric] = None
        attributed = sum(stats.self_s for stats in s.values())
        out["unattributed.self_s"] = elapsed_s - attributed
        out["trace.wall_s"] = elapsed_s
        return {name: out[name] for name in METRICS if name in out}


def _resolve(module_name: str, path: str) -> tuple[Any, str, Callable[..., Any]]:
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    original = getattr(owner, attribute)
    if not callable(original):
        raise AttributeError(f"{path} is not callable")
    return owner, attribute, original


# Per-layer counts taken from a call's arguments and result.
def _observe_compile(stats, original, args, kwargs, result) -> None:
    if result is not None:
        stats.add("variables", len(result.candidates))
        stats.add("constraints", len(result.constraints))


def _observe_propagate(stats, original, args, kwargs, result) -> None:
    if result is None:
        stats.add("refuted", 1)


def _observe_search(stats, original, args, kwargs, result) -> None:
    # Read even when solve raised: the nodes were still explored.
    stats.add("nodes", args[0].last_search_nodes)


def _observe_closure(stats, original, args, kwargs, result) -> None:
    if isinstance(result, list):
        stats.add("members", len(result))
    elif result is True:
        stats.add("members", 1)


def _observe_lower_bound(stats, original, args, kwargs, result) -> None:
    if isinstance(result, int):
        max_rounds = inspect.signature(original).bind(*args, **kwargs).arguments[
            "max_rounds"
        ]
        # Rounds tested: one per closure taken, plus the 0-round test that
        # stopped the loop unless it ran out of rounds first.
        stats.add("iterations", result + (1 if result < max_rounds else 0))


#: The metrics each observer feeds.
OBSERVED = {
    "compile": ("compile.variables", "compile.constraints"),
    "propagate": ("propagate.refuted_share",),
    "search": ("search.nodes", "search.nodes_per_s"),
    "closure": ("closure.member_share",),
    "lower_bound": ("lower_bound.iterations",),
}

_OBSERVERS: dict[str, Callable[..., None]] = {
    "compile": _observe_compile,
    "propagate": _observe_propagate,
    "search": _observe_search,
    "closure": _observe_closure,
    "lower_bound": _observe_lower_bound,
}
