"""Parallel decision-map search: one worker per constraint component.

After :meth:`SolvabilityProblem.prepare_search` the instance has split
into connected components of the constraint graph that share only the
forced (singleton-domain) vertices — independent sub-searches.  Each
component ships to a worker as a self-contained sub-problem (its pruned
domains, the constraints touching it, and the forced vertices pinned as
singleton domains), wire-encoded by
:func:`~repro.topology.wire.encode_component`.

Workers search **without** re-running arc-consistency, so the variable
order — and therefore the discovered assignment — is exactly the one the
serial per-component backtracking would produce; parallel and serial
solves return the same map, not merely equi-solvable verdicts.  The
first refuted component cancels the remaining ones (``stop_when`` early
cancel): an unsolvable instance costs one component's refutation, as in
the serial engine.
"""

from __future__ import annotations

from typing import Optional

from repro.core.solvability import (
    DecisionMap,
    SolvabilityProblem,
    build_solvability_problem,
)
from repro.models.protocol import ProtocolOperator
from repro.parallel.expansion import materialize_protocol_complexes
from repro.parallel.supervisor import supervised_map
from repro.tasks.task import Task
from repro.telemetry import span
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex
from repro.topology.wire import (
    ComponentPayload,
    decode_choices,
    decode_component,
    encode_choices,
    encode_component,
)

__all__ = ["parallel_find_decision_map"]


def _encode_component(
    problem: SolvabilityProblem,
    component: list[Vertex],
    domains: dict[Vertex, list[Vertex]],
    assignment: dict[Vertex, Vertex],
) -> ComponentPayload:
    member = set(component)
    candidates: dict[Vertex, tuple[Vertex, ...]] = {
        vertex: tuple(domains[vertex]) for vertex in component
    }
    constraints: list[tuple[Simplex, frozenset[Simplex]]] = []
    for facet, allowed in problem.constraints:
        if member.isdisjoint(facet.vertices):
            continue
        # Facet vertices outside the component are forced (a facet with
        # two free vertices would have merged their components); pin
        # them as singleton domains so the worker assigns them up front
        # exactly like the parent did.
        for vertex in facet.vertices:
            if vertex not in member:
                candidates.setdefault(vertex, (assignment[vertex],))
        constraints.append((facet, allowed))
    return encode_component(candidates, constraints, problem.rounds)


def _solve_component(payload: ComponentPayload) -> Optional[tuple[int, ...]]:
    candidates, constraints, rounds = decode_component(payload)
    problem = SolvabilityProblem(candidates, constraints, rounds)
    # The shipped domains are already arc-consistent (the parent
    # propagated before decomposing); skipping re-propagation keeps the
    # worker's variable order — hence its discovered assignment —
    # identical to the serial component search.
    found = problem.solve(use_propagation=False)
    if found is None:
        return None
    return encode_choices(candidates, found.assignment)


def parallel_find_decision_map(
    task: Task,
    operator: ProtocolOperator,
    rounds: int,
    simplices: list[Simplex],
    workers: int,
) -> Optional[DecisionMap]:
    """The parallel twin of :func:`~repro.core.solvability.find_decision_map`.

    Pre-warms the per-simplex protocol complexes on the pool, compiles
    the constraint problem in the parent, then fans the independent
    components out with early cancel on the first refutation.  Returns
    exactly what the serial search would (same verdict, same map).
    """
    with span(
        "parallel/solve",
        model=operator.model.name,
        rounds=rounds,
        workers=workers,
    ) as solve_span:
        materialize_protocol_complexes(operator, simplices, rounds, workers)
        problem = build_solvability_problem(
            simplices,
            task.delta,
            lambda sigma: operator.of_simplex(sigma, rounds),
            rounds=rounds,
        )
        prepared = problem.prepare_search()
        if prepared is None:
            solve_span.set_attribute("solvable", False)
            return None
        domains, assignment, components = prepared
        solve_span.set_attribute("components", len(components))
        if len(components) <= 1:
            # One component cannot be split; search it in-process.
            for component in components:
                if not problem.search_component(
                    component, domains, assignment
                ):
                    solve_span.set_attribute("solvable", False)
                    return None
            solve_span.set_attribute("solvable", True)
            return DecisionMap(dict(assignment), problem.rounds)
        payloads = [
            _encode_component(problem, component, domains, assignment)
            for component in components
        ]
        # Supervised: the stop_when predicate treats None as a
        # refutation, so it must only ever see *successful* results —
        # supervised_map guarantees exactly that (failed attempts are
        # retried, never surfaced to stop_when), where a bare
        # parallel_map under a flaky pool could mistake a crash for an
        # unsolvable component.
        outcome = supervised_map(
            _solve_component,
            payloads,
            workers=workers,
            label="solve-component",
            stop_when=lambda solved: solved is None,
        )
        if outcome.stopped_early or any(
            solved is None for solved in outcome.results
        ):
            solve_span.set_attribute("solvable", False)
            return None
        for payload, solved in zip(payloads, outcome.results):
            assignment.update(decode_choices(payload, solved))
        solve_span.set_attribute("solvable", True)
        return DecisionMap(dict(assignment), problem.rounds)
