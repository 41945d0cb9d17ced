"""Phase spans of the solvability engine and the closure template."""

from fractions import Fraction

from repro.core import ClosureComputer, is_solvable
from repro.models import ImmediateSnapshotModel
from repro.tasks import (
    approximate_agreement_task,
    liberal_approximate_agreement_task,
)
from repro.tasks.inputs import input_simplex
from repro.telemetry import tracing


def _walk(spans):
    for entry in spans:
        yield entry
        yield from _walk(entry.children)


def _named(tracer, name):
    return [entry for entry in _walk(tracer.roots) if entry.name == name]


class TestSolveSpans:
    def test_is_solvable_shows_compile_propagate_and_search(self):
        task = approximate_agreement_task([1, 2, 3], Fraction(1, 2), 2)
        with tracing() as tracer:
            assert is_solvable(task, ImmediateSnapshotModel(), 1)
        (solve,) = _named(tracer, "solvability/solve")
        assert [child.name for child in solve.children] == [
            "solvability/compile",
            "solvability/propagate",
            "solvability/search",
        ]
        compile_, propagate, search = solve.children
        assert compile_.attributes["arcs"] > 0
        assert propagate.attributes["pinned"] is False
        assert propagate.attributes["wipeouts"] == 0
        assert search.attributes["nodes"] == solve.attributes["nodes"] > 0

    def test_refutation_stops_at_propagate(self):
        task = approximate_agreement_task([1, 2], Fraction(1, 4), 4)
        with tracing() as tracer:
            assert not is_solvable(task, ImmediateSnapshotModel(), 1)
        (solve,) = _named(tracer, "solvability/solve")
        assert [child.name for child in solve.children] == [
            "solvability/compile",
            "solvability/propagate",
        ]
        assert solve.children[1].attributes["wipeouts"] == 1
        assert solve.attributes["nodes"] == 0


class TestClosureTemplateSpans:
    def test_one_compile_per_window_and_pinned_solves(self):
        task = liberal_approximate_agreement_task(
            [1, 2, 3], Fraction(1, 4), 4
        )
        computer = ClosureComputer(task, ImmediateSnapshotModel())
        sigma = input_simplex(
            {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(1)}
        )
        with tracing() as tracer:
            computer.legal_outputs(sigma)
        assert len(_named(tracer, "closure/compile")) == 1
        solves = _named(tracer, "solvability/solve")
        assert len(solves) == len(_named(tracer, "closure/decide")) > 1
        assert all(entry.attributes["pinned"] for entry in solves)
        # The template compiles to ints on its first solve only.
        assert len(_named(tracer, "solvability/compile")) == 1
