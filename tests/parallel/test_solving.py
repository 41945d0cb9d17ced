"""Solvability with a worker pool returns exactly the serial answer."""

from fractions import Fraction

import pytest

from repro.core import find_decision_map, is_solvable
from repro.core.local_task import local_task
from repro.models import ImmediateSnapshotModel
from repro.parallel import expansion, supervisor
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
)
from repro.topology import Simplex


@pytest.fixture
def iis():
    return ImmediateSnapshotModel()


class TestParallelSolving:
    def test_solvable_instance_same_map(self, iis):
        task = approximate_agreement_task([1, 2], Fraction(1, 2), 2)
        serial = find_decision_map(task, iis, 1, workers=1)
        parallel = find_decision_map(task, iis, 1, workers=2)
        assert serial is not None and parallel is not None
        # Same map, not merely equi-solvable verdicts: the pool only
        # builds protocol complexes, and the search runs serially.
        assert parallel.assignment == serial.assignment
        assert parallel.rounds == serial.rounds

    def test_unsolvable_instance_same_verdict(self, iis):
        task = binary_consensus_task([1, 2])
        assert not is_solvable(task, iis, 1, workers=1)
        assert not is_solvable(task, iis, 1, workers=2)

    def test_zero_round_identity(self, iis):
        task = approximate_agreement_task([1, 2], Fraction(2, 1), 2)
        assert is_solvable(task, iis, 0, workers=2) == is_solvable(
            task, iis, 0, workers=1
        )


class TestFanOutSelection:
    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("supervised_map called")

        monkeypatch.setattr(supervisor, "supervised_map", refuse)
        monkeypatch.setattr(expansion, "supervised_map", refuse)

    def test_small_local_task_stays_serial(self, iis, no_pool):
        # A local task over an edge has 3 input simplices, below the
        # operator's fan-out threshold: workers=2 must not touch the pool.
        task = approximate_agreement_task([1, 2], Fraction(1, 2), 2)
        sigma = Simplex([(1, 0), (2, 1)])
        local = local_task(task, sigma, sigma)
        assert len(local.input_complex) == 3
        assert is_solvable(local, iis, 1, workers=2) == is_solvable(
            local, iis, 1, workers=1
        )

    def test_large_input_complex_reaches_the_pool(self, iis, monkeypatch):
        calls = []
        real = expansion.supervised_map

        def spy(*args, **kwargs):
            calls.append(kwargs.get("label"))
            return real(*args, **kwargs)

        monkeypatch.setattr(expansion, "supervised_map", spy)
        task = approximate_agreement_task([1, 2], Fraction(1, 2), 2)
        assert len(task.input_complex) >= 8
        assert is_solvable(task, iis, 1, workers=2)
        assert calls == ["protocol-of-simplex"]
