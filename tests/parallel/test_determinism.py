"""The determinism contract: worker count never changes any result.

Covers both fan-outs (per-input-simplex protocol expansion, chaos
campaigns) and the solvability verdicts built on the first, at
``workers ∈ {1, 2, 4}`` in the default tier-1 run.
"""

import json
from fractions import Fraction

import pytest

from repro.core import is_solvable
from repro.faults import CampaignConfig, report_to_json, run_campaign
from repro.faults.executor import ExecutorFaultPlan, fault_for
from repro.models import ImmediateSnapshotModel
from repro.models.protocol import ProtocolOperator
from repro.parallel.supervisor import SupervisorConfig
from repro.tasks import approximate_agreement_task
from repro.topology import Simplex, SimplicialComplex


def _two_triangles():
    """Two IIS input triangles sharing an edge: 11 simplices, enough to
    cross the operator's fan-out threshold."""
    return SimplicialComplex(
        [
            Simplex([(1, 0), (2, 0), (3, 0)]),
            Simplex([(1, 1), (2, 0), (3, 0)]),
        ]
    )


def _campaign_json(workers, supervisor=None):
    config = CampaignConfig(
        cell="aa-broken", n=3, t=1, executions=40, seed=7
    )
    report = run_campaign(config, workers=workers, supervisor=supervisor)
    return json.dumps(report_to_json(report), sort_keys=True)


def _protocol_facets(rounds, workers):
    base = _two_triangles()
    whole = ProtocolOperator(ImmediateSnapshotModel()).of_complex(
        base, rounds, workers=workers
    )
    carriers = ProtocolOperator(ImmediateSnapshotModel()).carriers(
        base, rounds, workers=workers
    )
    return whole.facets, carriers


class TestChaosDeterminism:
    def test_two_workers_byte_identical(self):
        assert _campaign_json(2) == _campaign_json(1)

    def test_four_workers_byte_identical(self):
        assert _campaign_json(4) == _campaign_json(1)


class TestSupervisedChaosDeterminism:
    """The PR-8 acceptance property: executor-level fault injection —
    including SIGKILLed workers — never changes a campaign's bytes."""

    PLAN = ExecutorFaultPlan(
        seed=3, kill_rate=0.2, error_rate=0.2, faulty_attempts=1
    )

    def test_plan_actually_schedules_a_worker_kill(self):
        # Guard: if a future re-seed made the plan vacuous, the
        # byte-identity test below would silently stop testing recovery.
        faults = [fault_for(self.PLAN, i, 0) for i in range(8)]
        assert "kill" in faults

    def test_injected_kills_byte_identical_to_fault_free_serial(self):
        supervisor = SupervisorConfig(
            retries=2, backoff_base=0.0, fault_plan=self.PLAN
        )
        chaotic = _campaign_json(2, supervisor=supervisor)
        assert chaotic == _campaign_json(1)


class TestProtocolDeterminism:
    def test_two_workers_identical_facet_sets(self):
        # The E1/E19 workload, P^(t) over IIS on 3-process triangles.
        assert _protocol_facets(2, 2) == _protocol_facets(2, 1)

    def test_four_workers_identical_facet_sets(self):
        assert _protocol_facets(3, 4) == _protocol_facets(3, 1)


class TestSolvabilityDeterminism:
    @pytest.mark.parametrize(
        "epsilon,m", [(Fraction(1, 2), 2), (Fraction(1, 4), 4)]
    )
    def test_verdicts_identical_across_worker_counts(self, epsilon, m):
        task = approximate_agreement_task([1, 2], epsilon, m)
        iis = ImmediateSnapshotModel()
        serial = is_solvable(task, iis, 1, workers=1)
        assert is_solvable(task, iis, 1, workers=2) == serial

    def test_four_worker_verdict(self):
        task = approximate_agreement_task([1, 2], Fraction(1, 2), 2)
        iis = ImmediateSnapshotModel()
        assert is_solvable(task, iis, 1, workers=4) == is_solvable(
            task, iis, 1, workers=1
        )
