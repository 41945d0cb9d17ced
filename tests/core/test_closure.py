"""Unit tests for the closure operator CL_M(Π) (Definition 2)."""

from fractions import Fraction

import pytest

from repro.core import ClosureComputer, closure_task
from repro.core.local_task import local_task
from repro.core.solvability import build_solvability_problem
from repro.errors import SolvabilityError
from repro.models import ImmediateSnapshotModel, ProtocolOperator
from repro.models.affine import k_concurrency_model, no_synchrony_model
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    liberal_approximate_agreement_task,
)
from repro.tasks.inputs import input_simplex


def F(num, den=1):
    return Fraction(num, den)


class TestMembership:
    def test_delta_subset_of_closure(self, iis):
        # Remark after Definition 2: Δ(σ) ⊆ Δ'(σ).
        task = binary_consensus_task([1, 2])
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: 0, 2: 1})
        for facet in task.delta(sigma).facets:
            assert computer.contains(sigma, facet)

    def test_consensus_closure_rejects_disagreement(self, iis):
        task = binary_consensus_task([1, 2])
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: 0, 2: 1})
        assert not computer.contains(sigma, input_simplex({1: 0, 2: 1}))
        assert not computer.contains(sigma, input_simplex({1: 1, 2: 0}))

    def test_membership_cached_across_translated_sigmas(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        computer = ClosureComputer(task, iis)
        sigma_a = input_simplex({1: F(0), 2: F(1, 2)})
        sigma_b = input_simplex({1: F(1, 2), 2: F(0)})  # same window
        tau = input_simplex({1: F(0), 2: F(1, 2)})
        computer.contains(sigma_a, tau)
        before = len(computer._membership_cache)
        computer.contains(sigma_b, tau)
        assert len(computer._membership_cache) == before

    def test_quantify_beta_requires_augmented(self, iis):
        with pytest.raises(SolvabilityError):
            ClosureComputer(binary_consensus_task([1, 2]), iis, quantify_beta=True)


class TestClosureOfAA:
    def test_closure_of_quarter_is_half_two_procs(self, iis):
        # Claim 2 on one window: ε = 1/4 closes to 3ε = 3/4.
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        bigger = approximate_agreement_task([1, 2], F(3, 4), 4)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1)})
        assert (
            computer.delta_prime(sigma).simplices
            == bigger.delta(sigma).simplices
        )

    def test_closure_of_liberal_quarter_is_half_three_procs(self, iis):
        # Claim 3 on one window.
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        bigger = liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 4)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1, 2), 3: F(1)})
        assert (
            computer.delta_prime(sigma).simplices
            == bigger.delta(sigma).simplices
        )

    def test_legal_outputs_sorted_and_full_id(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1)})
        outputs = computer.legal_outputs(sigma)
        assert outputs == sorted(outputs, key=lambda s: s._sort_key())
        assert all(tau.ids == sigma.ids for tau in outputs)


class TestClosureTask:
    def test_as_task_keeps_inputs(self, iis):
        task = binary_consensus_task([1, 2])
        closed = closure_task(task, iis)
        assert closed.input_complex == task.input_complex

    def test_closure_of_consensus_is_consensus(self, iis):
        # Corollary 1's engine: CL(consensus) has the same specification.
        task = binary_consensus_task([1, 2])
        closed = closure_task(task, iis)
        assert closed.same_specification_as(task)

    def test_closure_name(self, iis):
        closed = closure_task(binary_consensus_task([1, 2]), iis)
        assert "CL_" in closed.name
        named = closure_task(
            binary_consensus_task([1, 2]), iis, name="custom"
        )
        assert named.name == "custom"

    def test_closure_output_complex_covers_images(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        closed = closure_task(task, iis)
        for sigma in task.input_complex:
            assert (
                closed.delta(sigma).simplices
                <= closed.output_complex.simplices
            )

    def test_restricted_materialization(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1)})
        closed = computer.as_task(input_simplices=[sigma])
        assert closed.delta(sigma) == computer.delta_prime(sigma)


class TestClosureWithBoxes:
    def test_tas_closure_of_2proc_consensus_is_everything(self, iis_tas):
        # Section 4.3: with test&set, 2-process consensus is 1-round
        # solvable, so its closure allows every chromatic output pair.
        task = binary_consensus_task([1, 2])
        computer = ClosureComputer(task, iis_tas)
        sigma = input_simplex({1: 0, 2: 1})
        outputs = set(computer.legal_outputs(sigma))
        assert len(outputs) == 4  # all bit pairs

    def test_quantify_beta_expands_closure(self, iis_bc_beta011):
        # With β quantification the solver may pick a β that separates the
        # two processes, making 2-process consensus-like coordination
        # possible (consensus box has consensus number ∞).
        task = binary_consensus_task([1, 2])
        fixed = ClosureComputer(task, iis_bc_beta011)
        quantified = ClosureComputer(task, iis_bc_beta011, quantify_beta=True)
        sigma = input_simplex({1: 0, 2: 1})
        assert set(fixed.legal_outputs(sigma)) <= set(
            quantified.legal_outputs(sigma)
        )


def _oracle_member(task, model, sigma, tau):
    """Definition 2 read literally: compile ``Π_{τ,σ}`` and solve it."""
    the_local_task = local_task(task, sigma, tau)
    operator = ProtocolOperator(model)
    problem = build_solvability_problem(
        list(the_local_task.input_complex),
        the_local_task.delta,
        lambda face: operator.of_simplex(face, 1),
        rounds=1,
    )
    return problem.solve() is not None


def _every_candidate(task, sigma):
    allowed = task.delta(sigma)
    return [
        allowed.candidate(key)
        for key in allowed.chromatic_candidates(sigma.ids)
    ]


_IIS = ImmediateSnapshotModel()
_PARITY_MODELS = {
    "iis": _IIS,
    "snapshot": "snapshot_model",
    "collect": "collect_model",
    "1-concurrency": k_concurrency_model(_IIS, 1),
    "2-concurrency": k_concurrency_model(_IIS, 2),
    "no-sync": no_synchrony_model(_IIS),
}
_PARITY_CASES = [
    (
        approximate_agreement_task([1, 2], F(1, 3), 3),
        [input_simplex({1: F(0), 2: F(1)}), input_simplex({1: F(1, 3), 2: F(2, 3)})],
    ),
    (
        binary_consensus_task([1, 2, 3]),
        [input_simplex({1: 0, 2: 1, 3: 1})],
    ),
    (
        liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4),
        [
            input_simplex({1: F(0), 2: F(1, 2), 3: F(1)}),
            input_simplex({1: F(1, 2), 2: F(1, 2), 3: F(1)}),
            input_simplex({2: F(0), 3: F(1, 2)}),
        ],
    ),
]


class TestPinnedTemplate:
    """Compile-once membership equals the per-τ local task, τ by τ."""

    @pytest.mark.parametrize("model_name", sorted(_PARITY_MODELS))
    @pytest.mark.parametrize(
        "case", range(len(_PARITY_CASES)), ids=["aa-n2", "bc-n3", "laa-n3"]
    )
    def test_membership_matches_the_local_task_oracle(
        self, request, model_name, case
    ):
        model = _PARITY_MODELS[model_name]
        if isinstance(model, str):
            model = request.getfixturevalue(model)
        task, sigmas = _PARITY_CASES[case]
        computer = ClosureComputer(task, model)
        windows = set()
        for sigma in sigmas:
            allowed = task.delta(sigma)
            for tau in _every_candidate(task, sigma):
                expected = _oracle_member(task, model, sigma, tau)
                assert computer.contains(sigma, tau) == expected, (
                    model.name,
                    sigma,
                    tau,
                )
                if tau not in allowed:
                    windows.add((allowed, sigma.ids))
        # The candidates outside Δ(σ) went through one template for each
        # (Δ(σ), ID(σ)) they were drawn for.
        assert windows
        assert set(computer._templates) == windows

    def test_members_and_non_members_both_occur(self, iis):
        task, sigmas = _PARITY_CASES[2]
        computer = ClosureComputer(task, iis)
        sigma = sigmas[0]
        allowed = task.delta(sigma)
        verdicts = {
            computer.contains(sigma, tau)
            for tau in _every_candidate(task, sigma)
            if tau not in allowed
        }
        assert verdicts == {True, False}

    def test_beta_restricted_closure_never_builds_a_template(
        self, iis_bc_beta011, monkeypatch
    ):
        # The box input α of an augmented model may read values, so
        # P^(1)(τ) need not be a relabeling of P^(1)(τ*): every τ keeps
        # its own local task.
        def forbidden(*args, **kwargs):
            raise AssertionError("template built for an augmented model")

        monkeypatch.setattr(ClosureComputer, "_template", forbidden)
        task = binary_consensus_task([1, 2, 3])
        computer = ClosureComputer(task, iis_bc_beta011)
        sigma = input_simplex({1: 0, 2: 1, 3: 1})
        allowed = task.delta(sigma)
        candidates = _every_candidate(task, sigma)
        assert any(tau not in allowed for tau in candidates)
        for tau in candidates:
            assert computer.contains(sigma, tau) == _oracle_member(
                task, iis_bc_beta011, sigma, tau
            )
        assert computer._templates == {}
