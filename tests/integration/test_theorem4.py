"""Integration: Theorem 4 / Claims 5–6 — binary consensus called by ID
gives at best min{⌈log₂ 1/ε⌉, ⌈log₂ n⌉ − 1} (E12).
"""

from fractions import Fraction

import pytest

from repro.core import (
    ClosureComputer,
    aa_lower_bound_iis_bc,
    ceil_log,
)
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    beta_input_function,
    majority_side,
)
from repro.tasks import liberal_approximate_agreement_task
from repro.tasks.inputs import input_simplex


def F(num, den=1):
    return Fraction(num, den)


BETA = {1: 0, 2: 1, 3: 0, 4: 0, 5: 1}


@pytest.fixture(scope="module")
def bc_model():
    return AugmentedModel(BinaryConsensusBox(), beta_input_function(BETA))


class TestClaim6:
    def test_majority_side_size(self):
        side = majority_side(BETA, [1, 2, 3, 4, 5])
        assert side == frozenset({1, 3, 4})
        assert len(side) >= 5 / 2

    def test_beta_closure_is_2eps_on_majority_side(self, bc_model):
        m, eps = 4, F(1, 4)
        side = sorted(majority_side(BETA, [1, 2, 3, 4, 5]))
        task = liberal_approximate_agreement_task(side, eps, m)
        target = liberal_approximate_agreement_task(side, 2 * eps, m)
        computer = ClosureComputer(task, bc_model)
        # Wide windows on the majority side; cache collapses translates.
        seen = set()
        for sigma in task.input_complex.simplices_of_dim(2):
            values = sorted(v.value for v in sigma.vertices)
            window = (values[0], values[-1])
            if window in seen or window[1] - window[0] < F(1, 2):
                continue
            seen.add(window)
            assert (
                computer.delta_prime(sigma).simplices
                == target.delta(sigma).simplices
            ), f"Claim 6 fails at {sigma.as_mapping()}"

    def test_mixed_beta_escapes_the_collapse(self, bc_model):
        # The paper's caveat: on participants spanning both β-sides, the
        # closure is NOT necessarily (2ε)-AA — the box genuinely helps.
        m, eps = 4, F(1, 4)
        mixed = [1, 2, 5]  # β = 0, 1, 1
        task = liberal_approximate_agreement_task(mixed, eps, m)
        target = liberal_approximate_agreement_task(mixed, 2 * eps, m)
        computer = ClosureComputer(task, bc_model)
        sigma = input_simplex({1: F(0), 2: F(1, 2), 5: F(1)})
        got = computer.delta_prime(sigma).simplices
        want = target.delta(sigma).simplices
        assert got > want  # strictly more outputs than 2ε-AA allows

    def test_homogeneous_side_box_output_forced(self, bc_model):
        # Mechanism behind Claim 6: among β⁻¹(0) the box always answers 0.
        sigma = input_simplex({1: F(0), 3: F(1, 2), 4: F(1)})
        complex_ = bc_model.one_round_complex(sigma)
        assert {v.value[0] for v in complex_.vertices} == {0}


class TestTheorem4Bound:
    @pytest.mark.parametrize(
        "n, eps, expected",
        [
            (3, F(1, 8), 1),
            (4, F(1, 8), 1),
            (8, F(1, 8), 2),
            (16, F(1, 8), 3),
            (32, F(1, 8), 3),  # ε side binds: min(3, 4) = 3
            (64, F(1, 64), 5),
        ],
    )
    def test_closed_form(self, n, eps, expected):
        assert aa_lower_bound_iis_bc(n, eps) == expected

    def test_recursion_arithmetic(self):
        # t applications halve processes and double ε: the bound is the
        # largest t with n / 2^(t-1) ≥ 3 and 2^(t-1) ε < 1 — matching the
        # min/ceil closed form for every instance below.
        for n in range(3, 70):
            for k in range(0, 7):
                eps = F(1, 2**k)
                bound = aa_lower_bound_iis_bc(n, eps)
                assert bound == min(
                    ceil_log(2, 1 / eps), ceil_log(2, n) - 1
                )

    def test_bc_weaker_than_plain_for_small_n(self):
        # For n = 3 the process side collapses immediately:
        # min(⌈log₂ 1/ε⌉, 1) — the ID-called box CAN help when n is tiny
        # relative to 1/ε (e.g. solving via leader election in ⌈log₂ n⌉
        # rounds), which the bound honestly reflects.
        assert aa_lower_bound_iis_bc(3, F(1, 1024)) == 1
