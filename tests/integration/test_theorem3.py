"""Integration: Theorem 3 / Claim 4 — test&set does not accelerate
approximate agreement for n ≥ 3 (E10).
"""

from fractions import Fraction

from repro.core import (
    ClosureComputer,
    aa_lower_bound_iis,
    aa_lower_bound_iis_tas,
    is_solvable,
)
from repro.tasks import (
    approximate_agreement_task,
    liberal_approximate_agreement_task,
)
from repro.tasks.inputs import input_simplex


def F(num, den=1):
    return Fraction(num, den)


class TestClaim4:
    def test_closure_with_tas_is_still_2eps_on_wide_windows(self, iis_tas):
        m, eps = 4, F(1, 4)
        task = liberal_approximate_agreement_task([1, 2, 3], eps, m)
        target = liberal_approximate_agreement_task([1, 2, 3], 2 * eps, m)
        computer = ClosureComputer(task, iis_tas)
        # Distinct windows only (the cache collapses the rest anyway):
        # wide windows are where a hypothetical speedup would show.
        seen_windows = set()
        for sigma in task.input_complex.simplices_of_dim(2):
            values = sorted(v.value for v in sigma.vertices)
            window = (values[0], values[-1])
            if window in seen_windows or window[1] - window[0] < F(1, 2):
                continue
            seen_windows.add(window)
            assert (
                computer.delta_prime(sigma).simplices
                == target.delta(sigma).simplices
            ), f"Claim 4 fails at {sigma.as_mapping()}"

    def test_two_proc_faces_are_liberal_hence_unconstrained(self, iis_tas):
        m, eps = 4, F(1, 4)
        task = liberal_approximate_agreement_task([1, 2, 3], eps, m)
        computer = ClosureComputer(task, iis_tas)
        sigma = input_simplex({1: F(0), 2: F(1)})
        # Liberal: any in-range pair is legal, closure agrees.
        assert computer.contains(sigma, input_simplex({1: F(0), 2: F(1)}))


class TestTheorem3:
    def test_bound_equals_plain_iis_for_n_ge_3(self):
        for eps in (F(1, 2), F(1, 4), F(1, 8), F(1, 32)):
            assert aa_lower_bound_iis_tas(3, eps) == aa_lower_bound_iis(
                3, eps
            )
            assert aa_lower_bound_iis_tas(5, eps) == aa_lower_bound_iis(
                5, eps
            )

    def test_bound_binds_one_round_down_with_tas(self, iis_tas):
        # ε = 1/4, n = 3, with test&set: still not solvable in 1 round.
        task = approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        wide = [
            sigma
            for sigma in task.input_complex
            if sigma.dim == 2
            and max(v.value for v in sigma.vertices)
            - min(v.value for v in sigma.vertices)
            == 1
        ]
        wide += [s for sigma in wide for s in sigma.proper_faces()]
        assert not is_solvable(task, iis_tas, 1, input_simplices=wide)

    def test_contrast_two_processes_accelerated(self, iis_tas):
        # The n = 2 contrast: with test&set even exact-looking precision is
        # one round, because 2-process consensus is.
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        assert is_solvable(task, iis_tas, 1)
        assert aa_lower_bound_iis_tas(2, F(1, 4)) == 1

    def test_half_eps_solvable_in_one_round_n3_with_or_without(self, iis, iis_tas):
        # At ε = 1/2 one round suffices in both models: the object brings
        # nothing at the top of the recursion either.
        task = approximate_agreement_task([1, 2, 3], F(1, 2), 2)
        assert is_solvable(task, iis, 1)
        assert is_solvable(task, iis_tas, 1)
