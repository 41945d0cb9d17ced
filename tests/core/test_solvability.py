"""Unit tests for the solvability decision procedure."""

from fractions import Fraction

import pytest

from repro.core import find_decision_map, is_solvable
from repro.core.solvability import build_solvability_problem
from repro.errors import SolvabilityError
from repro.models import ProtocolOperator
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    multivalued_consensus_task,
)
from repro.tasks.inputs import input_simplex


def F(num, den=1):
    return Fraction(num, den)


class TestZeroRounds:
    def test_trivial_task_zero_round_solvable(self, iis):
        # "Output your input" is 0-round solvable.
        task = approximate_agreement_task([1, 2], 1, 1)
        assert is_solvable(task, iis, 0)

    def test_consensus_not_zero_round_solvable(self, iis):
        assert not is_solvable(binary_consensus_task([1, 2]), iis, 0)

    def test_claim1_aa_not_zero_round_solvable(self, iis):
        # Claim 1: ε < 1 ⟹ no 0-round algorithm.
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        assert not is_solvable(task, iis, 0)

    def test_negative_rounds_rejected(self, iis):
        with pytest.raises(SolvabilityError):
            is_solvable(binary_consensus_task([1, 2]), iis, -1)


class TestOneRound:
    def test_half_aa_solvable_in_one_round_two_procs(self, iis):
        # ⌈log₃ 3⌉ = 1 round suffices for ε = 1/3 … use ε = 1/2 with m = 2:
        # ⌈log₃ 2⌉ = 1.
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        decision = find_decision_map(task, iis, 1)
        assert decision is not None
        assert decision.rounds == 1

    def test_half_aa_solvable_in_one_round_three_procs(self, iis):
        task = approximate_agreement_task([1, 2, 3], F(1, 2), 2)
        assert is_solvable(task, iis, 1)

    def test_consensus_not_one_round_solvable(self, iis):
        assert not is_solvable(binary_consensus_task([1, 2]), iis, 1)

    def test_decision_map_respects_delta(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        decision = find_decision_map(task, iis, 1, operator=operator)
        for sigma in task.input_complex:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, 1).facets:
                assert decision.output_simplex(facet) in allowed

    def test_restricting_inputs_can_make_solvable(self, iis):
        # On uniform inputs only, consensus is trivially solvable.
        task = binary_consensus_task([1, 2])
        uniform = [
            input_simplex({1: 0, 2: 0}),
            input_simplex({1: 1, 2: 1}),
            input_simplex({1: 0}),
            input_simplex({2: 1}),
            input_simplex({1: 1}),
            input_simplex({2: 0}),
        ]
        assert is_solvable(task, iis, 0, input_simplices=uniform)


class TestQuarterEpsilon:
    def test_quarter_aa_needs_two_rounds(self, iis):
        # Corollary 3 for n = 2: ⌈log₃ 4⌉ = 2 rounds; one round must fail.
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        assert not is_solvable(task, iis, 1)

    def test_quarter_aa_two_rounds_suffice_constructively(self, iis):
        # Existence via the explicit algorithm (Eq. 2 iterated), instead of
        # an expensive blind search: extract its decision map and check it
        # against Δ — this *is* a 2-round solvability witness.
        from repro.algorithms import TwoProcessThirdsAA
        from repro.models import ProtocolOperator
        from repro.runtime import extract_decision_map

        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        algorithm = TwoProcessThirdsAA(F(1, 4))
        assert algorithm.rounds == 2
        decision = extract_decision_map(algorithm, iis, task.input_complex)
        operator = ProtocolOperator(iis)
        for sigma in task.input_complex:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, 2).facets:
                assert decision.output_simplex(facet) in allowed


class TestAugmentedSolvability:
    def test_two_proc_consensus_with_tas_one_round(self, iis_tas):
        # Fig. 4: binary consensus for 2 processes, one round with test&set.
        assert is_solvable(binary_consensus_task([1, 2]), iis_tas, 1)

    def test_multivalued_two_proc_with_tas(self, iis_tas):
        task = multivalued_consensus_task([1, 2], ["x", "y", "z"])
        assert is_solvable(task, iis_tas, 1)

    def test_two_proc_consensus_without_tas_unsolvable(self, iis):
        assert not is_solvable(binary_consensus_task([1, 2]), iis, 1)
        assert not is_solvable(binary_consensus_task([1, 2]), iis, 2)


class TestProblemCompilation:
    def test_empty_domain_means_unsolvable(self, iis):
        task = binary_consensus_task([1, 2])
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(task.input_complex),
            task.delta,
            lambda sigma: operator.of_simplex(sigma, 1),
            rounds=1,
        )
        # Candidate domains are non-empty (the search fails later).
        assert all(problem.candidates.values())
        assert problem.solve() is None

    def test_candidates_are_color_preserving(self, iis):
        task = binary_consensus_task([1, 2])
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(task.input_complex),
            task.delta,
            lambda sigma: operator.of_simplex(sigma, 1),
        )
        for vertex, domain in problem.candidates.items():
            assert all(image.color == vertex.color for image in domain)


class TestProblemConstruction:
    """Regressions for the dataclass field layout and search-state reset."""

    def _compiled(self, iis, rounds=1):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        return build_solvability_problem(
            list(task.input_complex),
            task.delta,
            lambda sigma: operator.of_simplex(sigma, rounds),
            rounds=rounds,
        )

    def test_positional_construction_binds_rounds(self, iis):
        # ``last_search_nodes`` once leaked into the dataclass __init__ as a
        # fourth positional parameter, silently swallowing arguments meant
        # for nothing.  Positional construction must bind exactly
        # (candidates, constraints, rounds).
        from repro.core.solvability import SolvabilityProblem

        compiled = self._compiled(iis)
        problem = SolvabilityProblem(
            compiled.candidates, compiled.constraints, 3
        )
        assert problem.rounds == 3
        assert problem.last_search_nodes == 0

    def test_no_fourth_positional_parameter(self, iis):
        from repro.core.solvability import SolvabilityProblem

        compiled = self._compiled(iis)
        with pytest.raises(TypeError):
            SolvabilityProblem(
                compiled.candidates, compiled.constraints, 3, 99
            )

    def test_last_search_nodes_not_settable_at_init(self, iis):
        from repro.core.solvability import SolvabilityProblem

        compiled = self._compiled(iis)
        with pytest.raises(TypeError):
            SolvabilityProblem(
                compiled.candidates,
                compiled.constraints,
                rounds=1,
                last_search_nodes=5,
            )


class TestBudgetRecovery:
    """A budget failure must not poison later solves (satellite b)."""

    def _hard_but_solvable(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        return build_solvability_problem(
            list(task.input_complex),
            task.delta,
            lambda sigma: operator.of_simplex(sigma, 1),
            rounds=1,
        )

    def test_resolve_after_budget_failure(self, iis):
        problem = self._hard_but_solvable(iis)
        # Starve the raw search so SolvabilityError fires mid-backtrack.
        with pytest.raises(SolvabilityError):
            problem.solve(
                use_propagation=False, use_components=False, node_limit=1
            )
        # The interrupted search must have unwound its partial assignment;
        # a fresh solve on the same instance still finds the map.
        decision = problem.solve()
        assert decision is not None
        for facet, allowed in problem.constraints:
            assert decision.output_simplex(facet) in allowed

    def test_budget_failure_repeatable(self, iis):
        problem = self._hard_but_solvable(iis)
        for _ in range(2):
            with pytest.raises(SolvabilityError):
                problem.solve(
                    use_propagation=False,
                    use_components=False,
                    node_limit=1,
                )
        assert problem.solve() is not None


class TestDeepSearch:
    """The backtracking search is iterative, so depth is not capped."""

    def test_chain_deeper_than_the_recursion_limit(self):
        import sys

        from repro.core.solvability import SolvabilityProblem
        from repro.topology import Simplex, Vertex

        length = sys.getrecursionlimit() + 500
        chain = [Vertex(1 + i % 2, i) for i in range(length)]
        outputs = {
            (color, value): Vertex(color, value)
            for color in (1, 2)
            for value in ("a", "b")
        }
        # Neighbours must agree: a consistent labelling exists, and
        # with both values in every domain the search descends through
        # the whole chain as one component.
        allowed = frozenset(
            face
            for value in ("a", "b")
            for face in Simplex(
                [outputs[1, value], outputs[2, value]]
            ).faces()
        )
        candidates = {
            vertex: (outputs[vertex.color, "a"], outputs[vertex.color, "b"])
            for vertex in chain
        }
        constraints = [
            (Simplex([chain[i], chain[i + 1]]), allowed)
            for i in range(length - 1)
        ]
        problem = SolvabilityProblem(candidates, constraints)
        decision = problem.solve()
        assert decision is not None
        assert problem.last_search_nodes == length
        assert {image.value for image in decision.assignment.values()} == {
            "a"
        }

    def test_node_counts_match_the_recursive_search(self, iis):
        # Pinned from the recursive implementation: the explicit-stack
        # loop visits the same nodes in the same order.
        task = approximate_agreement_task([1, 2, 3], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(task.input_complex),
            task.delta,
            lambda sigma: operator.of_simplex(sigma, 1),
            rounds=1,
        )
        assert problem.solve() is not None
        assert problem.last_search_nodes == 90
        assert (
            problem.solve(use_propagation=False, use_components=False)
            is not None
        )
        assert problem.last_search_nodes == 141

    def test_quarter_aa_three_processes_two_rounds_is_solvable(self, iis):
        # Corollary 3's tight bound for n = 3: ⌈log₂ 4⌉ = 2 rounds.  One
        # constraint component has over a thousand free vertices, which
        # overflowed the stack of a recursive search.
        task = approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        assert is_solvable(task, iis, 2)


class TestPinnedSolve:
    """``solve(pins=...)`` on one compiled problem, against fresh problems."""

    def _problem(self, iis):
        task = approximate_agreement_task([1, 2, 3], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        return build_solvability_problem(
            list(task.input_complex),
            task.delta,
            lambda sigma: operator.of_simplex(sigma, 1),
            rounds=1,
        )

    @staticmethod
    def _fresh(problem, pins):
        """The same instance with every pinned domain cut to its pin."""
        from repro.core.solvability import SolvabilityProblem

        candidates = dict(problem.candidates)
        for vertex, value in pins.items():
            candidates[vertex] = tuple(
                option for option in candidates[vertex] if option == value
            )
        return SolvabilityProblem(
            candidates, problem.constraints, problem.rounds
        )

    def _pin_sets(self, problem):
        # Every value of the three least-constrained free vertices, alone
        # and with a second pin on the next vertex: members, refutations
        # and values that arc consistency removes before any pin.
        free = sorted(
            (v for v, domain in problem.candidates.items() if len(domain) > 1),
            key=lambda v: (-len(problem.candidates[v]), v._sort_key()),
        )[:3]
        sets = []
        for first, second in zip(free, free[1:] + free[:1]):
            for value in problem.candidates[first]:
                sets.append({first: value})
                for other in problem.candidates[second]:
                    sets.append({first: value, second: other})
        return sets

    def test_pinned_solve_matches_a_fresh_problem(self, iis):
        problem = self._problem(iis)
        verdicts = set()
        for pins in self._pin_sets(problem):
            fresh = self._fresh(problem, pins)
            expected = fresh.solve()
            found = problem.solve(pins=pins)
            assert (found is None) == (expected is None), pins
            if found is not None:
                assert found.assignment == expected.assignment
                for vertex, value in pins.items():
                    assert found(vertex) == value
            assert problem.last_search_nodes == fresh.last_search_nodes
            verdicts.add(found is None)
        assert verdicts == {True, False}

    def test_pinned_solves_leak_no_state(self, iis):
        problem = self._problem(iis)
        pin_sets = self._pin_sets(problem)
        first = []
        for pins in pin_sets:
            first.append((problem.solve(pins=pins), problem.last_search_nodes))
        assert problem.solve() is not None
        assert problem.last_search_nodes == 90
        # Replayed in reverse order, after an unpinned solve: every answer
        # and node count is the first pass's, so no domain, image or
        # counter survived from one solve into the next.
        for pins, (before, nodes) in reversed(list(zip(pin_sets, first))):
            again = problem.solve(pins=pins)
            assert (again is None) == (before is None)
            if again is not None:
                assert again.assignment == before.assignment
            assert problem.last_search_nodes == nodes
        assert problem.solve() is not None
        assert problem.last_search_nodes == 90
        # A pinned refutation by propagation alone resets the counter.
        refuted = [
            pins
            for pins, (found, nodes) in zip(pin_sets, first)
            if found is None and nodes == 0
        ]
        assert refuted
        problem.solve(pins=refuted[0])
        assert problem.last_search_nodes == 0

    def test_pin_outside_the_domain_refutes(self, iis):
        problem = self._problem(iis)
        vertex = next(v for v, d in problem.candidates.items() if len(d) > 1)
        # A protocol vertex is never an output value.
        assert problem.solve(pins={vertex: vertex}) is None
        assert problem.last_search_nodes == 0
        assert problem.solve() is not None

    def test_pin_on_an_unknown_vertex_is_an_error(self, iis):
        from repro.topology import Vertex

        problem = self._problem(iis)
        with pytest.raises(SolvabilityError):
            problem.solve(pins={Vertex(9, "nowhere"): Vertex(9, 0)})
