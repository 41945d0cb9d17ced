"""The closure of a task with respect to a model (Definition 2).

``CL_M(Π) = (I, O', Δ')`` keeps the inputs of ``Π`` and declares an output
set ``τ ⊆ V(Δ(σ))`` (chromatic, ``ID(τ) = ID(σ)``) legal for ``σ`` iff the
local task ``Π_{τ,σ}`` is solvable in at most one round in ``M``.  Since a
0-round algorithm is subsumed by a 1-round algorithm that ignores what it
collected, membership reduces to 1-round solvability, decided exactly by the
engine of :mod:`repro.core.solvability`.

Three practical notes:

* membership only depends on the pair ``(Δ(σ), τ)``, so results are memoized
  on that pair — sweeps over many input simplices with the same output
  window (ubiquitous in approximate agreement) share almost all the work;
* for an :class:`~repro.models.base.IteratedModel` the candidates ``τ`` of
  one ``σ`` share a single compiled problem.  Every face of ``τ`` with two
  or more colors gets ``proj(Δ(σ))`` whatever ``τ`` is, and ``P^(1)(τ)`` is
  one complex up to the value relabeling χ of Eq. (1), since the view maps
  depend on ``ID(τ)`` only.  So the local task is compiled once, over a
  placeholder ``τ*`` with values ``x_i``, and each ``τ`` is decided by a
  solve that pins the solo views to ``τ``'s values (condition 1 of
  Definition 1).  Augmented models keep one local task per ``τ``: their
  box input may read values, so ``P^(1)(τ)`` need not be a relabeling;
* for augmented models whose box takes inputs, the one-round algorithm is a
  pair ``(α, f)``.  When the model carries a fixed input function (the
  ``β``-restricted closure ``CL_M(Π|β)`` of Theorem 4) it is used as is;
  alternatively the computer can quantify over *all* ID-to-bit functions
  (``quantify_beta=True``), which yields the unrestricted closure for boxes
  called with ID-based inputs.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional

from repro.core.local_task import local_task
from repro.core.solvability import (
    SolvabilityProblem,
    build_solvability_problem,
)
from repro.errors import SolvabilityError
from repro.models.base import ComputationModel, IteratedModel
from repro.models.protocol import ProtocolOperator
from repro.objects.augmented import AugmentedModel
from repro.objects.beta import beta_input_function
from repro.tasks.task import Task
from repro.telemetry import default_registry, span
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

__all__ = ["ClosureComputer", "closure_task"]

_MEMBERSHIP_STATS = default_registry().cache("closure.membership")


class ClosureComputer:
    """Computes ``Δ'`` of ``CL_M(Π)`` membership-by-membership.

    Parameters
    ----------
    task:
        The task ``Π`` being closed.
    model:
        The computation model ``M``.  For :class:`AugmentedModel` instances
        with an input-taking box, the model's own input function defines the
        admissible one-round algorithms (the ``β``-closure); set
        ``quantify_beta`` to instead search over every ID-to-{0,1} input
        function.
    quantify_beta:
        Existentially quantify over β functions when deciding local-task
        solvability.  Only meaningful for augmented models.
    """

    def __init__(
        self,
        task: Task,
        model: ComputationModel,
        quantify_beta: bool = False,
    ) -> None:
        self._task = task
        self._model = model
        self._quantify_beta = quantify_beta
        if quantify_beta and not isinstance(model, AugmentedModel):
            raise SolvabilityError(
                "quantify_beta requires an augmented model"
            )
        #: Membership keyed by ``(Δ(σ), Δ(σ).candidate_key(τ))``.  Equal
        #: allowed complexes share candidate keys, so the key is
        #: canonical; the complex itself stays in the key because two
        #: *different* complexes over the same vertex set share them too.
        self._membership_cache: dict[
            tuple[SimplicialComplex, int], bool
        ] = {}
        self._delta_cache: dict[Simplex, SimplicialComplex] = {}
        # One memoized operator shared by every (σ, τ, β) decision — the
        # model's own one-round cache makes a fresh operator cheap, but
        # reusing a single instance also shares the iterated ``P^(t)``
        # complexes across decisions.
        self._operator = ProtocolOperator(model)
        self._beta_cache: dict[
            tuple[tuple[int, ...], tuple[int, ...]],
            tuple[ComputationModel, ProtocolOperator],
        ] = {}
        #: One compiled local task per ``(Δ(σ), ID(σ))`` (iterated models
        #: only), with the solo views of ``τ*`` to pin, by color.
        self._templates: dict[
            tuple[SimplicialComplex, frozenset[int]],
            tuple[SolvabilityProblem, list[tuple[int, Vertex]]],
        ] = {}

    @property
    def task(self) -> Task:
        """The task being closed."""
        return self._task

    @property
    def model(self) -> ComputationModel:
        """The model the closure is taken with respect to."""
        return self._model

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def contains(self, sigma: Simplex, tau: Simplex) -> bool:
        """``τ ∈ Δ'(σ)``: is the local task ``Π_{τ,σ}`` 1-round solvable?

        Definition 2 additionally requires ``ID(τ) = ID(σ)`` and
        ``τ ⊆ V(Δ(σ))``; candidates violating either are simply not in the
        closure.
        """
        if tau.ids != sigma.ids:
            return False
        allowed = self._task.delta(sigma)
        # The candidate key doubles as the τ ⊆ V(Δ(σ)) test.
        key = allowed.candidate_key(tau)
        if key is None:
            return False
        return self._contains_key(sigma, allowed, key, tau)

    def _contains_key(
        self,
        sigma: Simplex,
        allowed: SimplicialComplex,
        key: int,
        tau: Optional[Simplex] = None,
    ) -> bool:
        """Memoized membership for a τ given by its key over Δ(σ).

        ``τ`` itself is only materialized on a cache miss (the local-task
        decision needs the simplex); key-level sweeps like
        :meth:`legal_outputs` pass the key alone.
        """
        cache_key = (allowed, key)
        found = self._membership_cache.get(cache_key)
        if found is None:
            _MEMBERSHIP_STATS.miss()
            if tau is None:
                tau = allowed.candidate(key)
            found = self._membership_cache[cache_key] = self._decide(
                sigma, tau, allowed
            )
        else:
            _MEMBERSHIP_STATS.hit()
        return found

    def _decide(
        self, sigma: Simplex, tau: Simplex, allowed: SimplicialComplex
    ) -> bool:
        # Fast path: τ ∈ Δ(σ) is 0-round solvable (each process keeps its
        # value), hence in the closure — the containment Δ ⊆ Δ' of the
        # paper's remark after Definition 2.
        if tau in allowed:
            return True
        with span(
            "closure/decide",
            task=self._task.name,
            model=self._model.name,
            participants=len(tau.ids),
        ) as decision_span:
            if isinstance(self._model, IteratedModel):
                problem, solo = self._template(sigma, allowed)
                value_of = {vertex.color: vertex for vertex in tau.vertices}
                member = (
                    problem.solve(
                        pins={view: value_of[color] for color, view in solo}
                    )
                    is not None
                )
            else:
                member = self._decide_local(sigma, tau)
            decision_span.set_attribute("member", member)
            return member

    def _decide_local(self, sigma: Simplex, tau: Simplex) -> bool:
        """Build and solve ``Π_{τ,σ}`` itself, once per admissible model."""
        the_local_task = local_task(self._task, sigma, tau)
        for _, operator in self._candidate_operators(tau):
            problem = build_solvability_problem(
                list(the_local_task.input_complex),
                the_local_task.delta,
                lambda face: operator.of_simplex(face, 1),
                rounds=1,
            )
            if problem.solve() is not None:
                return True
        return False

    def _template(
        self, sigma: Simplex, allowed: SimplicialComplex
    ) -> tuple[SolvabilityProblem, list[tuple[int, Vertex]]]:
        """The local task of ``σ`` over ``τ* = {(i, x_i)}``, compiled once.

        Only faces with two or more colors constrain it; the solo faces'
        condition 1 is left to the pins, which send every vertex of
        ``P^(1)`` of a solo face ``{(i, x_i)}`` to ``τ``'s color-``i``
        vertex.  A solo vertex that no larger face reaches is
        unconstrained, so its pin always holds and is dropped.
        """
        key = (allowed, sigma.ids)
        found = self._templates.get(key)
        if found is None:
            star = Simplex((i, f"x{i}") for i in sorted(sigma.ids))
            families = {
                face: allowed.proj(face.ids)
                for face in star.faces()
                if len(face) >= 2
            }
            with span(
                "closure/compile",
                task=self._task.name,
                model=self._model.name,
                participants=len(star),
            ):
                problem = build_solvability_problem(
                    list(families),
                    families.__getitem__,
                    lambda face: self._operator.of_simplex(face, 1),
                    rounds=1,
                )
            solo = [
                (vertex.color, view)
                for vertex in star.vertices
                for view in self._operator.of_simplex(
                    Simplex([vertex]), 1
                ).vertices
                if view in problem.candidates
            ]
            found = self._templates[key] = (problem, solo)
        return found

    def _candidate_operators(
        self, tau: Simplex
    ) -> Iterable[tuple[ComputationModel, ProtocolOperator]]:
        if not self._quantify_beta:
            yield self._model, self._operator
            return
        assert isinstance(self._model, AugmentedModel)
        ids = tuple(sorted(tau.ids))
        for bits in product((0, 1), repeat=len(ids)):
            key = (ids, bits)
            entry = self._beta_cache.get(key)
            if entry is None:
                beta = dict(zip(ids, bits))
                model = AugmentedModel(
                    self._model.box,
                    beta_input_function(beta),
                    name=f"{self._model.name}|β={bits}",
                )
                entry = self._beta_cache[key] = (
                    model,
                    ProtocolOperator(model),
                )
            yield entry

    # ------------------------------------------------------------------
    # The closure's specification
    # ------------------------------------------------------------------
    def legal_outputs(self, sigma: Simplex) -> list[Simplex]:
        """All chromatic sets ``τ ∈ Δ'(σ)`` with ``ID(τ) = ID(σ)``, sorted."""
        with span(
            "closure/legal-outputs",
            task=self._task.name,
            model=self._model.name,
        ):
            allowed = self._task.delta(sigma)
            # Candidates stay keys; a Simplex is built only for
            # cache-missing members (inside _contains_key) and for the
            # returned results.
            found = [
                key
                for key in allowed.chromatic_candidates(sigma.ids)
                if self._contains_key(sigma, allowed, key)
            ]
            return sorted(
                (allowed.candidate(key) for key in found),
                key=lambda s: s._sort_key(),
            )

    def delta_prime(self, sigma: Simplex) -> SimplicialComplex:
        """``Δ'(σ)`` as a complex (the legal ``τ`` sets and their faces)."""
        if sigma not in self._delta_cache:
            self._delta_cache[sigma] = SimplicialComplex(
                self.legal_outputs(sigma)
            )
        return self._delta_cache[sigma]

    def as_task(
        self,
        name: Optional[str] = None,
        input_simplices: Optional[Iterable[Simplex]] = None,
    ) -> Task:
        """Materialize ``CL_M(Π)`` as a :class:`Task`.

        The output complex ``O'`` is the union of ``Δ'`` over the given
        input simplices (default: the whole input complex), per
        Definition 2 ("the simplices of O' are the images of Δ' and all
        their faces").
        """
        pool = (
            list(input_simplices)
            if input_simplices is not None
            else list(self._task.input_complex)
        )
        with span(
            "closure/as-task",
            task=self._task.name,
            model=self._model.name,
            inputs=len(pool),
        ):
            output_facets = []
            for sigma in pool:
                output_facets.extend(self.delta_prime(sigma).facets)
            output_complex = SimplicialComplex(output_facets)
        label = name or f"CL_{self._model.name}({self._task.name})"
        return Task(
            label,
            self._task.input_complex,
            output_complex,
            self.delta_prime,
        )


def closure_task(
    task: Task,
    model: ComputationModel,
    name: Optional[str] = None,
    quantify_beta: bool = False,
) -> Task:
    """One-call convenience wrapper: materialize ``CL_M(Π)``."""
    computer = ClosureComputer(task, model, quantify_beta=quantify_beta)
    return computer.as_task(name=name)
