"""Protocol complexes ``P^(t)`` and their carriers.

The one-round operator ``Ξ`` of a model sends a simplex to its one-round
complex and a complex to the union over its simplices (Section 2.2).
:class:`ProtocolOperator` memoizes the iteration and tracks, for every
protocol simplex, the *input simplices it can arise from* — the carrier
information needed to state solvability ("for every σ,
``f(P^(t)(σ)) ⊆ Δ(σ)``").

The whole-complex entry points (:meth:`~ProtocolOperator.of_complex`,
:meth:`~ProtocolOperator.carriers`) and
:func:`~repro.core.solvability.find_decision_map` accept a ``workers``
count.  One method, :meth:`~ProtocolOperator.materialize`, decides
whether to fan the independent per-input-simplex complexes ``P^(t)(σ)``
out through :mod:`repro.parallel`; their results are folded back into
the memo, so the complexes — and every later cache hit — are the serial
ones.  :meth:`~ProtocolOperator.of_simplex` itself is always serial.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.models.base import ComputationModel
from repro.telemetry import default_registry, span
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.table import VertexTable

__all__ = ["ProtocolOperator"]

#: Shared across operator instances on purpose: a sweep that constructs many
#: short-lived operators still aggregates into one hit/miss line.
_OF_SIMPLEX_STATS = default_registry().cache("protocol-operator.of-simplex")

#: Below this many input simplices :meth:`ProtocolOperator.materialize`
#: stays serial even when a pool is available — fork/pickle overhead
#: would dominate the work.
_MIN_PARALLEL_SIMPLICES = 8


class ProtocolOperator:
    """Memoized iteration of a model's one-round operator ``Ξ``.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.ComputationModel`.
    """

    def __init__(self, model: ComputationModel) -> None:
        self._model = model
        # Memo keys are ``(table_id, mask, rounds)`` int triples over a
        # per-operator growable table — the hot of_simplex probe never
        # hashes a Simplex object (see ``repro.topology.table``).
        self._memo_table = VertexTable()
        self._simplex_cache: dict[
            tuple[int, int, int], SimplicialComplex
        ] = {}

    def _memo_key(self, sigma: Simplex, rounds: int) -> tuple[int, int, int]:
        return self._memo_table.interning_key(sigma) + (rounds,)

    @property
    def model(self) -> ComputationModel:
        """The underlying computation model."""
        return self._model

    def of_simplex(self, sigma: Simplex, rounds: int) -> SimplicialComplex:
        """``P^(t)(σ)`` — executions where exactly ``ID(σ)`` participate.

        For ``rounds == 0`` this is the complex of ``σ`` itself (``Ξ_0`` is
        the identity, Claim 1's setting).
        """
        key = self._memo_key(sigma, rounds)
        found = self._simplex_cache.get(key)
        if found is None:
            _OF_SIMPLEX_STATS.miss()
            if rounds == 0:
                found = SimplicialComplex.from_simplex(sigma)
            else:
                # Span only on a miss; the recursion below nests one span
                # per expanded round under this one.
                with span(
                    "protocol/of-simplex",
                    model=self._model.name,
                    rounds=rounds,
                ):
                    previous = self.of_simplex(sigma, rounds - 1)
                    found = self._one_round_of_complex(previous)
            self._simplex_cache[key] = found
        else:
            _OF_SIMPLEX_STATS.hit()
        return found

    def cached_of_simplex(
        self, sigma: Simplex, rounds: int
    ) -> Optional[SimplicialComplex]:
        """The memoized ``P^(rounds)(σ)``, or ``None`` if not yet built.

        A pure cache probe (no materialization, no tally updates, no
        memo-table growth), used by the parallel engine to ship only
        missing work to the pool.
        """
        key = self._memo_table.key(sigma)
        if key is None:
            # A vertex the table has not seen cannot be in any key.
            return None
        return self._simplex_cache.get(key + (rounds,))

    def seed_of_simplex(
        self,
        sigma: Simplex,
        rounds: int,
        complex_: SimplicialComplex,
    ) -> None:
        """Install a known ``P^(rounds)(σ)`` in the memo.

        The seeded complex must equal what :meth:`of_simplex` would
        compute — audit rule AUD012 cross-checks the pool fan-out
        against serial expansion on sampled simplices.
        """
        self._simplex_cache[self._memo_key(sigma, rounds)] = complex_

    def materialize(
        self,
        sigmas: Sequence[Simplex],
        rounds: int,
        workers: Optional[int] = None,
    ) -> None:
        """Build ``P^(rounds)(σ)`` for every ``σ`` on the pool when it pays.

        The one place that decides whether to fan out: with more than one
        (resolved) worker, at least one round and at least
        :data:`_MIN_PARALLEL_SIMPLICES` input simplices, the per-``σ``
        operator recursions run on the pool and are seeded into the memo,
        so the :meth:`of_simplex` calls that follow are cache hits.
        Otherwise it does nothing and those calls expand serially.
        Either way they return the same complexes.
        """
        # Imported lazily: repro.parallel imports this module at load time.
        from repro.parallel.pool import resolve_workers

        resolved = resolve_workers(workers)
        if (
            resolved > 1
            and rounds > 0
            and len(sigmas) >= _MIN_PARALLEL_SIMPLICES
        ):
            from repro.parallel.expansion import (
                materialize_protocol_complexes,
            )

            materialize_protocol_complexes(self, sigmas, rounds, resolved)

    def of_complex(
        self,
        base: SimplicialComplex,
        rounds: int,
        workers: Optional[int] = None,
    ) -> SimplicialComplex:
        """``P^(t)`` of a whole input complex: union over its simplices."""
        self.materialize(list(base), rounds, workers)
        merged: list[Simplex] = []
        for simplex in base:
            merged.extend(self.of_simplex(simplex, rounds).facets)
        return SimplicialComplex(merged)

    def _one_round_of_complex(
        self, base: SimplicialComplex
    ) -> SimplicialComplex:
        pieces: list[Simplex] = []
        for simplex in base:
            pieces.extend(self._model.one_round_complex(simplex).facets)
        return SimplicialComplex(pieces)

    def carriers(
        self,
        input_complex: SimplicialComplex,
        rounds: int,
        workers: Optional[int] = None,
    ) -> dict[Simplex, list[Simplex]]:
        """Map each input simplex ``σ`` to the facets of ``P^(t)(σ)``.

        The solvability engine uses this to impose ``f(ρ) ∈ Δ(σ)`` for every
        protocol facet ``ρ`` of every input simplex ``σ``.  ``workers`` is
        passed to :meth:`materialize`.
        """
        self.materialize(list(input_complex), rounds, workers)
        table: dict[Simplex, list[Simplex]] = {}
        for sigma in input_complex:
            protocol = self.of_simplex(sigma, rounds)
            table[sigma] = protocol.sorted_facets()
        return table
