"""Protocol complexes ``P^(t)`` and their carriers.

The one-round operator ``Ξ`` of a model sends a simplex to its one-round
complex and a complex to the union over its simplices (Section 2.2).
:class:`ProtocolOperator` memoizes the iteration and tracks, for every
protocol simplex, the *input simplices it can arise from* — the carrier
information needed to state solvability ("for every σ,
``f(P^(t)(σ)) ⊆ Δ(σ)``").

Every expansion entry point accepts an optional ``workers`` count; with
more than one (resolved) worker the per-simplex ``Ξ`` calls are fanned
out through :mod:`repro.parallel` and folded back through the memo
caches, so the produced complexes — and all subsequent cache hits — are
identical to the serial ones.
"""

from __future__ import annotations

from typing import Optional

from repro.models.base import ComputationModel
from repro.telemetry import default_registry, span
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.table import VertexTable

__all__ = ["ProtocolOperator"]

#: Shared across operator instances on purpose: a sweep that constructs many
#: short-lived operators still aggregates into one hit/miss line.
_OF_SIMPLEX_STATS = default_registry().cache("protocol-operator.of-simplex")

#: Below this many simplices a round is expanded serially even when a
#: pool is available — fork/pickle overhead would dominate the work.
_MIN_PARALLEL_SIMPLICES = 8


def _resolve_workers(workers: Optional[int]) -> int:
    # Imported lazily: repro.parallel imports this module at load time.
    from repro.parallel.pool import resolve_workers

    return resolve_workers(workers)


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

    def of_simplex(
        self,
        sigma: Simplex,
        rounds: int,
        workers: Optional[int] = None,
    ) -> SimplicialComplex:
        """``P^(t)(σ)`` — executions where exactly ``ID(σ)`` participate.

        For ``rounds == 0`` this is the complex of ``σ`` itself (``Ξ_0`` is
        the identity, Claim 1's setting).  ``workers`` parallelizes the
        per-round fan-out (see :meth:`_one_round_of_complex`); the result
        and the memo contents do not depend on it.
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
                    previous = self.of_simplex(sigma, rounds - 1, workers)
                    found = self._one_round_of_complex(previous, workers)
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
        compute — audit rule AUD012 cross-checks parallel merges
        against serial expansion on sampled simplices.
        """
        self._simplex_cache[self._memo_key(sigma, rounds)] = complex_

    def of_complex(
        self,
        base: SimplicialComplex,
        rounds: int,
        workers: Optional[int] = None,
    ) -> SimplicialComplex:
        """``P^(t)`` of a whole input complex: union over its simplices."""
        resolved = _resolve_workers(workers)
        if resolved > 1 and len(base) >= _MIN_PARALLEL_SIMPLICES:
            from repro.parallel.expansion import parallel_of_complex

            return parallel_of_complex(self, base, rounds, resolved)
        merged: list[Simplex] = []
        # A base too small to fan out still threads the worker count into
        # the per-simplex expansions, whose intermediate complexes grow
        # past the parallel threshold after one round.
        for simplex in base:
            merged.extend(
                self.of_simplex(simplex, rounds, workers=resolved).facets
            )
        return SimplicialComplex(merged)

    def _one_round_of_complex(
        self,
        base: SimplicialComplex,
        workers: Optional[int] = None,
    ) -> SimplicialComplex:
        resolved = _resolve_workers(workers)
        if resolved > 1 and len(base) >= _MIN_PARALLEL_SIMPLICES:
            from repro.parallel.expansion import expand_one_round

            return expand_one_round(self._model, base, resolved)
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
        protocol facet ``ρ`` of every input simplex ``σ``.  With several
        workers the per-``σ`` expansions run concurrently (one operator
        recursion per worker chunk) before the table is assembled from
        the seeded memo.
        """
        resolved = _resolve_workers(workers)
        if resolved > 1 and len(input_complex) >= _MIN_PARALLEL_SIMPLICES:
            from repro.parallel.expansion import (
                materialize_protocol_complexes,
            )

            materialize_protocol_complexes(
                self, list(input_complex), rounds, resolved
            )
        table: dict[Simplex, list[Simplex]] = {}
        for sigma in input_complex:
            protocol = self.of_simplex(sigma, rounds)
            table[sigma] = protocol.sorted_facets()
        return table
