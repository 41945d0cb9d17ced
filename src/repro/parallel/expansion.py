"""Parallel protocol expansion: fan ``P^(t)(σ)`` out per input simplex.

The paper builds ``P^(t)`` as a union of independent per-input-simplex
complexes ``P^(t)(σ)`` (Section 2.2).  :func:`materialize_protocol_complexes`
ships those ``σ`` to the pool as wire-encoded chunks; each worker runs the
ordinary serial operator recursion, and the parent decodes the results
and *seeds its operator's memo* with them, so the serial code that
follows sees pure cache hits and produces exactly the serial complexes.
:meth:`~repro.models.protocol.ProtocolOperator.materialize` decides when
this fan-out runs.

Workers receive a *cold* copy of the model (memo layers detached) so
payload pickles stay a few hundred bytes regardless of how much the
parent has already expanded.
"""

from __future__ import annotations

from copy import copy
from typing import Iterable

from repro.models.base import ComputationModel
from repro.models.protocol import ProtocolOperator
from repro.parallel.pool import chunked
from repro.parallel.supervisor import supervised_map
from repro.telemetry import span
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.wire import (
    WireComplex,
    WireSimplex,
    decode_complex,
    decode_simplex,
    encode_complex,
    encode_simplex,
)

__all__ = ["cold_model", "materialize_protocol_complexes"]

#: Memo attributes detached from models before pickling (they are
#: rebuilt lazily in the worker; see ``repro.models.base``).
_MEMO_ATTRS = (
    "_one_round_cache",
    "_memo_table",
    "_one_round_stats",
    "_view_map_cache",
    "_view_map_stats",
)

#: Chunks handed out per worker — small enough to load-balance uneven
#: expansions, large enough to amortize pickling.
_CHUNKS_PER_WORKER = 4


def _sigma_key(sigma: Simplex) -> tuple:
    return sigma._sort_key()


def cold_model(model: ComputationModel) -> ComputationModel:
    """A shallow copy of ``model`` with its memo layers detached.

    The copy shares the model's defining parameters but none of the
    cached complexes, so it pickles small; workers rebuild their own
    caches lazily.
    """
    clone = copy(model)
    for name in _MEMO_ATTRS:
        clone.__dict__.pop(name, None)
    return clone


ProtocolPayload = tuple[ComputationModel, tuple[WireSimplex, ...], int]


def _protocol_chunk(payload: ProtocolPayload) -> tuple[WireComplex, ...]:
    model, wires, rounds = payload
    operator = ProtocolOperator(model)
    return tuple(
        encode_complex(operator.of_simplex(decode_simplex(wire), rounds))
        for wire in wires
    )


def materialize_protocol_complexes(
    operator: ProtocolOperator,
    sigmas: Iterable[Simplex],
    rounds: int,
    workers: int,
) -> dict[Simplex, SimplicialComplex]:
    """Compute ``P^(rounds)(σ)`` for many ``σ`` concurrently.

    Each worker runs the full (serial) operator recursion for its chunk
    of input simplices; results are folded into ``operator``'s memo, so
    follow-up calls — the solvability constraint builder, audits — are
    cache hits.  Returns the complete ``σ → P^(rounds)(σ)`` table.
    """
    ordered = sorted(set(sigmas), key=_sigma_key)
    missing = [
        sigma
        for sigma in ordered
        if operator.cached_of_simplex(sigma, rounds) is None
    ]
    with span(
        "parallel/materialize-protocol",
        model=operator.model.name,
        rounds=rounds,
        simplices=len(ordered),
        missing=len(missing),
        workers=workers,
    ):
        if missing:
            clone = cold_model(operator.model)
            chunks = chunked(
                [encode_simplex(sigma) for sigma in missing],
                workers * _CHUNKS_PER_WORKER,
            )
            # Supervised: a worker lost mid-expansion is retried (and
            # the pool rebuilt); a chunk that still fails raises
            # QuarantineError rather than silently leaving a σ unbuilt.
            outcome = supervised_map(
                _protocol_chunk,
                [(clone, chunk, rounds) for chunk in chunks],
                workers=workers,
                label="protocol-of-simplex",
            )
            position = 0
            for encoded in outcome.results:
                assert encoded is not None  # no early stop requested
                for wire in encoded:
                    operator.seed_of_simplex(
                        missing[position], rounds, decode_complex(wire)
                    )
                    position += 1
        return {
            sigma: operator.of_simplex(sigma, rounds) for sigma in ordered
        }

