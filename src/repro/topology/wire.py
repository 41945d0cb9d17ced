"""Compact wire codec for simplices and complexes.

Cross-process transfer is the price of the parallel execution engine
(:mod:`repro.parallel`): every fan-out ships simplices to a worker and a
protocol complex back.  Pickling the object graph directly repeats every
shared :class:`~repro.topology.vertex.Vertex` (and its nested
:class:`~repro.topology.views.View` payload) once per facet that contains
it — at ``13^t`` facets the redundancy dominates the payload.  The codec
instead interns the distinct ``(color, value)`` pairs once in a
:class:`~repro.topology.table.VertexTable` and encodes each simplex as an
integer *bitmask* over the table, so a complex crosses the process
boundary as one pair table plus one ``int`` per facet.

Since the bitmask-native core, this representation is also the complex's
*in-memory* index: :func:`encode_complex` just re-reads the canonical
``(table, masks)`` pair the complex already maintains (a near-no-op),
and the trusted :func:`decode_complex` path hands the masks straight
back to a lazily-materializing complex without rebuilding one vertex
object.

The encoding is canonical: the table lists vertices in their
deterministic sort order and facet masks are emitted sorted, so equal
complexes encode to equal :class:`WireComplex` records.  That makes the
wire form double as a compact, hashable *key* for the memoization layer
(the parallel engine dedups in-flight expansion work by
:class:`WireSimplex`), on top of being the pickle payload.

The parallel solver ships constraint components through the same
table-plus-masks idea (:func:`encode_component`/:func:`decode_component`,
answers via :func:`encode_choices`/:func:`decode_choices`), so no module
outside :mod:`repro.topology` ever handles a mask.

``encode``/``decode`` round-trip exactly (property-tested in
``tests/topology/test_wire.py``): the facets of a
:class:`~repro.topology.complex.SimplicialComplex` are inclusion-maximal
by construction, masks preserve exactly that family, and decoding goes
through the trusted mask-level fast path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.table import VertexTable
from repro.topology.vertex import Vertex

__all__ = [
    "VertexTable",
    "WireSimplex",
    "WireComplex",
    "encode_simplex",
    "decode_simplex",
    "encode_complex",
    "decode_complex",
    "ComponentPayload",
    "encode_component",
    "decode_component",
    "encode_choices",
    "decode_choices",
    "canonical_bytes",
    "digest_payload",
    "digest_complex",
]


@dataclass(frozen=True)
class WireSimplex:
    """One simplex in wire form: its own pair table (it is its own mask).

    Hashable and canonical (pairs are stored in vertex sort order), so it
    doubles as a dedup/memo key for in-flight parallel work.
    """

    pairs: tuple[tuple[int, Hashable], ...]


@dataclass(frozen=True)
class WireComplex:
    """A complex in wire form: interned pair table + facet bitmasks.

    ``pairs`` lists the distinct vertices in deterministic sort order;
    ``masks`` holds one bitmask per facet, sorted ascending.  Equal
    complexes produce equal (and equally hashable) records, so a
    ``WireComplex`` is also a valid cache key.
    """

    pairs: tuple[tuple[int, Hashable], ...]
    masks: tuple[int, ...]

    @property
    def facet_count(self) -> int:
        """Number of encoded facets."""
        return len(self.masks)


def encode_simplex(simplex: Simplex) -> WireSimplex:
    """Encode one simplex canonically (pairs in vertex sort order)."""
    return WireSimplex(tuple(v.as_pair() for v in simplex.vertices))


def decode_simplex(wire: WireSimplex) -> Simplex:
    """Rebuild a simplex from its wire form."""
    return Simplex(Vertex(color, value) for color, value in wire.pairs)


def encode_complex(complex_: SimplicialComplex) -> WireComplex:
    """Encode a complex canonically as a pair table plus facet bitmasks.

    The complex's own mask index *is* the canonical representation (the
    table lists the vertices in deterministic sort order and the mask
    tuple is stored sorted), so encoding only re-reads it — the historic
    re-interning pass is gone.  The empty complex encodes to empty
    tuples.
    """
    table, masks = complex_._ensure_index()
    return WireComplex(table.pairs, masks)


def decode_complex(
    wire: WireComplex, check: Optional[bool] = None
) -> SimplicialComplex:
    """Rebuild a complex from its wire form.

    Records produced by :func:`encode_complex` carry the facets of a
    real complex — inclusion-maximal masks over a canonically sorted
    table — so decoding takes the trusted mask-level path: the table is
    interned process-wide and facet ``Simplex`` objects materialize only
    if an API boundary asks for them.  Pass ``check=True`` for foreign
    records (hand-built masks): the decoder then materializes every
    facet and routes through the pruning constructor, which tolerates —
    and prunes — non-maximal families.
    """
    table = VertexTable.interned(wire.pairs)
    if check:
        return SimplicialComplex(
            [table.decode_mask(mask) for mask in wire.masks]
        )
    if not wire.masks:
        return SimplicialComplex.empty()
    # Bounds-check the masks (decode_mask would have); the mask-level
    # constructor then narrows/validates table order itself.
    full = table.full_mask
    for mask in wire.masks:
        if mask <= 0 or mask & ~full:
            return SimplicialComplex(
                [table.decode_mask(mask) for mask in wire.masks]
            )
    return SimplicialComplex._from_masks(table, wire.masks)


# ----------------------------------------------------------------------
# Solver components (the parallel decision-map search)
# ----------------------------------------------------------------------
#: Wire form of one constraint component of a solvability problem: the
#: pair table, per-vertex candidate index tuples, constraint (facet mask,
#: family id) pairs, the deduplicated allowed families as mask tuples,
#: and the round count.
ComponentPayload = tuple[
    tuple[tuple[int, Hashable], ...],
    tuple[tuple[int, tuple[int, ...]], ...],
    tuple[tuple[int, int], ...],
    tuple[tuple[int, ...], ...],
    int,
]


def encode_component(
    candidates: Mapping[Vertex, Sequence[Vertex]],
    constraints: Iterable[tuple[Simplex, frozenset[Simplex]]],
    rounds: int,
) -> ComponentPayload:
    """Encode a self-contained sub-problem over one interned pair table.

    Each distinct allowed family is shipped once and referenced by id.
    """
    table = VertexTable()
    families: list[tuple[int, ...]] = []
    family_ids: dict[frozenset[Simplex], int] = {}
    encoded_constraints: list[tuple[int, int]] = []
    for facet, allowed in constraints:
        family_id = family_ids.get(allowed)
        if family_id is None:
            family_id = family_ids[allowed] = len(families)
            families.append(
                tuple(
                    sorted(
                        table.encode_mask_interning(simplex)
                        for simplex in allowed
                    )
                )
            )
        encoded_constraints.append(
            (table.encode_mask_interning(facet), family_id)
        )
    encoded_candidates = tuple(
        (
            table.add(vertex),
            tuple(table.add(option) for option in options),
        )
        for vertex, options in candidates.items()
    )
    return (
        table.pairs,
        encoded_candidates,
        tuple(encoded_constraints),
        tuple(families),
        rounds,
    )


def decode_component(
    payload: ComponentPayload,
) -> tuple[
    dict[Vertex, tuple[Vertex, ...]],
    list[tuple[Simplex, frozenset[Simplex]]],
    int,
]:
    """Rebuild ``(candidates, constraints, rounds)`` from a payload.

    Candidates come back in the order they were encoded, which is the
    order :func:`encode_choices` and :func:`decode_choices` rely on.
    """
    pairs, encoded_candidates, constraints, families, rounds = payload
    table = VertexTable(pairs)
    candidates = {
        table.vertex_at(index): tuple(
            table.vertex_at(option) for option in options
        )
        for index, options in encoded_candidates
    }
    decoded_families = [
        frozenset(table.decode_mask(mask) for mask in masks)
        for masks in families
    ]
    decoded_constraints = [
        (table.decode_mask(mask), decoded_families[family_id])
        for mask, family_id in constraints
    ]
    return candidates, decoded_constraints, rounds


def encode_choices(
    candidates: Mapping[Vertex, Sequence[Vertex]],
    assignment: Mapping[Vertex, Vertex],
) -> tuple[int, ...]:
    """A solved component as one option position per candidate vertex.

    ``candidates`` is the mapping :func:`decode_component` returned.
    """
    return tuple(
        options.index(assignment[vertex])
        for vertex, options in candidates.items()
    )


def decode_choices(
    payload: ComponentPayload, choices: Sequence[int]
) -> list[tuple[Vertex, Vertex]]:
    """The ``(vertex, image)`` pairs of :func:`encode_choices` output.

    Pairs are listed in the payload table's index order.
    """
    pairs, encoded_candidates = payload[0], payload[1]
    table = VertexTable(pairs)
    chosen = sorted(
        (index, options[choice])
        for (index, options), choice in zip(encoded_candidates, choices)
    )
    return [
        (table.vertex_at(index), table.vertex_at(image))
        for index, image in chosen
    ]


# ----------------------------------------------------------------------
# Canonical digests (content-addressed keys)
# ----------------------------------------------------------------------
def _canonical_chunks(value: object) -> Iterator[bytes]:
    """Yield a type-tagged, self-delimiting byte encoding of ``value``.

    The encoding is injective on the value universe the codec actually
    carries — ``None``, booleans, integers, :class:`~fractions.Fraction`,
    floats, strings, bytes, and (nested) tuples/lists, sets/frozensets,
    and dictionaries.  Every chunk starts with a one-byte type tag and
    carries an explicit length or terminator, so no two distinct values
    can concatenate to the same stream (the classic ``("ab","c")`` vs
    ``("a","bc")`` ambiguity is excluded by the length prefixes).

    Unknown immutable value objects (e.g. :class:`~repro.topology.views.
    View`) fall back to their type name plus ``repr``, which is stable
    and content-determined for the library's value objects.
    """
    # bool before int: Python booleans are integers.
    if value is None:
        yield b"N;"
    elif isinstance(value, bool):
        yield b"B1;" if value else b"B0;"
    elif isinstance(value, int):
        yield b"I%d;" % value
    elif isinstance(value, Fraction):
        yield b"Q%d/%d;" % (value.numerator, value.denominator)
    elif isinstance(value, float):
        raw = repr(value).encode("ascii")
        yield b"F%d:%s;" % (len(raw), raw)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        yield b"S%d:%s;" % (len(raw), raw)
    elif isinstance(value, (bytes, bytearray)):
        yield b"Y%d:%s;" % (len(value), bytes(value))
    elif isinstance(value, (tuple, list)):
        yield b"T%d:" % len(value)
        for item in value:
            yield from _canonical_chunks(item)
        yield b";"
    elif isinstance(value, (set, frozenset)):
        encoded = sorted(
            b"".join(_canonical_chunks(item)) for item in value
        )
        yield b"U%d:" % len(encoded)
        for chunk in encoded:
            yield chunk
        yield b";"
    elif isinstance(value, dict):
        pairs = sorted(
            b"".join(_canonical_chunks(key))
            + b"".join(_canonical_chunks(item))
            for key, item in value.items()
        )
        yield b"D%d:" % len(pairs)
        for chunk in pairs:
            yield chunk
        yield b";"
    else:
        tag = type(value).__name__.encode("utf-8")
        raw = repr(value).encode("utf-8")
        yield b"O%d:%s:%d:%s;" % (len(tag), tag, len(raw), raw)


def canonical_bytes(payload: object) -> bytes:
    """The canonical byte encoding of a structured payload.

    Equal payloads (by structural value, not identity) produce equal
    bytes in every process and on every platform; this is the input of
    :func:`digest_payload` and the parity baseline the serving tier's
    byte-identity audit (AUD015) compares against.
    """
    return b"".join(_canonical_chunks(payload))


def digest_payload(payload: object) -> str:
    """The sha256 hex digest of :func:`canonical_bytes` of ``payload``.

    The cache-key primitive: the serving tier keys its single-flight
    dedup table and the content-addressed result store by this digest,
    and it doubles as a general memo key for any canonically-encodable
    value (property-tested for stability and round-trip agreement in
    ``tests/topology/test_wire.py``).
    """
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def digest_complex(complex_: SimplicialComplex) -> str:
    """The sha256 hex digest of a complex's canonical wire encoding.

    Equal complexes — however they were constructed — digest equally,
    because :func:`encode_complex` is canonical (sorted vertex table,
    sorted facet masks); distinct complexes digest differently up to
    sha256 collisions.
    """
    wire = encode_complex(complex_)
    return digest_payload(("wire-complex", wire.pairs, wire.masks))
