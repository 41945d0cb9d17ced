"""Property tests for the wire codec (hypothesis round trips)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ChromaticityError
from repro.topology import (
    Simplex,
    SimplicialComplex,
    Vertex,
    VertexTable,
    decode_complex,
    decode_simplex,
    digest_complex,
    digest_payload,
    encode_complex,
    encode_simplex,
)

colors = st.integers(min_value=1, max_value=5)
values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(
        min_value=Fraction(0), max_value=Fraction(1), max_denominator=8
    ),
    st.text(alphabet="abc", min_size=0, max_size=2),
)


@st.composite
def simplices(draw, max_colors=4):
    pool = draw(
        st.lists(colors, min_size=1, max_size=max_colors, unique=True)
    )
    return Simplex((c, draw(values)) for c in pool)


@st.composite
def complexes(draw, max_facets=4):
    facets = draw(st.lists(simplices(), min_size=1, max_size=max_facets))
    return SimplicialComplex(facets)


class TestSimplexRoundTrip:
    @given(simplices())
    def test_round_trip_identity(self, sigma):
        assert decode_simplex(encode_simplex(sigma)) == sigma

    @given(simplices())
    def test_encoding_is_canonical(self, sigma):
        # Same simplex → same wire record → usable as a dedup/memo key.
        again = Simplex(reversed(sigma.vertices))
        assert encode_simplex(again) == encode_simplex(sigma)
        assert hash(encode_simplex(again)) == hash(encode_simplex(sigma))

    @given(simplices(), simplices())
    def test_distinct_simplices_encode_distinctly(self, a, b):
        assert (encode_simplex(a) == encode_simplex(b)) == (a == b)


class TestComplexRoundTrip:
    @given(complexes())
    def test_round_trip_identity(self, complex_):
        assert decode_complex(encode_complex(complex_)) == complex_

    @given(complexes())
    def test_encoding_is_canonical(self, complex_):
        rebuilt = SimplicialComplex(list(complex_.facets))
        assert encode_complex(rebuilt) == encode_complex(complex_)

    @given(complexes())
    def test_facet_count(self, complex_):
        wire = encode_complex(complex_)
        assert wire.facet_count == len(complex_.facets)

    @given(complexes())
    def test_checked_decode_matches_trusted_decode(self, complex_):
        wire = encode_complex(complex_)
        assert decode_complex(wire, check=True) == decode_complex(wire)

    def test_empty_complex_round_trips(self):
        empty = SimplicialComplex.empty()
        wire = encode_complex(empty)
        assert wire.pairs == () and wire.masks == ()
        assert decode_complex(wire) == empty


class TestVertexTable:
    def test_memo_keys_pair_the_table_id_with_the_mask(self):
        table = VertexTable()
        simplex = Simplex([(1, "a"), (2, "b")])
        assert table.key(simplex) is None
        assert len(table) == 0  # a probe never grows the table
        key = table.interning_key(simplex)
        assert key == (table.table_id, 0b11)
        assert table.key(simplex) == key
        assert VertexTable().interning_key(simplex) != key

    @given(st.lists(st.tuples(colors, values), min_size=1, max_size=6))
    def test_interning_is_idempotent(self, pairs):
        table = VertexTable()
        first = [table.add(Vertex(c, v)) for c, v in pairs]
        second = [table.add(Vertex(c, v)) for c, v in pairs]
        assert first == second
        assert len(table) == len({Vertex(c, v) for c, v in pairs})

    @given(simplices())
    def test_mask_round_trip(self, sigma):
        table = VertexTable()
        assert (
            table.decode_mask(table.encode_mask_interning(sigma)) == sigma
        )

    @given(simplices())
    def test_encode_mask_is_strict(self, sigma):
        # Regression: encode_mask used to silently intern unknown
        # vertices, so masks depended on encounter order.  It must now
        # reject vertices the table does not hold.
        table = VertexTable()
        with pytest.raises(ChromaticityError):
            table.encode_mask(sigma)
        # Once the table holds the vertices, strict encoding agrees
        # with the interning builder.
        mask = table.encode_mask_interning(sigma)
        assert table.encode_mask(sigma) == mask

    def test_encode_mask_rejects_stale_table(self):
        table = VertexTable()
        known = Simplex([(1, "a")])
        table.encode_mask_interning(known)
        stale = Simplex([(1, "a"), (2, "b")])
        with pytest.raises(ChromaticityError):
            table.encode_mask(stale)
        # The strict probe must not have grown the table.
        assert len(table) == 1

    def test_decode_mask_rejects_empty_and_foreign_bits(self):
        table = VertexTable()
        table.add(Vertex(1, 0))
        with pytest.raises(ChromaticityError):
            table.decode_mask(0)
        with pytest.raises(ChromaticityError):
            table.decode_mask(0b10)


# Golden digests: these constants pin the canonical encoding across
# releases.  A change here breaks every persisted content-addressed
# store, so it must be deliberate (bump ``STORE_SCHEMA`` in
# ``repro.serve.store`` alongside it).
GOLDEN_PAYLOAD = (
    "repro-golden",
    1,
    Fraction(1, 3),
    ["a", None, True],
    {"k": (2, 4)},
)
GOLDEN_PAYLOAD_DIGEST = (
    "51d27ca7f3ac3c2cbed17eaf677f706f35e46ca2e6a515e7fba444b4b888be7e"
)
GOLDEN_COMPLEX_DIGEST = (
    "d9907d022e8893184330965bfe0636b501b6edf526e4c54ed342087a188f3c49"
)

payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.fractions(max_denominator=64),
        st.text(max_size=6),
        st.binary(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


class TestDigestPayload:
    def test_golden_digest_is_stable(self):
        assert (
            digest_payload(GOLDEN_PAYLOAD) == GOLDEN_PAYLOAD_DIGEST
        )

    @given(payloads)
    def test_digest_is_deterministic(self, payload):
        assert digest_payload(payload) == digest_payload(payload)

    @given(payloads)
    def test_canonical_bytes_round_trip_equal_values(self, payload):
        # Structural copies digest identically (lists/dicts rebuilt).
        import copy

        assert digest_payload(copy.deepcopy(payload)) == digest_payload(
            payload
        )

    @given(payloads, payloads)
    def test_distinct_values_digest_distinctly(self, a, b):
        if _normalize(a) == _normalize(b):
            assert digest_payload(a) == digest_payload(b)
        else:
            assert digest_payload(a) != digest_payload(b)

    def test_tuple_list_agreement(self):
        # Tuples and lists are interchangeable containers on the wire.
        assert digest_payload((1, 2, "x")) == digest_payload([1, 2, "x"])

    def test_concatenation_ambiguity_excluded(self):
        assert digest_payload(("ab", "c")) != digest_payload(("a", "bc"))

    def test_bool_int_disambiguation(self):
        assert digest_payload(True) != digest_payload(1)
        assert digest_payload(False) != digest_payload(0)

    def test_dict_order_is_immaterial(self):
        assert digest_payload({"a": 1, "b": 2}) == digest_payload(
            {"b": 2, "a": 1}
        )


def _normalize(value):
    """Collapse wire-equivalent values (tuple==list, int-valued Fraction
    == int, bytearray==bytes) so inequality implies digest inequality."""
    from fractions import Fraction as F

    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, F):
        if value.denominator == 1:
            return ("i", int(value))
        return ("q", value.numerator, value.denominator)
    if isinstance(value, int):
        return ("i", value)
    if isinstance(value, (bytes, bytearray)):
        return ("y", bytes(value))
    if isinstance(value, (tuple, list)):
        return ("t", tuple(_normalize(v) for v in value))
    if isinstance(value, dict):
        return (
            "d",
            frozenset(
                (_normalize(k), _normalize(v)) for k, v in value.items()
            ),
        )
    return value


class TestDigestComplex:
    def test_golden_digest_is_stable(self):
        complex_ = SimplicialComplex(
            [
                Simplex([(1, 0), (2, 1)]),
                Simplex([(2, 1), (3, Fraction(1, 2))]),
            ]
        )
        assert digest_complex(complex_) == GOLDEN_COMPLEX_DIGEST

    @given(complexes())
    def test_digest_agrees_for_rebuilt_complexes(self, complex_):
        rebuilt = SimplicialComplex(
            [Simplex(reversed(f.vertices)) for f in complex_.facets]
        )
        assert digest_complex(rebuilt) == digest_complex(complex_)

    @given(complexes(), complexes())
    def test_distinct_complexes_digest_distinctly(self, a, b):
        assert (digest_complex(a) == digest_complex(b)) == (a == b)

    @given(complexes())
    def test_digest_matches_wire_payload_digest(self, complex_):
        wire = encode_complex(complex_)
        assert digest_complex(complex_) == digest_payload(
            ("wire-complex", wire.pairs, wire.masks)
        )
