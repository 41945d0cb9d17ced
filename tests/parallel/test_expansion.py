"""Parallel protocol expansion equals the serial operator exactly."""

import pytest

from repro.models import (
    ImmediateSnapshotModel,
    SnapshotModel,
    k_concurrency_model,
    no_synchrony_model,
)
from repro.models.protocol import ProtocolOperator
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.parallel import materialize_protocol_complexes
from repro.parallel.expansion import cold_model
from repro.topology import Simplex, SimplicialComplex


def _triangle():
    return Simplex((i, f"x{i}") for i in range(1, 4))


def _edge():
    return Simplex((i, f"x{i}") for i in range(1, 3))


def _two_triangles():
    """Two input triangles sharing an edge: 11 simplices, enough to fan out."""
    return SimplicialComplex(
        [
            Simplex([(1, 0), (2, 0), (3, 0)]),
            Simplex([(1, 1), (2, 0), (3, 0)]),
        ]
    )


class TestColdModel:
    def test_detaches_memo_layers(self):
        model = ImmediateSnapshotModel()
        model.one_round_complex(_edge())  # warm the cache
        clone = cold_model(model)
        assert "_one_round_cache" not in clone.__dict__
        assert model.one_round_complex(_edge()) == clone.one_round_complex(
            _edge()
        )


class TestMaterializeProtocol:
    def test_table_matches_serial_operator(self):
        parallel_operator = ProtocolOperator(ImmediateSnapshotModel())
        serial_operator = ProtocolOperator(ImmediateSnapshotModel())
        sigmas = list(SimplicialComplex.from_simplex(_triangle()))
        table = materialize_protocol_complexes(
            parallel_operator, sigmas, 2, workers=2
        )
        for sigma in sigmas:
            assert table[sigma] == serial_operator.of_simplex(sigma, 2)
            assert (
                parallel_operator.cached_of_simplex(sigma, 2) is not None
            )


class TestModelsShipToWorkers:
    # Workers get a pickled cold copy of the model, so box input
    # functions and affine predicates must not be closures.
    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: AugmentedModel(TestAndSetBox()),
            lambda: AugmentedModel(
                BinaryConsensusBox(),
                beta_input_function({1: 0, 2: 1, 3: 1}),
            ),
            lambda: k_concurrency_model(ImmediateSnapshotModel(), 2),
            lambda: no_synchrony_model(ImmediateSnapshotModel()),
        ],
        ids=["test-and-set", "consensus-beta", "2-concurrency", "no-sync"],
    )
    def test_fan_out_matches_serial(self, make_model):
        sigmas = list(SimplicialComplex.from_simplex(_triangle()))
        table = materialize_protocol_complexes(
            ProtocolOperator(make_model()), sigmas, 1, workers=2
        )
        serial = ProtocolOperator(make_model())
        for sigma in sigmas:
            assert table[sigma] == serial.of_simplex(sigma, 1)


class TestOperatorRouting:
    def test_of_simplex_identical_across_worker_counts(self):
        # P^(2)(σ) seeded by the pool fan-out equals the serial recursion.
        base = _two_triangles()
        serial = ProtocolOperator(ImmediateSnapshotModel())
        parallel = ProtocolOperator(ImmediateSnapshotModel())
        parallel.carriers(base, 2, workers=2)
        for sigma in base:
            assert parallel.of_simplex(sigma, 2) == serial.of_simplex(
                sigma, 2
            )
        triangle = Simplex([(1, 0), (2, 0), (3, 0)])
        assert len(parallel.of_simplex(triangle, 2).facets) == 13**2

    def test_of_complex_identical_across_worker_counts(self):
        base = _two_triangles()
        serial = ProtocolOperator(SnapshotModel()).of_complex(
            base, 2, workers=1
        )
        parallel = ProtocolOperator(SnapshotModel()).of_complex(
            base, 2, workers=2
        )
        assert parallel == serial
