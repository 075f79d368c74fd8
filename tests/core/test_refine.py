"""Refine-engine tests: registry, contract, parity, instrumentation."""

import numpy as np
import pytest

from repro.core.dce import DCEScheme, distance_comp, distance_comp_many
from repro.core.errors import KeyMismatchError, ParameterError
from repro.core.refine import (
    DEFAULT_REFINE_ENGINE,
    REFINE_ENGINES,
    HeapRefineEngine,
    RefineEngine,
    VectorizedRefineEngine,
    available_refine_engines,
    get_refine_engine,
)
from repro.datasets import make_dataset


@pytest.fixture(scope="module")
def scheme():
    return DCEScheme(12, rng=np.random.default_rng(11))


@pytest.fixture(scope="module")
def workload(scheme):
    rng = np.random.default_rng(12)
    database = rng.standard_normal((50, 12)) * 3.0
    query = rng.standard_normal(12) * 3.0
    encrypted = scheme.encrypt_database(database)
    trapdoor = scheme.trapdoor(query)
    dists = ((database - query) ** 2).sum(axis=1)
    return database, encrypted, trapdoor, dists


class TestRegistry:
    def test_available_engines(self):
        assert available_refine_engines() == ("heap", "vectorized")

    def test_default_is_vectorized(self):
        assert DEFAULT_REFINE_ENGINE == "vectorized"
        assert get_refine_engine(None).name == "vectorized"

    def test_lookup_by_name(self):
        assert get_refine_engine("heap") is REFINE_ENGINES["heap"]

    def test_instance_passthrough(self):
        engine = HeapRefineEngine()
        assert get_refine_engine(engine) is engine

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match="unknown refine engine"):
            get_refine_engine("quantum")

    def test_non_engine_rejected(self):
        with pytest.raises(ParameterError):
            get_refine_engine(42)

    def test_engines_satisfy_protocol(self):
        for engine in REFINE_ENGINES.values():
            assert isinstance(engine, RefineEngine)


class TestEngineContract:
    @pytest.mark.parametrize("name", ["heap", "vectorized"])
    def test_selects_true_nearest(self, workload, name):
        _, encrypted, trapdoor, dists = workload
        candidates = np.arange(50, dtype=np.int64)
        outcome = REFINE_ENGINES[name].refine(encrypted, trapdoor, candidates, 5)
        assert set(outcome.ids.tolist()) == set(np.argsort(dists)[:5].tolist())
        assert outcome.ids.dtype == np.int64

    @pytest.mark.parametrize("name", ["heap", "vectorized"])
    def test_k_at_least_candidate_count(self, workload, name):
        _, encrypted, trapdoor, _ = workload
        candidates = np.array([7, 3, 19], dtype=np.int64)
        outcome = REFINE_ENGINES[name].refine(encrypted, trapdoor, candidates, 10)
        assert set(outcome.ids.tolist()) == {3, 7, 19}

    @pytest.mark.parametrize("name", ["heap", "vectorized"])
    def test_empty_candidates(self, workload, name):
        _, encrypted, trapdoor, _ = workload
        empty = np.empty(0, dtype=np.int64)
        outcome = REFINE_ENGINES[name].refine(encrypted, trapdoor, empty, 4)
        assert outcome.ids.shape == (0,)
        assert outcome.comparisons == 0

    @pytest.mark.parametrize("name", ["heap", "vectorized"])
    def test_consumes_int64_array_directly(self, workload, name):
        # The engines take the filter phase's np.int64 ids without
        # per-element boxing; a plain list still works via coercion.
        _, encrypted, trapdoor, dists = workload
        as_array = np.argsort(dists)[:20].astype(np.int64)
        as_list = [int(i) for i in as_array]
        engine = REFINE_ENGINES[name]
        from_array = engine.refine(encrypted, trapdoor, as_array, 5)
        from_list = engine.refine(encrypted, trapdoor, np.asarray(as_list), 5)
        assert np.array_equal(from_array.ids, from_list.ids)

    @pytest.mark.parametrize("name", ["heap", "vectorized"])
    def test_rejects_2d_candidates(self, workload, name):
        _, encrypted, trapdoor, _ = workload
        with pytest.raises(ParameterError):
            REFINE_ENGINES[name].refine(
                encrypted, trapdoor, np.zeros((2, 2), dtype=np.int64), 3
            )

    def test_engines_bit_identical_on_full_scan(self, workload):
        _, encrypted, trapdoor, _ = workload
        candidates = np.arange(50, dtype=np.int64)
        heap = REFINE_ENGINES["heap"].refine(encrypted, trapdoor, candidates, 8)
        vec = REFINE_ENGINES["vectorized"].refine(
            encrypted, trapdoor, candidates, 8
        )
        assert np.array_equal(heap.ids, vec.ids)
        assert heap.comparisons == vec.comparisons

    def test_kernel_seconds_semantics(self, workload):
        _, encrypted, trapdoor, _ = workload
        candidates = np.arange(50, dtype=np.int64)
        heap = REFINE_ENGINES["heap"].refine(encrypted, trapdoor, candidates, 8)
        vec = REFINE_ENGINES["vectorized"].refine(
            encrypted, trapdoor, candidates, 8
        )
        assert heap.kernel_seconds == 0.0
        assert vec.kernel_seconds > 0.0
        assert heap.rechecks == 0

    def test_batches_on_sift_scale_ciphertexts(self):
        # DCE's Z cancels to ~1e-10 of its terms on sift-scale data
        # (value scale 128, d=128): a sign gate looser than the true
        # rounding bound flags every row there and degrades to one
        # scalar oracle call per comparison.
        rng = np.random.default_rng(13)
        dataset = make_dataset("sift", num_vectors=2000, num_queries=32, rng=rng)
        scheme = DCEScheme(dataset.database.shape[1], rng=rng)
        encrypted = scheme.encrypt_database(dataset.database)
        comparisons = rechecks = 0
        for query in dataset.queries:
            dists = ((dataset.database - query) ** 2).sum(axis=1)
            candidates = np.argsort(dists, kind="stable")[:160]
            trapdoor = scheme.trapdoor(query)
            heap = REFINE_ENGINES["heap"].refine(encrypted, trapdoor, candidates, 10)
            vec = REFINE_ENGINES["vectorized"].refine(
                encrypted, trapdoor, candidates, 10
            )
            assert np.array_equal(heap.ids, vec.ids)
            assert heap.comparisons == vec.comparisons
            comparisons += vec.comparisons
            rechecks += vec.rechecks
        assert rechecks <= 0.05 * comparisons

    def test_vectorized_rejects_foreign_trapdoor(self, workload):
        _, encrypted, _, _ = workload
        other = DCEScheme(12, rng=np.random.default_rng(99))
        foreign = other.trapdoor(np.zeros(12))
        with pytest.raises(KeyMismatchError):
            REFINE_ENGINES["vectorized"].refine(
                encrypted, foreign, np.arange(10, dtype=np.int64), 3
            )

    def test_single_candidate_foreign_trapdoor_parity(self, workload):
        # One candidate means zero comparisons: the heap engine never
        # consults the oracle, so it cannot notice a foreign trapdoor —
        # and the vectorized engine must behave identically.
        _, encrypted, _, _ = workload
        other = DCEScheme(12, rng=np.random.default_rng(98))
        foreign = other.trapdoor(np.zeros(12))
        lone = np.array([9], dtype=np.int64)
        heap = REFINE_ENGINES["heap"].refine(encrypted, foreign, lone, 3)
        vec = REFINE_ENGINES["vectorized"].refine(encrypted, foreign, lone, 3)
        assert np.array_equal(heap.ids, vec.ids)
        assert heap.comparisons == vec.comparisons == 0


class TestDistanceCompMany:
    def test_matches_scalar_oracle(self, scheme, workload):
        _, encrypted, trapdoor, _ = workload
        o_ids = np.array([0, 5, 9], dtype=np.int64)
        p_ids = np.array([1, 2, 3, 4], dtype=np.int64)
        matrix = distance_comp_many(
            encrypted.subset(o_ids), encrypted.subset(p_ids), trapdoor
        )
        assert matrix.shape == (3, 4)
        for row, o in enumerate(o_ids):
            for col, p in enumerate(p_ids):
                scalar = distance_comp(encrypted[o], encrypted[p], trapdoor)
                assert matrix[row, col] == pytest.approx(scalar, rel=1e-9)

    def test_sign_semantics(self, workload):
        _, encrypted, trapdoor, dists = workload
        order = np.argsort(dists).astype(np.int64)
        near, far = order[:4], order[-4:]
        matrix = distance_comp_many(
            encrypted.subset(far), encrypted.subset(near), trapdoor
        )
        # Every far o-role vector is farther than every near p-role one.
        assert (matrix >= 0).all()

    def test_key_mismatch_parity_with_scalar(self, workload):
        # distance_comp raises KeyMismatchError on foreign trapdoors;
        # the batched kernel must behave identically.
        _, encrypted, _, _ = workload
        other = DCEScheme(12, rng=np.random.default_rng(123))
        foreign = other.trapdoor(np.zeros(12))
        with pytest.raises(KeyMismatchError):
            distance_comp(encrypted[0], encrypted[1], foreign)
        with pytest.raises(KeyMismatchError):
            distance_comp_many(
                encrypted.subset(np.array([0])),
                encrypted.subset(np.array([1])),
                foreign,
            )

    def test_mixed_database_keys_rejected(self, workload):
        _, encrypted, trapdoor, _ = workload
        other = DCEScheme(12, rng=np.random.default_rng(124))
        foreign_db = other.encrypt_database(np.zeros((3, 12)))
        with pytest.raises(KeyMismatchError):
            distance_comp_many(
                encrypted.subset(np.array([0])), foreign_db, trapdoor
            )
