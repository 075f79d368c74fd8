"""Unit tests for the sharded scatter-gather serving layer."""

import numpy as np
import pytest

from repro.core.backends import available_backends
from repro.core.errors import CiphertextFormatError, ParameterError
from repro.core.maintenance import delete_vector, insert_vector
from repro.core.persistence import load_index, save_index
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.core.sharding import (
    SHARD_STRATEGIES,
    Shard,
    ShardedEncryptedIndex,
    assign_shards,
    shard_of,
)
from tests.conftest import FAST_HNSW


def _deployed(backend="bruteforce", shards=3, strategy="round_robin",
              n=120, dim=10, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)) * 2.0
    owner = DataOwner(
        dim,
        beta=0.3,
        hnsw_params=FAST_HNSW,
        backend=backend,
        shards=shards,
        shard_strategy=strategy,
        rng=rng,
    )
    index = owner.build_index(vectors)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(seed + 1))
    return owner, index, user, vectors


class TestAssignment:
    def test_round_robin_balances_perfectly(self):
        assignment = assign_shards(12, 3, "round_robin")
        assert np.array_equal(np.bincount(assignment), [4, 4, 4])
        assert assignment[0] == 0 and assignment[4] == 1 and assignment[11] == 2

    def test_hash_is_deterministic_and_covers_all_shards(self):
        a = assign_shards(500, 4, "hash")
        b = assign_shards(500, 4, "hash")
        assert np.array_equal(a, b)
        assert set(a.tolist()) == {0, 1, 2, 3}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ParameterError):
            shard_of("alphabetical", 0, 2)
        with pytest.raises(ParameterError):
            assign_shards(10, 2, "alphabetical")

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_vectorized_assignment_matches_scalar(self, strategy):
        """assign_shards (vectorized) must agree with shard_of (scalar),
        which routes individual inserts."""
        assignment = assign_shards(300, 5, strategy)
        expected = [shard_of(strategy, i, 5) for i in range(300)]
        assert assignment.tolist() == expected

    def test_strategy_registry_matches_owner_validation(self):
        for strategy in SHARD_STRATEGIES:
            DataOwner(4, beta=0.3, shards=2, shard_strategy=strategy)
        with pytest.raises(ParameterError):
            DataOwner(4, beta=0.3, shards=2, shard_strategy="nope")


class TestConstruction:
    def test_owner_builds_sharded_index(self):
        _, index, _, vectors = _deployed(shards=4)
        assert isinstance(index, ShardedEncryptedIndex)
        assert index.num_shards == 4
        assert index.strategy == "round_robin"
        assert sum(len(shard) for shard in index.shards) == vectors.shape[0]

    def test_shards_one_builds_monolithic(self):
        owner, index, _, _ = _deployed(shards=1)
        assert not isinstance(index, ShardedEncryptedIndex)

    def test_build_index_override_beats_owner_config(self):
        owner, _, _, vectors = _deployed(shards=2)
        index = owner.build_index(vectors, shards=5, shard_strategy="hash")
        assert index.num_shards == 5
        assert index.strategy == "hash"

    def test_assignment_recorded(self):
        _, index, _, _ = _deployed(shards=3, n=30)
        assignment = index.shard_assignment()
        assert np.array_equal(assignment, np.arange(30) % 3)

    def test_empty_shards_allowed(self):
        # More shards than vectors: the tail shards stay empty.
        _, index, user, vectors = _deployed(shards=7, n=5)
        assert index.num_shards == 7
        result = CloudServer(index).answer(user.encrypt_query(vectors[0], 3))
        assert result.ids.shape[0] == 3

    def test_mixed_backend_kinds_rejected(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((20, 6))
        owner = DataOwner(6, beta=0.3, backend="bruteforce", rng=rng)
        sharded = owner.build_index(vectors, shards=2)
        shard1_ids = sharded.shards[1].global_ids
        other = DataOwner(6, beta=0.3, backend="ivf", rng=rng).build_index(
            vectors[shard1_ids]
        )
        shards = [
            sharded.shards[0],
            Shard(1, other.backend, shard1_ids),
        ]
        with pytest.raises(CiphertextFormatError):
            ShardedEncryptedIndex(
                sharded.sap_vectors, shards, sharded.dce_database
            )

    def test_unowned_ids_rejected(self):
        _, index, _, _ = _deployed(shards=2, n=20)
        shards = [index.shards[0]]  # shard 1's ids now unowned
        with pytest.raises(CiphertextFormatError):
            ShardedEncryptedIndex(index.sap_vectors, shards, index.dce_database)


class TestScatterGather:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_bruteforce_matches_monolithic_bit_for_bit(self, shards):
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((150, 8)) * 2.0
        queries = rng.standard_normal((12, 8)) * 2.0
        flat_owner = DataOwner(8, beta=0.3, backend="bruteforce",
                               rng=np.random.default_rng(5))
        sharded_owner = DataOwner(8, beta=0.3, backend="bruteforce",
                                  shards=shards, rng=np.random.default_rng(5))
        flat = CloudServer(flat_owner.build_index(vectors))
        shard_server = CloudServer(sharded_owner.build_index(vectors))
        user = QueryUser(flat_owner.authorize_user(),
                         rng=np.random.default_rng(6))
        batch = user.encrypt_queries(queries, 10, ratio_k=4)
        flat_ids = flat.answer(batch).ids_matrix()
        sharded_ids = shard_server.answer(batch).ids_matrix()
        assert np.array_equal(flat_ids, sharded_ids)

    def test_filter_only_mode(self):
        _, index, user, vectors = _deployed(shards=3)
        batch = user.encrypt_queries(vectors[:4], 5, ratio_k=2,
                                     mode="filter_only")
        results = CloudServer(index).answer(batch)
        assert results.refine_comparisons == 0
        for result in results:
            assert result.ids.shape[0] == 5
            assert result.shard_timings is not None

    def test_shard_timings_cover_every_shard(self):
        _, index, user, vectors = _deployed(shards=3)
        result = CloudServer(index).answer(user.encrypt_query(vectors[1], 5))
        assert result.shard_timings is not None
        assert sorted(t.shard_id for t in result.shard_timings) == [0, 1, 2]
        assert all(t.seconds >= 0.0 for t in result.shard_timings)
        assert result.gather_bytes() == 12 * sum(
            t.candidates for t in result.shard_timings
        )

    def test_batch_aggregates_shard_instrumentation(self):
        _, index, user, vectors = _deployed(shards=2)
        batch = user.encrypt_queries(vectors[:5], 4)
        results = CloudServer(index).answer(batch)
        per_shard = results.shard_seconds()
        assert set(per_shard) == {0, 1}
        assert results.gather_bytes() == sum(r.gather_bytes() for r in results)

    def test_monolithic_results_carry_no_shard_timings(self):
        _, index, user, vectors = _deployed(shards=1)
        result = CloudServer(index).answer(user.encrypt_query(vectors[0], 3))
        assert result.shard_timings is None
        assert result.gather_bytes() == 0

    @pytest.mark.parametrize("backend", available_backends())
    def test_all_backends_answer_sharded(self, backend):
        _, index, user, vectors = _deployed(backend=backend, shards=3)
        results = CloudServer(index).answer(
            user.encrypt_queries(vectors[:3] + 0.01, 5, ef_search=60)
        )
        for i, result in enumerate(results):
            assert i in result.ids.tolist()

    def test_hash_strategy_answers_correctly(self):
        _, index, user, vectors = _deployed(shards=4, strategy="hash")
        result = CloudServer(index).answer(
            user.encrypt_query(vectors[7] + 0.01, 5, ef_search=60)
        )
        assert 7 in result.ids.tolist()


class TestMaintenance:
    def test_insert_routes_to_strategy_shard(self):
        owner, index, user, _ = _deployed(shards=3, n=30)
        new_id = insert_vector(owner, index, np.zeros(10))
        assert new_id == 30
        expected = shard_of("round_robin", 30, 3)
        assert index.shard_assignment()[30] == expected
        assert 30 in index.shards[expected].global_ids

    def test_inserted_vector_is_searchable(self):
        owner, index, user, _ = _deployed(shards=3)
        probe = np.full(10, 9.0)
        new_id = insert_vector(owner, index, probe)
        result = CloudServer(index).answer(user.encrypt_query(probe, 3))
        assert new_id in result.ids.tolist()

    def test_delete_routes_to_owning_shard(self):
        owner, index, user, vectors = _deployed(shards=3)
        delete_vector(index, 4)
        assert not index.is_live(4)
        result = CloudServer(index).answer(
            user.encrypt_query(vectors[4], 5, ef_search=80)
        )
        assert 4 not in result.ids.tolist()

    def test_insert_into_empty_shard_builds_backend(self):
        owner, index, user, _ = _deployed(shards=7, n=5)
        # Global id 5 -> shard 5, which is empty before the insert.
        assert index.shards[5].backend is None
        probe = np.full(10, -7.0)
        new_id = insert_vector(owner, index, probe)
        assert new_id == 5
        assert index.shards[5].backend is not None
        result = CloudServer(index).answer(user.encrypt_query(probe, 2))
        assert new_id in result.ids.tolist()

    def test_lazy_build_inherits_sibling_params_after_load(self, tmp_path):
        """A v3 load drops construction params; the lazily built shard
        must copy a sibling's backend params, not library defaults."""
        owner, index, user, _ = _deployed(backend="hnsw", shards=7, n=5)
        path = tmp_path / "index.npz"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.shards[5].backend is None
        insert_vector(owner, loaded, np.full(10, -7.0))
        built = loaded.shards[5].backend.params
        sibling = loaded.shards[0].backend.params
        assert built.m == sibling.m == FAST_HNSW.m
        assert built.ef_construction == sibling.ef_construction


class TestPersistenceV3:
    @pytest.mark.parametrize("backend", available_backends())
    def test_v3_roundtrip_all_backends(self, backend, tmp_path):
        _, index, user, vectors = _deployed(backend=backend, shards=3)
        path = tmp_path / "index.npz"
        save_index(path, index)
        with np.load(path) as data:
            assert int(data["format_version"][0]) == 3
        loaded = load_index(path)
        assert isinstance(loaded, ShardedEncryptedIndex)
        assert loaded.num_shards == index.num_shards
        assert loaded.strategy == index.strategy
        assert np.array_equal(loaded.shard_assignment(),
                              index.shard_assignment())
        batch = user.encrypt_queries(vectors[:4] + 0.01, 5, ef_search=60)
        original = CloudServer(index).answer(batch)
        restored = CloudServer(loaded).answer(batch)
        assert np.array_equal(original.ids_matrix(), restored.ids_matrix())

    def test_v3_preserves_tombstones(self, tmp_path):
        _, index, user, vectors = _deployed(shards=2)
        delete_vector(index, 7)
        path = tmp_path / "index.npz"
        save_index(path, index)
        loaded = load_index(path)
        assert not loaded.is_live(7)
        assert len(loaded) == len(index)

    def test_v3_roundtrips_empty_shards(self, tmp_path):
        _, index, user, vectors = _deployed(shards=7, n=5)
        path = tmp_path / "index.npz"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.num_shards == 7
        assert loaded.shards[6].backend is None
        result = CloudServer(loaded).answer(user.encrypt_query(vectors[2], 3))
        assert 2 in result.ids.tolist()

    def test_monolithic_still_saves_v2(self, tmp_path):
        _, index, _, _ = _deployed(shards=1)
        path = tmp_path / "index.npz"
        save_index(path, index)
        with np.load(path) as data:
            assert int(data["format_version"][0]) == 2

    def test_corrupted_assignment_rejected(self, tmp_path):
        _, index, _, _ = _deployed(shards=2)
        path = tmp_path / "index.npz"
        save_index(path, index)
        data = dict(np.load(path))
        data["shard_assignment"] = data["shard_assignment"][::-1].copy()
        np.savez_compressed(path, **data)
        with pytest.raises(CiphertextFormatError):
            load_index(path)

    def test_hash_strategy_roundtrip(self, tmp_path):
        _, index, user, vectors = _deployed(shards=4, strategy="hash")
        path = tmp_path / "index.npz"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.strategy == "hash"
        # Post-load inserts must keep routing with the recorded strategy.
        assert np.array_equal(loaded.shard_assignment(),
                              index.shard_assignment())


class TestSizeReport:
    def test_edges_summed_across_shards(self):
        _, sharded, _, vectors = _deployed(backend="hnsw", shards=3)
        report = sharded.size_report()
        assert report.num_vectors == vectors.shape[0]
        assert report.graph_edges == sum(
            shard.backend.edge_count() for shard in sharded.shards
        )
        assert report.sap_floats == vectors.size
