"""Index maintenance tests (Section V-D)."""

import numpy as np
import pytest

from repro import PPANNS
from repro.core.errors import ParameterError
from repro.datasets import make_clustered
from repro.hnsw.bruteforce import exact_knn
from tests.conftest import FAST_HNSW


@pytest.fixture()
def mutable_scheme():
    dataset = make_clustered(
        num_vectors=200,
        dim=12,
        num_queries=5,
        num_clusters=8,
        value_scale=2.0,
        rng=np.random.default_rng(31),
    )
    scheme = PPANNS(
        dim=12, beta=0.2, hnsw_params=FAST_HNSW, rng=np.random.default_rng(32)
    ).fit(dataset.database)
    return scheme, dataset


class TestInsert:
    def test_insert_assigns_next_id(self, mutable_scheme):
        scheme, dataset = mutable_scheme
        new_id = scheme.insert(dataset.database[0] + 0.01)
        assert new_id == dataset.num_vectors

    def test_inserted_vector_is_findable(self, mutable_scheme):
        scheme, dataset = mutable_scheme
        vector = dataset.database[3] + 1e-4
        new_id = scheme.insert(vector)
        ids = scheme.query(vector, k=5, ratio_k=8, ef_search=100)
        assert new_id in ids

    def test_insert_keeps_alignment(self, mutable_scheme):
        scheme, dataset = mutable_scheme
        scheme.insert(dataset.database[0])
        index = scheme.server.index
        n = dataset.num_vectors + 1
        assert index.sap_vectors.shape[0] == n
        assert len(index.dce_database) == n
        assert index.backend.vectors.shape[0] == n

    def test_insert_wrong_dim(self, mutable_scheme):
        scheme, _ = mutable_scheme
        with pytest.raises(ParameterError):
            scheme.insert(np.zeros(5))

    def test_many_inserts_preserve_recall(self, mutable_scheme):
        scheme, dataset = mutable_scheme
        rng = np.random.default_rng(33)
        for _ in range(20):
            scheme.insert(
                dataset.database[rng.integers(0, dataset.num_vectors)]
                + rng.normal(0, 0.05, size=12)
            )
        # Original content still searchable.
        ids = scheme.query(dataset.database[10], k=5, ratio_k=8, ef_search=100)
        assert 10 in ids


class TestDelete:
    def test_deleted_vector_never_returned(self, mutable_scheme):
        scheme, dataset = mutable_scheme
        query = dataset.queries[0]
        victim = int(exact_knn(dataset.database, query, 1)[0][0])
        scheme.delete(victim)
        ids = scheme.query(query, k=10, ratio_k=8, ef_search=120)
        assert victim not in ids

    def test_delete_is_server_only(self, mutable_scheme):
        # Deletion must not touch owner state; it's a pure index mutation.
        scheme, dataset = mutable_scheme
        key_before = scheme.owner.dce_scheme.key.key_id
        scheme.delete(0)
        assert scheme.owner.dce_scheme.key.key_id == key_before

    def test_delete_twice_rejected(self, mutable_scheme):
        scheme, _ = mutable_scheme
        scheme.delete(4)
        with pytest.raises(ParameterError):
            scheme.delete(4)

    def test_delete_out_of_range(self, mutable_scheme):
        scheme, dataset = mutable_scheme
        with pytest.raises(ParameterError):
            scheme.delete(dataset.num_vectors + 5)

    def test_recall_survives_deletions(self, mutable_scheme):
        scheme, dataset = mutable_scheme
        rng = np.random.default_rng(34)
        victims = rng.choice(dataset.num_vectors, size=15, replace=False)
        for victim in victims:
            scheme.delete(int(victim))
        live = np.setdiff1d(np.arange(dataset.num_vectors), victims)
        query = dataset.queries[1]
        exact_ids, _ = exact_knn(dataset.database[live], query, 5)
        exact_set = set(live[exact_ids].tolist())
        found = scheme.query(query, k=5, ratio_k=8, ef_search=150)
        assert len(set(found.tolist()) & exact_set) >= 3

    def test_delete_then_insert(self, mutable_scheme):
        scheme, dataset = mutable_scheme
        scheme.delete(7)
        new_vector = dataset.database[7] + 0.01
        new_id = scheme.insert(new_vector)
        ids = scheme.query(new_vector, k=5, ratio_k=8, ef_search=100)
        assert new_id in ids
        assert 7 not in ids
