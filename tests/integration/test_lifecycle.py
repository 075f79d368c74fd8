"""Full deployment-lifecycle test: build -> persist -> reload -> maintain
-> query, across the trust boundary, on a realistic-scale profile."""

import numpy as np
import pytest

import repro
from repro.core.maintenance import delete_vector, insert_vector
from repro.core.persistence import load_index, load_keys, save_index, save_keys
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.datasets import compute_ground_truth, make_dataset
from repro.eval.metrics import recall_at_k
from repro.hnsw.graph import HNSWParams


def test_top_level_exports():
    assert repro.__version__ == "1.0.0"
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_search_stats_merge():
    from repro.hnsw.graph import SearchStats

    a = SearchStats(distance_computations=5, hops=2)
    b = SearchStats(distance_computations=7, hops=3)
    a.merge(b)
    assert a.distance_computations == 12
    assert a.hops == 5


def test_full_lifecycle(tmp_path):
    """The complete story of one deployment.

    1. owner builds + persists index and keys
    2. server process reloads the index (no keys)
    3. user process reloads the keys, queries
    4. owner inserts a new vector; server deletes another
    5. results stay correct throughout
    """
    rng = np.random.default_rng(2025)
    dataset = make_dataset("sift", num_vectors=300, num_queries=5, rng=rng)
    k = 10
    hnsw = HNSWParams(m=8, ef_construction=50)

    # 1. owner side
    owner = DataOwner(dataset.dim, beta=20.0, hnsw_params=hnsw, rng=rng)
    index = owner.build_index(dataset.database)
    save_index(tmp_path / "index.npz", index)
    save_keys(tmp_path / "keys.npz", owner.authorize_user())

    # 2-3. fresh server and user from disk
    server = CloudServer(load_index(tmp_path / "index.npz"))
    user = QueryUser(load_keys(tmp_path / "keys.npz"), rng=np.random.default_rng(1))

    truth = compute_ground_truth(dataset.database, dataset.queries, k)
    recalls = []
    for i, query in enumerate(dataset.queries):
        report = server.answer(user.encrypt_query(query, k), ef_search=120)
        recalls.append(recall_at_k(report.ids, truth.for_query(i), k))
    assert np.mean(recalls) >= 0.85

    # 4. maintenance on the live server index
    new_vector = dataset.database[0] + 1e-3
    new_id = insert_vector(owner, server.index, new_vector)
    found = server.answer(user.encrypt_query(new_vector, 5), ef_search=100)
    assert new_id in found.ids

    victim = int(truth.for_query(0)[0])
    delete_vector(server.index, victim)
    after = server.answer(user.encrypt_query(dataset.queries[0], k), ef_search=120)
    assert victim not in after.ids

    # 5. persist the maintained index and reload once more
    save_index(tmp_path / "index2.npz", server.index)
    server2 = CloudServer(load_index(tmp_path / "index2.npz"))
    again = server2.answer(user.encrypt_query(dataset.queries[0], k), ef_search=120)
    assert victim not in again.ids
    assert set(again.ids.tolist()) == set(after.ids.tolist())


def test_two_users_one_server(small_dataset, fitted_scheme):
    """Multiple authorized users share a server; results agree."""
    keys = fitted_scheme.owner.authorize_user()
    user_a = QueryUser(keys, rng=np.random.default_rng(10))
    user_b = QueryUser(keys, rng=np.random.default_rng(20))
    query = small_dataset.queries[0]
    report_a = fitted_scheme.server.answer(user_a.encrypt_query(query, 10), ef_search=100)
    report_b = fitted_scheme.server.answer(user_b.encrypt_query(query, 10), ef_search=100)
    # Different trapdoor randomness, same comparisons: same result set.
    assert set(report_a.ids.tolist()) == set(report_b.ids.tolist())
