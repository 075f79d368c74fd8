"""FilterBackend integration: CloudServer runs unchanged on every backend.

The paper's Section V-A claims the filter phase can swap its index
substrate; these tests exercise the claim end-to-end for every
registered backend — build, query (single and batch), maintain
(insert/delete), persist, reload — through the exact same CloudServer
code path."""

import numpy as np
import pytest

from repro.core.backends import (
    BACKENDS,
    FilterBackend,
    available_backends,
    build_backend,
)
from repro.core.errors import ParameterError
from repro.core.maintenance import delete_vector, insert_vector
from repro.core.persistence import load_index, save_index
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.eval.metrics import recall_at_k
from repro.hnsw.bruteforce import BruteForceIndex
from repro.hnsw.graph import HNSWIndex, HNSWParams
from repro.hnsw.ivf import IVFFlatIndex
from repro.hnsw.nsg import NSGIndex

ALL_BACKENDS = available_backends()

FAST_HNSW = HNSWParams(m=8, ef_construction=60)


@pytest.fixture(scope="module", params=ALL_BACKENDS)
def backend_actors(request, small_dataset):
    """Owner/user/server triple fitted with each backend kind (read-only)."""
    rng = np.random.default_rng(311)
    owner = DataOwner(
        small_dataset.dim,
        beta=0.3,
        hnsw_params=FAST_HNSW,
        backend=request.param,
        rng=rng,
    )
    index = owner.build_index(small_dataset.database)
    server = CloudServer(index)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(312))
    return request.param, owner, user, server


def test_index_classes_are_filter_backends(rng):
    """The index classes implement the protocol themselves: a built
    backend is the index, with no wrapper in between."""
    expected = {
        "hnsw": HNSWIndex,
        "nsg": NSGIndex,
        "ivf": IVFFlatIndex,
        "bruteforce": BruteForceIndex,
    }
    sap = rng.standard_normal((30, 6))
    for kind in ALL_BACKENDS:
        index = build_backend(kind, sap, rng=np.random.default_rng(1))
        assert type(index) is expected[kind] is BACKENDS[kind], kind
        assert isinstance(index, FilterBackend), kind
        assert index.kind == kind
        assert index.vectors.shape[0] == 30
        rebuilt = index.rebuild(sap[:20], rng=np.random.default_rng(2))
        assert type(rebuilt) is expected[kind], kind
        assert isinstance(rebuilt, FilterBackend), kind


class TestRegistry:
    def test_four_backends_registered(self):
        assert set(ALL_BACKENDS) >= {"hnsw", "nsg", "ivf", "bruteforce"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            build_backend("faiss", np.zeros((4, 2)))

    def test_registry_keys_match_kinds(self):
        for kind, backend_cls in BACKENDS.items():
            assert backend_cls.kind == kind


class TestServerOnEveryBackend:
    def test_answer_recall(self, backend_actors, small_dataset, small_ground_truth):
        kind, _, user, server = backend_actors
        assert server.index.backend_kind == kind
        recalls = []
        for i, query in enumerate(small_dataset.queries):
            result = server.answer(
                user.encrypt_query(query, 10), ratio_k=8, ef_search=120
            )
            recalls.append(recall_at_k(result.ids, small_ground_truth.for_query(i), 10))
        assert np.mean(recalls) >= 0.8, f"low recall on backend {kind}"

    def test_batch_answer_matches_single(self, backend_actors, small_dataset):
        kind, _, user, server = backend_actors
        batch = user.encrypt_queries(small_dataset.queries[:5], 7, ratio_k=6)
        batch_results = server.answer(batch)
        assert len(batch_results) == 5
        for i in range(5):
            single = server.answer(batch[i])
            assert np.array_equal(batch_results[i].ids, single.ids), (
                f"batch/single divergence on backend {kind}"
            )

    def test_filter_only_mode(self, backend_actors, small_dataset):
        _, _, user, server = backend_actors
        batch = user.encrypt_queries(
            small_dataset.queries[:3], 5, ratio_k=2, mode="filter_only"
        )
        results = server.answer(batch)
        assert results.refine_comparisons == 0
        for result in results:
            assert result.ids.shape[0] == 5


class TestMaintenanceOnEveryBackend:
    @pytest.mark.parametrize("kind", ALL_BACKENDS)
    def test_insert_then_find_then_delete(self, kind, rng):
        data = np.random.default_rng(77).standard_normal((80, 8)) * 2.0
        owner = DataOwner(
            8, beta=0.1, hnsw_params=FAST_HNSW, backend=kind,
            rng=np.random.default_rng(78),
        )
        index = owner.build_index(data)
        server = CloudServer(index)
        user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(79))

        new_vector = data[0] + 1e-3
        new_id = insert_vector(owner, index, new_vector)
        assert new_id == 80
        found = server.answer(
            user.encrypt_query(new_vector, 5), ratio_k=8, ef_search=80
        )
        assert new_id in found.ids, f"inserted vector not found on backend {kind}"

        delete_vector(index, new_id)
        after = server.answer(
            user.encrypt_query(new_vector, 5), ratio_k=8, ef_search=80
        )
        assert new_id not in after.ids, f"deleted vector returned on backend {kind}"


class TestPersistenceOnEveryBackend:
    def test_save_load_same_answers(
        self, backend_actors, small_dataset, tmp_path_factory
    ):
        kind, _, user, server = backend_actors
        path = tmp_path_factory.mktemp(f"persist_{kind}") / "index.npz"
        save_index(path, server.index)
        reloaded = load_index(path)
        assert reloaded.backend_kind == kind

        server2 = CloudServer(reloaded)
        batch = user.encrypt_queries(small_dataset.queries[:4], 6, ratio_k=4)
        before = server.answer(batch)
        after = server2.answer(batch)
        for i in range(len(batch)):
            assert np.array_equal(before[i].ids, after[i].ids), (
                f"persistence changed answers on backend {kind}"
            )
