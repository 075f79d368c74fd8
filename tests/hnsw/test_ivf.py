"""IVF-Flat index tests."""

import numpy as np
import pytest

from repro.core.errors import DimensionMismatchError, ParameterError
from repro.hnsw.bruteforce import exact_knn
from repro.hnsw import ivf
from repro.hnsw.graph import SearchStats
from repro.hnsw.ivf import IVFFlatIndex, IVFParams, kmeans


@pytest.fixture(scope="module")
def built():
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((8, 10)) * 8
    assignments = rng.integers(0, 8, size=400)
    vectors = centers[assignments] + rng.standard_normal((400, 10))
    index = IVFFlatIndex(vectors, IVFParams(num_lists=8, train_iterations=8),
                         rng=np.random.default_rng(1))
    return index, vectors


class TestKMeans:
    def test_partitions_everything(self):
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((100, 4))
        centroids, assignments = kmeans(vectors, 5, 5, rng)
        assert centroids.shape == (5, 4)
        assert assignments.shape == (100,)
        assert set(np.unique(assignments)) <= set(range(5))

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((50, 3)) + 100
        b = rng.standard_normal((50, 3)) - 100
        vectors = np.vstack([a, b])
        _, assignments = kmeans(vectors, 2, 10, rng)
        assert len(set(assignments[:50])) == 1
        assert len(set(assignments[50:])) == 1
        assert assignments[0] != assignments[50]

    def test_clamps_k_to_n(self):
        rng = np.random.default_rng(4)
        centroids, _ = kmeans(rng.standard_normal((3, 2)), 10, 3, rng)
        assert centroids.shape[0] == 3


class TestIVFIndex:
    def test_all_vectors_in_some_list(self, built):
        index, vectors = built
        assert sum(index.list_sizes()) == vectors.shape[0]

    def test_full_probe_is_exact(self, built):
        index, vectors = built
        rng = np.random.default_rng(5)
        query = rng.standard_normal(10)
        ids, _ = index.search(query, 10, nprobe=index.num_lists)
        exact, _ = exact_knn(vectors, query, 10)
        assert set(ids.tolist()) == set(exact.tolist())

    def test_recall_grows_with_nprobe(self, built):
        index, vectors = built
        rng = np.random.default_rng(6)
        queries = rng.standard_normal((15, 10)) * 4

        def recall(nprobe):
            total = 0.0
            for query in queries:
                ids, _ = index.search(query, 10, nprobe=nprobe)
                exact, _ = exact_knn(vectors, query, 10)
                total += len(set(ids.tolist()) & set(exact.tolist())) / 10
            return total / len(queries)

        assert recall(8) >= recall(1)

    def test_results_sorted(self, built):
        index, _ = built
        _, dists = index.search(np.zeros(10), 10, nprobe=4)
        assert np.all(np.diff(dists) >= 0)

    def test_stats(self, built):
        index, _ = built
        stats = SearchStats()
        index.search(np.zeros(10), 5, nprobe=2, stats=stats)
        assert stats.hops == 2
        assert stats.distance_computations > index.num_lists

    def test_validation(self, built):
        index, _ = built
        with pytest.raises(ParameterError):
            index.search(np.zeros(10), 0)
        with pytest.raises(ParameterError):
            index.search(np.zeros(10), 5, nprobe=0)
        with pytest.raises(DimensionMismatchError):
            index.search(np.zeros(4), 5)
        with pytest.raises(ParameterError):
            IVFFlatIndex(np.zeros((0, 4)))
        with pytest.raises(ParameterError):
            IVFParams(num_lists=0)
        with pytest.raises(ParameterError):
            IVFParams(train_iterations=0)


def _reload(index):
    """A ``state_arrays`` -> ``from_state`` round trip of ``index``."""
    return IVFFlatIndex.from_state(index.vectors, index.state_arrays())


def _assert_batch_matches_loop(index, queries, k, nprobe):
    """``search_batch`` equals looping ``search``: ids, dists, counters."""
    batch_stats = [SearchStats() for _ in queries]
    loop_stats = [SearchStats() for _ in queries]
    batched = index.search_batch(queries, k, nprobe=nprobe, stats_list=batch_stats)
    assert len(batched) == len(queries)
    for query, (ids, dists), stats in zip(queries, batched, loop_stats):
        want_ids, want_dists = index.search(query, k, nprobe=nprobe, stats=stats)
        assert ids.dtype == want_ids.dtype == np.int64
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(dists, want_dists)
    assert [(s.distance_computations, s.hops) for s in batch_stats] == [
        (s.distance_computations, s.hops) for s in loop_stats
    ]


@pytest.fixture(scope="module")
def workload_shape():
    """The saturation workload's per-index shape: d=100, n=5000, 16 lists."""
    rng = np.random.default_rng(20)
    centers = rng.standard_normal((24, 100)) * 3
    vectors = centers[rng.integers(0, 24, size=5000)] + rng.standard_normal((5000, 100))
    index = IVFFlatIndex(vectors, IVFParams(num_lists=16), rng=np.random.default_rng(21))
    queries = vectors[rng.integers(0, 5000, size=32)] + 0.1 * rng.standard_normal((32, 100))
    return index, queries


class TestListMajorBatch:
    @pytest.mark.parametrize("rows", [1, 16, 32])
    def test_batch_matches_loop_at_workload_shape(self, workload_shape, rows):
        index, queries = workload_shape
        _assert_batch_matches_loop(index, queries[:rows], 80, nprobe=4)

    def test_duplicate_rows_take_the_tie_fallback(self, monkeypatch):
        rng = np.random.default_rng(22)
        vectors = np.repeat(rng.standard_normal((60, 8)), 5, axis=0)
        index = IVFFlatIndex(vectors, IVFParams(num_lists=4), rng=rng)
        verdicts = []
        preselect = ivf.gemm_topk_preselect

        def recording(*args, **kwargs):
            verdicts.append(preselect(*args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(ivf, "gemm_topk_preselect", recording)
        _assert_batch_matches_loop(index, vectors[::37] + 1e-3, 12, nprobe=2)
        assert any(verdict is None for verdict in verdicts)

    def test_empty_posting_list(self, built):
        _, vectors = built
        index = IVFFlatIndex(vectors, IVFParams(num_lists=8), rng=np.random.default_rng(1))
        for node in np.flatnonzero(index.assignments() == 0).tolist():
            index.mark_deleted(node)
        assert index.list_sizes()[0] == 0
        nearest_to_empty = index.centroids[0][None, :] + np.zeros((3, 10))
        _assert_batch_matches_loop(index, nearest_to_empty, 5, nprobe=1)
        _assert_batch_matches_loop(index, nearest_to_empty, 5, nprobe=3)

    def test_probe_every_list_and_k_beyond_the_candidates(self):
        rng = np.random.default_rng(23)
        vectors = rng.standard_normal((50, 6))
        index = IVFFlatIndex(vectors, IVFParams(num_lists=8), rng=rng)
        queries = rng.standard_normal((5, 6))
        _assert_batch_matches_loop(index, queries, 80, nprobe=20)
        _assert_batch_matches_loop(index, queries, 80, nprobe=1)
        (ids, _), = index.search_batch(queries[:1], 80, nprobe=20)
        assert sorted(ids.tolist()) == list(range(50))

    def test_mutations_between_batches_rebuild_the_layout(self, built):
        _, vectors = built
        index = IVFFlatIndex(vectors, IVFParams(num_lists=8), rng=np.random.default_rng(1))
        rng = np.random.default_rng(24)
        queries = vectors[rng.integers(0, 400, size=6)] + 0.01
        _assert_batch_matches_loop(index, queries, 10, nprobe=2)
        new_id = index.insert(queries[0])
        for node in (3, 17, 250):
            index.mark_deleted(node)
        assert sum(index.list_sizes()) == 400 + 1 - 3
        (ids, dists), = index.search_batch(queries[:1], 10, nprobe=2)
        assert ids[0] == new_id and dists[0] == 0.0
        found = np.concatenate(
            [ids for ids, _ in index.search_batch(vectors[[3, 17, 250]], 10, nprobe=8)]
        )
        assert not set(found.tolist()) & {3, 17, 250}
        _assert_batch_matches_loop(index, queries, 10, nprobe=2)

    def test_batch_after_persistence_round_trip(self, workload_shape):
        index, queries = workload_shape
        reloaded = _reload(index)
        assert reloaded.list_sizes() == index.list_sizes()
        _assert_batch_matches_loop(reloaded, queries[:16], 80, nprobe=4)
        for (ids, dists), query in zip(reloaded.search_batch(queries[:16], 80), queries):
            want_ids, want_dists = index.search(query, 80)
            assert np.array_equal(ids, want_ids) and np.array_equal(dists, want_dists)


class TestPersistedPostingLists:
    def test_inserts_on_list_boundaries_keep_their_lists_across_reload(self):
        # Vectors inserted at centroid midpoints sit where two kernels
        # (the diff form insert assigns with, and the GEMM expansion)
        # can pick different nearest centroids; a reload must still
        # rebuild the posting lists the inserts produced.
        rng = np.random.default_rng(0)
        index = IVFFlatIndex(
            rng.standard_normal((2000, 100)) * 2,
            IVFParams(num_lists=16),
            rng=np.random.default_rng(1),
        )
        centroids = index.centroids
        for a, b in rng.integers(0, 16, size=(300, 2)):
            if a != b:
                index.insert((centroids[a] + centroids[b]) / 2)
        index.mark_deleted(5)
        reloaded = _reload(index)
        assert reloaded.list_sizes() == index.list_sizes()
        assert np.array_equal(reloaded.assignments(), index.assignments())
        for query in rng.standard_normal((50, 100)) * 2:
            ids, dists = index.search(query, 10, nprobe=1)
            reloaded_ids, reloaded_dists = reloaded.search(query, 10, nprobe=1)
            assert np.array_equal(ids, reloaded_ids)
            assert np.array_equal(dists, reloaded_dists)


class TestIVFAsFilterBackend:
    def test_ivf_over_dcpe_ciphertexts(self):
        # Section V-A substitutability: IVF built over DCPE ciphertexts
        # plus DCE refine reaches high recall, like HNSW and NSG.
        from repro.core.dce import DCEScheme, distance_comp
        from repro.core.dcpe import DCPEScheme, dcpe_keygen
        from repro.datasets import compute_ground_truth, make_clustered
        from repro.eval.metrics import recall_at_k
        from repro.hnsw.heap import ComparisonMaxHeap

        rng = np.random.default_rng(7)
        dataset = make_clustered(300, 12, 6, num_clusters=8, value_scale=2.0, rng=rng)
        truth = compute_ground_truth(dataset.database, dataset.queries, 10)
        dcpe = DCPEScheme(12, dcpe_keygen(0.3, rng=rng), rng=rng)
        dce = DCEScheme(12, rng=rng)
        sap = dcpe.encrypt_database(dataset.database)
        dce_db = dce.encrypt_database(dataset.database)
        index = IVFFlatIndex(sap, IVFParams(num_lists=8), rng=rng)

        recalls = []
        for i, query in enumerate(dataset.queries):
            candidates, _ = index.search(dcpe.encrypt(query), 60, nprobe=4)
            trapdoor = dce.trapdoor(query)

            def is_farther(a, b):
                return distance_comp(dce_db[a], dce_db[b], trapdoor) >= 0

            heap = ComparisonMaxHeap(10, is_farther)
            for candidate in candidates:
                heap.offer(int(candidate))
            recalls.append(
                recall_at_k(np.array(heap.items()), truth.for_query(i), 10)
            )
        assert np.mean(recalls) >= 0.8

    def test_ef_search_maps_onto_probe_count(self, built):
        """``ef_search`` probes at least ``default_nprobe`` lists, plus
        enough to cover ``ef_search`` vectors of balanced lists."""
        index, vectors = built
        per_list = index.size / index.num_lists
        for ef_search, nprobe in ((None, 4), (10, 4), (int(6 * per_list), 6)):
            stats = SearchStats()
            got = index.search(vectors[3], 10, ef_search=ef_search, stats=stats)
            assert stats.hops == nprobe, ef_search
            want = index.search(vectors[3], 10, nprobe=nprobe)
            assert np.array_equal(got[0], want[0]), ef_search
        with pytest.raises(ParameterError):
            IVFFlatIndex(vectors, IVFParams(num_lists=4), default_nprobe=0)

    def test_default_nprobe_survives_reload_and_rebuild(self, built):
        """A persisted ``default_nprobe`` other than 4 rides through
        ``from_state`` and the compaction ``rebuild``."""
        index, vectors = built
        state = dict(index.state_arrays())
        state["ivf_params"] = state["ivf_params"].copy()
        state["ivf_params"][2] = 2
        loaded = IVFFlatIndex.from_state(index.vectors, state)
        rebuilt = loaded.rebuild(vectors[:300], rng=np.random.default_rng(3))
        for backend in (loaded, rebuilt):
            assert backend.state_arrays()["ivf_params"][2] == 2
            stats_list = [SearchStats(), SearchStats()]
            backend.search_batch(vectors[:2], 10, stats_list=stats_list)
            assert [stats.hops for stats in stats_list] == [2, 2]
