"""HNSW graph tests: construction invariants, search quality, maintenance."""

import numpy as np
import pytest

from repro.core.errors import DimensionMismatchError, ParameterError
from repro.hnsw.bruteforce import exact_knn
from repro.hnsw.graph import HNSWIndex, HNSWParams, SearchStats


@pytest.fixture(scope="module")
def built_graph():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((400, 16))
    index = HNSWIndex(16, HNSWParams(m=8, ef_construction=80), rng=rng).build(vectors)
    return index, vectors


class TestParams:
    def test_defaults(self):
        params = HNSWParams()
        assert params.m == 16
        assert params.max_degree(0) == 32
        assert params.max_degree(1) == 16

    def test_ml_default(self):
        params = HNSWParams(m=16)
        assert np.isclose(params.ml, 1.0 / np.log(16))

    def test_ml_override(self):
        assert HNSWParams(level_multiplier=0.5).ml == 0.5

    def test_validation(self):
        with pytest.raises(ParameterError):
            HNSWParams(m=1)
        with pytest.raises(ParameterError):
            HNSWParams(ef_construction=0)


class TestConstruction:
    def test_size(self, built_graph):
        index, vectors = built_graph
        assert index.size == vectors.shape[0]

    def test_degree_bounds_respected(self, built_graph):
        index, _ = built_graph
        for node in range(index.size):
            for level in range(index.node_level(node) + 1):
                degree = len(index.neighbors(node, level))
                assert degree <= index.params.max_degree(level)

    def test_edges_point_to_valid_nodes(self, built_graph):
        index, _ = built_graph
        for node in range(index.size):
            for neighbor in index.neighbors(node, 0):
                assert 0 <= neighbor < index.size
                assert neighbor != node

    def test_level_distribution_geometric(self):
        rng = np.random.default_rng(1)
        index = HNSWIndex(4, HNSWParams(m=8, ef_construction=20), rng=rng)
        index.build(rng.standard_normal((600, 4)))
        levels = [index.node_level(i) for i in range(index.size)]
        share_level0 = sum(1 for level in levels if level == 0) / len(levels)
        # With mL = 1/ln(8), P(level=0) = 1 - e^{-ln 8} = 7/8.
        assert 0.8 < share_level0 < 0.95

    def test_entry_point_at_max_level(self, built_graph):
        index, _ = built_graph
        assert index.node_level(index.entry_point) == index.max_level

    def test_empty_graph_search(self):
        index = HNSWIndex(4)
        ids, dists = index.search(np.zeros(4), 3)
        assert ids.shape == (0,)

    def test_single_node_graph(self):
        rng = np.random.default_rng(2)
        index = HNSWIndex(4, rng=rng)
        index.insert(np.ones(4))
        ids, dists = index.search(np.ones(4), 1)
        assert ids.tolist() == [0]
        assert dists[0] == pytest.approx(0.0)

    def test_build_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            HNSWIndex(4).build(np.zeros((3, 5)))

    def test_insert_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            HNSWIndex(4).insert(np.zeros(5))

    def test_nonpositive_dim(self):
        with pytest.raises(ParameterError):
            HNSWIndex(0)


class TestSearch:
    def test_recall_floor(self, built_graph):
        index, vectors = built_graph
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((20, 16))
        recalls = []
        for query in queries:
            found, _ = index.search(query, 10, ef_search=80)
            exact, _ = exact_knn(vectors, query, 10)
            recalls.append(len(set(found.tolist()) & set(exact.tolist())) / 10)
        assert np.mean(recalls) >= 0.9

    def test_results_sorted_by_distance(self, built_graph):
        index, _ = built_graph
        query = np.random.default_rng(4).standard_normal(16)
        _, dists = index.search(query, 10, ef_search=60)
        assert np.all(np.diff(dists) >= 0)

    def test_higher_ef_no_worse(self, built_graph):
        index, vectors = built_graph
        rng = np.random.default_rng(5)
        queries = rng.standard_normal((10, 16))

        def recall(ef):
            total = 0.0
            for query in queries:
                found, _ = index.search(query, 10, ef_search=ef)
                exact, _ = exact_knn(vectors, query, 10)
                total += len(set(found.tolist()) & set(exact.tolist())) / 10
            return total / len(queries)

        assert recall(120) >= recall(12) - 0.05

    def test_self_query(self, built_graph):
        index, vectors = built_graph
        found, dists = index.search(vectors[42], 1, ef_search=40)
        assert found[0] == 42
        assert dists[0] == pytest.approx(0.0)

    def test_stats_populated(self, built_graph):
        index, _ = built_graph
        stats = SearchStats()
        index.search(np.random.default_rng(6).standard_normal(16), 5, ef_search=40, stats=stats)
        assert stats.distance_computations > 0
        assert stats.hops > 0

    def test_stats_scale_with_ef(self, built_graph):
        index, _ = built_graph
        query = np.random.default_rng(7).standard_normal(16)
        low, high = SearchStats(), SearchStats()
        index.search(query, 5, ef_search=10, stats=low)
        index.search(query, 5, ef_search=150, stats=high)
        assert high.distance_computations > low.distance_computations

    def test_k_validation(self, built_graph):
        index, _ = built_graph
        with pytest.raises(ParameterError):
            index.search(np.zeros(16), 0)

    def test_ef_below_k_rejected(self, built_graph):
        index, _ = built_graph
        with pytest.raises(ParameterError):
            index.search(np.zeros(16), 10, ef_search=5)

    def test_query_dim_validation(self, built_graph):
        index, _ = built_graph
        with pytest.raises(DimensionMismatchError):
            index.search(np.zeros(7), 3)


class TestMaintenance:
    @pytest.fixture()
    def small_graph(self):
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((120, 8))
        index = HNSWIndex(8, HNSWParams(m=6, ef_construction=40), rng=rng).build(vectors)
        return index, vectors

    def test_mark_deleted_hides_from_search(self, small_graph):
        index, vectors = small_graph
        target = 17
        index.mark_deleted(target)
        found, _ = index.search(vectors[target], 5, ef_search=60)
        assert target not in found

    def test_deleted_entry_point_reassigned(self, small_graph):
        index, _ = small_graph
        old_entry = index.entry_point
        index.mark_deleted(old_entry)
        assert index.entry_point != old_entry
        assert not index.is_deleted(index.entry_point)

    def test_remove_edges_to(self, small_graph):
        index, _ = small_graph
        victim = 30
        assert index.in_neighbors(victim)
        index.remove_edges_to(victim)
        assert not index.in_neighbors(victim)

    def test_repair_restores_connectivity(self, small_graph):
        index, vectors = small_graph
        victim = 50
        in_neighbors = index.in_neighbors(victim)
        index.mark_deleted(victim)
        for neighbor in in_neighbors[:3]:
            assert index.neighbors(neighbor, 0), "repaired node must have edges"

    def test_mark_deleted_out_of_range(self, small_graph):
        index, _ = small_graph
        with pytest.raises(IndexError):
            index.mark_deleted(1000)

    def test_size_reflects_deletions(self, small_graph):
        index, _ = small_graph
        before = index.size
        index.mark_deleted(3)
        assert index.size == before - 1


class TestIntrospection:
    def test_degree_histogram(self, built_graph):
        index, _ = built_graph
        histogram = index.degree_histogram(0)
        assert sum(histogram.values()) == index.size
        assert max(histogram) <= index.params.max_degree(0)

    def test_edge_count(self, built_graph):
        index, _ = built_graph
        assert index.edge_count(0) == sum(
            degree * count for degree, count in index.degree_histogram(0).items()
        )

    def test_adjacency_arrays_match_neighbor_lists(self, built_graph):
        index, _ = built_graph
        levels, edges = index.adjacency_arrays()
        assert levels.dtype == np.int64 and edges.dtype == np.int64
        assert levels.tolist() == [
            index.node_level(i) for i in range(levels.shape[0])
        ]
        expected = [
            (node, level, neighbor)
            for node in range(levels.shape[0])
            for level in range(index.node_level(node) + 1)
            for neighbor in index.neighbors(node, level)
        ]
        assert [tuple(row) for row in edges.tolist()] == expected

    def test_adjacency_arrays_empty_graph(self):
        levels, edges = HNSWIndex(4).adjacency_arrays()
        assert levels.shape == (0,)
        assert edges.shape == (0, 3)

    def test_deleted_ids_sorted(self):
        rng = np.random.default_rng(3)
        index = HNSWIndex(4, HNSWParams(m=4, ef_construction=10), rng=rng)
        index.build(rng.standard_normal((20, 4)))
        assert index.deleted_ids().tolist() == []
        for node in (7, 2, 11):
            index.mark_deleted(node)
        assert index.deleted_ids().tolist() == [2, 7, 11]
        assert index.deleted_ids().dtype == np.int64


class TestBulkBuild:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            HNSWIndex(4).build(np.zeros((3, 4)), mode="turbo")

    def test_bulk_requires_empty_graph(self):
        rng = np.random.default_rng(0)
        index = HNSWIndex(4, HNSWParams(m=4, ef_construction=10), rng=rng)
        index.insert(np.zeros(4))
        with pytest.raises(ParameterError):
            index.build(rng.standard_normal((5, 4)), mode="bulk")

    def test_bulk_empty_input(self):
        index = HNSWIndex(4).build(np.zeros((0, 4)), mode="bulk")
        assert index.size == 0
        assert index.entry_point is None

    def test_bulk_single_row(self):
        index = HNSWIndex(4, rng=np.random.default_rng(0)).build(
            np.ones((1, 4)), mode="bulk"
        )
        assert index.size == 1
        assert index.entry_point == 0

    def test_bulk_matches_sequential(self):
        rng = np.random.default_rng(9)
        vectors = rng.standard_normal((250, 8))
        sequential = HNSWIndex(
            8, HNSWParams(m=6, ef_construction=30), rng=np.random.default_rng(1)
        ).build(vectors)
        bulk = HNSWIndex(
            8, HNSWParams(m=6, ef_construction=30), rng=np.random.default_rng(1)
        ).build(vectors, mode="bulk")
        assert bulk.entry_point == sequential.entry_point
        seq_levels, seq_edges = sequential.adjacency_arrays()
        bulk_levels, bulk_edges = bulk.adjacency_arrays()
        assert np.array_equal(seq_levels, bulk_levels)
        assert np.array_equal(seq_edges, bulk_edges)

    def test_bulk_graph_supports_maintenance(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((60, 6))
        index = HNSWIndex(
            6, HNSWParams(m=4, ef_construction=20), rng=rng
        ).build(vectors, mode="bulk")
        # Post-bulk inserts extend the converted graph like any other.
        new_id = index.insert(vectors[0] + 0.01)
        assert new_id == 60
        ids, _ = index.search(vectors[0], 3, ef_search=30)
        assert new_id in ids.tolist() or 0 in ids.tolist()
        index.mark_deleted(0)
        ids, _ = index.search(vectors[0], 3, ef_search=30)
        assert 0 not in ids.tolist()

    def test_bulk_recall_matches_sequential_quality(self):
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((300, 12))
        queries = rng.standard_normal((10, 12))
        index = HNSWIndex(
            12, HNSWParams(m=8, ef_construction=60), rng=np.random.default_rng(2)
        ).build(vectors, mode="bulk")
        hits = 0
        for query in queries:
            truth = exact_knn(vectors, query, 5)[0]
            found, _ = index.search(query, 5, ef_search=80)
            hits += len(set(found.tolist()) & set(truth.tolist()))
        assert hits / (5 * len(queries)) > 0.8
