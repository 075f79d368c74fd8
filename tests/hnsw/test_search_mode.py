"""The layer-0 CSR snapshot, the reverse-adjacency map, and tombstone beams.

Covers the filter-engine substrate at the graph layer:

* ``search_mode`` compiles lazily per adjacency generation — only when a
  batch is large enough to run in lockstep — and any mutation
  invalidates it.
* ``search_batch`` replays ``search`` exactly on both sides of the
  ``LOCKSTEP_MIN_ROWS`` crossover.
* ``in_neighbors`` / ``remove_edges_to`` are served from an
  incrementally maintained reverse-adjacency map; these tests pin their
  answers to a brute-force scan of the forward adjacency (the seed
  implementation) across arbitrary interleaved mutations, so the O(1)
  map can never drift from the O(n * edges) semantics it replaced.
* Tombstones widen the layer-0 beam: ``k`` live results come back even
  when every beam slot would otherwise be occupied by a deleted node.
"""

import numpy as np
import pytest

from repro.hnsw.graph import LOCKSTEP_MIN_ROWS, HNSWIndex, HNSWParams, SearchStats
from repro.hnsw.nsg import NSGIndex, NSGParams


def _deleted(index) -> set:
    return set(index.deleted_ids().tolist())


def _lockstep(index):
    """``search``'s signature, answered by the lockstep batch path."""

    def search(query, k, ef_search=None):
        block = np.tile(query, (LOCKSTEP_MIN_ROWS, 1))
        return index.search_batch(block, k, ef_search=ef_search)[-1]

    return search


def _node_count(index: HNSWIndex) -> int:
    """Total slots including tombstones (``size`` counts live only)."""
    return index.vectors.shape[0]


def _reference_in_neighbors(index: HNSWIndex, node: int, layer: int = 0) -> list:
    """The seed's semantics: scan every forward list at ``layer``, sorted."""
    tombstones = _deleted(index)
    found = []
    for source in range(_node_count(index)):
        if source == node or source in tombstones:
            continue
        if layer > index.node_level(source):
            continue
        if node in index.neighbors(source, layer):
            found.append(source)
    return sorted(found)


@pytest.fixture(scope="module")
def medium_graph():
    rng = np.random.default_rng(42)
    vectors = rng.standard_normal((150, 12))
    index = HNSWIndex(12, HNSWParams(m=6, ef_construction=60), rng=rng)
    index.build(vectors)
    return index, vectors


class TestReverseAdjacency:
    def test_in_neighbors_matches_forward_scan(self, medium_graph):
        index, _ = medium_graph
        for node in range(0, _node_count(index), 7):
            for layer in range(min(index.node_level(node), 1) + 1):
                assert index.in_neighbors(node, layer) == _reference_in_neighbors(
                    index, node, layer
                )

    def test_consistent_under_interleaved_mutations(self):
        rng = np.random.default_rng(9)
        index = HNSWIndex(6, HNSWParams(m=4, ef_construction=30), rng=rng)
        index.build(rng.standard_normal((60, 6)))
        for step in range(30):
            if step % 3 == 2:
                live = [
                    n for n in range(_node_count(index)) if not index.is_deleted(n)
                ]
                victim = int(rng.choice(live))
                index.mark_deleted(victim)
            else:
                index.insert(rng.standard_normal(6))
            probe = int(rng.integers(0, _node_count(index)))
            assert index.in_neighbors(probe) == _reference_in_neighbors(index, probe)

    def test_remove_edges_to_repair_semantics_unchanged(self):
        """The Section V-D repair pipeline behaves exactly as the seed's.

        After ``mark_deleted`` (unlink + tombstone + repair), the victim
        has no in-edges at any layer, the former in-neighbors keep valid
        (capped, victim-free) neighbor lists, and searches never return
        the victim.
        """
        rng = np.random.default_rng(17)
        vectors = rng.standard_normal((120, 8))
        index = HNSWIndex(8, HNSWParams(m=6, ef_construction=50), rng=rng)
        index.build(vectors)
        victim = 11
        in_neighbors = index.in_neighbors(victim)
        assert in_neighbors, "test needs a victim with in-edges"
        index.mark_deleted(victim)
        for layer in range(index.max_level + 1):
            assert index.in_neighbors(victim, layer) == []
        for neighbor in in_neighbors:
            for layer in range(index.node_level(neighbor) + 1):
                neighbor_list = index.neighbors(neighbor, layer)
                assert victim not in neighbor_list
                assert len(neighbor_list) <= index.params.max_degree(layer)
        ids, _ = index.search(vectors[victim], 10, ef_search=60)
        assert victim not in ids.tolist()


class TestTombstoneBeam:
    def test_hnsw_returns_k_live_results_despite_tombstones(self):
        """Tombstones inside the ef beam must not starve the answer."""
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((90, 8))
        index = HNSWIndex(8, HNSWParams(m=6, ef_construction=60), rng=rng)
        index.build(vectors)
        query = vectors[0] + 0.01
        # Tombstone the 40 nearest nodes, edges kept (``mark_deleted``
        # would unlink them): with ef_search=12 a fixed-width beam would
        # be wall-to-wall tombstones and return far fewer than k live ids.
        near, _ = index.search(query, 40, ef_search=90)
        for node in near.tolist():
            index._tombstone(node)
        for method in (index.search, _lockstep(index)):
            ids, dists = method(query, 10, ef_search=12)
            assert ids.shape[0] == 10
            assert not set(ids.tolist()) & _deleted(index)
            assert np.all(np.diff(dists) >= 0)

    def test_nsg_returns_k_live_results_despite_tombstones(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((90, 8))
        index = NSGIndex(vectors, NSGParams(knn=8, max_degree=6))
        query = vectors[0] + 0.01
        near, _ = index.search(query, 40, ef_search=90)
        for node in near.tolist():
            index.mark_deleted(node)
        for method in (index.search, _lockstep(index)):
            ids, dists = method(query, 10, ef_search=12)
            assert ids.shape[0] == 10
            assert not set(ids.tolist()) & _deleted(index)
            assert np.all(np.diff(dists) >= 0)


#: Batch sizes on both sides of the lockstep crossover.
_ROW_COUNTS = (1, LOCKSTEP_MIN_ROWS - 1, LOCKSTEP_MIN_ROWS, 9)


class TestSearchMode:
    def test_cached_per_generation_and_invalidated_on_mutation(self):
        rng = np.random.default_rng(5)
        index = HNSWIndex(6, HNSWParams(m=4, ef_construction=30), rng=rng)
        index.build(rng.standard_normal((40, 6)))
        mode = index.search_mode()
        assert index.search_mode() is mode  # cached, same generation
        index.insert(rng.standard_normal(6))
        fresh = index.search_mode()
        assert fresh is not mode
        assert fresh.indptr.shape[0] == _node_count(index) + 1

    @pytest.mark.parametrize("kind", ["hnsw", "nsg"])
    def test_only_lockstep_batches_compile_a_snapshot(self, kind):
        """Single queries and sub-crossover batches never pay for one."""
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((40, 6))
        if kind == "hnsw":
            index = HNSWIndex(6, HNSWParams(m=4, ef_construction=30), rng=rng)
            index.build(vectors)
        else:
            index = NSGIndex(vectors, NSGParams(knn=6, max_degree=4))
        queries = rng.standard_normal((LOCKSTEP_MIN_ROWS, 6))
        index.search(queries[0], 3)
        index.search_batch(queries[: LOCKSTEP_MIN_ROWS - 1], 3)
        assert index._search_mode is None
        index.search_batch(queries, 3)
        assert index._search_mode is not None

    @pytest.mark.parametrize("rows", _ROW_COUNTS)
    @pytest.mark.parametrize("with_tombstones", [False, True])
    def test_lockstep_batch_matches_per_query_search(
        self, medium_graph, with_tombstones, rows
    ):
        """``search_batch`` replays each query's solo beam exactly.

        The lockstep rounds fuse distance blocks across queries, so this
        pins the invariant the fusion relies on: per-row reductions are
        independent of batch composition, and every query's ids, dists
        and stats counters equal the single-query call's — on both
        sides of the lockstep crossover.
        """
        index, vectors = medium_graph
        if with_tombstones:
            # A private copy so the module-scoped graph stays pristine.
            rng = np.random.default_rng(42)
            index = HNSWIndex(12, HNSWParams(m=6, ef_construction=60), rng=rng)
            index.build(np.random.default_rng(42).standard_normal((150, 12)))
            for node in (3, 17, 40, 41, 99):
                index._tombstone(node)  # edges kept: tombstones in the beam
        queries = np.random.default_rng(13).standard_normal((rows, 12))
        stats_batch = [SearchStats() for _ in range(rows)]
        batched = index.search_batch(queries, 7, ef_search=40, stats_list=stats_batch)
        for row in range(rows):
            stats_solo = SearchStats()
            ids, dists = index.search(
                queries[row], 7, ef_search=40, stats=stats_solo
            )
            assert np.array_equal(batched[row][0], ids)
            assert np.array_equal(batched[row][1], dists)
            assert (
                stats_batch[row].distance_computations
                == stats_solo.distance_computations
            )
            assert stats_batch[row].hops == stats_solo.hops

    @pytest.mark.parametrize("rows", _ROW_COUNTS)
    def test_nsg_lockstep_batch_matches_per_query_search(self, rows):
        rng = np.random.default_rng(21)
        vectors = rng.standard_normal((120, 10))
        index = NSGIndex(vectors, NSGParams(knn=10, max_degree=8))
        for node in (5, 6, 70):
            index.mark_deleted(node)
        queries = rng.standard_normal((rows, 10))
        stats_batch = [SearchStats() for _ in range(rows)]
        batched = index.search_batch(queries, 5, ef_search=24, stats_list=stats_batch)
        for row in range(rows):
            stats_solo = SearchStats()
            ids, dists = index.search(queries[row], 5, ef_search=24, stats=stats_solo)
            assert np.array_equal(batched[row][0], ids)
            assert np.array_equal(batched[row][1], dists)
            assert (
                stats_batch[row].distance_computations
                == stats_solo.distance_computations
            )
            assert stats_batch[row].hops == stats_solo.hops
