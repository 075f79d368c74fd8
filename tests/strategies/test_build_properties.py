"""Property tests for the reproducible + vectorized construction pipeline.

Two reproducibility contracts the build subsystem promises:

1. **Seed reproducibility** — a sharded build is a pure function of the
   ciphertext slices and the SeedSequence-spawned per-shard child
   seeds, so two builds from identically seeded generators are
   *bit-identical* for every backend kind — and two deployments built
   that way answer the same encrypted batch with the same ids.
2. **HNSW build equivalence** — both HNSW ``build`` modes, later
   inserts and deletion repair produce the graph of the seed's
   one-row-at-a-time insert loop, transcribed below as the oracle, on
   both sides of the dense-row crossover and for any construction flags
   (including duplicate-vector tie patterns, which stress every sorted
   comparison in the beam and the selection heuristic).
3. **NSG build equivalence** — the vectorized NSG build and insert
   produce the graph of the seed's per-id Python loops, transcribed
   below as the oracle.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.build import build_shard_backends
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.core.sharding import assign_shards
from repro.datasets.synthetic import make_clustered, make_dataset
from repro.hnsw.distance import (
    pairwise_squared_distances,
    squared_distances_to_many,
)
from repro.core.errors import DimensionMismatchError, ParameterError
from repro.hnsw import graph as graph_module
from repro.hnsw.graph import HNSWIndex, HNSWParams, _Node
from repro.hnsw.nsg import NSGIndex, NSGParams

from tests.strategies import backend_kinds, databases, seeds

_TINY_HNSW = HNSWParams(m=4, ef_construction=20)

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

shard_counts = st.integers(min_value=2, max_value=5)
strategies = st.sampled_from(("round_robin", "hash"))


def _tiny_params(backend: str):
    return _TINY_HNSW if backend == "hnsw" else None


def _shard_states(data, backend, num_shards, strategy, seed):
    """Per-shard persisted state arrays of one sharded build."""
    assignment = assign_shards(data.shape[0], num_shards, strategy)
    owned = [
        np.nonzero(assignment == shard)[0].astype(np.int64)
        for shard in range(num_shards)
    ]
    backends, timings = build_shard_backends(
        backend,
        data,
        owned,
        rng=np.random.default_rng(seed),
        params=_tiny_params(backend),
    )
    assert len(timings) == num_shards
    assert sum(timing.num_vectors for timing in timings) == data.shape[0]
    return [
        None if built is None else built.state_arrays() for built in backends
    ]


def _assert_states_equal(reference, other, context):
    assert len(reference) == len(other), context
    for left, right in zip(reference, other):
        assert (left is None) == (right is None), context
        if left is None:
            continue
        assert left.keys() == right.keys(), context
        for key in left:
            assert np.array_equal(left[key], right[key]), f"{context}: {key}"


@_SETTINGS
@given(
    data=databases(dim=8),
    backend=backend_kinds,
    num_shards=shard_counts,
    strategy=strategies,
    seed=seeds,
)
def test_sharded_build_is_seed_reproducible(
    data, backend, num_shards, strategy, seed
):
    """Identically seeded sharded builds are bit-identical.

    Every shard consumes its own spawned child generator, never a
    stream shared across shards, so the same parent seed rebuilds the
    same shards for every backend kind.
    """
    _assert_states_equal(
        _shard_states(data, backend, num_shards, strategy, seed),
        _shard_states(data, backend, num_shards, strategy, seed),
        f"{backend} not reproducible at shards={num_shards} strategy={strategy}",
    )


@_SETTINGS
@given(
    data=databases(dim=8, min_rows=40, max_rows=60),
    backend=st.sampled_from(("hnsw", "nsg", "ivf")),
    num_shards=shard_counts,
    seed=seeds,
)
def test_same_seed_deployments_answer_identically(data, backend, num_shards, seed):
    """Two owners on identically seeded generators deploy the same index:
    their servers return the same ids for the same encrypted batch."""
    k = 5

    def deployed():
        owner = DataOwner(
            data.shape[1],
            beta=0.3,
            hnsw_params=_TINY_HNSW,
            backend=backend,
            shards=num_shards,
            rng=np.random.default_rng(seed),
        )
        server = CloudServer(owner.build_index(data))
        user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(seed + 1))
        return server, user

    first_server, user = deployed()
    second_server, _ = deployed()
    queries = np.random.default_rng(seed + 2).standard_normal((4, 8)) * 2.0
    batch = user.encrypt_queries(queries, k, ratio_k=4, ef_search=40)
    assert np.array_equal(
        first_server.answer(batch).ids_matrix(),
        second_server.answer(batch).ids_matrix(),
    )


class _SeedLoopHNSW(HNSWIndex):
    """The seed's HNSW ``insert`` / ``_link`` / ``_search_layer`` /
    ``_greedy_closest`` / ``_select_neighbors`` / ``_heuristic_prune``,
    transcribed literally: one level draw per insert, one gather and
    distance call per hop, and one distance call per pruned candidate."""

    def _draw_level(self) -> int:
        uniform = self._rng.uniform(0.0, 1.0)
        # Guard against log(0).
        uniform = max(uniform, 1e-300)
        return int(-math.log(uniform) * self._params.ml)

    def insert(self, vector, level=None):
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self._dim:
            raise DimensionMismatchError(self._dim, vector.shape[-1])
        node_id = len(self._nodes)
        if level is None:
            level = self._draw_level()
        elif level < 0:
            raise ParameterError(f"level must be >= 0, got {level}")
        if node_id >= self._buffer.shape[0]:
            grown = np.empty((2 * self._buffer.shape[0], self._dim))
            grown[:node_id] = self._buffer[:node_id]
            self._buffer = grown
        self._buffer[node_id] = vector
        self._nodes.append(
            _Node(level=level, neighbors=[[] for _ in range(level + 1)])
        )
        self._adjacency_version += 1  # node count changes the CSR shape
        if self._entry_point is None:
            self._entry_point = node_id
            self._max_level = level
            return node_id

        current = self._entry_point
        # Greedy descent through layers above the new node's level.
        for layer in range(self._max_level, level, -1):
            current = self._greedy_closest(vector, current, layer)
        # Beam search + heuristic linking on the remaining layers.
        ef = max(self._params.ef_construction, 1)
        for layer in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(vector, [current], ef, layer)
            selected = self._select_neighbors(vector, candidates, self._params.m, layer)
            self._set_neighbor_list(node_id, layer, [item for _, item in selected])
            for _, neighbor in selected:
                self._link(neighbor, node_id, layer)
            if candidates:
                current = candidates[0][1]
        if level > self._max_level:
            self._max_level = level
            self._entry_point = node_id
        return node_id

    def _link(self, source, target, layer):
        neighbor_list = self._nodes[source].neighbors[layer]
        if target in neighbor_list:
            return
        neighbor_list.append(target)
        self._adjacency_version += 1
        if self._reverse is not None:
            self._reverse.setdefault(target, set()).add((source, layer))
        max_degree = self._params.max_degree(layer)
        if len(neighbor_list) > max_degree:
            source_vector = self._buffer[source]
            dists = squared_distances_to_many(
                source_vector, self._buffer[neighbor_list]
            )
            candidates = sorted(zip(dists.tolist(), neighbor_list))
            selected = self._heuristic_prune(source_vector, candidates, max_degree)
            self._set_neighbor_list(source, layer, [item for _, item in selected])

    def _select_neighbors(self, vector, candidates, count, layer):
        if self._params.extend_candidates:
            seen = {item for _, item in candidates}
            extended = list(candidates)
            for _, item in candidates:
                extension = (
                    self._nodes[item].neighbors[layer]
                    if layer <= self._nodes[item].level
                    else []
                )
                for neighbor in extension:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        dist = float(
                            squared_distances_to_many(
                                vector, self._buffer[neighbor][np.newaxis]
                            )[0]
                        )
                        extended.append((dist, neighbor))
            candidates = sorted(extended)
        return self._heuristic_prune(vector, candidates, count)

    def _heuristic_prune(self, vector, candidates, count):
        selected = []
        pruned = []
        for dist, item in sorted(candidates):
            if len(selected) >= count:
                break
            item_vector = self._buffer[item]
            dominated = False
            if selected:
                selected_ids = [sid for _, sid in selected]
                to_selected = squared_distances_to_many(
                    item_vector, self._buffer[selected_ids]
                )
                dominated = bool(np.any(to_selected < dist))
            if dominated:
                pruned.append((dist, item))
            else:
                selected.append((dist, item))
        if self._params.keep_pruned:
            for dist, item in pruned:
                if len(selected) >= count:
                    break
                selected.append((dist, item))
        return selected

    def _greedy_closest(self, query, start, layer):
        current = start
        current_dist = float(
            squared_distances_to_many(query, self._buffer[current][np.newaxis])[0]
        )
        improved = True
        while improved:
            improved = False
            neighbor_ids = self._nodes[current].neighbors[layer]
            if not neighbor_ids:
                break
            dists = squared_distances_to_many(query, self._buffer[neighbor_ids])
            best = int(np.argmin(dists))
            if dists[best] < current_dist:
                current = neighbor_ids[best]
                current_dist = float(dists[best])
                improved = True
        return current

    def _search_layer(self, query, entry_points, ef, layer, stats=None):
        visited = set(entry_points)
        entry_dists = squared_distances_to_many(query, self._buffer[entry_points])
        if stats is not None:
            stats.distance_computations += len(entry_points)
        candidates = [(float(d), p) for d, p in zip(entry_dists, entry_points)]
        heapq.heapify(candidates)  # min-heap by distance
        results = [(-float(d), p) for d, p in zip(entry_dists, entry_points)]
        heapq.heapify(results)  # max-heap via negation
        while len(results) > ef:
            heapq.heappop(results)
        while candidates:
            dist, node = heapq.heappop(candidates)
            if results and dist > -results[0][0] and len(results) >= ef:
                break
            if stats is not None:
                stats.hops += 1
            adjacent = self._nodes[node].neighbors[layer]
            neighbor_ids = [n for n in adjacent if n not in visited]
            if not neighbor_ids:
                continue
            visited.update(neighbor_ids)
            dists = squared_distances_to_many(query, self._buffer[neighbor_ids])
            if stats is not None:
                stats.distance_computations += len(neighbor_ids)
            bound = -results[0][0] if len(results) >= ef else math.inf
            for neighbor_dist, neighbor in zip(dists.tolist(), neighbor_ids):
                if neighbor_dist < bound or len(results) < ef:
                    heapq.heappush(candidates, (neighbor_dist, neighbor))
                    heapq.heappush(results, (-neighbor_dist, neighbor))
                    if len(results) > ef:
                        heapq.heappop(results)
                    bound = -results[0][0] if len(results) >= ef else math.inf
        ordered = sorted((-negated, item) for negated, item in results)
        return ordered


def _hnsw_state(index):
    """Entry point, top level and the ``adjacency_arrays()`` export."""
    levels, edges = index.adjacency_arrays()
    return index.entry_point, index.max_level, levels.tolist(), edges.tolist()


construction_flags = st.sampled_from(
    (
        HNSWParams(m=4, ef_construction=20),
        HNSWParams(m=4, ef_construction=16, keep_pruned=False),
        HNSWParams(m=6, ef_construction=24, extend_candidates=True),
    )
)


@_SETTINGS
@example(
    profile="gaussian",
    n=250,
    params=HNSWParams(m=6, ef_construction=30),
    crossover="mid",
    duplicate="none",
    tombstones=0,
    inserts=0,
    seed=1,
)
@example(
    profile="gaussian",
    n=32,
    params=HNSWParams(m=4, ef_construction=16, keep_pruned=False),
    crossover="above",
    duplicate="pool",
    tombstones=1,
    inserts=3,
    seed=4533148,
)
@given(
    profile=st.sampled_from(("gaussian", "deep", "clustered")),
    n=st.integers(min_value=25, max_value=70),
    params=construction_flags,
    crossover=st.sampled_from(("zero", "mid", "above")),
    duplicate=st.sampled_from(("none", "few", "pool")),
    tombstones=st.integers(min_value=0, max_value=3),
    inserts=st.integers(min_value=0, max_value=4),
    seed=seeds,
)
def test_bulk_hnsw_build_equals_sequential(
    profile, n, params, crossover, duplicate, tombstones, inserts, seed
):
    """Both ``build`` modes build the seed insert loop's graph bit for
    bit, and so do later inserts and deletion repair.

    ``crossover`` puts :data:`~repro.hnsw.graph.DENSE_ROW_MAX_NODES` at
    0 (every insert gathers per hop), mid-build (the switch happens
    inside the build) or above every node count (every insert, the
    post-tombstone ones included, reads its dense row).  ``duplicate``
    plants a few repeated vectors (``few``) or draws every row from a
    pool of ``n // 4`` (``pool``), in the build and among the inserts,
    so zero distances and ties at the beam's bound exercise the beam's
    and the prune's knife edges.
    """
    rng = np.random.default_rng(seed)
    total = n + inserts
    if profile == "gaussian":
        rows = rng.standard_normal((total, 8)) * 2.0
    elif profile == "deep":
        rows = make_dataset("deep", total, 1, rng=rng).database
    else:
        rows = make_clustered(total, 8, 1, num_clusters=4, rng=rng).database
    if duplicate == "few":
        rows[[1, 5, n // 2]] = rows[0]
        rows[n:] = rows[rng.integers(0, n, size=inserts)]
    elif duplicate == "pool":
        rows = rows[rng.integers(0, n // 4, size=total)]
    data, extra = rows[:n], rows[n:]
    dense_max = {"zero": 0, "mid": n // 2, "above": total + 1}[crossover]
    oracle = _SeedLoopHNSW(data.shape[1], params, rng=np.random.default_rng(seed))
    for row in data:
        oracle.insert(row)
    built = _hnsw_state(oracle)
    victims = [int(v) for v in rng.choice(n, size=tombstones, replace=False)]
    for node in victims:
        oracle._tombstone(node)
    for vector in extra:
        oracle.insert(vector)
    repaired = oracle.in_neighbors(victims[0]) if victims else []
    if victims:
        oracle.remove_edges_to(victims[0])
    for node in repaired:
        oracle.repair_node(node)
    query = rng.standard_normal(data.shape[1])
    want_ids, want_dists = oracle.search(query, 3, ef_search=20)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "DENSE_ROW_MAX_NODES", dense_max)
        for mode in ("sequential", "bulk"):
            index = HNSWIndex(
                data.shape[1], params, rng=np.random.default_rng(seed)
            ).build(data, mode=mode)
            assert _hnsw_state(index) == built, f"{mode} build"
            for node in victims:
                index._tombstone(node)
            for step, vector in enumerate(extra):
                assert index.insert(vector) == n + step
            if victims:
                assert index.in_neighbors(victims[0]) == repaired
                index.remove_edges_to(victims[0])
            for node in repaired:
                index.repair_node(node)
            assert _hnsw_state(index) == _hnsw_state(oracle), (
                f"{mode} after inserts and repair"
            )
            got_ids, got_dists = index.search(query, 3, ef_search=20)
            assert np.array_equal(got_ids, want_ids), mode
            assert np.array_equal(got_dists, want_dists), mode


class _SeedLoopNSG(NSGIndex):
    """The seed's NSG ``_build`` / ``_prune`` / ``insert``, transcribed
    literally: full stable argsorts filtered id by id, and one distance
    call per (candidate, kept) pair."""

    def _build(self) -> None:
        n = self.size
        knn = min(self._params.knn, n - 1)
        all_dists = pairwise_squared_distances(self._vectors, self._vectors)
        self._medoid = int(np.argmin(all_dists.sum(axis=1)))
        self._neighbors = []
        if n == 1:
            self._neighbors.append([])
            return
        for node in range(n):
            dists = all_dists[node]
            order = np.argsort(dists, kind="stable")
            candidates = [int(i) for i in order if i != node][:knn]
            pruned = self._prune(node, candidates, dists)
            self._neighbors.append(pruned)
        for node in range(n):
            for neighbor in list(self._neighbors[node]):
                if node not in self._neighbors[neighbor]:
                    self._neighbors[neighbor].append(node)
        for node in range(n):
            if len(self._neighbors[node]) > self._params.max_degree:
                dists = all_dists[node]
                self._neighbors[node] = self._prune(
                    node, sorted(self._neighbors[node], key=lambda i: dists[i]), dists
                )
        reachable = self._reachable_from(self._medoid)
        for node in range(n):
            if node not in reachable:
                self._neighbors[self._medoid].append(node)
                self._neighbors[node].append(self._medoid)

    def _prune(self, node, candidates, dists):
        selected = []
        for candidate in candidates:
            if len(selected) >= self._params.max_degree:
                break
            dominated = False
            for kept in selected:
                edge = squared_distances_to_many(
                    self._vectors[candidate], self._vectors[kept][np.newaxis]
                )[0]
                if edge < dists[candidate]:
                    dominated = True
                    break
            if not dominated:
                selected.append(candidate)
        return selected

    def insert(self, vector):
        vector = np.asarray(vector, dtype=np.float64)
        new_id = self.size
        dists = np.append(squared_distances_to_many(vector, self._vectors), 0.0)
        self._vectors = np.vstack([self._vectors, vector])
        order = np.argsort(dists[:new_id], kind="stable")
        candidates = [
            int(i) for i in order if int(i) not in self._deleted
        ][: self._params.knn]
        self._neighbors.append(self._prune(new_id, candidates, dists))
        for neighbor in self._neighbors[new_id]:
            if new_id not in self._neighbors[neighbor]:
                self._neighbors[neighbor].append(new_id)
                if len(self._neighbors[neighbor]) > self._params.max_degree:
                    neighbor_dists = squared_distances_to_many(
                        self._vectors[neighbor], self._vectors
                    )
                    self._neighbors[neighbor] = self._prune(
                        neighbor,
                        sorted(
                            self._neighbors[neighbor],
                            key=lambda i: neighbor_dists[i],
                        ),
                        neighbor_dists,
                    )
        self._adjacency_version += 1
        return new_id


def _assert_same_nsg(index, oracle, context):
    assert index.medoid == oracle.medoid, context
    assert np.array_equal(index.adjacency_arrays(), oracle.adjacency_arrays()), context


nsg_flags = st.sampled_from(
    (NSGParams(knn=8, max_degree=4), NSGParams(knn=5, max_degree=5))
)


@_SETTINGS
@given(
    params=nsg_flags,
    profile=st.sampled_from(("deep", "clustered")),
    size=st.sampled_from(("1", "2", "knn", "knn+1", "knn+2", "200")),
    duplicate=st.booleans(),
    tombstones=st.integers(min_value=0, max_value=4),
    inserts=st.integers(min_value=0, max_value=4),
    seed=seeds,
)
def test_nsg_graph_equals_seed_loops(
    params, profile, size, duplicate, tombstones, inserts, seed
):
    """Vectorized NSG build and insert equal the seed's loops: adjacency
    order and medoid, on both data profiles, at the ``knn`` boundary
    sizes, with duplicated rows tying at that boundary, and with inserts
    made after tombstones are set."""
    n = {"1": 1, "2": 2, "knn": params.knn, "knn+1": params.knn + 1,
         "knn+2": params.knn + 2, "200": 200}[size]
    rng = np.random.default_rng(seed)
    total = n + inserts
    if profile == "deep":
        rows = make_dataset("deep", total, 1, rng=rng).database
    else:
        rows = make_clustered(total, 8, 1, num_clusters=4, rng=rng).database
    if duplicate:
        rows[1 : params.knn + 2] = rows[0]
        rows[n:] = rows[rng.integers(0, n, size=inserts)]
    data, extra = rows[:n], rows[n:]
    index, oracle = NSGIndex(data, params), _SeedLoopNSG(data, params)
    _assert_same_nsg(index, oracle, "build")
    for node in rng.choice(n, size=min(tombstones, n), replace=False):
        index.mark_deleted(int(node))
        oracle.mark_deleted(int(node))
    for step, vector in enumerate(extra):
        assert index.insert(vector) == oracle.insert(vector)
        _assert_same_nsg(index, oracle, f"insert {step}")
