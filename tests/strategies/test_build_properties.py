"""Property tests for the reproducible + vectorized construction pipeline.

Two reproducibility contracts the build subsystem promises:

1. **Seed reproducibility** — a sharded build is a pure function of the
   ciphertext slices and the SeedSequence-spawned per-shard child
   seeds, so two builds from identically seeded generators are
   *bit-identical* for every backend kind — and two deployments built
   that way answer the same encrypted batch with the same ids.
2. **Bulk-mode equivalence** — the ``bulk`` HNSW construction path
   produces the *same graph bit for bit* as the seed's ``sequential``
   insert loop from the same RNG state, for any construction flags
   (including duplicate-vector tie patterns, which stress every sorted
   comparison in the selection heuristic).
3. **NSG build equivalence** — the vectorized NSG build and insert
   produce the graph of the seed's per-id Python loops, transcribed
   below as the oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.build import build_shard_backends
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.core.sharding import assign_shards
from repro.datasets.synthetic import make_clustered, make_dataset
from repro.hnsw.distance import (
    pairwise_squared_distances,
    squared_distances_to_many,
)
from repro.hnsw.graph import HNSWIndex, HNSWParams
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


construction_flags = st.sampled_from(
    (
        HNSWParams(m=4, ef_construction=20),
        HNSWParams(m=4, ef_construction=16, keep_pruned=False),
        HNSWParams(m=6, ef_construction=24, extend_candidates=True),
    )
)


@_SETTINGS
@given(
    data=databases(dim=8, min_rows=25, max_rows=70),
    params=construction_flags,
    seed=seeds,
    duplicate=st.booleans(),
)
def test_bulk_hnsw_build_equals_sequential(data, params, seed, duplicate):
    """``bulk`` builds the sequential oracle's graph bit for bit.

    ``duplicate`` plants repeated vectors so zero distances and sorted
    ties exercise the batched prune's knife edges.
    """
    if duplicate and data.shape[0] >= 6:
        data = data.copy()
        data[1] = data[0]
        data[5] = data[0]
    sequential = HNSWIndex(
        data.shape[1], params, rng=np.random.default_rng(seed)
    ).build(data)
    bulk = HNSWIndex(
        data.shape[1], params, rng=np.random.default_rng(seed)
    ).build(data, mode="bulk")
    assert bulk.entry_point == sequential.entry_point
    assert bulk.max_level == sequential.max_level
    seq_levels, seq_edges = sequential.adjacency_arrays()
    bulk_levels, bulk_edges = bulk.adjacency_arrays()
    assert np.array_equal(bulk_levels, seq_levels)
    assert np.array_equal(bulk_edges, seq_edges)
    # And the graphs answer searches identically.
    query = np.random.default_rng(seed + 1).standard_normal(data.shape[1])
    seq_ids, seq_dists = sequential.search(query, 3, ef_search=20)
    bulk_ids, bulk_dists = bulk.search(query, 3, ef_search=20)
    assert np.array_equal(seq_ids, bulk_ids)
    assert np.array_equal(seq_dists, bulk_dists)


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
