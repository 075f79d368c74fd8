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
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.build import build_shard_backends
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.core.sharding import assign_shards
from repro.hnsw.graph import HNSWIndex, HNSWParams

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
