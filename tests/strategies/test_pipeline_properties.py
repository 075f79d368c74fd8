"""Property-based bit-identity of the staged query pipeline.

The server answers every query through the staged
``resolve -> filter -> mask -> refine -> respond`` pipeline
(:mod:`repro.core.search`), which replaced a monolithic body.  The
refactor's contract is that staging changes *structure only*: the
returned ids — order included — must be bit-identical to the seed path
for every backend kind, monolithic and sharded, in both search modes.  The seed body is reimplemented verbatim
here (:func:`_seed_reference_ids`) as the oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.refine import get_refine_engine
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.hnsw.graph import HNSWParams, SearchStats

from tests.strategies import backend_kinds, databases, ks, ratio_ks, seeds

_TINY_HNSW = HNSWParams(m=4, ef_construction=20)

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Monolithic plus a proper scatter-gather shard count.
shard_counts = st.sampled_from([1, 3])


def _seed_reference_ids(index, query, k_prime, mode):
    """The seed-era monolithic body: filter -> mask -> (refine), inline.

    A literal transcription of the pre-staging ``_run_single``: k'-ANNS
    over the filter structures, tombstone masking against the liveness
    mask, then either the top-k prefix (filter_only) or the refine
    engine's DCE top-k.
    """
    candidate_ids, _, _ = index.filter_search(
        query.sap_vector, k_prime, ef_search=None, stats=SearchStats()
    )
    live_mask = index.live_mask()
    if candidate_ids.shape[0]:
        candidate_ids = candidate_ids[live_mask[candidate_ids]]
    if mode == "filter_only":
        return candidate_ids[: query.k]
    outcome = get_refine_engine(None).refine(
        index.dce_database, query.trapdoor, candidate_ids, query.k
    )
    return outcome.ids


def _make_actors(database, backend, shards, seed):
    rng = np.random.default_rng(seed)
    owner = DataOwner(
        database.shape[1],
        beta=0.3,
        hnsw_params=_TINY_HNSW,
        backend=backend,
        shards=shards if shards > 1 else None,
        rng=rng,
    )
    index = owner.build_index(database)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(seed + 1))
    return index, user


@_SETTINGS
@given(
    data=databases(dim=8),
    k=ks,
    ratio_k=ratio_ks,
    backend=backend_kinds,
    shards=shard_counts,
    seed=seeds,
)
def test_staged_pipeline_matches_seed_reference(
    data, k, ratio_k, backend, shards, seed
):
    """Staged ids == seed-body ids, order included, full mode."""
    index, user = _make_actors(data, backend, shards, seed)
    queries = np.random.default_rng(seed + 2).standard_normal((3, 8)) * 2.0
    k_prime = ratio_k * k
    for row in queries:
        query = user.encrypt_query(row, k)
        staged = CloudServer(index).answer(query, ratio_k=ratio_k)
        reference = _seed_reference_ids(index, query, k_prime, "full")
        assert np.array_equal(staged.ids, reference), (
            f"staged pipeline diverged from the seed body "
            f"(backend={backend}, shards={shards}, k={k}, k'={k_prime})"
        )


@_SETTINGS
@given(
    data=databases(dim=8),
    k=ks,
    ratio_k=ratio_ks,
    backend=backend_kinds,
    shards=shard_counts,
    seed=seeds,
)
def test_staged_pipeline_matches_seed_reference_filter_only(
    data, k, ratio_k, backend, shards, seed
):
    """Staged ids == seed-body ids in filter_only mode too."""
    index, user = _make_actors(data, backend, shards, seed)
    queries = np.random.default_rng(seed + 3).standard_normal((2, 8)) * 2.0
    k_prime = ratio_k * k
    for row in queries:
        query = user.encrypt_query(row, k, mode="filter_only")
        staged = CloudServer(index).answer_filter_only(query, k_prime=k_prime)
        reference = _seed_reference_ids(index, query, k_prime, "filter_only")
        assert np.array_equal(staged.ids, reference), (
            f"filter-only staged pipeline diverged "
            f"(backend={backend}, shards={shards}, k={k}, k'={k_prime})"
        )


@_SETTINGS
@given(
    data=databases(dim=8),
    k=ks,
    backend=backend_kinds,
    shards=shard_counts,
    seed=seeds,
)
def test_served_frontend_matches_seed_reference(data, k, backend, shards, seed):
    """The online micro-batched path answers bit-identically as well."""
    index, user = _make_actors(data, backend, shards, seed)
    server = CloudServer(index)
    queries = np.random.default_rng(seed + 4).standard_normal((4, 8)) * 2.0
    encrypted = [user.encrypt_query(row, k) for row in queries]
    with server.serving_frontend(max_batch_size=4) as frontend:
        served = [frontend.submit(query) for query in encrypted]
        served = [future.result(timeout=30) for future in served]
    k_prime = server.default_ratio_k * k
    for query, result in zip(encrypted, served):
        reference = _seed_reference_ids(index, query, k_prime, "full")
        assert np.array_equal(result.ids, reference), (
            f"served pipeline diverged from the seed body "
            f"(backend={backend}, shards={shards}, k={k})"
        )
