"""Property-based tests for the pluggable filter engines.

The contract the vectorized engine promises
(:mod:`repro.core.filterengine`): for *any* index state — every
registered backend, monolithic or sharded, after arbitrary interleaved
inserts and deletes — it returns **bit-identical** answers to the
seed's per-query beam search: the same ids, the same approximate
distances, the same ``distance_computations`` and ``hops``.  The
batched entry point (``filter_search_batch``: one GEMM per micro-batch
on the brute-force / IVF backends, a lockstep beam search on the graph
backends from ``LOCKSTEP_MIN_ROWS`` rows up and the per-query loop
below) must match the per-query answers element-wise, and so must the
full pipeline (:func:`~repro.core.search.execute_batch`) on either
engine.  Batch sizes are drawn from both sides of that crossover.
Through :class:`~repro.core.roles.CloudServer`, a micro-batch and the
same queries answered one at a time agree on either engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.filterengine import (
    FILTER_ENGINES,
    available_filter_engines,
    get_filter_engine,
)
from repro.core.maintenance import delete_vector, insert_vector
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.core.search import execute_batch
from repro.hnsw.graph import LOCKSTEP_MIN_ROWS, SearchStats

from tests.strategies import backend_kinds, seeds

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_DIM = 8

#: Micro-batch sizes on both sides of the lockstep crossover.
_BATCH_ROWS = sorted(
    {1, 2, 3, LOCKSTEP_MIN_ROWS - 1, LOCKSTEP_MIN_ROWS, LOCKSTEP_MIN_ROWS + 1, 8, 32}
)


@st.composite
def index_scenarios(draw):
    """An index recipe: backend, sharding, and an interleaved mutation tape."""
    backend = draw(backend_kinds)
    shards = draw(st.sampled_from([None, 3]))
    build_seed = draw(seeds)
    mutation_seed = draw(seeds)
    num_rows = draw(st.integers(min_value=24, max_value=48))
    num_inserts = draw(st.integers(min_value=0, max_value=3))
    num_deletes = draw(st.integers(min_value=0, max_value=5))
    return (
        backend, shards, build_seed, mutation_seed,
        num_rows, num_inserts, num_deletes,
    )


def _build_index(scenario):
    """Build the index and replay the scenario's interleaved mutations."""
    (
        backend, shards, build_seed, mutation_seed,
        num_rows, num_inserts, num_deletes,
    ) = scenario
    rng = np.random.default_rng(build_seed)
    owner = DataOwner(_DIM, beta=1.0, backend=backend, shards=shards, rng=rng)
    index = owner.build_index(rng.standard_normal((num_rows, _DIM)) * 2.0)
    mutation_rng = np.random.default_rng(mutation_seed)
    ops = ["insert"] * num_inserts + ["delete"] * num_deletes
    mutation_rng.shuffle(ops)
    for op in ops:
        if op == "insert":
            insert_vector(owner, index, mutation_rng.standard_normal(_DIM) * 2.0)
        else:
            live = [i for i in range(len(index.sap_vectors)) if index.is_live(i)]
            if len(live) > 2:
                delete_vector(index, int(mutation_rng.choice(live)))
    return owner, index


@given(
    scenario=index_scenarios(),
    query_seed=seeds,
    rows=st.sampled_from(_BATCH_ROWS),
    k_prime=st.integers(min_value=1, max_value=8),
    ef_search=st.sampled_from([None, 16, 48]),
)
@_SETTINGS
def test_vectorized_bit_identical_to_heap(
    scenario, query_seed, rows, k_prime, ef_search
):
    """Same ids, dists, distance computations and hops — any index state."""
    owner, index = _build_index(scenario)
    rng = np.random.default_rng(query_seed)
    queries = rng.standard_normal((rows, _DIM)) * 2.0
    user = QueryUser(owner.authorize_user(), rng=rng)
    batch = user.encrypt_queries(queries, 1, ratio_k=k_prime, ef_search=ef_search)
    sap_queries = batch.sap_vectors
    heap_answers = []
    for row in range(sap_queries.shape[0]):
        heap_stats, vec_stats = SearchStats(), SearchStats()
        heap_ids, heap_dists, _ = index.filter_search(
            sap_queries[row], k_prime, ef_search=ef_search,
            stats=heap_stats, engine="heap",
        )
        vec_ids, vec_dists, _ = index.filter_search(
            sap_queries[row], k_prime, ef_search=ef_search,
            stats=vec_stats, engine="vectorized",
        )
        assert np.array_equal(heap_ids, vec_ids), (
            f"ids diverged: heap={heap_ids.tolist()} "
            f"vectorized={vec_ids.tolist()}"
        )
        assert np.array_equal(heap_dists, vec_dists)
        assert heap_stats.distance_computations == vec_stats.distance_computations
        assert heap_stats.hops == vec_stats.hops
        assert heap_stats.kernel_seconds == 0.0
        assert vec_stats.kernel_seconds >= 0.0
        heap_answers.append((heap_ids, heap_dists, heap_stats))

    # The batched entry point must match the per-query oracle answers
    # element-wise, stats included, on both engines.
    for engine in available_filter_engines():
        stats_list = [SearchStats() for _ in range(sap_queries.shape[0])]
        batched = index.filter_search_batch(
            sap_queries, k_prime, ef_search=ef_search,
            stats_list=stats_list, engine=engine,
        )
        for (ids, dists, _), stats, (heap_ids, heap_dists, heap_stats) in zip(
            batched, stats_list, heap_answers
        ):
            assert np.array_equal(ids, heap_ids)
            assert np.array_equal(dists, heap_dists)
            assert stats.distance_computations == heap_stats.distance_computations
            assert stats.hops == heap_stats.hops

    # The full pipeline (k' = k_prime, then refine to k = 1) runs the
    # same filter on either engine, so the refine sees the same
    # candidates and makes the same comparisons.
    answers = {
        engine: execute_batch(index, batch, filter_engine=engine)
        for engine in available_filter_engines()
    }
    for results in answers.values():
        for result, (_, _, heap_stats) in zip(results, heap_answers):
            assert result.k_prime == k_prime
            assert (
                result.filter_stats.distance_computations
                == heap_stats.distance_computations
            )
            assert result.filter_stats.hops == heap_stats.hops
    for heap_result, vec_result in zip(answers["heap"], answers["vectorized"]):
        assert np.array_equal(heap_result.ids, vec_result.ids)
        assert heap_result.refine_comparisons == vec_result.refine_comparisons
        assert vec_result.filter_engine == "vectorized"


@pytest.mark.parametrize("rows", [6, 4 * LOCKSTEP_MIN_ROWS])
@pytest.mark.parametrize("backend", ["hnsw", "bruteforce"])
def test_both_executors_bit_identical_per_engine(backend, rows):
    """Micro-batch == one query at a time, for each engine, via the server.

    The executor runs an ``EncryptedQueryBatch`` through the batched
    kernels (lockstep beam search on graphs from ``LOCKSTEP_MIN_ROWS``
    rows up, one GEMM on brute force) and a lone ``EncryptedQuery``
    through the per-query search.  Both, on both engines, must give the
    heap engine's one-at-a-time answers: same ids, distance
    computations, hops and refine comparisons.
    """
    rng = np.random.default_rng(11)
    owner = DataOwner(_DIM, beta=1.0, backend=backend, rng=rng)
    index = owner.build_index(rng.standard_normal((60, _DIM)) * 2.0)
    user = QueryUser(owner.authorize_user(), rng=rng)
    batch = user.encrypt_queries(
        rng.standard_normal((rows, _DIM)) * 2.0, 4, ef_search=32
    )
    outcomes = {}
    with CloudServer(index) as server:
        for engine in available_filter_engines():
            runs = {
                "batch": list(server.answer(batch, filter_engine=engine)),
                "single": [
                    server.answer(query, filter_engine=engine) for query in batch
                ],
            }
            for way, results in runs.items():
                assert len(results) == rows
                assert all(result.filter_engine == engine for result in results)
                outcomes[(way, engine)] = [
                    (
                        result.ids.tolist(),
                        result.filter_stats.distance_computations,
                        result.filter_stats.hops,
                        result.refine_comparisons,
                    )
                    for result in results
                ]
    baseline = outcomes[("single", "heap")]
    for key, value in outcomes.items():
        assert value == baseline, f"{key} diverged from single/heap"


def test_engine_registry_contract():
    """Lookup mirrors the refine-engine registry semantics."""
    from repro.core.errors import ParameterError

    assert available_filter_engines() == ("heap", "vectorized")
    assert get_filter_engine(None).name == "vectorized"
    assert get_filter_engine("heap") is FILTER_ENGINES["heap"]
    instance = FILTER_ENGINES["vectorized"]
    assert get_filter_engine(instance) is instance
    with pytest.raises(ParameterError):
        get_filter_engine("nope")
    with pytest.raises(ParameterError):
        get_filter_engine(42)
