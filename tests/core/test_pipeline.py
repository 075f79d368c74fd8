"""The staged query pipeline: stage structure, timing, settled batches."""

import time

import numpy as np
import pytest

from repro.core.errors import KeyMismatchError, ParameterError
from repro.core.refine import get_refine_engine
from repro.core.roles import DataOwner, QueryUser
from repro.core.search import (
    PIPELINE_STAGES,
    PipelineContext,
    execute_batch,
    execute_batch_settled,
    run_pipeline,
)
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def actors():
    rng = np.random.default_rng(31)
    owner = DataOwner(8, beta=0.3, hnsw_params=FAST_HNSW, rng=rng)
    database = rng.standard_normal((70, 8)) * 2.0
    index = owner.build_index(database)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(32))
    return index, user, database


def _context(index, query, k_prime=10):
    request = query.request.resolve(default_ratio_k=2)
    return PipelineContext(
        index=index,
        sap_vector=query.sap_vector,
        trapdoor=query.trapdoor,
        request=request,
        k_prime=k_prime,
        live_mask=index.live_mask(),
        engine=get_refine_engine(None),
    )


class TestStageStructure:
    def test_stage_names_in_order(self):
        assert [name for name, _ in PIPELINE_STAGES] == [
            "resolve",
            "filter",
            "mask",
            "refine",
            "respond",
        ]

    def test_every_stage_is_timed(self, actors):
        index, user, database = actors
        ctx = _context(index, user.encrypt_query(database[0] + 0.01, 5))
        result = run_pipeline(ctx)
        assert set(ctx.stage_seconds) == {n for n, _ in PIPELINE_STAGES}
        assert all(seconds >= 0 for seconds in ctx.stage_seconds.values())
        assert result is ctx.result

    def test_result_timings_come_from_stage_clocks(self, actors):
        index, user, database = actors
        ctx = _context(index, user.encrypt_query(database[0] + 0.01, 5))
        result = run_pipeline(ctx)
        assert result.filter_seconds == ctx.stage_seconds["filter"]
        assert result.mask_seconds == ctx.stage_seconds["mask"]
        assert result.refine_seconds == ctx.stage_seconds["refine"]
        assert result.total_seconds == pytest.approx(
            ctx.stage_seconds["filter"]
            + ctx.stage_seconds["mask"]
            + ctx.stage_seconds["refine"]
        )

    def test_filter_only_skips_refine(self, actors):
        index, user, database = actors
        query = user.encrypt_query(database[0] + 0.01, 5, mode="filter_only")
        ctx = _context(index, query)
        result = run_pipeline(ctx)
        assert ctx.refine_outcome is None
        assert result.refine_engine is None
        assert result.refine_seconds == 0.0
        assert result.ids.shape[0] == 5

    def test_context_records_intermediate_state(self, actors):
        index, user, database = actors
        ctx = _context(index, user.encrypt_query(database[0] + 0.01, 5))
        run_pipeline(ctx)
        assert ctx.candidate_ids is not None
        assert ctx.refine_outcome is not None
        assert ctx.filter_stats.distance_computations > 0


class TestExecuteBatchSettled:
    def test_all_success_matches_execute_batch(self, actors):
        index, user, database = actors
        batch = user.encrypt_queries(database[:4] + 0.01, 5)
        settled, wall, request = execute_batch_settled(index, batch)
        batched = execute_batch(index, batch)
        assert wall > 0
        assert request.ratio_k is not None  # fully resolved
        assert request == batched.request
        assert len(settled) == 4
        assert all(outcome.ok for outcome in settled)
        for outcome, result in zip(settled, batched):
            assert np.array_equal(outcome.value.ids, result.ids)

    def test_batch_level_validation_still_raises(self, actors):
        index, user, database = actors
        stranger = QueryUser(
            DataOwner(8, beta=0.3, rng=np.random.default_rng(77)).authorize_user(),
            rng=np.random.default_rng(78),
        )
        batch = stranger.encrypt_queries(database[:3] + 0.01, 5)
        with pytest.raises(KeyMismatchError):
            execute_batch_settled(index, batch)

    def test_per_query_failures_settle_in_place(self, actors, monkeypatch):
        """A stage failure for one query settles at its position while
        siblings complete — the serving layer's contract."""
        index, user, database = actors
        batch = user.encrypt_queries(database[:4] + 0.01, 5)

        from repro.core import search as search_module

        original = search_module.stage_refine

        def flaky_refine(ctx):
            # Poison exactly the query whose sap row matches index 2.
            if np.array_equal(ctx.sap_vector, batch.sap_vectors[2]):
                raise RuntimeError("stage poisoned")
            original(ctx)

        monkeypatch.setattr(search_module, "stage_refine", flaky_refine)
        monkeypatch.setattr(
            search_module,
            "PIPELINE_STAGES",
            tuple(
                (name, flaky_refine if name == "refine" else fn)
                for name, fn in search_module.PIPELINE_STAGES
            ),
        )
        settled, _, _ = execute_batch_settled(index, batch)
        assert [outcome.ok for outcome in settled] == [True, True, False, True]
        with pytest.raises(RuntimeError, match="stage poisoned"):
            settled[2].unwrap()
        reference = execute_batch(
            index, user.encrypt_queries(database[:2] + 0.01, 5)
        )
        assert np.array_equal(settled[0].value.ids, reference[0].ids)

    def test_wall_seconds_covers_the_batched_filter(self, monkeypatch):
        """A brute-force batch is filtered by one GEMM pre-pass before
        the per-query loop, each query carrying an equal share of it.
        ``wall_seconds`` starts before that pre-pass, so it is never
        less than the summed per-query filter times."""
        rng = np.random.default_rng(41)
        owner = DataOwner(8, beta=0.3, backend="bruteforce", rng=rng)
        database = rng.standard_normal((200, 8)) * 2.0
        index = owner.build_index(database)
        user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(42))
        batch = user.encrypt_queries(database[:8] + 0.01, 5)
        kernel = index.filter_search_batch

        def slow_kernel(*args, **kwargs):
            time.sleep(0.05)  # a pre-pass that outlasts the per-query loop
            return kernel(*args, **kwargs)

        monkeypatch.setattr(index, "filter_search_batch", slow_kernel)
        results = execute_batch(index, batch)
        assert results.filter_seconds >= 0.05  # the pre-pass ran
        assert results.wall_seconds >= results.filter_seconds

    def test_dim_mismatch_raises(self, actors):
        index, _, _ = actors
        other = DataOwner(5, beta=0.3, rng=np.random.default_rng(5))
        stranger = QueryUser(other.authorize_user(), rng=np.random.default_rng(6))
        batch = stranger.encrypt_queries(np.zeros((2, 5)), 3)
        with pytest.raises(ParameterError, match="dimension"):
            execute_batch_settled(index, batch)


class TestBatchedPrePassRaisesNothing:
    """``execute_batch_settled`` falls back to the per-query path when
    the batched filter pre-pass raises, and the fallback returns the same
    ids, so comparing ids alone cannot see a pre-pass that always fails.
    Here every backend's pre-pass must run exactly once and return."""

    @pytest.mark.parametrize(
        "backend,shards",
        [
            ("bruteforce", None),
            ("ivf", None),
            ("hnsw", None),
            ("nsg", None),
            ("bruteforce", 2),
        ],
    )
    def test_pre_pass_runs_once_without_raising(self, backend, shards, monkeypatch):
        rng = np.random.default_rng(51)
        owner = DataOwner(
            8, beta=0.3, hnsw_params=FAST_HNSW, backend=backend, shards=shards, rng=rng
        )
        database = rng.standard_normal((200, 8)) * 2.0
        index = owner.build_index(database)
        user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(52))
        batch = user.encrypt_queries(database[:6] + 0.01, 5)
        kernel = index.filter_search_batch
        calls, errors = [], []

        def recording_kernel(*args, **kwargs):
            calls.append(len(args[0]))
            try:
                return kernel(*args, **kwargs)
            except Exception as exc:
                errors.append(exc)
                raise

        monkeypatch.setattr(index, "filter_search_batch", recording_kernel)
        settled, _, _ = execute_batch_settled(index, batch)
        assert errors == []
        assert calls == [6]
        assert all(outcome.ok for outcome in settled)
