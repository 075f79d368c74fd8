"""ServingFrontend end-to-end: parity, backpressure, error isolation.

The serving layer promises it changes *scheduling only*: every answer a
scheduler-formed micro-batch delivers must be bit-identical to the
offline ``CloudServer.answer`` path, failures must stay per-query, and
a full admission queue must shed load explicitly.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.dce import DCETrapdoor
from repro.core.errors import (
    KeyMismatchError,
    ParameterError,
    PPANNSError,
)
from repro.core.filterengine import HeapFilterEngine
from repro.core.protocol import EncryptedQuery, SearchResultBatch
from repro.core.refine import HeapRefineEngine, get_refine_engine
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.serve import QueueFullError, ServingFrontend
from tests.conftest import FAST_HNSW


def _build_actors(
    backend="bruteforce", shards=None, seed=11, n=80, dim=8, **server_options
):
    rng = np.random.default_rng(seed)
    owner = DataOwner(
        dim,
        beta=0.3,
        hnsw_params=FAST_HNSW,
        backend=backend,
        shards=shards,
        rng=rng,
    )
    database = rng.standard_normal((n, dim)) * 2.0
    index = owner.build_index(database)
    server = CloudServer(index, **server_options)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(seed + 1))
    return server, user, database


class TestServedParity:
    @pytest.mark.parametrize("backend", ["hnsw", "nsg", "ivf", "bruteforce"])
    def test_served_matches_offline_answer(self, backend):
        server, user, database = _build_actors(backend=backend)
        queries = [user.encrypt_query(database[i] + 0.01, 5) for i in range(6)]
        expected = [server.answer(query) for query in queries]
        with server.serving_frontend(max_batch_size=3) as frontend:
            futures = [frontend.submit(query) for query in queries]
            served = [future.result(timeout=30) for future in futures]
        for want, got in zip(expected, served):
            assert np.array_equal(want.ids, got.ids)

    def test_sharded_scatter_gather_from_scheduler_thread(self):
        """Shard scatter-gather must run correctly when the batch runs
        on the scheduler thread (the scatter fans out over the pool)."""
        server, user, database = _build_actors(backend="bruteforce", shards=3)
        queries = [user.encrypt_query(database[i] + 0.01, 5) for i in range(5)]
        expected = [server.answer(query) for query in queries]
        with server.serving_frontend(max_batch_size=5) as frontend:
            served = [
                future.result(timeout=30)
                for future in [frontend.submit(query) for query in queries]
            ]
        for want, got in zip(expected, served):
            assert np.array_equal(want.ids, got.ids)
            assert got.shard_timings is not None
            assert sorted(t.shard_id for t in got.shard_timings) == [0, 1, 2]

    def test_filter_only_queries_serve(self):
        server, user, database = _build_actors()
        queries = [
            user.encrypt_query(database[i] + 0.01, 5, mode="filter_only")
            for i in range(4)
        ]
        expected = [server.answer(query) for query in queries]
        with server.serving_frontend(max_batch_size=4) as frontend:
            served = [
                future.result(timeout=30)
                for future in [frontend.submit(query) for query in queries]
            ]
        for want, got in zip(expected, served):
            assert np.array_equal(want.ids, got.ids)
            assert got.refine_engine is None

    def test_mixed_requests_split_into_compatible_groups(self):
        """Different k values can share a micro-batch; each group gets
        its own stacked message and every answer stays correct."""
        server, user, database = _build_actors()
        q_small = [user.encrypt_query(database[i] + 0.01, 3) for i in range(3)]
        q_large = [user.encrypt_query(database[i] + 0.01, 7) for i in range(3)]
        interleaved = [q for pair in zip(q_small, q_large) for q in pair]
        expected = [server.answer(query) for query in interleaved]
        with server.serving_frontend(max_batch_size=6) as frontend:
            served = [
                future.result(timeout=30)
                for future in [frontend.submit(query) for query in interleaved]
            ]
        for query, want, got in zip(interleaved, expected, served):
            assert got.ids.shape[0] == query.k
            assert np.array_equal(want.ids, got.ids)

    def test_answer_many_returns_batch_in_submission_order(self):
        server, user, database = _build_actors()
        queries = [user.encrypt_query(database[i] + 0.01, 4) for i in range(5)]
        expected = [server.answer(query) for query in queries]
        with server.serving_frontend() as frontend:
            batch = frontend.answer_many(queries)
        assert isinstance(batch, SearchResultBatch)
        assert len(batch) == 5
        for want, got in zip(expected, batch):
            assert np.array_equal(want.ids, got.ids)


class _CountingRefineEngine(HeapRefineEngine):
    """An unregistered refine engine instance that counts its calls."""

    name = "counting-refine"

    def __init__(self):
        self.calls = 0

    def refine(self, *args, **kwargs):
        self.calls += 1
        return super().refine(*args, **kwargs)


class _CountingFilterEngine(HeapFilterEngine):
    """An unregistered filter engine instance that counts its calls."""

    name = "counting-filter"

    def __init__(self):
        self.calls = 0

    def search(self, *args, **kwargs):
        self.calls += 1
        return super().search(*args, **kwargs)

    def search_batch(self, *args, **kwargs):
        self.calls += 1
        return super().search_batch(*args, **kwargs)


class TestServerEngineInstances:
    @pytest.mark.parametrize(
        "option, engine_type",
        [
            ("refine_engine", _CountingRefineEngine),
            ("filter_engine", _CountingFilterEngine),
        ],
    )
    def test_served_requests_use_the_server_engine_instance(
        self, option, engine_type
    ):
        """A server built with an engine *instance* serves with that
        instance, exactly as it answers directly."""
        engine = engine_type()
        server, user, database = _build_actors(**{option: engine})
        queries = [user.encrypt_query(database[i] + 0.01, 5) for i in range(3)]
        expected = [server.answer(query) for query in queries]
        direct_calls = engine.calls
        assert direct_calls > 0
        with server.serving_frontend(max_batch_size=3) as frontend:
            served = [
                future.result(timeout=30)
                for future in [frontend.submit(query) for query in queries]
            ]
        assert engine.calls > direct_calls
        for want, got in zip(expected, served):
            assert np.array_equal(want.ids, got.ids)


class _MarkedFailureEngine:
    """Refine engine that raises for queries whose trapdoor is NaN-marked."""

    name = "marked-failure"

    def refine(self, dce, trapdoor, candidate_ids, k):
        if np.isnan(trapdoor.vector).any():
            raise RuntimeError("poisoned query")
        return get_refine_engine("heap").refine(dce, trapdoor, candidate_ids, k)


def _poisoned_copy(query):
    """The same query message with a NaN-marked trapdoor (same key/shape)."""
    return EncryptedQuery(
        query.sap_vector,
        DCETrapdoor(
            np.full_like(query.trapdoor.vector, np.nan), query.trapdoor.key_id
        ),
        request=query.request,
    )


class TestErrorSemantics:
    """Per-query settling surfaced at the serving layer:
    a failing query inside a scheduler-formed micro-batch must not
    kill, reorder, or stall its batch siblings, and the queue must keep
    draining afterward."""

    def test_poisoned_query_fails_alone_and_queue_keeps_draining(self):
        server, user, database = _build_actors()
        good = [user.encrypt_query(database[i] + 0.01, 5) for i in range(4)]
        expected = [server.answer(query) for query in good]
        poisoned = _poisoned_copy(good[1])
        frontend = ServingFrontend(
            CloudServer(server.index, refine_engine=_MarkedFailureEngine()),
            max_batch_size=5,
        )
        with frontend:
            # Back to back: good, POISONED, good, good, good.
            submitted = [
                frontend.submit(good[0]),
                frontend.submit(poisoned),
                frontend.submit(good[1]),
                frontend.submit(good[2]),
                frontend.submit(good[3]),
            ]
            # The poisoned query delivers its own failure...
            with pytest.raises(RuntimeError, match="poisoned query"):
                submitted[1].result(timeout=30)
            # ...while every sibling completes with the right answer —
            # not killed, not stalled, and not reordered (each future
            # carries its own query's ids).
            assert np.array_equal(
                submitted[0].result(timeout=30).ids, expected[0].ids
            )
            for future, want in zip(submitted[2:], expected[1:]):
                assert np.array_equal(future.result(timeout=30).ids, want.ids)
            # The scheduler survived: later traffic still drains.
            after = frontend.submit(good[0]).result(timeout=30)
            assert np.array_equal(after.ids, expected[0].ids)
            snapshot = frontend.metrics.snapshot()
        assert snapshot.failed == 1
        assert snapshot.completed == 5

    def test_group_level_failure_poisons_only_its_group(self):
        """A batch-level validation failure (wrong DCE key) fails every
        query of that key's group — and only that group; the queue keeps
        draining."""
        server, user, database = _build_actors()
        stranger = QueryUser(
            DataOwner(8, beta=0.3, rng=np.random.default_rng(99)).authorize_user(),
            rng=np.random.default_rng(100),
        )
        good = [user.encrypt_query(database[i] + 0.01, 5) for i in range(2)]
        bad = [stranger.encrypt_query(database[i] + 0.01, 5) for i in range(2)]
        expected = [server.answer(query) for query in good]
        with server.serving_frontend(max_batch_size=4) as frontend:
            futures = [
                frontend.submit(good[0]),
                frontend.submit(bad[0]),
                frontend.submit(good[1]),
                frontend.submit(bad[1]),
            ]
            for future in (futures[1], futures[3]):
                with pytest.raises(KeyMismatchError):
                    future.result(timeout=30)
            assert np.array_equal(futures[0].result(timeout=30).ids, expected[0].ids)
            assert np.array_equal(futures[2].result(timeout=30).ids, expected[1].ids)
            # Queue drains afterward.
            again = frontend.submit(good[0]).result(timeout=30)
            assert np.array_equal(again.ids, expected[0].ids)

    def test_dimension_mismatch_fails_fast_at_submit(self):
        server, user, _ = _build_actors()
        wrong_dim_user = QueryUser(
            DataOwner(5, beta=0.3, rng=np.random.default_rng(5)).authorize_user(),
            rng=np.random.default_rng(6),
        )
        query = wrong_dim_user.encrypt_query(np.zeros(5), 3)
        with server.serving_frontend() as frontend:
            with pytest.raises(ParameterError, match="dimension"):
                frontend.submit(query)


class TestBackpressure:
    def test_queue_full_raises_explicitly(self):
        server, user, database = _build_actors()
        queries = [user.encrypt_query(database[i] + 0.01, 3) for i in range(6)]
        frontend = ServingFrontend(server, max_batch_size=1, max_queue_depth=2)
        release = threading.Event()
        inner_execute = frontend._execute

        def blocked_execute(batch):
            release.wait(timeout=30)
            return inner_execute(batch)

        frontend._execute = blocked_execute
        try:
            frontend.start()
            futures = [frontend.submit(queries[0])]
            # The scheduler thread is blocked inside the first batch;
            # fill the admission queue behind it...
            deadline = time.time() + 5
            rejected = False
            while time.time() < deadline and not rejected:
                try:
                    futures.append(frontend.submit(queries[len(futures) % 6]))
                except QueueFullError:
                    rejected = True
            assert rejected, "queue never reported full"
            assert frontend.metrics.snapshot().rejected >= 1
        finally:
            release.set()
            frontend.stop()
        # Everything admitted before the rejection still answered.
        for future in futures:
            assert future.result(timeout=30).ids.shape[0] == 3

    def test_queue_full_error_is_a_ppanns_error(self):
        assert issubclass(QueueFullError, PPANNSError)

    def test_invalid_queue_depth_rejected(self):
        server, _, _ = _build_actors()
        with pytest.raises(ParameterError):
            ServingFrontend(server, max_queue_depth=0)

    def test_invalid_batch_cap_rejected_at_construction(self):
        """A zero cap fails when the frontend is built, not at the first
        submit that lazily starts the scheduler."""
        server, _, _ = _build_actors()
        with pytest.raises(ParameterError, match="max_batch_size"):
            server.serving_frontend(max_batch_size=0)


class TestCacheIntegration:
    def test_cache_disabled_by_default(self):
        """There is no result cache: a repeated ciphertext runs the
        pipeline again, and ``cache_hits`` reads a constant 0 in both the
        snapshot and its JSON form (the end-to-end benchmark reports
        that field)."""
        server, user, database = _build_actors()
        query = user.encrypt_query(database[0] + 0.01, 5)
        with server.serving_frontend() as frontend:
            first = frontend.answer(query, timeout=30)
            second = frontend.answer(query, timeout=30)
            snapshot = frontend.metrics.snapshot()
        assert np.array_equal(first.ids, second.ids)
        assert snapshot.completed == 2
        assert snapshot.cache_hits == 0
        assert snapshot.as_dict()["cache_hits"] == 0

    def test_facade_delete_while_serving_drops_the_id(self):
        from repro import PPANNS

        rng = np.random.default_rng(2)
        database = rng.standard_normal((120, 8)) * 2.0
        scheme = PPANNS(dim=8, beta=0.3, backend="bruteforce", rng=rng).fit(
            database
        )
        query = scheme.user.encrypt_query(database[9] + 0.001, 5)
        with scheme.serve() as frontend:
            first = frontend.answer(query, timeout=30)
            assert 9 in first.ids.tolist()
            scheme.delete(9)
            fresh = frontend.answer(query, timeout=30)  # same ciphertext
            assert 9 not in fresh.ids.tolist()


class TestLifecycle:
    def test_stop_answers_everything_admitted(self):
        server, user, database = _build_actors()
        queries = [user.encrypt_query(database[i] + 0.01, 4) for i in range(8)]
        frontend = server.serving_frontend(max_batch_size=4)
        frontend.start()
        futures = [frontend.submit(query) for query in queries]
        # Stop immediately: the drain answers everything still queued.
        start = time.perf_counter()
        frontend.stop()
        assert time.perf_counter() - start < 5.0
        for future in futures:
            assert future.result(timeout=1).ids.shape[0] == 4

    def test_restart_after_stop(self):
        server, user, database = _build_actors()
        query = user.encrypt_query(database[0] + 0.01, 4)
        frontend = server.serving_frontend()
        with frontend:
            first = frontend.answer(query, timeout=30)
        # A new submission after stop() lazily restarts the scheduler.
        second = frontend.answer(query, timeout=30)
        assert np.array_equal(first.ids, second.ids)
        frontend.stop()

    def test_metrics_expose_batching_shape(self):
        server, user, database = _build_actors()
        queries = [user.encrypt_query(database[i] + 0.01, 4) for i in range(6)]
        with server.serving_frontend(max_batch_size=3) as frontend:
            for future in [frontend.submit(query) for query in queries]:
                future.result(timeout=30)
            snapshot = frontend.metrics.snapshot()
        assert snapshot.completed == 6
        assert snapshot.batches >= 2  # size cap 3 over 6 queries
        assert sum(
            size * count for size, count in snapshot.batch_size_histogram.items()
        ) == 6
        assert snapshot.stage_seconds["filter"] > 0

    def test_cancelled_future_is_dropped_and_siblings_survive(self):
        """A client-cancelled future must not poison delivery: the
        scheduler skips it, siblings complete, and the thread lives."""
        server, user, database = _build_actors()
        queries = [user.encrypt_query(database[i] + 0.01, 4) for i in range(3)]
        expected = [server.answer(query) for query in queries]
        # The scheduler is held inside a first batch, so the three
        # submissions stay queued — PENDING, unclaimed — while we cancel
        # one: the deterministic window for a client cancel.
        frontend = ServingFrontend(server, max_batch_size=4)
        entered, release = threading.Event(), threading.Event()
        inner_execute = frontend._execute

        def held_execute(batch):
            entered.set()
            release.wait(timeout=30)
            return inner_execute(batch)

        frontend._execute = held_execute
        try:
            frontend.start()
            blocker = frontend.submit(queries[0])
            assert entered.wait(timeout=30)
            futures = [frontend.submit(query) for query in queries]
            assert futures[1].cancel()  # still queued — cancellable
            release.set()
            assert np.array_equal(blocker.result(timeout=30).ids,
                                  expected[0].ids)
            assert np.array_equal(futures[0].result(timeout=30).ids,
                                  expected[0].ids)
            assert np.array_equal(futures[2].result(timeout=30).ids,
                                  expected[2].ids)
            assert futures[1].cancelled()
            # The scheduler thread survived and keeps serving.
            again = frontend.submit(queries[1]).result(timeout=30)
            assert np.array_equal(again.ids, expected[1].ids)
        finally:
            release.set()
            frontend.stop()

    def test_submit_racing_stop_is_still_answered(self):
        """An item that lands behind the stop sentinel must be drained,
        not stranded (the _STOP-first path drains the tail)."""
        import queue as queue_module

        from repro.serve.scheduler import BatchScheduler, PendingQuery
        from repro.serve import scheduler as scheduler_module

        server, user, database = _build_actors()
        query = user.encrypt_query(database[0] + 0.01, 4)
        source = queue_module.Queue()
        frontend = ServingFrontend(server)
        scheduler = BatchScheduler(source, frontend._execute, max_batch_size=2)
        # Simulate the race: the sentinel is already in front of a
        # late-admitted query when the thread starts.
        scheduler._stop_requested.set()
        source.put(scheduler_module._STOP)
        pending = PendingQuery(query=query)
        source.put(pending)
        scheduler._thread.start()
        scheduler._thread.join(timeout=10)
        assert not scheduler._thread.is_alive()
        assert pending.future.result(timeout=1).ids.shape[0] == 4

    def test_abandoned_frontend_thread_exits_and_is_collectable(self):
        """A started frontend dropped without stop() must not leak: the
        scheduler holds its hooks weakly, so the frontend is collected
        and the polling thread notices and exits."""
        import gc

        server, user, database = _build_actors()
        query = user.encrypt_query(database[0] + 0.01, 4)
        frontend = server.serving_frontend()
        assert frontend.answer(query, timeout=30).ids.shape[0] == 4
        scheduler = frontend._scheduler
        assert scheduler.running
        del frontend  # abandoned without stop()
        gc.collect()
        deadline = time.time() + 5
        while scheduler.running and time.time() < deadline:
            time.sleep(0.05)
        assert not scheduler.running, "scheduler thread outlived its frontend"

    def test_facade_serve_roundtrip(self):
        from repro import PPANNS

        rng = np.random.default_rng(0)
        database = rng.standard_normal((60, 8))
        scheme = PPANNS(dim=8, beta=0.4, backend="bruteforce", rng=rng).fit(database)
        expected = scheme.query(database[3] + 0.01, k=5)
        with scheme.serve() as frontend:
            served = frontend.answer(
                scheme.user.encrypt_query(database[3] + 0.01, 5), timeout=30
            )
        assert np.array_equal(served.ids, expected)
