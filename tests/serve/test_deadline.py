"""Deadline propagation: admission refusal, scheduler shedding, metrics.

The load-shedding contract: a query with a ``deadline_ms`` budget either
completes within it or fails with :class:`DeadlineExceededError` — and
an expired query is shed *before* any filter/refine work, at one of two
points: synchronously at admission (the estimated queue wait already
exceeds the budget) or in the scheduler (the deadline passed while the
query waited).
"""

import queue as queue_module
import time

import numpy as np
import pytest

from repro.core.errors import ParameterError
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.serve import DeadlineExceededError, ServerMetrics
from repro.serve.scheduler import BatchScheduler, PendingQuery
from tests.conftest import FAST_HNSW


def _build_actors(seed=21, n=80, dim=8):
    rng = np.random.default_rng(seed)
    owner = DataOwner(
        dim, beta=0.3, hnsw_params=FAST_HNSW, backend="bruteforce", rng=rng
    )
    database = rng.standard_normal((n, dim)) * 2.0
    index = owner.build_index(database)
    server = CloudServer(index)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(seed + 1))
    return server, user, database


class TestSchedulerShedding:
    def test_expired_query_shed_before_execute(self):
        """An already-expired query never reaches the execute hook —
        the query object is never even inspected."""
        source = queue_module.Queue()
        executed = []
        metrics = ServerMetrics()
        scheduler = BatchScheduler(
            source,
            lambda stacked: executed.append(stacked),
            max_batch_size=4,
            metrics=metrics,
        ).start()
        try:
            pending = PendingQuery(
                query=object(), deadline_at=time.perf_counter() - 1.0
            )
            assert scheduler.offer(pending)
            with pytest.raises(DeadlineExceededError, match="shed"):
                pending.future.result(timeout=10)
        finally:
            scheduler.stop()
        assert executed == []
        snapshot = metrics.snapshot()
        assert snapshot.deadline_sheds == 1
        assert snapshot.failed == 1

    def test_unexpired_deadline_executes_normally(self):
        source = queue_module.Queue()

        class _Outcome:
            ok = True
            value = "answer"

        scheduler = BatchScheduler(
            source,
            lambda stacked: ([_Outcome()], 0.0, None),
            max_batch_size=1,
        ).start()

        class _Query:
            class trapdoor:
                key_id = 1
            request = "r"
            sap_vector = np.zeros(3)

        _Query.trapdoor.vector = np.zeros(4)
        try:
            pending = PendingQuery(
                query=_Query(), deadline_at=time.perf_counter() + 60.0
            )
            assert scheduler.offer(pending)
            assert pending.future.result(timeout=10) == "answer"
        finally:
            scheduler.stop()


class TestAdmissionDeadline:
    def test_invalid_deadline_rejected(self):
        server, user, database = _build_actors()
        query = user.encrypt_query(database[0] + 0.01, 3)
        with server.serving_frontend() as frontend:
            for bad in (0, -5):
                with pytest.raises(ParameterError, match="deadline_ms"):
                    frontend.submit(query, deadline_ms=bad)

    def test_generous_deadline_answers_bit_identical(self):
        server, user, database = _build_actors()
        queries = [user.encrypt_query(database[i] + 0.01, 4) for i in range(4)]
        expected = [server.answer(query) for query in queries]
        with server.serving_frontend() as frontend:
            got = [
                frontend.answer(query, timeout=30, deadline_ms=60_000)
                for query in queries
            ]
        for want, have in zip(expected, got):
            assert np.array_equal(want.ids, have.ids)

    def test_hopeless_queue_wait_refused_at_admission(self, monkeypatch):
        """When the estimated wait already exceeds the budget, the
        refusal is synchronous — the query never occupies a queue slot."""
        server, user, database = _build_actors()
        query = user.encrypt_query(database[0] + 0.01, 3)
        with server.serving_frontend() as frontend:
            monkeypatch.setattr(
                frontend.metrics, "estimated_wait_seconds", lambda: 5.0
            )
            with pytest.raises(DeadlineExceededError, match="estimated"):
                frontend.submit(query, deadline_ms=100)
            assert frontend.queue_depth == 0
            assert frontend.metrics.snapshot().deadline_sheds == 1
            # A budget above the estimate is admitted and answered.
            monkeypatch.setattr(
                frontend.metrics, "estimated_wait_seconds", lambda: 0.0
            )
            result = frontend.answer(query, timeout=30, deadline_ms=60_000)
            assert result.ids.shape[0] == 3


class TestWaitEstimate:
    def test_zero_before_any_completion(self):
        metrics = ServerMetrics()
        assert metrics.estimated_wait_seconds() == 0.0
        metrics.record_admitted(queue_depth=10)
        assert metrics.estimated_wait_seconds() == 0.0

    def test_littles_law_scales_with_queue_depth(self):
        metrics = ServerMetrics()
        for _ in range(20):
            metrics.record_completed(0.01)
        metrics.record_queue_depth(10)
        shallow = metrics.estimated_wait_seconds()
        assert shallow > 0.0
        metrics.record_queue_depth(40)
        deep = metrics.estimated_wait_seconds()
        # Same service rate (up to the clock's forward drift), four
        # times the queue: roughly four times the wait.
        assert deep > 2.0 * shallow

    def test_empty_queue_estimates_zero(self):
        metrics = ServerMetrics()
        for _ in range(5):
            metrics.record_completed(0.01)
        metrics.record_queue_depth(0)
        assert metrics.estimated_wait_seconds() == 0.0


class TestResilienceCounters:
    def test_counters_flow_through_snapshot_and_as_dict(self):
        metrics = ServerMetrics()
        metrics.record_deadline_shed()
        metrics.record_rate_limited()
        metrics.record_rate_limited()
        metrics.record_connection_refused()
        for _ in range(3):
            metrics.record_retry()
        snapshot = metrics.snapshot()
        assert snapshot.deadline_sheds == 1
        assert snapshot.rate_limited == 2
        assert snapshot.connection_refusals == 1
        assert snapshot.retries == 3
        payload = snapshot.as_dict()
        for key in (
            "deadline_sheds", "rate_limited", "connection_refusals", "retries",
        ):
            assert key in payload
        metrics.reset()
        assert metrics.snapshot().deadline_sheds == 0
