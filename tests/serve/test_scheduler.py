"""Greedy batch formation: no timer, whatever is queued goes out at once.

The scheduler blocks only for a batch's first query, then takes what is
already queued (up to the size cap) without waiting.  Each test holds
the execute hook on an :class:`threading.Event` to queue arrivals
behind a running batch, so the batch boundaries are deterministic and
no test sleeps.
"""

import queue
import threading

import numpy as np

from repro.core.dce import DCETrapdoor
from repro.core.executor import Settled
from repro.core.protocol import EncryptedQuery, SearchRequest, SearchResult
from repro.serve import ServerMetrics
from repro.serve.scheduler import BatchScheduler, PendingQuery

_TIMEOUT = 30


def _pending(row: int) -> PendingQuery:
    """A query whose ``C_SAP`` carries its arrival number."""
    return PendingQuery(
        query=EncryptedQuery(
            np.full(3, float(row)),
            DCETrapdoor(np.zeros(4), 1),
            request=SearchRequest(k=1),
        )
    )


def _answer(stacked):
    """Settle each row with a result carrying its arrival number."""
    rows = [int(value) for value in stacked.sap_vectors[:, 0]]
    return rows, [Settled(value=SearchResult(ids=np.array([row]))) for row in rows]


class _HeldExecute:
    """An execute hook that records batches and holds the first one."""

    def __init__(self):
        self.batches: "list[list[int]]" = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, stacked):
        rows, settled = _answer(stacked)
        self.batches.append(rows)
        if len(self.batches) == 1:
            self.entered.set()
            self.release.wait(timeout=_TIMEOUT)
        return settled, 0.0, None


def _queue_behind_a_running_batch(count: int, cap: int):
    """Hold batch ``[0]``, queue ``1..count`` behind it, then release."""
    execute = _HeldExecute()
    metrics = ServerMetrics()
    scheduler = BatchScheduler(
        queue.Queue(), execute, max_batch_size=cap, metrics=metrics
    ).start()
    try:
        first = _pending(0)
        assert scheduler.offer(first)
        assert execute.entered.wait(timeout=_TIMEOUT)
        queued = [_pending(row) for row in range(1, count + 1)]
        for pending in queued:
            assert scheduler.offer(pending)
        execute.release.set()
        answers = [
            int(p.future.result(timeout=_TIMEOUT).ids[0]) for p in [first, *queued]
        ]
    finally:
        execute.release.set()
        scheduler.stop()
    assert answers == list(range(count + 1))
    return execute.batches, metrics.snapshot()


class TestGreedyFormation:
    def test_queries_queued_behind_a_running_batch_share_the_next_one(self):
        batches, snapshot = _queue_behind_a_running_batch(count=3, cap=4)
        assert batches == [[0], [1, 2, 3]]  # all of them, in arrival order
        assert snapshot.batch_size_histogram == {1: 1, 3: 1}
        assert snapshot.mean_batch_size > 1.0

    def test_next_batch_takes_exactly_the_cap(self):
        batches, _ = _queue_behind_a_running_batch(count=6, cap=4)
        assert batches == [[0], [1, 2, 3, 4], [5, 6]]

    def test_lone_query_dispatches_without_a_timed_wait(self):
        class _NoWaitWhileForming(queue.Queue):
            """Records every blocking ``get`` made while a batch forms."""

            def __init__(self):
                super().__init__()
                self.forming = False
                self.waits_while_forming = []

            def get(self, block=True, timeout=None):
                if self.forming and block:
                    self.waits_while_forming.append(timeout)
                item = super().get(block, timeout)
                self.forming = True
                return item

        source = _NoWaitWhileForming()

        def execute(stacked):
            source.forming = False  # the batch left formation
            return _answer(stacked)[1], 0.0, None

        scheduler = BatchScheduler(source, execute, max_batch_size=32).start()
        try:
            lone = _pending(7)
            assert scheduler.offer(lone)
            assert lone.future.result(timeout=_TIMEOUT).ids.tolist() == [7]
        finally:
            scheduler.stop()
        assert source.waits_while_forming == []
