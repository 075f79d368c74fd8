"""The online serving frontend: admission, backpressure, caching.

This is the piece that turns the batch-first engine into an *online*
server.  Requests arrive one at a time (``submit`` returns a future
immediately); the frontend admits them into a **bounded queue** — the
explicit backpressure point — and a :class:`~repro.serve.scheduler
.BatchScheduler` thread forms the micro-batches that amortize per-batch
setup, exactly as an offline caller's hand-assembled
``EncryptedQueryBatch`` would.  The scheduler never waits for company:
it dispatches whatever is queued (up to the size cap) as soon as it is
free, and runs the batch's pipelines itself, one query after another.

```
 submit ──▶ admit (bounded queue, QueueFullError) ──▶ schedule (all queued,
        ◀── future                                     up to the size cap)
                                                            │
 respond ◀── per-query futures ◀── staged pipeline ◀── micro-batch
```

Design points:

* **Backpressure is explicit.**  A full admission queue raises
  :class:`QueueFullError` at ``submit`` — load is shed at the front
  door where the caller can react (retry, divert, degrade), never by
  silent unbounded buffering.
* **Per-query futures.**  Every admitted query gets its own
  :class:`concurrent.futures.Future`; a failing query delivers its
  exception to its own future while batch siblings complete normally
  (see :func:`repro.core.search.execute_batch_settled`).
* **Result cache.**  An optional LRU keyed by ciphertext digest
  (:mod:`repro.serve.cache`) answers bit-identical repeat queries
  without touching the queue; index maintenance must ``cache_clear()``.
* **Metrics.**  A :class:`~repro.serve.metrics.ServerMetrics` aggregates
  qps, latency percentiles, queue depth, the batch-size histogram, and
  per-stage seconds; ``metrics.snapshot()`` is the monitoring payload.

Construction goes through :meth:`repro.core.roles.CloudServer
.serving_frontend` / :meth:`repro.core.scheme.PPANNS.serve`; the CLI's
``serve``, ``workload`` and ``listen`` commands drive it end to end.
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
from concurrent.futures import Future

import numpy as np

from repro.core.errors import ParameterError, PPANNSError
from repro.core.protocol import EncryptedQuery, SearchResult, SearchResultBatch
from repro.core.search import execute_batch_settled
from repro.serve.cache import ResultCache, query_digest
from repro.serve.metrics import ServerMetrics
from repro.serve.scheduler import (
    BatchScheduler,
    DeadlineExceededError,
    PendingQuery,
)

__all__ = [
    "DeadlineExceededError",
    "QueueFullError",
    "ServingFrontend",
    "replay_open_loop",
]


def _weak_hook(fn):
    """A ``WeakMethod`` for bound methods, the callable itself otherwise.

    The scheduler thread must not hold a strong reference back to its
    frontend — an abandoned (never-stopped) frontend would then never
    be collected and its thread would poll forever.  Plain functions
    (tests inject them) have no owner to hold weakly and pass through.
    """
    try:
        return weakref.WeakMethod(fn)
    except TypeError:
        return fn


class QueueFullError(PPANNSError):
    """Admission refused: the serving queue is at capacity.

    The explicit backpressure signal of the online layer — raised by
    :meth:`ServingFrontend.submit` instead of buffering without bound.
    Callers decide the shedding policy (retry with backoff, divert to a
    replica, degrade to filter-only); the server itself never blocks
    the submitting thread.
    """


class ServingFrontend:
    """Online entry point over a :class:`~repro.core.roles.CloudServer`.

    Parameters
    ----------
    server:
        The cloud server whose index and defaults answer the traffic.
    max_batch_size:
        Micro-batch size cap: the most queued queries one dispatch
        takes up.
    max_queue_depth:
        Admission-queue bound; a submit beyond it raises
        :class:`QueueFullError`.
    cache_size:
        LRU result-cache capacity in entries (0 disables caching).
    refine_engine:
        Refine-engine override for served traffic (``None`` = the
        server's configured engine).
    filter_engine:
        Filter-engine override for served traffic (``None`` = the
        server's configured engine).
    metrics:
        An external :class:`~repro.serve.metrics.ServerMetrics` to
        aggregate into (``None`` creates a private one).

    The frontend is a context manager: ``with server.serving_frontend()
    as frontend: ...`` starts the scheduler thread and drains it on
    exit.  ``submit`` also lazily starts the scheduler, so short scripts
    can skip the ``with``.
    """

    def __init__(
        self,
        server,
        max_batch_size: int = 32,
        max_queue_depth: int = 1024,
        cache_size: int = 0,
        refine_engine: str | None = None,
        filter_engine: str | None = None,
        metrics: ServerMetrics | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ParameterError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_queue_depth < 1:
            raise ParameterError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self._server = server
        self._max_batch_size = max_batch_size
        self._max_queue_depth = max_queue_depth
        self._refine_engine = refine_engine
        self._filter_engine = filter_engine
        self._metrics = metrics if metrics is not None else ServerMetrics()
        self._cache = ResultCache(cache_size)
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queue_depth)
        self._lock = threading.Lock()
        self._scheduler: BatchScheduler | None = None

    # -- accessors ---------------------------------------------------------------

    @property
    def server(self):
        """The wrapped :class:`~repro.core.roles.CloudServer`."""
        return self._server

    @property
    def metrics(self) -> ServerMetrics:
        """The serving-metrics aggregator."""
        return self._metrics

    @property
    def cache(self) -> ResultCache:
        """The LRU result cache (capacity 0 when disabled)."""
        return self._cache

    @property
    def queue_depth(self) -> int:
        """Queries currently waiting for a micro-batch."""
        return self._queue.qsize()

    @property
    def max_batch_size(self) -> int:
        """Micro-batch size cap."""
        return self._max_batch_size

    @property
    def running(self) -> bool:
        """Whether the scheduler thread is alive."""
        scheduler = self._scheduler
        return scheduler is not None and scheduler.running

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ServingFrontend":
        """Start the scheduler thread (idempotent; restarts after stop)."""
        with self._lock:
            self._start_locked()
        return self

    def _start_locked(self) -> BatchScheduler:
        """Ensure a live scheduler exists; caller holds ``self._lock``."""
        if self._scheduler is None or not self._scheduler.running:
            # Hooks go over weakly (see _weak_hook): the thread must
            # not keep an abandoned frontend alive.
            self._scheduler = BatchScheduler(
                self._queue,
                _weak_hook(self._execute),
                max_batch_size=self._max_batch_size,
                metrics=self._metrics,
                on_result=_weak_hook(self._cache_result),
            ).start()
        return self._scheduler

    def stop(self) -> None:
        """Answer everything admitted, then stop the scheduler thread.

        Not a terminal state: the next ``submit`` lazily restarts the
        scheduler (see :meth:`start`), so stop() is a drain point, not
        an admission gate.
        """
        with self._lock:
            scheduler = self._scheduler
        if scheduler is not None:
            scheduler.stop()

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- the serving API ---------------------------------------------------------

    def submit(
        self, query: EncryptedQuery, deadline_ms: int | None = None
    ) -> "Future[SearchResult]":
        """Admit one query; returns its future immediately.

        Raises :class:`QueueFullError` when the admission queue is at
        capacity and :class:`~repro.core.errors.ParameterError` for a
        query whose dimensionality cannot match the index (failing fast
        beats failing a formed batch).  A cache hit resolves the future
        synchronously without entering the queue.

        ``deadline_ms`` is the query's end-to-end latency budget.  Two
        shedding points enforce it: admission refuses synchronously
        (:class:`DeadlineExceededError`) when the metrics' estimated
        queue wait already exceeds the budget — a query that cannot
        possibly make it never occupies a queue slot — and the
        scheduler sheds any query whose deadline passes while it waits,
        *before* filter/refine work starts.  A cache hit always
        succeeds: it costs no pipeline time.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ParameterError(
                f"deadline_ms must be a positive integer, got {deadline_ms}"
            )
        if query.sap_vector.shape[-1] != self._server.index.dim:
            raise ParameterError(
                f"query has dimension {query.sap_vector.shape[-1]}, but the "
                f"index holds {self._server.index.dim}-dimensional ciphertexts"
            )
        digest = None
        if self._cache.capacity:
            digest = query_digest(query)
            cached = self._cache.get(digest)
            if cached is not None:
                self._metrics.record_cache_hit()
                future: "Future[SearchResult]" = Future()
                future.set_result(cached)
                return future
            self._metrics.record_cache_miss()
        deadline_at = None
        if deadline_ms is not None:
            budget = deadline_ms / 1000.0
            estimated_wait = self._metrics.estimated_wait_seconds()
            if estimated_wait > budget:
                self._metrics.record_deadline_shed()
                raise DeadlineExceededError(
                    f"estimated queue wait {estimated_wait:.3f}s exceeds the "
                    f"{budget:.3f}s deadline budget; query refused at admission"
                )
            deadline_at = time.perf_counter() + budget
        pending = PendingQuery(
            query=query,
            digest=digest,
            cache_generation=self._cache.generation,
            deadline_at=deadline_at,
        )
        try:
            with self._lock:
                scheduler = self._start_locked()
                while not scheduler.offer(pending):
                    # That scheduler passed its exit-and-drain point
                    # between our liveness check and the offer (a stop
                    # raced us); hand the item to a fresh one instead
                    # of stranding its future.
                    self._scheduler = None
                    scheduler = self._start_locked()
        except queue.Full:
            self._metrics.record_rejected()
            raise QueueFullError(
                f"serving queue is full ({self._max_queue_depth} pending); "
                "retry later or raise max_queue_depth"
            ) from None
        self._metrics.record_admitted(self._queue.qsize())
        return pending.future

    def answer(
        self,
        query: EncryptedQuery,
        timeout: float | None = None,
        deadline_ms: int | None = None,
    ):
        """Blocking convenience: ``submit`` + wait for the result."""
        return self.submit(query, deadline_ms=deadline_ms).result(timeout=timeout)

    def answer_many(
        self, queries, timeout: float | None = None
    ) -> SearchResultBatch:
        """Submit a workload, wait for all answers, first failure wins.

        Mirrors :func:`~repro.core.executor.map_ordered` semantics at
        the serving layer: every query is answered, results come back
        in submission order, and if any failed the first failure *by
        submission position* is re-raised.
        """
        futures = [self.submit(query) for query in queries]
        results, first_error = [], None
        for future in futures:
            try:
                results.append(future.result(timeout=timeout))
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return SearchResultBatch(results)

    def cache_clear(self) -> int:
        """Flush the result cache (call after index maintenance).

        Returns the cache's new generation: any in-flight answer that
        was admitted under an older generation can no longer repopulate
        the cache, which is what lets a compactor swap backends while
        queries keep streaming.
        """
        return self._cache.clear()

    # -- scheduler hooks ---------------------------------------------------------

    def _execute(self, batch):
        """Run one stacked group through the settled batch engine.

        Without a frontend override, the server's resolved engine
        *instances* run the batch (its public properties are names, and
        an unregistered instance has no name to resolve).
        """
        server = self._server
        return execute_batch_settled(
            server.index,
            batch,
            default_ratio_k=server.default_ratio_for(batch.request.mode),
            refine_engine=(
                self._refine_engine
                if self._refine_engine is not None
                else server._refine_engine
            ),
            filter_engine=(
                self._filter_engine
                if self._filter_engine is not None
                else server._filter_engine
            ),
        )

    def _cache_result(self, pending: PendingQuery, result: SearchResult) -> None:
        """Store a successful answer under its admission-time digest.

        The admission-time generation guards the store: if the cache
        was cleared while this query was in flight (index mutation),
        the stale answer is dropped instead of repopulating the cache.
        """
        if pending.digest is not None:
            if self._cache.put(pending.digest, result, pending.cache_generation):
                self._metrics.record_cache_insert()


def replay_open_loop(
    frontend: ServingFrontend,
    encrypted,
    rate: float | None = None,
    seed: int = 0,
    deadline_ms: int | None = None,
) -> "tuple[list[SearchResult], float]":
    """Replay an encrypted workload open-loop; ``(results, elapsed)``.

    The one definition of the open-loop arrival contract, shared by the
    CLI's ``serve`` / ``workload`` commands and the serving benches —
    submissions never wait on answers, so the scheduler (not the
    client) sets the batching.
    ``rate`` is a Poisson arrival rate in queries/second (inter-arrival
    gaps drawn from a ``seed``-ed exponential); ``None`` submits
    back-to-back, the heavy-traffic limit.  ``elapsed`` runs from the
    first submission to the last completion, which is what served-qps
    figures divide by.  ``deadline_ms`` rides on every submission (all
    replay targets — frontend, tenant channel, net client — accept it);
    ``None`` keeps the call compatible with targets that predate it.
    """
    arrival_rng = np.random.default_rng(seed)
    start = None
    futures = []
    for query in encrypted:
        if rate is not None:
            time.sleep(arrival_rng.exponential(1.0 / rate))
        if start is None:
            # The clock starts at the first submission — the gap drawn
            # before it has nothing in flight and must not count.
            start = time.perf_counter()
        if deadline_ms is None:
            futures.append(frontend.submit(query))
        else:
            futures.append(frontend.submit(query, deadline_ms=deadline_ms))
    if start is None:
        return [], 0.0
    results = [future.result() for future in futures]
    return results, time.perf_counter() - start
