"""Micro-batch formation: greedy dispatch, never a wait for company.

The cost model that makes batching worth it is amortization: parameter
resolution, the trapdoor key check, and the liveness mask are built once
per :class:`~repro.core.protocol.EncryptedQueryBatch`, and the batched
filter kernels (GEMM, lockstep beam search) answer its rows together.
Offline callers hand the server pre-assembled batches; an *online*
server has to assemble them itself from requests that arrive one at a
time.

:class:`BatchScheduler` owns that assembly.  A single scheduler thread
blocks for the first pending query, then takes whatever else is
*already* queued — up to the size cap (``max_batch_size``) — and
dispatches at once.  It never waits for company: while a batch runs,
arrivals queue up behind it and form the next batch, so batches grow
with load and a lone query pays no timer.  (On the open-loop
``online_hnsw_net`` benchmark on a 2-core host, a fixed 2 ms window
batched about 2 queries and cost 2.4 ms of traced scheduler wait per
query; greedy formation cut that wait to 0.2 ms and the median request
latency from 12.7 to 6.9 ms.)

A formed micro-batch is grouped by ``(request, key_id)`` — only queries
sharing their plaintext parameters and DCE key can share a batch
message — and each group is stacked into an ``EncryptedQueryBatch`` and
run by :func:`repro.core.search.execute_batch_settled` on this same
thread, one query after another.  The filter and refine kernels are
interpreter-bound graph walks and scans that hold the GIL, so running a
batch's queries side by side on threads made them slower, not faster
(traced refine time on ``batch_bruteforce_inproc``, 2-core host: 399 →
294 µs/query once serial).  Parallelism
comes from the batched kernels and the shard scatter.

Error delivery is strictly per-query: each pending query settles into
its own future, a poisoned query neither kills nor reorders nor stalls
its batch siblings, and batch-level validation failures (key mismatch,
missing trapdoors) fail exactly the group they poison while the queue
keeps draining.
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ParameterError, PPANNSError
from repro.core.protocol import EncryptedQueryBatch

__all__ = ["DeadlineExceededError", "PendingQuery", "BatchScheduler"]


class DeadlineExceededError(PPANNSError):
    """The query's deadline budget expired before execution.

    Raised (into the query's future, or synchronously at admission)
    when a per-query ``deadline_ms`` budget runs out *before* any
    filter/refine work starts — the load-shedding contract: an expired
    query never occupies the pipeline, and the caller always receives
    this type rather than a stale answer or a hang.  Maps to the
    ``DEADLINE`` wire code on protocol-v2 connections.
    """

#: Sentinel enqueued by ``stop()`` to wake the scheduler thread.
_STOP = object()


def _resolve_hook(hook):
    """Dereference a hook that may be a ``weakref.WeakMethod``.

    The frontend passes its bound methods weakly so this thread does
    not keep an abandoned frontend alive; a plain callable (tests often
    inject one) passes through unchanged.  Returns ``None`` when the
    weakly held owner has been collected.
    """
    if isinstance(hook, weakref.WeakMethod):
        return hook()
    return hook


@dataclass
class PendingQuery:
    """One admitted query waiting for (or inside) a micro-batch.

    Attributes
    ----------
    query:
        The encrypted query message.
    future:
        Where the answer (or the query's own failure) is delivered.
    enqueued_at:
        ``time.perf_counter()`` at admission — the start of the
        end-to-end latency the metrics report.
    digest:
        The query's cache digest, or ``None`` when caching is off.
    cache_generation:
        The cache generation observed at admission; a completion whose
        generation went stale (the cache was cleared mid-flight) must
        not repopulate the cache.
    deadline_at:
        Absolute ``time.perf_counter()`` deadline, or ``None`` for no
        budget.  The scheduler sheds queries past it *before* any
        filter/refine work (see :class:`DeadlineExceededError`).
    """

    query: object
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    digest: bytes | None = None
    cache_generation: int = 0
    deadline_at: float | None = None


class BatchScheduler:
    """The scheduler thread: admission queue in, answered futures out.

    Parameters
    ----------
    source:
        The bounded admission queue the frontend pushes
        :class:`PendingQuery` items into.
    execute:
        ``execute(batch) -> (settled, wall_seconds, request)`` — the
        dispatch hook, normally a frontend closure over
        :func:`repro.core.search.execute_batch_settled` with the
        server's defaults applied (only the settled list is consumed
        here).
    max_batch_size:
        Micro-batch size cap (>= 1).
    metrics:
        The frontend's :class:`~repro.serve.metrics.ServerMetrics`
        (batch sizes, completions, failures land here), or ``None``.
    on_result:
        Optional ``on_result(pending, result)`` hook invoked for every
        *successful* answer before its future resolves — the frontend
        uses it to populate the result cache.
    """

    def __init__(
        self,
        source: "queue.Queue",
        execute,
        max_batch_size: int = 32,
        metrics=None,
        on_result=None,
    ) -> None:
        if max_batch_size < 1:
            raise ParameterError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self._source = source
        self._execute = execute
        self._max_batch_size = max_batch_size
        self._metrics = metrics
        self._on_result = on_result
        self._stop_requested = threading.Event()
        # offer() and the thread's exit path synchronize on this lock:
        # an accepted offer happens-before the exit flag, so its item is
        # always covered by the final drain — a submit can race stop()
        # but can never strand a future.
        self._exit_lock = threading.Lock()
        self._exited = False
        self._thread = threading.Thread(
            target=self._run,
            name="repro-serve-scheduler",
            daemon=True,
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "BatchScheduler":
        """Start the scheduler thread (idempotent per instance)."""
        if not self._thread.is_alive() and not self._stop_requested.is_set():
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Drain the queue, dispatch the tail, and stop the thread.

        Every query admitted before ``stop`` is still answered — the
        sentinel rides the FIFO behind them, so the thread forms final
        micro-batches for everything in front of it and exits only when
        the queue is empty.
        """
        if self._stop_requested.is_set():
            return
        self._stop_requested.set()
        if self._thread.is_alive():
            self._source.put(_STOP)
            self._thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        """Whether the scheduler thread is alive."""
        return self._thread.is_alive()

    def offer(self, pending: PendingQuery) -> bool:
        """Enqueue one pending query — atomically against thread exit.

        Returns ``False`` once the scheduler has passed its
        exit-and-drain point (the caller must hand the item to a fresh
        scheduler); lets ``queue.Full`` propagate so the frontend can
        surface backpressure.  An offer that returns ``True`` is
        guaranteed to be answered: the exit path only sets the flag
        under the same lock and drains the queue afterwards, so the
        accepted item is either consumed by the running loop or swept
        by that final drain.
        """
        with self._exit_lock:
            if self._exited:
                return False
            self._source.put_nowait(pending)
            return True

    # -- the scheduler loop ------------------------------------------------------

    def _run(self) -> None:
        try:
            self._loop()
        finally:
            with self._exit_lock:
                self._exited = True
            # No offer can be accepted past this point, and every one
            # accepted before it is visible in the queue: the final
            # drain answers the tail, stranding nothing.
            self._drain_remaining()

    def _loop(self) -> None:
        while True:
            try:
                first = self._source.get(timeout=0.1)
            except queue.Empty:
                if self._stop_requested.is_set() or self._hooks_dead():
                    return
                continue
            if first is _STOP:
                return
            batch, saw_stop = self._form_batch(first)
            self._dispatch(batch)
            if saw_stop:
                return

    def _hooks_dead(self) -> bool:
        """Whether the owning frontend was garbage collected.

        The frontend hands its hooks over as ``weakref.WeakMethod``
        wrappers, so an abandoned (never-stopped) frontend does not
        stay alive through this thread; once the owner is gone the loop
        exits instead of polling forever.
        """
        return _resolve_hook(self._execute) is None

    def _form_batch(self, first: PendingQuery) -> "tuple[list[PendingQuery], bool]":
        """Collect a micro-batch: ``first`` plus whatever is already queued.

        Never blocks — the batch is everything that arrived while the
        previous one ran, up to the size cap.
        """
        batch = [first]
        while len(batch) < self._max_batch_size:
            try:
                item = self._source.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                return batch, True
            batch.append(item)
        return batch, self._stop_requested.is_set()

    def _drain_remaining(self) -> None:
        """Dispatch everything still queued, in full-size batches."""
        while True:
            batch: list[PendingQuery] = []
            while len(batch) < self._max_batch_size:
                try:
                    item = self._source.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP:
                    continue
                batch.append(item)
            if not batch:
                return
            self._dispatch(batch)

    def _dispatch(self, batch: "list[PendingQuery]") -> None:
        """Group, stack, execute, and deliver one formed micro-batch."""
        # Claim every future before doing work: a future cancelled while
        # queued is dropped here (its work is genuinely saved), and a
        # claimed future can no longer be cancelled — so the delivery
        # below can never hit InvalidStateError and kill the thread.
        batch = [
            pending
            for pending in batch
            if pending.future.set_running_or_notify_cancel()
        ]
        if not batch:
            return
        # Shed expired queries before any filter/refine work: a query
        # whose deadline passed while it waited gets a typed failure
        # now instead of burning pipeline time on an answer nobody is
        # still waiting for.
        now = time.perf_counter()
        expired = [
            p for p in batch if p.deadline_at is not None and now >= p.deadline_at
        ]
        if expired:
            dropped = {id(p) for p in expired}
            batch = [p for p in batch if id(p) not in dropped]
            for pending in expired:
                if self._metrics is not None:
                    self._metrics.record_deadline_shed()
                    self._metrics.record_failed(now - pending.enqueued_at)
                pending.future.set_exception(
                    DeadlineExceededError(
                        "deadline expired after "
                        f"{now - pending.enqueued_at:.3f}s in the serving "
                        "queue; the query was shed before execution"
                    )
                )
        if not batch:
            return
        execute = _resolve_hook(self._execute)
        if execute is None:
            # The owning frontend was collected mid-flight; answers are
            # impossible, but futures must still settle.
            self._deliver_group_failure(
                batch,
                RuntimeError(
                    "serving frontend was garbage collected with queries "
                    "in flight"
                ),
            )
            return
        if self._metrics is not None:
            self._metrics.record_batch(len(batch))
            self._metrics.record_queue_depth(self._source.qsize())
        for group in self._group_compatible(batch):
            try:
                stacked = EncryptedQueryBatch(
                    np.stack([p.query.sap_vector for p in group]),
                    np.stack([p.query.trapdoor.vector for p in group]),
                    group[0].query.trapdoor.key_id,
                    group[0].query.request,
                )
                settled = execute(stacked)[0]
            except Exception as exc:
                # Batch-level validation failed: the whole group shares
                # the poison (same request, same key), so every member
                # receives it — and the loop continues to the next
                # group / batch; the queue keeps draining.
                self._deliver_group_failure(group, exc)
                continue
            self._deliver(group, settled)

    @staticmethod
    def _group_compatible(
        batch: "list[PendingQuery]",
    ) -> "list[list[PendingQuery]]":
        """Split a micro-batch into stackable ``(request, key_id)`` groups.

        An ``EncryptedQueryBatch`` shares one request and one DCE key
        across its rows; an online mix of parameters therefore splits —
        in arrival order — into one batch message per distinct pair
        (uniform traffic stays a single group).
        """
        groups: "dict[tuple, list[PendingQuery]]" = {}
        for pending in batch:
            key = (pending.query.request, pending.query.trapdoor.key_id)
            groups.setdefault(key, []).append(pending)
        return list(groups.values())

    def _deliver(self, group, settled) -> None:
        """Route each settled outcome to its own future."""
        on_result = _resolve_hook(self._on_result)
        for pending, outcome in zip(group, settled):
            latency = time.perf_counter() - pending.enqueued_at
            if outcome.ok:
                if self._metrics is not None:
                    self._metrics.record_completed(latency, outcome.value)
                if on_result is not None:
                    on_result(pending, outcome.value)
                pending.future.set_result(outcome.value)
            else:
                if self._metrics is not None:
                    self._metrics.record_failed(latency)
                pending.future.set_exception(outcome.error)

    def _deliver_group_failure(self, group, exc: Exception) -> None:
        """Fail every member of a group whose batch-level setup raised."""
        for pending in group:
            if self._metrics is not None:
                self._metrics.record_failed(
                    time.perf_counter() - pending.enqueued_at
                )
            pending.future.set_exception(exc)
