"""Server-side serving metrics: throughput, latency tails, batch shapes.

The offline benchmarks measure one batch at a time; an online server
needs *continuous* aggregates over whatever traffic arrives.
:class:`ServerMetrics` is the thread-safe accumulator every
:class:`~repro.serve.frontend.ServingFrontend` carries:

* **throughput** — completed queries per second since the window began;
* **latency tails** — p50/p95/p99 (and mean/max) of the *end-to-end*
  per-query latency, admission to completion, over a bounded reservoir
  of the most recent queries (old traffic ages out, the reservoir bound
  keeps memory flat under unbounded uptime);
* **queue depth** — the admission-queue depth sampled at every submit,
  plus the maximum ever observed (how close the server ran to
  backpressure);
* **batch-size histogram** — how large the scheduler's micro-batches
  actually were: how much traffic queued behind each running batch;
* **per-stage seconds** — the pipeline's ``filter`` / ``mask`` /
  ``refine`` stage totals, summed over every completed query (the
  online continuation of the per-result stage split).

:meth:`ServerMetrics.snapshot` freezes everything into an immutable
:class:`MetricsSnapshot` whose :meth:`~MetricsSnapshot.as_dict` is the
JSON payload the CLI's ``serve`` command emits; the
field set is documented in ``docs/FORMATS.md``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

__all__ = ["MetricsSnapshot", "ServerMetrics", "percentile"]

#: How many recent per-query latencies the percentile reservoir keeps.
DEFAULT_LATENCY_WINDOW = 8192


def percentile(sorted_values: "list[float]", q: float) -> float:
    """The q-th percentile (0..100) of an ascending-sorted sample.

    Nearest-rank definition: the smallest value with at least ``q``
    percent of the sample at or below it — no interpolation, so the
    answer is always an observed latency.  Returns 0.0 for an empty
    sample.
    """
    if not sorted_values:
        return 0.0
    if q <= 0:
        return sorted_values[0]
    rank = -(-q * len(sorted_values) // 100)  # ceil without float drift
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable point-in-time view of a :class:`ServerMetrics`.

    Attributes
    ----------
    elapsed_seconds:
        Wall clock since the metrics window began (construction or the
        last :meth:`ServerMetrics.reset`).
    submitted / completed / failed / rejected:
        Query counters: admitted to the queue, answered successfully,
        settled with an exception, refused with
        :class:`~repro.serve.frontend.QueueFullError`.
    qps:
        ``completed / elapsed_seconds`` (0.0 before any completion).
    latency_p50 / latency_p95 / latency_p99:
        Nearest-rank percentiles of the end-to-end per-query latency
        (admission to completion) over the bounded reservoir.
    latency_mean / latency_max:
        Mean and maximum over the same reservoir.
    queue_depth:
        Admission-queue depth at snapshot time.
    max_queue_depth:
        Largest depth sampled at any admission.
    batches:
        Micro-batches dispatched by the scheduler.
    batch_size_histogram:
        ``{batch size: count}`` over every dispatched micro-batch.
    mean_batch_size:
        Mean micro-batch size (0.0 before any dispatch).
    stage_seconds:
        Total pipeline-stage wall clock summed over completed queries,
        keyed by stage name (``filter`` / ``mask`` / ``refine``).
    deadline_sheds:
        Queries shed with
        :class:`~repro.serve.frontend.DeadlineExceededError` — refused
        at admission because the estimated queue wait already exceeded
        their budget, or dropped by the scheduler after expiring in the
        queue.
    rate_limited:
        Queries refused by a per-tenant token-bucket rate quota.
    connection_refusals:
        TCP connections refused by the server-wide connection limit.
    retries:
        Client-visible retries: re-sends performed by a resilient
        :class:`~repro.net.client.NetClient` whose ``on_retry`` hook is
        wired to these metrics (pure server-side deployments leave
        it 0).
    cache_hits:
        Always 0: there is no result cache (query encryption is
        randomised, so no two queries repeat a ciphertext).  The field
        stays because the end-to-end benchmark reports it.
    """

    elapsed_seconds: float
    submitted: int
    completed: int
    failed: int
    rejected: int
    qps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    latency_max: float
    queue_depth: int
    max_queue_depth: int
    batches: int
    batch_size_histogram: "dict[int, int]"
    mean_batch_size: float
    stage_seconds: "dict[str, float]"
    deadline_sheds: int = 0
    rate_limited: int = 0
    connection_refusals: int = 0
    retries: int = 0
    cache_hits: int = 0

    def as_dict(self) -> dict:
        """JSON-ready form (the CLI ``serve`` payload, the wire STATS)."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "cache_hits": self.cache_hits,
            "qps": self.qps,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_mean": self.latency_mean,
            "latency_max": self.latency_max,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "batches": self.batches,
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(self.batch_size_histogram.items())
            },
            "mean_batch_size": self.mean_batch_size,
            "stage_seconds": dict(self.stage_seconds),
            "deadline_sheds": self.deadline_sheds,
            "rate_limited": self.rate_limited,
            "connection_refusals": self.connection_refusals,
            "retries": self.retries,
        }


class ServerMetrics:
    """Thread-safe serving-metrics accumulator (one per frontend).

    Producers call the ``record_*`` methods from the admission path and
    the scheduler thread; consumers call :meth:`snapshot` whenever they
    want a consistent view.  All methods take one short lock — nothing
    here sits on the numeric hot path.
    """

    def __init__(self, latency_window: int = DEFAULT_LATENCY_WINDOW) -> None:
        if latency_window < 1:
            raise ValueError(f"latency_window must be >= 1, got {latency_window}")
        self._lock = threading.Lock()
        self._latency_window = latency_window
        self.reset()

    def reset(self) -> None:
        """Zero every counter and restart the metrics window."""
        with self._lock:
            self._started_at = time.perf_counter()
            self._submitted = 0
            self._completed = 0
            self._failed = 0
            self._rejected = 0
            self._latencies: deque[float] = deque(maxlen=self._latency_window)
            self._queue_depth = 0
            self._max_queue_depth = 0
            self._batch_sizes: dict[int, int] = {}
            self._batches = 0
            self._stage_seconds: dict[str, float] = {}
            self._deadline_sheds = 0
            self._rate_limited = 0
            self._connection_refusals = 0
            self._retries = 0

    # -- producers ---------------------------------------------------------------

    def record_admitted(self, queue_depth: int) -> None:
        """One query entered the admission queue at the given depth."""
        with self._lock:
            self._submitted += 1
            self._queue_depth = queue_depth
            if queue_depth > self._max_queue_depth:
                self._max_queue_depth = queue_depth

    def record_rejected(self) -> None:
        """One query was refused at admission (queue full)."""
        with self._lock:
            self._rejected += 1

    def record_batch(self, batch_size: int) -> None:
        """The scheduler dispatched one micro-batch of the given size."""
        with self._lock:
            self._batches += 1
            self._batch_sizes[batch_size] = self._batch_sizes.get(batch_size, 0) + 1

    def record_completed(self, latency_seconds: float, result=None) -> None:
        """One query finished successfully.

        ``latency_seconds`` is end-to-end (admission to completion);
        ``result`` — when given — contributes its per-stage split to the
        aggregate ``stage_seconds``.
        """
        with self._lock:
            self._completed += 1
            self._latencies.append(latency_seconds)
            if result is not None:
                for stage, seconds in (
                    ("filter", result.filter_seconds),
                    ("mask", result.mask_seconds),
                    ("refine", result.refine_seconds),
                ):
                    self._stage_seconds[stage] = (
                        self._stage_seconds.get(stage, 0.0) + seconds
                    )

    def record_failed(self, latency_seconds: float) -> None:
        """One query settled with an exception."""
        with self._lock:
            self._failed += 1
            self._latencies.append(latency_seconds)

    def record_queue_depth(self, queue_depth: int) -> None:
        """Refresh the queue-depth gauge (e.g. after the scheduler drains)."""
        with self._lock:
            self._queue_depth = queue_depth

    def record_deadline_shed(self) -> None:
        """One query was shed because its deadline budget expired."""
        with self._lock:
            self._deadline_sheds += 1

    def record_rate_limited(self) -> None:
        """One query was refused by a per-tenant rate quota."""
        with self._lock:
            self._rate_limited += 1

    def record_connection_refused(self) -> None:
        """One connection was refused by the server-wide limit."""
        with self._lock:
            self._connection_refusals += 1

    def record_retry(self) -> None:
        """One client-visible retry (a resilient client re-sent a query)."""
        with self._lock:
            self._retries += 1

    def estimated_wait_seconds(self) -> float:
        """A Little's-law estimate of the current queue wait.

        ``queue depth / observed service rate`` — the time a query
        admitted *now* should expect to sit before the scheduler
        reaches it.  Returns 0.0 before any completion (no rate
        observed yet): an idle or cold server never refuses on a
        guess.  The admission path compares this against a query's
        deadline budget to shed work that cannot possibly make it.
        """
        with self._lock:
            if self._completed == 0 or self._queue_depth == 0:
                return 0.0
            elapsed = time.perf_counter() - self._started_at
            if elapsed <= 0:
                return 0.0
            rate = self._completed / elapsed
            if rate <= 0:
                return 0.0
            return self._queue_depth / rate

    # -- consumers ---------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """A consistent, immutable view of every aggregate."""
        with self._lock:
            elapsed = time.perf_counter() - self._started_at
            ordered = sorted(self._latencies)
            total_batch_queries = sum(
                size * count for size, count in self._batch_sizes.items()
            )
            return MetricsSnapshot(
                elapsed_seconds=elapsed,
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                rejected=self._rejected,
                qps=self._completed / elapsed if elapsed > 0 else 0.0,
                latency_p50=percentile(ordered, 50),
                latency_p95=percentile(ordered, 95),
                latency_p99=percentile(ordered, 99),
                latency_mean=(
                    sum(ordered) / len(ordered) if ordered else 0.0
                ),
                latency_max=ordered[-1] if ordered else 0.0,
                queue_depth=self._queue_depth,
                max_queue_depth=self._max_queue_depth,
                batches=self._batches,
                batch_size_histogram=dict(self._batch_sizes),
                mean_batch_size=(
                    total_batch_queries / self._batches if self._batches else 0.0
                ),
                stage_seconds=dict(self._stage_seconds),
                deadline_sheds=self._deadline_sheds,
                rate_limited=self._rate_limited,
                connection_refusals=self._connection_refusals,
                retries=self._retries,
            )
