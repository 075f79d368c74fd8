"""Online micro-batching serving layer over the staged query pipeline.

The offline engine answers callers who hand the server a pre-assembled
batch.  This package serves the online workload — requests arriving one
at a time from many users — by letting the **server itself** form the
batches that amortize per-batch setup.  Every query takes the one
filter-and-refine pass: query encryption is randomised, so there is no
repeat ciphertext to cache.

* :class:`~repro.serve.frontend.ServingFrontend` — the entry point:
  bounded admission queue, per-query futures, explicit backpressure via
  :class:`~repro.serve.frontend.QueueFullError`.
* :class:`~repro.serve.scheduler.BatchScheduler` — the scheduler
  thread: as soon as it is free it takes whatever is queued (up to the
  size cap) and runs it through
  :func:`repro.core.search.execute_batch_settled` on the same thread.
* :class:`~repro.serve.metrics.ServerMetrics` — qps, p50/p95/p99
  latency, queue depth, batch-size histogram, per-stage seconds;
  snapshots feed the CLI's ``serve --json`` output and the wire STATS.

Construction normally goes through
:meth:`repro.core.roles.CloudServer.serving_frontend` or
:meth:`repro.core.scheme.PPANNS.serve`::

    with scheme.serve(max_batch_size=16) as f:
        future = f.submit(encrypted_query)     # returns immediately
        result = future.result()
        print(f.metrics.snapshot().qps)

The end-to-end benchmark's ``online_hnsw_net`` and
``saturation_ivf_sharded_inproc`` workloads measure served latency and
throughput through this stack.
"""

from repro.serve.frontend import (
    DeadlineExceededError,
    QueueFullError,
    ServingFrontend,
    replay_open_loop,
)
from repro.serve.metrics import MetricsSnapshot, ServerMetrics
from repro.serve.scheduler import BatchScheduler, PendingQuery

__all__ = [
    "ServingFrontend",
    "QueueFullError",
    "DeadlineExceededError",
    "BatchScheduler",
    "PendingQuery",
    "ServerMetrics",
    "MetricsSnapshot",
    "replay_open_loop",
]
