"""The shared worker pool behind the server's parallel hot paths.

Two layers of the serving path fan work out over threads:

* :func:`repro.core.search.execute_batch` — the **pipelined batch
  executor** — fans a batch's queries out so independent queries overlap
  (numpy's distance and DCE kernels release the GIL, so queries make
  real multi-core progress);
* :meth:`repro.core.sharding.ShardedEncryptedIndex.filter_search` —
  the scatter-gather filter phase — fans one query out across shards.

Both layers draw from the **one process-wide**
:class:`~concurrent.futures.ThreadPoolExecutor` owned by this module.
Per-call or per-index pools would leak idle threads across the many
short-lived indexes built by tests and sweeps, and two independent
bounded pools nested inside each other can still oversubscribe the
host.  The pool is created once and never resized or shut down — a
resize would have to retire the old executor while another thread may
still be mapping over it.

Nesting is the classic bounded-pool deadlock: a worker that blocks on
sub-tasks submitted to its own pool can starve when every worker is a
blocked parent.  :func:`map_ordered` therefore runs **inline** whenever
it is called from one of the pool's own workers (detected by thread
name), so a batch fan-out parallelizes across queries and each query's
shard scatter runs serially inside its worker — queries, the coarser
and more abundant unit of work, win the parallelism.

:func:`map_settled` is the fan-out primitive everything else builds on:
results come back in submission order regardless of completion order
(deterministic gather), every task runs to completion even when a
sibling fails, and each input position settles independently to either
its result or the exception it raised.  :func:`map_ordered` is the
raise-on-failure view of the same gather — the first failure *by input
position* is re-raised after every task settled, so one poisoned query
can neither kill nor reorder the others mid-flight.  The online
serving layer (:mod:`repro.serve`) consumes the settled form directly:
a scheduler-formed micro-batch must deliver per-query exceptions to
per-query futures without discarding sibling results.

Threads are one of two **executor modes** (:data:`EXECUTOR_MODES`).
``threads`` — this module's pool — is the default and the oracle;
``processes`` routes batch execution through the multi-process data
plane of :mod:`repro.core.plane`, whose worker processes attach the
ciphertext matrices via shared memory and sidestep the GIL on the
pure-Python filter hot path.  The knob threads through
:class:`~repro.core.roles.CloudServer` (``executor=`` / ``workers=``),
:class:`~repro.core.scheme.PPANNS`, the serving frontend, and the CLI
(``--executor`` / ``--workers``); results are bit-identical between
the modes at any worker count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from repro.core.errors import ParameterError

__all__ = [
    "EXECUTOR_MODES",
    "Settled",
    "map_settled",
    "map_ordered",
    "pool_width",
    "resolve_executor",
    "shared_pool",
    "in_worker_thread",
]

#: The server's execution modes: the shared thread pool (default, the
#: oracle) and the shared-memory process data plane (repro.core.plane).
EXECUTOR_MODES = ("threads", "processes")


def resolve_executor(mode: "str | None") -> str:
    """Validate an executor-mode knob; ``None`` means ``threads``."""
    if mode is None:
        return "threads"
    if mode not in EXECUTOR_MODES:
        raise ParameterError(
            f"unknown executor {mode!r}; available: {', '.join(EXECUTOR_MODES)}"
        )
    return mode

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

_MAX_WORKERS = 32
_THREAD_PREFIX = "repro-worker"

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def pool_width() -> int:
    """Worker count of the shared pool (sized to the host, capped).

    The ``REPRO_WORKERS`` environment variable overrides the computed
    width — a validated integer >= 1, still capped at the pool maximum
    — so CI jobs and containers can pin concurrency without code
    changes.  The thread pool reads the width once, when it is first
    created; the process data plane re-reads it at every plane build.
    """
    override = os.environ.get("REPRO_WORKERS")
    if override is not None and override.strip():
        try:
            value = int(override)
        except ValueError:
            raise ParameterError(
                f"REPRO_WORKERS must be an integer >= 1, got {override!r}"
            ) from None
        if value < 1:
            raise ParameterError(
                f"REPRO_WORKERS must be an integer >= 1, got {override!r}"
            )
        return min(_MAX_WORKERS, value)
    return min(_MAX_WORKERS, max(4, os.cpu_count() or 1))


def shared_pool() -> ThreadPoolExecutor:
    """The process-wide executor (created once, never shut down)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=pool_width(),
                thread_name_prefix=_THREAD_PREFIX,
            )
        return _pool


def in_worker_thread() -> bool:
    """Whether the calling thread is one of the shared pool's workers."""
    return threading.current_thread().name.startswith(_THREAD_PREFIX)


@dataclass(frozen=True)
class Settled(Generic[_ResultT]):
    """The independent outcome of one input position of a fan-out.

    Exactly one of ``value`` / ``error`` is meaningful: ``error`` is the
    exception the task raised (``None`` if it completed), ``value`` the
    result it returned.
    """

    value: _ResultT | None = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        """Whether this position completed without raising."""
        return self.error is None

    def unwrap(self) -> _ResultT:
        """The value, re-raising the task's exception if it failed."""
        if self.error is not None:
            raise self.error
        return self.value


def map_settled(
    fn: Callable[[_ItemT], _ResultT], items: Iterable[_ItemT]
) -> list[Settled[_ResultT]]:
    """Apply ``fn`` to every item on the shared pool; settle each in order.

    The no-raise form of :func:`map_ordered` — the serving scheduler's
    primitive.  Every input position settles independently to a
    :class:`Settled` holding either its result or the exception it
    raised, in **input order**; a failing item neither kills nor
    reorders its siblings, and the caller decides how to deliver the
    failures (the online serving path routes each one to its query's
    future).

    Only :class:`Exception` is settled; ``KeyboardInterrupt`` /
    ``SystemExit`` propagate immediately (remaining pool tasks finish
    and are discarded).

    Fewer than two items, or a call made from inside one of the pool's
    own workers (a nested fan-out would deadlock a bounded pool), runs
    inline on the calling thread with identical semantics.
    """
    work: Sequence[_ItemT] = list(items)

    def settle_call(item: _ItemT) -> Settled[_ResultT]:
        try:
            return Settled(value=fn(item))
        except Exception as exc:
            return Settled(error=exc)

    if len(work) < 2 or in_worker_thread():
        return [settle_call(item) for item in work]
    futures = [shared_pool().submit(settle_call, item) for item in work]
    # settle_call only lets BaseExceptions escape, so future.result()
    # here re-raises KeyboardInterrupt / SystemExit immediately and
    # settles everything else.
    return [future.result() for future in futures]


def map_ordered(
    fn: Callable[[_ItemT], _ResultT], items: Iterable[_ItemT]
) -> list[_ResultT]:
    """Apply ``fn`` to every item on the shared pool; gather in order.

    The parallel analogue of ``[fn(item) for item in items]`` — the
    raise-on-failure view of :func:`map_settled`:

    * results are returned in **input order**, not completion order;
    * every submitted task runs to completion even if a sibling raises
      (per-item error isolation — no half-cancelled pool state);
    * if any task raised, the exception of the **first failing input
      position** is re-raised after the gather, so error reporting is
      deterministic under arbitrary thread scheduling.

    Inline execution (fewer than two items, nested in a pool worker)
    behaves exactly as in :func:`map_settled`.
    """
    outcomes = map_settled(fn, items)
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [outcome.value for outcome in outcomes]
