"""The shared worker pool behind the sharded filter scatter.

:meth:`repro.core.sharding.ShardedEncryptedIndex.filter_search` (and its
batch form) fans one query's filter phase out across shards with
:func:`map_ordered`, over the **one process-wide**
:class:`~concurrent.futures.ThreadPoolExecutor` owned by this module.
Per-call or per-index pools would leak idle threads across the many
short-lived indexes built by tests and sweeps.  The pool is created
once and never resized or shut down — a resize would have to retire
the old executor while another thread may still be mapping over it.

A batch's queries do **not** fan out: :func:`repro.core.search
.execute_batch_settled` runs them one after another on the calling
thread.  The graph walks and refine scans hold the GIL, so a per-query
fan-out made them slower than serial: on a 2-core host, traced refine
time on the ``batch_bruteforce_inproc`` benchmark fell from 399 to
294 µs/query once the batch ran serially.  The shard scatter keeps the
pool: ``saturation_ivf_sharded_inproc`` served 521 / 606 / 626 queries/s
with it against 550 / 512 / 579 with a serial scatter (3 pairs).

:func:`map_ordered` returns results in submission order regardless of
completion order (deterministic gather); every task runs to completion
even when a sibling fails, and the first failure *by input position* is
re-raised after every task settled.  It runs **inline** when called
from one of the pool's own workers (detected by thread name): a worker
that blocks on sub-tasks of its own bounded pool can deadlock.
:class:`Settled` is the per-position outcome both the gather and the
serving layer's per-query delivery are built on.

Threads are one of two **executor modes** (:data:`EXECUTOR_MODES`).
``threads`` — the calling thread plus this module's pool for the shard
scatter — is the default and the oracle; ``processes`` routes batch
execution through the multi-process data plane of
:mod:`repro.core.plane`, whose worker processes attach the ciphertext
matrices via shared memory and sidestep the GIL on the pure-Python
filter hot path.  The knob threads through
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

    @classmethod
    def capture(
        cls, fn: Callable[[_ItemT], _ResultT], item: _ItemT
    ) -> "Settled[_ResultT]":
        """Call ``fn(item)`` and settle its result or :class:`Exception`.

        ``KeyboardInterrupt`` / ``SystemExit`` are not task failures and
        propagate.
        """
        try:
            return cls(value=fn(item))
        except Exception as exc:
            return cls(error=exc)

    @property
    def ok(self) -> bool:
        """Whether this position completed without raising."""
        return self.error is None

    def unwrap(self) -> _ResultT:
        """The value, re-raising the task's exception if it failed."""
        if self.error is not None:
            raise self.error
        return self.value


def map_ordered(
    fn: Callable[[_ItemT], _ResultT], items: Iterable[_ItemT]
) -> list[_ResultT]:
    """Apply ``fn`` to every item on the shared pool; gather in order.

    The parallel analogue of ``[fn(item) for item in items]``:

    * results are returned in **input order**, not completion order;
    * every submitted task runs to completion even if a sibling raises
      (per-item error isolation — no half-cancelled pool state);
    * if any task raised, the exception of the **first failing input
      position** is re-raised after the gather, so error reporting is
      deterministic under arbitrary thread scheduling;
    * ``KeyboardInterrupt`` / ``SystemExit`` propagate immediately
      (remaining pool tasks finish and are discarded).

    Fewer than two items, or a call made from inside one of the pool's
    own workers (a nested fan-out would deadlock a bounded pool), runs
    inline on the calling thread with identical semantics.
    """
    work: Sequence[_ItemT] = list(items)
    if len(work) < 2 or in_worker_thread():
        outcomes = [Settled.capture(fn, item) for item in work]
    else:
        futures = [shared_pool().submit(Settled.capture, fn, item) for item in work]
        outcomes = [future.result() for future in futures]
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [outcome.value for outcome in outcomes]
