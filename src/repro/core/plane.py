"""The multi-process data plane: shard-affine workers over shared memory.

Under the thread executor a batch's queries run one after another on
the calling thread: the filter phase's graph walks are pure Python that
hold the GIL, so on a many-core host threads leave the hardware idle.  This module is the process-based execution mode: the
server publishes its ciphertext matrices (every shard's ``C_SAP``
slice and the global ``C_DCE`` block) into one shared-memory arena
(:mod:`repro.core.shm`) and spawns worker processes that attach the
arena **zero-copy** and rebuild their filter backends as numpy views
over it.  Graph backends also get their compiled layer-0 CSR snapshot
(:meth:`~repro.hnsw.graph.HNSWIndex.search_mode_arrays`) published in
the same arena, so workers adopt the parent's snapshot zero-copy
instead of recompiling the adjacency per process.  Per batch, only the
query ciphertext block crosses the process boundary going out and only
top-k' id/score arrays come back.  The filter engine
(:mod:`repro.core.filterengine`) travels by name inside the filter
message and is resolved worker-side, so ``--filter-engine`` behaves
identically under both executors.

Affinity and routing:

* **Sharded index** — shard ``s`` is owned by worker ``s % workers``
  and only that worker rebuilds its backend, so a shard's graph
  adjacency stays hot in exactly one process's cache.  A filter round
  ships the whole query block to every shard-owning worker; the parent
  merges the per-shard candidates with the same distance-then-id
  lexsort as the thread path.
* **Monolithic index** — every worker rebuilds the single backend
  (over the same shared vectors) and the query block is striped across
  workers instead.
* **Refine** — ``C_DCE`` is global, so refine work needs no affinity
  and is dealt round-robin to all workers.

Determinism: a worker's backend is reconstructed through the same
``state_arrays()`` / ``from_state`` hooks persistence round-trips
through (property-tested bit-identical), every search is deterministic
given that state, and the parent-side merge is byte-for-byte the
thread path's merge — so ``executor=processes`` answers are
bit-identical to ``executor=threads`` at any worker count
(``tests/strategies/test_executor_properties.py``).

Fault containment and self-healing: a worker that dies mid-batch
surfaces a :class:`DataPlaneError` on exactly the queries that
depended on it (all of them when sharded — every query needs every
shard; only the dead worker's stripe when monolithic).  The plane then
**restarts the dead worker in place** with capped exponential backoff
instead of declaring itself broken: the worker's specs still point at
the published arena, so a respawn re-attaches zero-copy and the next
batch after a successful restart runs at full width.  While a restart
is pending, monolithic stripes route around the dead worker (degraded
capacity, full availability) and sharded batches fail typed — never a
hang, never a whole-fleet rebuild.  :meth:`health` exposes the
per-worker restart state.  The plane also snapshots an index
fingerprint (row count, tombstones, retired ids) so maintenance
automatically invalidates it.

Lifecycle: ``close()`` is idempotent, tears the workers down, and
unlinks the arena; the arena registry's ``atexit`` backstop covers
abandoned planes.  Workers are spawn-context daemons — no fork, so no
inherited thread-pool state, no leaked locks.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.backends import backend_from_state
from repro.core.dce import DCEEncryptedDatabase, DCETrapdoor
from repro.core.errors import PPANNSError, ParameterError
from repro.core.executor import pool_width
from repro.core.filterengine import get_filter_engine
from repro.core.protocol import ShardTiming
from repro.core.refine import RefineOutcome, get_refine_engine
from repro.core.shm import ShmArena, ShmArrayRef, shared_memory_available
from repro.hnsw.graph import SearchStats

__all__ = [
    "DataPlaneError",
    "ProcessDataPlane",
    "process_plane_available",
]

#: Exit code of a worker killed through the fault-injection hook.
_ABORT_EXIT_CODE = 17

#: Parent-side poll interval while waiting on a worker reply (seconds).
_POLL_SECONDS = 0.05

#: Default worker-restart backoff: first respawn after base seconds,
#: doubling per consecutive failure up to the cap.
DEFAULT_RESTART_BACKOFF_BASE = 0.1
DEFAULT_RESTART_BACKOFF_CAP = 5.0

#: Appended to the error when a worker dies before its start-up
#: handshake.  Spawned workers re-import the program's ``__main__``
#: before they run any of our code, so an entry script that reaches the
#: plane at module level makes every worker try to start a plane of its
#: own — multiprocessing kills it for that, and only its stderr says why.
_UNGUARDED_MAIN_HINT = (
    '; spawned workers re-import the program\'s __main__ module: if the '
    'entry script starts the process data plane at module level, move '
    'that code under `if __name__ == "__main__":`'
)


class DataPlaneError(PPANNSError):
    """A process-plane worker failed or died while holding our work.

    Raised per affected query (the settled batch path delivers it to
    each poisoned query's future) or from plane construction.  A dead
    worker is restarted in place with capped backoff (see
    :meth:`ProcessDataPlane.health`); only queries that depended on it
    while it was down carry this error.
    """


def process_plane_available() -> bool:
    """Whether the process data plane can run on this host.

    Requires working ``multiprocessing.shared_memory``, a spawn start
    method, and a re-runnable ``__main__``.  The last one matters:
    spawn children replay the parent's ``__main__`` from its file path,
    so a program fed to the interpreter through stdin (``python -``, a
    shell heredoc, a REPL paste) has ``__file__ == "<stdin>"`` and its
    children die during bootstrap — worse, CPython's ``Process.start``
    can then deadlock writing the spawn pickle to the dead child
    (the parent still holds the pipe's read end, so the write never
    sees EPIPE).  Declaring the plane unavailable up front turns that
    hang into the documented degrade-to-threads path.  When unavailable
    the server degrades to thread execution (with a one-time warning)
    instead of failing.
    """
    if not shared_memory_available():
        return False
    try:
        multiprocessing.get_context("spawn")
    except ValueError:  # pragma: no cover - spawn exists on all tier-1 OSes
        return False
    main_module = sys.modules.get("__main__")
    main_file = getattr(main_module, "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        return False
    return True


@dataclass
class _BackendSpec:
    """Everything a worker needs to rebuild one filter backend.

    ``role`` is ``"shard"`` (sharded index; ``global_ids`` maps local
    backend ids to global ids, plain fancy-indexing) or ``"mono"``
    (monolithic index; ``global_ids`` is the post-compaction
    ``live_ids`` map applied with the thread path's guarded ``where``,
    or ``None`` for the identity case).  ``kind`` is ``None`` for an
    empty shard (no backend yet) — the worker answers it with empty
    candidate arrays, like :meth:`repro.core.sharding.Shard.search`.

    ``search_mode_refs`` carries the published layer-0 CSR snapshot of
    a graph backend as its ``(indptr, indices)`` refs; the worker
    adopts the resolved views so lockstep batches never recompile the
    adjacency.  ``None`` for backends without a search mode (brute
    force, IVF).
    """

    shard_id: int
    role: str
    kind: "str | None"
    vectors_ref: "ShmArrayRef | None"
    state: "dict[str, np.ndarray] | None"
    global_ids: "np.ndarray | None"
    search_mode_refs: "tuple[ShmArrayRef, ShmArrayRef] | None" = None


def _map_ids(spec: _BackendSpec, local_ids: np.ndarray) -> np.ndarray:
    """Local backend ids -> global ids, exactly as the thread path maps.

    Shards fancy-index their ``global_ids`` (``Shard.search``); the
    monolithic index guards against negative padding ids
    (``EncryptedIndex.filter_search``).  Replicating each verbatim is
    what keeps the modes bit-identical.
    """
    if spec.role == "shard":
        return spec.global_ids[local_ids]
    if spec.global_ids is not None and local_ids.size:
        return np.where(
            local_ids >= 0,
            spec.global_ids[np.clip(local_ids, 0, None)],
            local_ids,
        )
    return local_ids


def _worker_filter(
    built,
    rows: np.ndarray,
    k_prime: int,
    ef_search: "int | None",
    engine_name: str,
):
    """Run every owned backend over every query row; fully instrumented.

    The engine arrives by name and is resolved here, worker-side, so
    the plane serves exactly the registry engine the thread path would
    use.  Backends that advertise a genuinely batched kernel take the
    whole row block through ``engine.search_batch`` (one GEMM for
    brute force, one per probed posting list for IVF, with the per-backend wall time smeared
    evenly across the rows); everything else loops the engine's
    per-query path with true per-query timing.
    """
    engine = get_filter_engine(engine_name)
    payload = []
    for spec, backend in built:
        per_query = []
        if (
            backend is not None
            and len(rows) > 1
            and getattr(backend, "batched_kernel", False)
        ):
            stats_list = [SearchStats() for _ in range(len(rows))]
            start = time.perf_counter()
            results = engine.search_batch(
                backend, rows, k_prime, ef_search=ef_search, stats_list=stats_list
            )
            share = (time.perf_counter() - start) / len(rows)
            for (local_ids, dists), stats in zip(results, stats_list):
                per_query.append(
                    (
                        _map_ids(spec, local_ids),
                        dists,
                        share,
                        stats.distance_computations,
                        stats.hops,
                        stats.kernel_seconds,
                    )
                )
        else:
            for row in rows:
                start = time.perf_counter()
                stats = SearchStats()
                if backend is None:
                    ids = np.empty(0, dtype=np.int64)
                    dists = np.empty(0)
                else:
                    local_ids, dists = engine.search(
                        backend, row, k_prime, ef_search=ef_search, stats=stats
                    )
                    ids = _map_ids(spec, local_ids)
                per_query.append(
                    (
                        ids,
                        dists,
                        time.perf_counter() - start,
                        stats.distance_computations,
                        stats.hops,
                        stats.kernel_seconds,
                    )
                )
        payload.append((spec.shard_id, per_query))
    return payload


def _worker_refine(dce: DCEEncryptedDatabase, engine_name: str, key_id, items):
    """Refine each assigned item; per-item error isolation."""
    engine = get_refine_engine(engine_name)
    payload = []
    for slot, trapdoor_vector, candidate_ids, k in items:
        try:
            start = time.perf_counter()
            outcome = engine.refine(
                dce, DCETrapdoor(trapdoor_vector, key_id), candidate_ids, k
            )
            payload.append(
                (
                    slot,
                    "ok",
                    (
                        outcome.ids,
                        outcome.comparisons,
                        outcome.kernel_seconds,
                        outcome.rechecks,
                        time.perf_counter() - start,
                    ),
                )
            )
        except Exception as exc:
            payload.append((slot, "error", f"{type(exc).__name__}: {exc}"))
    return payload


def _worker_diagnostics() -> dict:
    """Startup/ping payload the parent (and the tests) inspect."""
    from repro.core import executor as executor_module

    return {
        "pid": os.getpid(),
        # Under the spawn context the child imports repro fresh, so the
        # parent's lazily created thread pool must not be visible here —
        # the spawn-safety test asserts exactly this.
        "pool_inherited": executor_module._pool is not None,
        "start_method": multiprocessing.get_start_method(allow_none=True),
    }


def _worker_main(conn) -> None:
    """Worker process entry point: attach, rebuild, serve the pipe.

    The first message is the ``init`` dict (arena name, backend specs,
    ``C_DCE`` ref).  It travels over the pipe, not in the spawn
    arguments: ``Process.start`` writes its arguments to the child with
    no way to notice the child dying first, so a large payload there
    can block the parent forever.  After that, messages are ``(op,
    ...)`` tuples; every request gets exactly one ``("ok", payload)`` /
    ``("error", message)`` reply except ``close`` (clean shutdown) and
    ``abort`` (fault-injection: die without a word, as a real crash
    would).
    """
    arena = None
    try:
        init = conn.recv()
        arena = ShmArena.attach(init["arena"])
        built = []
        for spec in init["specs"]:
            if spec.kind is None:
                built.append((spec, None))
                continue
            vectors = arena.resolve(spec.vectors_ref)
            backend = backend_from_state(spec.kind, vectors, spec.state, copy=False)
            if spec.search_mode_refs:
                backend.adopt_search_mode(
                    *(arena.resolve(ref) for ref in spec.search_mode_refs)
                )
            built.append((spec, backend))
        dce = DCEEncryptedDatabase(
            arena.resolve(init["dce_ref"]), init["dce_key_id"]
        )
    except Exception as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        if arena is not None:
            arena.close()
        return
    conn.send(("ok", _worker_diagnostics()))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "close":
                break
            if op == "abort":
                os._exit(_ABORT_EXIT_CODE)
            try:
                if op == "ping":
                    reply = ("ok", _worker_diagnostics())
                elif op == "filter":
                    _, rows, k_prime, ef_search, engine_name = message
                    reply = (
                        "ok",
                        _worker_filter(built, rows, k_prime, ef_search, engine_name),
                    )
                elif op == "refine":
                    _, engine_name, key_id, items = message
                    reply = ("ok", _worker_refine(dce, engine_name, key_id, items))
                else:
                    reply = ("error", f"unknown op {op!r}")
            except Exception as exc:
                reply = ("error", f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        arena.close()
        conn.close()


class _Worker:
    """Parent-side handle on one spawned worker (plus restart state)."""

    __slots__ = ("process", "conn", "specs", "dead", "restarts", "next_restart_at")

    def __init__(self, process, conn, specs: "list[_BackendSpec]") -> None:
        self.process = process
        self.conn = conn
        self.specs = specs
        self.dead = False  #: death observed; a respawn is pending
        self.restarts = 0  #: successful in-place respawns so far
        self.next_restart_at: "float | None" = None  #: monotonic respawn time


class ProcessDataPlane:
    """A spawned worker fleet attached to one index snapshot.

    Build one per (index state, worker count); the owning
    :class:`~repro.core.roles.CloudServer` does this lazily and
    rebuilds when :meth:`matches` says the snapshot went stale.  The
    plane is also a context manager (``close`` on exit).

    Parameters
    ----------
    index:
        The :class:`~repro.core.index.EncryptedIndex` or
        :class:`~repro.core.sharding.ShardedEncryptedIndex` snapshot to
        publish.
    workers:
        Worker-process count (``None`` = the executor's
        :func:`~repro.core.executor.pool_width`, which honors
        ``REPRO_WORKERS``).
    restart_backoff_base / restart_backoff_cap:
        The self-healing schedule: a worker observed dead is respawned
        in place no sooner than ``base * 2**consecutive_failures``
        seconds after detection, capped at ``cap`` — so a worker that
        keeps crashing (poisoned state, OOM loop) cannot turn the plane
        into a fork bomb.
    """

    def __init__(
        self,
        index,
        workers: "int | None" = None,
        restart_backoff_base: float = DEFAULT_RESTART_BACKOFF_BASE,
        restart_backoff_cap: float = DEFAULT_RESTART_BACKOFF_CAP,
    ) -> None:
        if workers is not None and workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if restart_backoff_base <= 0 or restart_backoff_cap < restart_backoff_base:
            raise ParameterError(
                "restart backoff needs 0 < base <= cap, got "
                f"{restart_backoff_base} / {restart_backoff_cap}"
            )
        self._restart_base = float(restart_backoff_base)
        self._restart_cap = float(restart_backoff_cap)
        self._restart_failures: "dict[int, int]" = {}
        self._heal_lock = threading.RLock()
        if not process_plane_available():
            raise DataPlaneError(
                "process data plane unavailable: shared memory or the spawn "
                "start method is missing on this platform"
            )
        self._closed = False
        self._broken = False
        self._index_ref = weakref.ref(index)
        self._fingerprint = _index_fingerprint(index)
        width = workers if workers is not None else pool_width()

        shards = getattr(index, "shards", None)
        specs: "list[_BackendSpec]" = []
        arrays: "list[np.ndarray]" = []
        # Per spec index: the published slot of its vectors and, for a
        # graph backend, of its CSR indptr (indices follows it).
        vector_slots: "dict[int, int]" = {}
        mode_slots: "dict[int, int]" = {}

        def stage_backend(spec_index: int, backend) -> None:
            vector_slots[spec_index] = len(arrays)
            arrays.append(np.ascontiguousarray(backend.vectors, dtype=np.float64))
            mode_arrays = getattr(backend, "search_mode_arrays", None)
            if mode_arrays is None:
                return
            mode_slots[spec_index] = len(arrays)
            arrays.extend(np.ascontiguousarray(array) for array in mode_arrays())

        if shards is not None:
            self._sharded = True
            for shard in shards:
                if shard.backend is None:
                    specs.append(
                        _BackendSpec(shard.shard_id, "shard", None, None, None,
                                     shard.global_ids)
                    )
                    continue
                stage_backend(len(specs), shard.backend)
                specs.append(
                    _BackendSpec(
                        shard.shard_id,
                        "shard",
                        shard.backend.kind,
                        None,  # patched to the published ref below
                        shard.backend.state_arrays(),
                        shard.global_ids,
                    )
                )
        else:
            self._sharded = False
            # One atomic read of the swap-guarded view keeps the backend
            # and its live_ids map coherent even under a concurrent
            # compaction (the same discipline filter_search uses).
            view = index._view
            stage_backend(0, view.backend)
            specs.append(
                _BackendSpec(
                    0,
                    "mono",
                    view.backend.kind,
                    None,
                    view.backend.state_arrays(),
                    view.live_ids,
                )
            )

        dce = index.dce_database
        arrays.append(np.ascontiguousarray(dce.components))
        self._arena = ShmArena.publish(arrays)
        refs = self._arena.refs
        for spec_index, spec in enumerate(specs):
            if spec.kind is not None:
                spec.vectors_ref = refs[vector_slots[spec_index]]
                slot = mode_slots.get(spec_index)
                if slot is not None:
                    spec.search_mode_refs = (refs[slot], refs[slot + 1])
        self._dce_ref = refs[-1]
        self._dce_key_id = dce.key_id
        self._ctx = multiprocessing.get_context("spawn")

        self._workers: "list[_Worker]" = []
        try:
            assigned: "list[list[_BackendSpec]]" = [[] for _ in range(width)]
            if self._sharded:
                for spec in specs:
                    assigned[spec.shard_id % width].append(spec)
            else:
                for worker_specs in assigned:
                    worker_specs.append(specs[0])
            # Spawn all, then init all, then one handshake per worker
            # (backends rebuilt, arena attached): the workers' import
            # and rebuild times overlap.
            for worker_specs in assigned:
                self._workers.append(self._spawn(worker_specs))
            for worker_index in range(len(self._workers)):
                self._send_init(worker_index)
            for worker_index in range(len(self._workers)):
                reply = self._recv(worker_index, starting=True)
                if reply[0] != "ok":
                    raise DataPlaneError(
                        f"worker {worker_index} failed to start: {reply[1]}"
                    )
        except BaseException:
            self.close()
            raise

    def _spawn(self, worker_specs: "list[_BackendSpec]") -> _Worker:
        """Start one worker process; :meth:`_send_init` tells it what to serve."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn, worker_specs)

    def _send_init(self, worker_index: int) -> None:
        """Ship a started worker its arena name and backend specs.

        A worker that died before reading (see :data:`_UNGUARDED_MAIN_HINT`)
        closes its end of the pipe, so the send fails instead of
        blocking; the handshake ``_recv`` that follows reports the death.
        """
        worker = self._workers[worker_index]
        try:
            worker.conn.send(
                {
                    "arena": self._arena.name,
                    "specs": worker.specs,
                    "dce_ref": self._dce_ref,
                    "dce_key_id": self._dce_key_id,
                }
            )
        except OSError:
            pass

    # -- accessors ---------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Worker-process count."""
        return len(self._workers)

    @property
    def sharded(self) -> bool:
        """Whether the snapshot is a sharded index."""
        return self._sharded

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def broken(self) -> bool:
        """Whether the plane is unrecoverable (construction-time failure).

        Worker deaths no longer break the plane — they mark the worker
        dead and schedule an in-place respawn (see :meth:`health`).
        """
        return self._broken

    @property
    def arena_name(self) -> str:
        """The shared-memory segment name (diagnostics / tests)."""
        return self._arena.name

    def matches(self, index) -> bool:
        """Whether this plane still serves ``index``'s current state.

        Identity plus a mutation fingerprint — row count, tombstone
        count, retired count — which every maintenance operation
        (insert / delete / compact) necessarily changes, so a stale
        plane can never silently answer for a mutated index.
        """
        return (
            not self._closed
            and not self._broken
            and self._index_ref() is index
            and _index_fingerprint(index) == self._fingerprint
        )

    def ping(self, worker_index: int) -> dict:
        """Round-trip one worker; returns its diagnostics payload.

        The payload carries the worker's pid, spawn start method, and
        whether the parent's lazily built thread pool leaked into it
        (``pool_inherited`` — always ``False`` under spawn; the
        spawn-safety test asserts this).
        """
        if self._closed:
            raise DataPlaneError("data plane is closed")
        self._ensure_workers()
        outcome = self._exchange([worker_index], [("ping",)])[worker_index]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def health(self) -> dict:
        """A point-in-time self-healing snapshot (JSON-ready).

        One entry per worker: pid, liveness, observed-dead flag,
        successful in-place restarts, exit code, and the seconds until
        the next respawn attempt (``None`` when not pending).
        """
        now = time.monotonic()
        workers = []
        with self._heal_lock:
            for index, worker in enumerate(self._workers):
                workers.append(
                    {
                        "worker": index,
                        "pid": worker.process.pid,
                        "alive": worker.process.is_alive(),
                        "dead": worker.dead,
                        "restarts": worker.restarts,
                        "exitcode": worker.process.exitcode,
                        "restart_in_seconds": (
                            None
                            if worker.next_restart_at is None
                            else max(0.0, worker.next_restart_at - now)
                        ),
                    }
                )
        return {
            "closed": self._closed,
            "broken": self._broken,
            "sharded": self._sharded,
            "workers": workers,
        }

    # -- self-healing ------------------------------------------------------------

    def _mark_dead(self, worker_index: int, reschedule: bool = False) -> None:
        """Record a worker death and schedule its in-place respawn.

        The respawn delay doubles with consecutive *failed* restarts
        (``restart_backoff_base`` up to ``restart_backoff_cap``), so a
        crash-looping worker backs off instead of fork-bombing.
        """
        with self._heal_lock:
            worker = self._workers[worker_index]
            if worker.dead and not reschedule:
                return
            worker.dead = True
            failures = self._restart_failures.get(worker_index, 0)
            delay = min(self._restart_cap, self._restart_base * (2.0 ** failures))
            worker.next_restart_at = time.monotonic() + delay
            try:
                worker.conn.close()
            except Exception:
                pass

    def _ensure_workers(self) -> None:
        """Respawn every dead worker whose backoff window has elapsed.

        Runs at batch entry (filter / refine / ping): the plane heals
        lazily, on the traffic that needs it, and a restart that fails
        re-enters the backoff schedule with a doubled delay.
        """
        with self._heal_lock:
            now = time.monotonic()
            for worker_index, worker in enumerate(self._workers):
                if (
                    not worker.dead
                    or worker.next_restart_at is None
                    or now < worker.next_restart_at
                ):
                    continue
                replacement = None
                try:
                    replacement = self._spawn(worker.specs)
                    replacement.restarts = worker.restarts + 1
                    self._workers[worker_index] = replacement
                    self._send_init(worker_index)
                    reply = self._recv(worker_index, starting=True)
                    ok = reply[0] == "ok"
                except (DataPlaneError, OSError):
                    ok = False
                if ok:
                    replacement.dead = False
                    replacement.next_restart_at = None
                    self._restart_failures.pop(worker_index, None)
                else:
                    self._restart_failures[worker_index] = (
                        self._restart_failures.get(worker_index, 0) + 1
                    )
                    if replacement is not None and replacement.process.is_alive():
                        replacement.process.terminate()
                        replacement.process.join(timeout=5.0)
                    self._mark_dead(worker_index, reschedule=True)

    # -- the batch data path -----------------------------------------------------

    def filter_batch(
        self,
        sap_rows: np.ndarray,
        k_prime: int,
        ef_search: "int | None",
        engine: "str | None" = None,
    ) -> list:
        """Run the filter phase for a query block across the workers.

        ``engine`` is a registered filter-engine name (``None`` = the
        default) shipped inside the filter message and resolved
        worker-side.  Returns one entry per query row: ``(ids, dists,
        shard_timings, stats, filter_seconds)`` on success or the
        :class:`Exception` that poisoned that query.  Sharded snapshots
        broadcast the block and merge per-shard candidates; monolithic
        snapshots stripe the block across workers.
        """
        if self._closed:
            raise DataPlaneError("data plane is closed")
        self._ensure_workers()
        # Resolve parent-side too: an unknown name fails fast with the
        # thread path's ParameterError instead of a worker error.
        engine_name = get_filter_engine(engine).name
        count = int(sap_rows.shape[0])
        if count == 0:
            return []
        if self._sharded:
            return self._filter_sharded(
                sap_rows, count, k_prime, ef_search, engine_name
            )
        return self._filter_striped(sap_rows, count, k_prime, ef_search, engine_name)

    def _filter_sharded(self, sap_rows, count, k_prime, ef_search, engine_name) -> list:
        targets = [
            index for index, worker in enumerate(self._workers) if worker.specs
        ]
        message = ("filter", sap_rows, k_prime, ef_search, engine_name)
        outcomes = self._exchange(targets, [message] * len(targets))
        failure = next(
            (value for value in outcomes.values() if isinstance(value, Exception)),
            None,
        )
        if failure is not None:
            # Every query needs every shard, so one dead worker poisons
            # the whole block — but only this block; the worker is
            # respawned in place before a later batch.
            return [failure] * count
        per_shard: "dict[int, list]" = {}
        for payload in outcomes.values():
            for shard_id, per_query in payload:
                per_shard[shard_id] = per_query
        results = []
        for query_index in range(count):
            id_parts, dist_parts, timings = [], [], []
            stats = SearchStats()
            total_seconds = 0.0
            for shard_id in sorted(per_shard):
                ids, dists, seconds, computations, hops, kernel_seconds = (
                    per_shard[shard_id][query_index]
                )
                id_parts.append(ids)
                dist_parts.append(dists)
                timings.append(
                    ShardTiming(
                        shard_id=shard_id,
                        seconds=seconds,
                        candidates=int(ids.shape[0]),
                    )
                )
                stats.distance_computations += int(computations)
                stats.hops += int(hops)
                stats.kernel_seconds += kernel_seconds
                total_seconds += seconds
            all_ids = np.concatenate(id_parts)
            all_dists = np.concatenate(dist_parts)
            # The gather merge, byte-for-byte as in
            # ShardedEncryptedIndex.filter_search: global top-k' by
            # approximate distance, ties broken by global id.
            order = np.lexsort((all_ids, all_dists))[:k_prime]
            results.append(
                (
                    all_ids[order],
                    all_dists[order],
                    tuple(timings),
                    stats,
                    total_seconds,
                )
            )
        return results

    def _filter_striped(
        self, sap_rows, count, k_prime, ef_search, engine_name
    ) -> list:
        alive = [
            index for index, worker in enumerate(self._workers) if not worker.dead
        ]
        if not alive:
            error = DataPlaneError(
                "all data-plane workers are down (restarts pending)"
            )
            return [error] * count
        stripe_count = min(len(alive), count)
        stripes = np.array_split(np.arange(count), stripe_count)
        targets, messages, stripe_of = [], [], {}
        for worker_index, stripe in zip(alive, stripes):
            if stripe.size == 0:
                continue
            targets.append(worker_index)
            messages.append(
                ("filter", sap_rows[stripe], k_prime, ef_search, engine_name)
            )
            stripe_of[worker_index] = stripe
        outcomes = self._exchange(targets, messages)
        results: list = [None] * count
        for worker_index in targets:
            payload = outcomes[worker_index]
            stripe = stripe_of[worker_index]
            if isinstance(payload, Exception):
                for query_index in stripe:
                    results[int(query_index)] = payload
                continue
            ((_, per_query),) = payload
            for position, query_index in enumerate(stripe):
                ids, dists, seconds, computations, hops, kernel_seconds = (
                    per_query[position]
                )
                stats = SearchStats(
                    distance_computations=int(computations),
                    hops=int(hops),
                    kernel_seconds=kernel_seconds,
                )
                results[int(query_index)] = (ids, dists, None, stats, seconds)
        return results

    def refine_batch(self, items: Sequence, engine_name: str, key_id) -> list:
        """Refine ``(trapdoor_vector, candidate_ids, k)`` items round-robin.

        Returns one entry per item: ``(RefineOutcome, refine_seconds)``
        or the :class:`Exception` that poisoned the item.  ``C_DCE`` is
        global, so any worker can take any item; round-robin keeps the
        deal deterministic.
        """
        if self._closed:
            raise DataPlaneError("data plane is closed")
        self._ensure_workers()
        if not items:
            return []
        alive = [
            index for index, worker in enumerate(self._workers) if not worker.dead
        ]
        if not alive:
            error = DataPlaneError(
                "all data-plane workers are down (restarts pending)"
            )
            return [error] * len(items)
        assigned: "dict[int, list]" = {}
        for slot, (trapdoor_vector, candidate_ids, k) in enumerate(items):
            assigned.setdefault(alive[slot % len(alive)], []).append(
                (slot, trapdoor_vector, candidate_ids, k)
            )
        targets = sorted(assigned)
        messages = [
            ("refine", engine_name, key_id, assigned[worker_index])
            for worker_index in targets
        ]
        outcomes = self._exchange(targets, messages)
        results: list = [None] * len(items)
        for worker_index, message in zip(targets, messages):
            payload = outcomes[worker_index]
            if isinstance(payload, Exception):
                for slot, *_ in message[3]:
                    results[slot] = payload
                continue
            for slot, status, data in payload:
                if status == "ok":
                    ids, comparisons, kernel_seconds, rechecks, seconds = data
                    results[slot] = (
                        RefineOutcome(
                            ids=ids,
                            comparisons=comparisons,
                            kernel_seconds=kernel_seconds,
                            rechecks=rechecks,
                        ),
                        seconds,
                    )
                else:
                    results[slot] = DataPlaneError(
                        f"refine failed in worker {worker_index}: {data}"
                    )
        return results

    # -- transport ---------------------------------------------------------------

    def _exchange(self, targets: "list[int]", messages: "list") -> dict:
        """Send ``messages[i]`` to ``targets[i]``; gather every reply.

        Sends complete before any receive so the workers run
        concurrently.  Each entry of the returned dict is the reply
        payload or the :class:`DataPlaneError` for that worker.
        """
        outcomes: dict = {}
        pending = []
        for worker_index, message in zip(targets, messages):
            worker = self._workers[worker_index]
            if worker.dead:
                outcomes[worker_index] = DataPlaneError(
                    f"worker {worker_index} is down; restart pending "
                    "(see health())"
                )
                continue
            try:
                worker.conn.send(message)
                pending.append(worker_index)
            except Exception as exc:
                self._mark_dead(worker_index)
                outcomes[worker_index] = DataPlaneError(
                    f"worker {worker_index} is unreachable: {exc}"
                )
        for worker_index in pending:
            try:
                reply = self._recv(worker_index)
            except DataPlaneError as exc:
                outcomes[worker_index] = exc
                continue
            if reply[0] == "error":
                outcomes[worker_index] = DataPlaneError(
                    f"worker {worker_index}: {reply[1]}"
                )
            else:
                outcomes[worker_index] = reply[1]
        return outcomes

    def _recv(self, worker_index: int, starting: bool = False):
        """One reply from a worker; a dead worker raises, never hangs.

        ``starting`` marks the start-up handshake, where a silent death
        most often means the worker never got past re-importing the
        program's ``__main__`` — the error then says so.
        """
        worker = self._workers[worker_index]
        when = "during start-up" if starting else "mid-batch"
        hint = _UNGUARDED_MAIN_HINT if starting else ""
        try:
            while not worker.conn.poll(_POLL_SECONDS):
                if not worker.process.is_alive():
                    # Data already flushed into the pipe is still
                    # readable after death; only a silent exit with an
                    # empty pipe is a crash.
                    if worker.conn.poll(0):
                        break
                    self._mark_dead(worker_index)
                    raise DataPlaneError(
                        f"worker {worker_index} (pid {worker.process.pid}) died "
                        f"{when} (exit code {worker.process.exitcode}){hint}"
                    )
            return worker.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            self._mark_dead(worker_index)
            raise DataPlaneError(
                f"worker {worker_index} (pid {worker.process.pid}) died "
                f"{when}: {type(exc).__name__}{hint}"
            ) from exc

    # -- fault injection ----------------------------------------------------------

    def kill_worker(self, worker_index: int) -> None:
        """Make one worker exit without replying (crash-path testing).

        The next batch that depends on the worker settles its queries
        with :class:`DataPlaneError`; the plane then respawns the worker
        in place after its restart backoff.  Blocks until the process is
        gone.
        """
        worker = self._workers[worker_index]
        try:
            worker.conn.send(("abort",))
        except Exception:
            pass
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - abort failed
            worker.process.terminate()
            worker.process.join(timeout=5.0)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers, release and unlink the arena (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("close",))
            except Exception:
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._arena.close()
        self._arena.unlink()

    def __enter__(self) -> "ProcessDataPlane":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _index_fingerprint(index) -> tuple:
    """The mutation fingerprint :meth:`ProcessDataPlane.matches` compares.

    ``(rows, tombstones, retired)`` can never repeat across a sequence
    of maintenance operations: rows and retired only grow, and at any
    fixed (rows, retired) the tombstone count only grows (it shrinks
    solely through compaction, which grows retired).
    """
    return (
        int(index.sap_vectors.shape[0]),
        len(index.tombstones),
        len(index.retired),
    )
