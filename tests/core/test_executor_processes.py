"""Process data-plane tests: parity, lifecycle, crashes, spawn safety.

Every plane spawn costs real process-startup time, so the suite keeps
indexes tiny and worker counts at 1-2; the broad backend x mode x shard
sweep lives in ``tests/strategies/test_executor_properties.py``.
"""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.plane as plane_module
from repro.core.dce import DCETrapdoor
from repro.core.errors import ParameterError
from repro.core.plane import (
    DataPlaneError,
    ProcessDataPlane,
    process_plane_available,
)
from repro.core.refine import get_refine_engine
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.core.shm import active_arenas
from repro.hnsw.graph import HNSWParams

_TINY_HNSW = HNSWParams(m=4, ef_construction=20)

needs_plane = pytest.mark.skipif(
    not process_plane_available(),
    reason="process data plane unavailable on this host",
)


def _workload(shards=2, n=80, dim=8, queries=6, k=3, mode="full", seed=33):
    owner = DataOwner(
        dim,
        beta=0.5,
        hnsw_params=_TINY_HNSW,
        backend="hnsw",
        shards=shards,
        rng=np.random.default_rng(seed),
    )
    database = np.random.default_rng(seed + 1).standard_normal((n, dim)) * 2.0
    index = owner.build_index(database)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(seed + 2))
    rows = np.random.default_rng(seed + 3).standard_normal((queries, dim)) * 2.0
    batch = user.encrypt_queries(rows, k, mode=mode)
    return index, batch


def _shm_listing():
    """Names under /dev/shm, where Linux keeps the plane's arenas."""
    return sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []


def _assert_same_answers(thread_results, process_results):
    for t, p in zip(thread_results, process_results):
        assert np.array_equal(t.ids, p.ids)
        assert (
            t.filter_stats.distance_computations
            == p.filter_stats.distance_computations
        )
        assert t.refine_comparisons == p.refine_comparisons


@needs_plane
class TestServerIntegration:
    def test_parity_and_plane_reuse(self):
        index, batch = _workload()
        oracle = CloudServer(index).answer(batch)
        with CloudServer(index, executor="processes", workers=2) as server:
            assert server.executor == "processes"
            first_plane = server.data_plane()
            assert first_plane is not None
            assert first_plane.workers == 2
            assert first_plane.sharded
            _assert_same_answers(oracle, server.answer(batch))
            # Second batch reuses the cached plane — no respawn.
            assert server.data_plane() is first_plane
            _assert_same_answers(oracle, server.answer(batch))
            # The refine reply carries the engine's whole outcome,
            # rechecks included: a duplicated candidate is an exact tie,
            # which no batched sign is trusted on.
            candidates = np.array([5, 5], dtype=np.int64)
            vector = batch.trapdoor_vectors[0]
            local = get_refine_engine("vectorized").refine(
                index.dce_database,
                DCETrapdoor(vector, batch.key_id),
                candidates,
                1,
            )
            [(remote, _)] = first_plane.refine_batch(
                [(vector, candidates, 1)], "vectorized", batch.key_id
            )
            assert local.rechecks >= 1
            assert np.array_equal(remote.ids, local.ids)
            assert (remote.comparisons, remote.rechecks) == (
                local.comparisons,
                local.rechecks,
            )
            name = first_plane.arena_name
            assert name in active_arenas()
        assert first_plane.closed
        assert name not in active_arenas()

    def test_invalidate_then_rebuild(self):
        index, batch = _workload(queries=2)
        with CloudServer(index, executor="processes", workers=1) as server:
            first = server.data_plane()
            server.invalidate_data_plane()
            assert first.closed
            second = server.data_plane()
            assert second is not first
            assert not second.closed
        assert not active_arenas()

    def test_concurrent_first_use_builds_exactly_one_plane(self):
        """Racing first callers (a serving scheduler plus a direct
        answer, say) must share one plane — a second build would leak
        its worker processes and shared-memory arena unclosed."""
        import threading

        index, batch = _workload(queries=2)
        with CloudServer(index, executor="processes", workers=1) as server:
            planes = [None] * 4
            barrier = threading.Barrier(4)

            def grab(slot):
                barrier.wait()
                planes[slot] = server.data_plane()

            threads = [
                threading.Thread(target=grab, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert all(plane is planes[0] for plane in planes)
            assert planes[0] is not None and not planes[0].closed
            assert len(active_arenas()) == 1
        assert not active_arenas()

    def test_degrades_to_threads_when_unavailable(self, monkeypatch):
        index, batch = _workload(queries=2)
        monkeypatch.setattr(plane_module, "process_plane_available", lambda: False)
        oracle = CloudServer(index).answer(batch)
        server = CloudServer(index, executor="processes")
        with pytest.warns(RuntimeWarning, match="degrading to thread execution"):
            assert server.data_plane() is None
        # The degradation is permanent and warns exactly once.
        assert server.executor == "threads"
        assert server.data_plane() is None
        _assert_same_answers(oracle, server.answer(batch))

    def test_worker_crash_fails_batch_then_plane_self_heals(self):
        index, batch = _workload()
        oracle = CloudServer(index).answer(batch)
        with CloudServer(index, executor="processes", workers=1) as server:
            crashed = server.data_plane()
            _assert_same_answers(oracle, server.answer(batch))
            crashed.kill_worker(0)
            # The poisoned batch raises (no hang) — at send time (broken
            # pipe) or at recv time (death detected), depending on when
            # the OS tears the pipe down.
            with pytest.raises(DataPlaneError, match="died mid-batch|unreachable"):
                server.answer(batch)
            # A crash no longer breaks the plane: the server keeps the
            # same plane and the dead worker respawns in place.
            assert not crashed.broken
            assert server.data_plane() is crashed
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    _assert_same_answers(oracle, server.answer(batch))
                    break
                except DataPlaneError:
                    time.sleep(0.05)
            else:
                pytest.fail("plane did not self-heal within 30s")
            health = crashed.health()
            assert health["workers"][0]["restarts"] >= 1
            assert not health["workers"][0]["dead"]
        assert not active_arenas()

    def test_invalid_workers_rejected(self):
        index, _ = _workload(queries=1)
        with pytest.raises(ParameterError, match="workers"):
            CloudServer(index, executor="processes", workers=0)
        with pytest.raises(ParameterError, match="executor"):
            CloudServer(index, executor="fibers")


@needs_plane
class TestPlaneLifecycle:
    def test_double_close_is_idempotent(self):
        index, _ = _workload(queries=1)
        plane = ProcessDataPlane(index, workers=1)
        name = plane.arena_name
        plane.close()
        plane.close()
        assert plane.closed
        assert name not in active_arenas()
        with pytest.raises(DataPlaneError, match="closed"):
            plane.filter_batch(np.zeros((1, index.sap_vectors.shape[1])), 3, None)

    def test_crash_poisons_per_query_not_hangs(self):
        index, batch = _workload(shards=2)
        with ProcessDataPlane(index, workers=1) as plane:
            plane.kill_worker(0)
            outcomes = plane.filter_batch(batch.sap_vectors, 6, None)
            assert len(outcomes) == batch.sap_vectors.shape[0]
            assert all(isinstance(o, DataPlaneError) for o in outcomes)
            # The crash marks the worker dead (restart pending) but the
            # plane itself stays serviceable and current.
            assert not plane.broken
            assert plane.matches(index)
            health = plane.health()
            assert health["workers"][0]["dead"]
            assert health["workers"][0]["restart_in_seconds"] is not None
        assert not active_arenas()

    def test_monolithic_stripe_crash_poisons_only_dead_stripe(self):
        index, batch = _workload(shards=None)
        with ProcessDataPlane(index, workers=2) as plane:
            assert not plane.sharded
            plane.kill_worker(1)
            outcomes = plane.filter_batch(batch.sap_vectors, 6, None)
            poisoned = [isinstance(o, DataPlaneError) for o in outcomes]
            # Worker 0's stripe still answered; worker 1's is poisoned.
            assert any(poisoned) and not all(poisoned)
        assert not active_arenas()

    def test_constructor_failure_unlinks_arena(self, monkeypatch):
        index, _ = _workload(queries=1)

        def sabotaged_recv(self, worker_index, starting=False):
            raise DataPlaneError("injected handshake failure")

        monkeypatch.setattr(ProcessDataPlane, "_recv", sabotaged_recv)
        with pytest.raises(DataPlaneError, match="injected"):
            ProcessDataPlane(index, workers=1)
        assert not active_arenas()

    def test_unguarded_main_fails_fast_and_unlinks_arena(self, tmp_path):
        """An entry script with no ``__main__`` guard must not hang.

        Each spawned worker re-imports the script, reaches the plane at
        module level and is killed by multiprocessing before its
        handshake.  The parent used to block forever writing the
        worker's (large) spawn arguments to the dead child; it must
        instead raise a typed error naming the guard and unlink the
        arena.
        """
        script = tmp_path / "unguarded.py"
        script.write_text(
            textwrap.dedent(
                """
                import sys

                import numpy as np

                from repro.core.plane import DataPlaneError, ProcessDataPlane
                from repro.core.roles import DataOwner

                rng = np.random.default_rng(0)
                owner = DataOwner(12, beta=0.5, backend="hnsw", rng=rng)
                index = owner.build_index(rng.standard_normal((200, 12)) * 2.0)
                try:
                    ProcessDataPlane(index, workers=1)
                except DataPlaneError as exc:
                    print(f"DataPlaneError: {exc}")
                    sys.exit(3)
                """
            )
        )
        src = Path(plane_module.__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        shm_before = _shm_listing()
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 3, done.stderr
        assert "DataPlaneError: worker 0" in done.stdout
        assert "died during start-up" in done.stdout
        assert 'if __name__ == "__main__":' in done.stdout
        assert _shm_listing() == shm_before

    def test_spawn_context_inherits_no_pool_state(self):
        from repro.core.executor import shared_pool

        shared_pool()  # force the parent's lazy thread pool into existence
        index, _ = _workload(queries=1)
        with ProcessDataPlane(index, workers=1) as plane:
            diagnostics = plane.ping(0)
            assert diagnostics["start_method"] == "spawn"
            # Spawn children import repro fresh: the parent's pool (and
            # any lock it holds) must not be visible in the worker.
            assert diagnostics["pool_inherited"] is False
        assert not active_arenas()

    def test_stale_fingerprint_detected(self):
        index, _ = _workload(queries=1)
        with ProcessDataPlane(index, workers=1) as plane:
            assert plane.matches(index)
            other, _ = _workload(queries=1, seed=77)
            assert not plane.matches(other)
