"""Shared worker-pool tests: ordering, error isolation, nesting."""

import threading
import time

import pytest

from repro.core.errors import ParameterError
from repro.core.executor import (
    EXECUTOR_MODES,
    Settled,
    in_worker_thread,
    map_ordered,
    pool_width,
    resolve_executor,
    shared_pool,
)


class TestMapOrdered:
    def test_empty(self):
        assert map_ordered(lambda x: x, []) == []

    def test_single_item_runs_inline(self):
        thread_names = []

        def record(x):
            thread_names.append(threading.current_thread().name)
            return x * 2

        assert map_ordered(record, [21]) == [42]
        assert thread_names == [threading.current_thread().name]

    def test_results_in_input_order(self):
        # Later items finish first; gather order must still be input order.
        def staggered(i):
            time.sleep(0.02 * (4 - i))
            return i

        assert map_ordered(staggered, range(5)) == [0, 1, 2, 3, 4]

    def test_error_isolation_siblings_complete(self):
        completed = []

        def task(i):
            if i == 1:
                raise ValueError(f"boom {i}")
            time.sleep(0.01)
            completed.append(i)
            return i

        with pytest.raises(ValueError, match="boom 1"):
            map_ordered(task, range(6))
        # Every non-failing task ran to completion despite the failure.
        assert sorted(completed) == [0, 2, 3, 4, 5]

    def test_first_error_by_input_position_wins(self):
        # The later-positioned error completes first; the earlier one is
        # still the one reported.
        def task(i):
            if i == 4:
                raise KeyError("late but fast")
            if i == 2:
                time.sleep(0.05)
                raise ValueError("early but slow")
            return i

        with pytest.raises(ValueError, match="early but slow"):
            map_ordered(task, range(6))

    def test_base_exceptions_propagate_immediately(self):
        # KeyboardInterrupt / SystemExit are not "task failures" to
        # isolate: they must win even over an earlier-positioned error.
        def task(i):
            if i == 0:
                raise ValueError("ordinary failure")
            if i == 1:
                raise KeyboardInterrupt
            return i

        with pytest.raises(KeyboardInterrupt):
            map_ordered(task, range(4))

    def test_nested_fanout_runs_inner_inline(self):
        # A fan-out from inside a pool worker must not resubmit to the
        # (bounded) pool — that is the classic nested-pool deadlock.
        inner_flags = []

        def inner(i):
            inner_flags.append(in_worker_thread())
            return i

        def outer(i):
            return sum(map_ordered(inner, range(3)))

        results = map_ordered(outer, range(pool_width() + 2))
        assert results == [3] * (pool_width() + 2)
        assert all(inner_flags)

    def test_saturating_nested_fanout_completes(self):
        # More outer tasks than workers, each nesting another fan-out;
        # completes quickly when the inner level runs inline.
        def outer(i):
            return map_ordered(lambda j: j + i, range(4))

        start = time.perf_counter()
        results = map_ordered(outer, range(4 * pool_width()))
        assert time.perf_counter() - start < 30.0
        assert results[1] == [1, 2, 3, 4]


class TestSettled:
    def test_capture_settles_value_or_error(self):
        def task(i):
            if i % 2:
                raise ValueError(f"boom {i}")
            return i

        settled = [Settled.capture(task, i) for i in range(5)]
        assert [s.ok for s in settled] == [True, False, True, False, True]
        assert [s.value for s in settled if s.ok] == [0, 2, 4]
        assert str(settled[1].error) == "boom 1"
        assert str(settled[3].error) == "boom 3"

    def test_unwrap_reraises(self):
        settled = Settled(error=KeyError("nope"))
        with pytest.raises(KeyError):
            settled.unwrap()
        assert Settled(value=7).unwrap() == 7

    def test_capture_lets_base_exceptions_through(self):
        def task(_):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            Settled.capture(task, 0)


class TestPool:
    def test_shared_pool_is_singleton(self):
        assert shared_pool() is shared_pool()

    def test_main_thread_is_not_worker(self):
        assert not in_worker_thread()

    def test_pool_width_positive(self):
        assert pool_width() >= 1


class TestPoolWidthOverride:
    def test_env_override_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert pool_width() == 3
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert pool_width() == 1

    def test_env_override_capped_at_pool_maximum(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "100000")
        assert pool_width() == 32

    @pytest.mark.parametrize("bad", ["0", "-2", "four", "2.5"])
    def test_invalid_override_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ParameterError, match="REPRO_WORKERS"):
            pool_width()

    def test_blank_override_falls_back_to_host_width(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert pool_width() >= 1
        monkeypatch.delenv("REPRO_WORKERS")
        assert pool_width() >= 1


class TestExecutorModes:
    def test_modes_registry(self):
        assert EXECUTOR_MODES == ("threads", "processes")

    def test_resolve_default_and_passthrough(self):
        assert resolve_executor(None) == "threads"
        for mode in EXECUTOR_MODES:
            assert resolve_executor(mode) == mode

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ParameterError, match="unknown executor"):
            resolve_executor("fibers")
