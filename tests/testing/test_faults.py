"""The fault-injection harness itself: triggers, proxies, wrappers.

Every chaos test in the repo leans on these primitives, so their
counting semantics must be exact: 1-based, fire-once by default,
persistent with ``repeat=True``.
"""

import socket

import pytest

from repro.testing import (
    CallTrigger,
    FaultyExecute,
    FaultySocket,
    InjectedFault,
)


class TestCallTrigger:
    def test_fires_exactly_at_nth_call(self):
        trigger = CallTrigger(3)
        assert [trigger.observe() for _ in range(5)] == [
            False, False, True, False, False,
        ]
        assert trigger.calls == 5
        assert trigger.fired == 1

    def test_first_call_trigger(self):
        trigger = CallTrigger(1)
        assert trigger.observe()
        assert not trigger.observe()

    def test_repeat_fires_from_nth_on(self):
        trigger = CallTrigger(2, repeat=True)
        assert [trigger.observe() for _ in range(4)] == [
            False, True, True, True,
        ]
        assert trigger.fired == 3

    def test_rejects_non_positive_fire_at(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="fire_at"):
                CallTrigger(bad)


class _Pair:
    """A connected socketpair, closed on exit."""

    def __enter__(self):
        self.left, self.right = socket.socketpair()
        self.right.settimeout(5.0)
        return self.left, self.right

    def __exit__(self, *exc):
        for sock in (self.left, self.right):
            try:
                sock.close()
            except OSError:
                pass


class TestFaultySocket:
    def test_drop_swallows_only_the_nth_send(self):
        with _Pair() as (left, right):
            faulty = FaultySocket(left, CallTrigger(2), action="drop")
            faulty.sendall(b"one")
            faulty.sendall(b"two")  # vanishes
            faulty.sendall(b"three")
            left.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := right.recv(64):
                received += chunk
            assert received == b"onethree"

    def test_delay_sleeps_then_sends(self):
        slept = []
        with _Pair() as (left, right):
            faulty = FaultySocket(
                left,
                CallTrigger(1),
                action="delay",
                delay_seconds=1.5,
                sleep=slept.append,
            )
            faulty.sendall(b"late")
            assert right.recv(64) == b"late"
        assert slept == [1.5]

    def test_close_tears_down_and_raises(self):
        with _Pair() as (left, right):
            faulty = FaultySocket(left, CallTrigger(1), action="close")
            with pytest.raises(ConnectionResetError, match="frame 1"):
                faulty.sendall(b"doomed")
            # The peer observes a clean EOF, not a hang.
            assert right.recv(64) == b""

    def test_unknown_action_rejected(self):
        with _Pair() as (left, _):
            with pytest.raises(ValueError, match="action"):
                FaultySocket(left, CallTrigger(1), action="explode")

    def test_other_attributes_proxy_through(self):
        with _Pair() as (left, _):
            faulty = FaultySocket(left, CallTrigger(1))
            assert faulty.fileno() == left.fileno()


class TestFaultyExecute:
    def test_nth_call_raises_injected_fault(self):
        seen = []
        faulty = FaultyExecute(
            lambda batch: seen.append(batch) or "ok", CallTrigger(2)
        )
        assert faulty("a") == "ok"
        with pytest.raises(InjectedFault, match="batch 2"):
            faulty("b")
        assert faulty("c") == "ok"
        assert seen == ["a", "c"]

    def test_custom_exception_factory(self):
        faulty = FaultyExecute(
            lambda: "ok", CallTrigger(1), exc_factory=lambda: OSError("disk")
        )
        with pytest.raises(OSError, match="disk"):
            faulty()
