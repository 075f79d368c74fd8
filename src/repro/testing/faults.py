"""Unified count-to-Nth-call fault injection.

The persistence suite's crash sweep established the pattern: an
operation's failure surface is a *finite* list of primitive calls, so
"a fault at any point" means counting calls once and then re-running
with a fault armed at each index.  This module lifts the counting core
out of the filesystem layer so every fault surface in the stack speaks
the same language:

* :class:`CallTrigger` — the counting core: fire at call N (1-based),
  once or on every call from N on.
* :class:`FaultySocket` — a socket proxy that drops, delays, or tears
  the connection at the Nth sent frame, for wire-level chaos.
* :class:`FaultyExecute` — wraps a scheduler execute hook so the Nth
  dispatched batch raises :class:`InjectedFault`.

The filesystem-side ``FaultyOps`` (``tests/persistence/faultfs.py``)
builds on the same trigger; :class:`InjectedFault` is the one exception
type every injected failure raises, so "production code never catches
it" stays checkable in a single place.
"""

from __future__ import annotations

import socket as socket_module
import time

__all__ = [
    "InjectedFault",
    "CallTrigger",
    "FaultySocket",
    "FaultyExecute",
]


class InjectedFault(RuntimeError):
    """The simulated failure — never caught by production code."""


class CallTrigger:
    """Fires at the Nth observed call (1-based).

    With ``repeat=False`` (the default) the trigger fires exactly once,
    at call ``fire_at`` — the crash-sweep semantics.  With
    ``repeat=True`` it fires on every call from ``fire_at`` on — a
    persistent fault rather than a transient one.
    """

    def __init__(self, fire_at: int, repeat: bool = False) -> None:
        if fire_at < 1:
            raise ValueError(f"fire_at must be >= 1, got {fire_at}")
        self.fire_at = int(fire_at)
        self.repeat = bool(repeat)
        self.calls = 0
        self.fired = 0

    def observe(self) -> bool:
        """Count one call; ``True`` when the fault should fire now."""
        self.calls += 1
        if self.calls == self.fire_at or (
            self.repeat and self.calls > self.fire_at
        ):
            self.fired += 1
            return True
        return False


class FaultySocket:
    """A socket proxy that misbehaves at the Nth ``sendall``.

    The codec sends exactly one ``sendall`` per frame, so the trigger
    counts *frames* (the HELLO handshake counts too).  Three actions:

    * ``"drop"`` — the frame's bytes silently vanish (a lost packet the
      peer never sees; the caller's own timeout must catch it).
    * ``"delay"`` — sleep ``delay_seconds`` first, then send (a stalled
      link; frame deadlines must catch it).
    * ``"close"`` — tear the real connection down mid-request and raise
      ``ConnectionResetError``, exactly what a dying peer looks like.

    Every other attribute proxies to the wrapped socket, so the proxy
    drops in anywhere a real socket is accepted.
    """

    def __init__(
        self,
        sock: socket_module.socket,
        trigger: CallTrigger,
        action: str = "close",
        delay_seconds: float = 0.0,
        sleep=time.sleep,
    ) -> None:
        if action not in ("drop", "delay", "close"):
            raise ValueError(
                f"action must be drop / delay / close, got {action!r}"
            )
        self._sock = sock
        self.trigger = trigger
        self.action = action
        self.delay_seconds = float(delay_seconds)
        self._sleep = sleep

    def sendall(self, data) -> None:
        if not self.trigger.observe():
            self._sock.sendall(data)
            return
        if self.action == "drop":
            return
        if self.action == "delay":
            self._sleep(self.delay_seconds)
            self._sock.sendall(data)
            return
        try:
            self._sock.shutdown(socket_module.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        raise ConnectionResetError(
            f"injected connection close at frame {self.trigger.calls}"
        )

    def __getattr__(self, name):
        return getattr(self._sock, name)


class FaultyExecute:
    """Wraps a scheduler execute hook; the Nth batch raises.

    Keep a reference to the instance for the scheduler's lifetime — the
    scheduler holds its hooks weakly, so a garbage-collected wrapper
    reads as owner shutdown, not as a fault.
    """

    def __init__(self, execute, trigger: CallTrigger, exc_factory=None) -> None:
        self._execute = execute
        self.trigger = trigger
        self._exc_factory = exc_factory or (
            lambda: InjectedFault(
                f"execute faulted at batch {self.trigger.calls}"
            )
        )

    def __call__(self, *args, **kwargs):
        if self.trigger.observe():
            raise self._exc_factory()
        return self._execute(*args, **kwargs)
