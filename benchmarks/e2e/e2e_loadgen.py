"""Load generation and sample bookkeeping shared by the four workloads.

* :func:`run_open_loop` sends on a schedule regardless of completions
  and hands every request its **due** time, so latency is timed from
  when the request was due — a stall makes the requests queued behind
  it late, and that wait counts.  It reports how late the generator ran.
* :func:`summarize_latencies` reports a timing as its median, p95, p99
  and the highest percentile that still has ten samples beyond it.
* :func:`summarize_windows` cuts the measured phase into windows and
  reports the median window's p50, p95 and throughput — the gated
  figures, steady against a burst of interference on a shared host.
* :class:`Outcomes` collects per-request results from client threads
  and done-callbacks; :class:`Reservoir` keeps the seeded sample of
  answered queries the oracle re-answers after the timed phase.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.metrics import percentile

__all__ = [
    "Outcome",
    "Outcomes",
    "Reservoir",
    "highest_supported_percentile",
    "poisson_due_times",
    "run_open_loop",
    "summarize_latencies",
    "summarize_windows",
]

#: Percentiles considered for the "highest supported" tail figure.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Requests slower than this miss the service-level objective
#: (``loadgen.slo_miss_ratio``; failures count as misses).
SLO_SECONDS = 0.050


def highest_supported_percentile(samples: int) -> float:
    """The highest of :data:`TAIL_PERCENTILES` with >= 10 samples past it.

    Nearest-rank: percentile ``q`` of ``n`` samples is the
    ``ceil(q*n/100)``-th smallest, so ``n - ceil(q*n/100)`` samples lie
    beyond it.  Falls back to the lowest candidate on tiny samples.
    """
    best = TAIL_PERCENTILES[0]
    for q in TAIL_PERCENTILES:
        if samples - math.ceil(q * samples / 100.0) >= 10:
            best = q
    return best


def summarize_latencies(latencies) -> dict:
    """Median, p95, p99 and the highest supported tail, in seconds."""
    ordered = sorted(latencies)
    tail = highest_supported_percentile(len(ordered))
    return {
        "samples": len(ordered),
        "p50": percentile(ordered, 50),
        "p95": percentile(ordered, 95),
        "p99": percentile(ordered, 99),
        "tail_percentile": tail,
        "tail": percentile(ordered, tail),
    }


def summarize_windows(done, latencies, queries, seconds, window_seconds) -> dict:
    """Median over the run's windows of each window's p50, p95 and rate.

    The measured phase is cut into equal windows of about
    ``window_seconds``; a request belongs to the window it completed in
    (the last one, if it completed after the phase).  Each window gives
    a median, a 95th percentile and a throughput, and the run reports
    the median of each across windows.  A window's throughput is its
    queries over the time from the last completion before it to its own
    last completion: the time those answers took, not a count per fixed
    second, so it has all its digits.  On a shared host a burst of
    interference then has to spoil half the windows before it moves a
    figure, where a whole-run p95 moves as soon as it touches one
    request in twenty.
    """
    count = max(1, int(seconds / window_seconds))
    width = seconds / count
    slots: list = [[] for _ in range(count)]
    for at, latency, n in zip(done, latencies, queries):
        slots[min(count - 1, int(at / width))].append((at, latency, n))
    p50s, p95s, rates, previous = [], [], [], 0.0
    for slot in slots:
        if not slot:
            continue   # a stall: the next window's span absorbs it
        ordered = sorted(latency for _, latency, _ in slot)
        p50s.append(percentile(ordered, 50))
        p95s.append(percentile(ordered, 95))
        last = max(at for at, _, _ in slot)
        rates.append(sum(n for _, _, n in slot) / (last - previous))
        previous = last
    return {
        "windows": len(rates),
        "p50": statistics.median(p50s),
        "p95": statistics.median(p95s),
        "qps": statistics.median(rates),
    }


def poisson_due_times(
    rng: np.random.Generator,
    rate: float,
    seconds: "float | None" = None,
    count: "int | None" = None,
) -> np.ndarray:
    """Due-time offsets of a Poisson arrival process at ``rate`` per second.

    Bounded by ``seconds`` of schedule or by a request ``count``.
    """
    if count is None:
        count = int(rate * seconds * 1.2) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return due if seconds is None else due[due < seconds]


def run_open_loop(due_offsets, issue, clock=time.perf_counter, sleep=time.sleep):
    """Send request ``i`` at ``start + due_offsets[i]``, never waiting on replies.

    ``issue(i, due)`` performs the send; it is given the absolute due
    time so the caller times the request from then.  When the generator
    falls behind it sends at once (no sleep) and the delay is recorded.
    Returns ``(start, lateness)`` with one lateness per request.
    """
    start = clock()
    lateness = []
    for i, offset in enumerate(due_offsets):
        due = start + float(offset)
        now = clock()
        while now < due:
            sleep(due - now)
            now = clock()
        lateness.append(now - due)
        issue(i, due)
    return start, lateness


@dataclass
class Outcome:
    """One request as the client saw it.

    ``latency`` runs from the request's start (its due time in an open
    loop) to decoded ids in hand; ``error`` names the exception type of
    a request that raised, was refused or timed out.
    """

    kind: str
    latency: float
    done_at: float
    pool_index: int = -1
    ids: "np.ndarray | None" = None
    queries: int = 1
    comm_bytes: int = 0
    error: "str | None" = None
    attrs: "dict | None" = None


@dataclass
class Outcomes:
    """Everything one measured pass produced (appended from any thread)."""

    rows: list = field(default_factory=list)
    started_at: float = 0.0
    lateness: list = field(default_factory=list)
    backlog_at_end: int = 0

    def add(self, outcome: Outcome) -> None:
        """Record one outcome (``list.append`` is atomic)."""
        self.rows.append(outcome)

    def of_kind(self, kind: str) -> list:
        """Successful outcomes of one kind (``read`` / ``insert`` / ``delete``)."""
        return [row for row in self.rows if row.kind == kind and not row.error]

    def errors(self) -> int:
        """Requests that raised, were refused or timed out."""
        return sum(1 for row in self.rows if row.error)

    def slo_miss_ratio(self) -> float:
        """Share of requests over :data:`SLO_SECONDS`; a failure is a miss."""
        slow = sum(row.latency > SLO_SECONDS for row in self.of_kind("read"))
        return (slow + self.errors()) / len(self.rows)

    def lateness_p95(self) -> float:
        """How late the open-loop generator ran (0 for a closed loop)."""
        return percentile(sorted(self.lateness), 95)


class Reservoir:
    """Uniform sample of at most ``capacity`` offered items (Algorithm R)."""

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        self.capacity = capacity
        self.items: list = []
        self._rng = rng
        self._seen = 0

    def offer(self, make_item) -> None:
        """Offer one item; ``make_item()`` is only called when it is kept."""
        self._seen += 1
        if len(self.items) < self.capacity:
            self.items.append(make_item())
            return
        slot = int(self._rng.integers(self._seen))
        if slot < self.capacity:
            self.items[slot] = make_item()
