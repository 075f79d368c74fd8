"""Spans recorded by the harness around calls into each layer.

A span is ``{id, request_id, name, start, end, parent, attrs}``: the
harness opens one around every call into a layer's public function,
attaches the counts and stage clocks the layer already exposes (the
``SearchResult`` fields, ``ServerMetrics`` snapshots) as ``attrs``, keeps
everything in memory and writes one JSON line per span when the pass
ends.  Spans of one request share ``request_id``.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).

The untraced pass runs with ``SpanRecorder(enabled=False)``: ``span()``
then hands out one shared no-op context and records nothing, so the
end-to-end figures never pay for tracing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["SpanRecorder", "self_times", "covered_seconds"]


class _Span:
    """Context manager for one live span; ``seconds`` is set on exit."""

    __slots__ = ("_recorder", "record", "seconds")

    def __init__(self, recorder: "SpanRecorder", record: dict) -> None:
        self._recorder = recorder
        self.record = record
        self.seconds = 0.0

    @property
    def id(self) -> int:
        """The span's id, for use as another span's ``parent``."""
        return self.record["id"]

    def __enter__(self) -> "_Span":
        self.record["start"] = self._recorder.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        record = self.record
        record["end"] = self._recorder.clock()
        self.seconds = record["end"] - record["start"]
        if exc_type is not None:
            record["attrs"]["error"] = exc_type.__name__
        self._recorder.spans.append(record)


class _NoSpan:
    """The shared no-op span of a disabled recorder."""

    id = None
    seconds = 0.0
    record = {"attrs": {}}

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NO_SPAN = _NoSpan()


class SpanRecorder:
    """In-memory span store; one per traced pass.

    ``list.append`` is atomic under the interpreter lock, so client
    threads and done-callbacks record into one recorder without a lock.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[dict] = []
        self._next_id = 0

    def _new_record(self, request_id, name: str, parent, attrs: dict) -> dict:
        self._next_id += 1
        return {
            "id": self._next_id,
            "request_id": request_id,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": getattr(parent, "id", parent),
            "attrs": attrs,
        }

    def span(self, request_id, name: str, parent=None, **attrs):
        """Open a span (``with recorder.span(...) as s``); no-op when disabled."""
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, self._new_record(request_id, name, parent, attrs))

    def add(self, request_id, name: str, start: float, end: float,
            parent=None, **attrs):
        """Record a span whose boundaries were stamped elsewhere
        (a future's done-callback stamps the end on another thread)."""
        if not self.enabled:
            return None
        record = self._new_record(request_id, name, parent, attrs)
        record["start"], record["end"] = start, end
        self.spans.append(record)
        return record["id"]

    def write(self, path: Path) -> None:
        """One JSON object per line, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered_seconds(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans) -> "dict[int, float]":
    """``{span id: duration - child coverage}`` for every span.

    Overlapping children (parallel parts) are counted once: the parent
    was not busy itself while any child was running.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_seconds(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }
