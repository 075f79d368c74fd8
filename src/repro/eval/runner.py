"""Recall-vs-throughput curve sweeps.

Every figure in Section VII is a family of (Recall@k, QPS-or-latency)
curves produced by sweeping a beam/candidate parameter.  This module
standardizes those sweeps: it runs a query workload at each parameter
setting, measures wall-clock latency and Recall@k against exact ground
truth, and returns :class:`MethodCurve` objects the benchmarks and
reporting helpers consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ParameterError
from repro.core.scheme import PPANNS
from repro.eval.metrics import recall_at_k

__all__ = [
    "CurvePoint",
    "MethodCurve",
    "sweep_filter_only",
]


@dataclass(frozen=True)
class CurvePoint:
    """One point of a recall/throughput curve.

    Attributes
    ----------
    parameter:
        The swept parameter value (``ef_search`` or ``ratio_k``).
    recall:
        Mean Recall@k over the workload.
    mean_latency_seconds:
        Mean per-query wall-clock latency.
    qps:
        Single-thread queries per second (``1 / mean_latency``).
    """

    parameter: float
    recall: float
    mean_latency_seconds: float

    @property
    def qps(self) -> float:
        """Single-thread throughput implied by the mean latency."""
        if self.mean_latency_seconds <= 0:
            return float("inf")
        return 1.0 / self.mean_latency_seconds


@dataclass(frozen=True)
class MethodCurve:
    """A labelled recall/throughput curve for one method/configuration."""

    label: str
    points: tuple[CurvePoint, ...]

    def best_recall(self) -> float:
        """The curve's recall ceiling."""
        return max(point.recall for point in self.points)

    def qps_at_recall(self, recall_floor: float) -> float | None:
        """Best QPS among points with recall >= ``recall_floor`` (None if none)."""
        eligible = [p.qps for p in self.points if p.recall >= recall_floor]
        return max(eligible) if eligible else None


def sweep_filter_only(
    scheme: PPANNS,
    queries: np.ndarray,
    truth: list[np.ndarray],
    k: int,
    ef_grid: tuple[int, ...],
    label: str = "HNSW(filter)",
) -> MethodCurve:
    """Sweep ``ef_search`` for the filter phase alone (Figure 4 / 6)."""
    if len(truth) != len(queries):
        raise ParameterError("truth list does not match query count")
    encrypted = scheme.user.encrypt_queries(queries, k, ratio_k=1, mode="filter_only")
    points = []
    for ef in ef_grid:
        start = time.perf_counter()
        results = scheme.server.answer(encrypted, ef_search=ef)
        elapsed = time.perf_counter() - start
        recalls = [
            recall_at_k(result.ids, query_truth, k)
            for result, query_truth in zip(results, truth)
        ]
        points.append(
            CurvePoint(
                parameter=float(ef),
                recall=float(np.mean(recalls)),
                mean_latency_seconds=elapsed / len(queries),
            )
        )
    return MethodCurve(label=label, points=tuple(points))
