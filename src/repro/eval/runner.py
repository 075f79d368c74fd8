"""Recall-vs-throughput curve sweeps.

Every figure in Section VII is a family of (Recall@k, QPS-or-latency)
curves produced by sweeping a beam/candidate parameter.  This module
standardizes those sweeps: it runs a query workload at each parameter
setting, measures wall-clock latency and Recall@k against exact ground
truth, and returns :class:`MethodCurve` objects the benchmarks and
reporting helpers consume.

:func:`sweep_shards` extends the family beyond the paper: it sweeps the
shard count of the scatter-gather serving layer
(:mod:`repro.core.sharding`), reporting filter-phase latency per shard
count so ``benchmarks/bench_sharding.py`` can plot the scaling curve.
:func:`sweep_refine_engine` does the same for the refine stage's
pluggable engines (:mod:`repro.core.refine`): one curve per engine over
a shared ``ef_search`` grid, so the heap-vs-vectorized latency gap is
visible at every operating point.  :func:`sweep_serving`
sweeps the online layer's micro-batch latency window
(:mod:`repro.serve`): one point per window over an open-loop workload,
reporting served throughput, latency tails, and the realized mean
batch size — the curve ``benchmarks/bench_serving.py`` asserts on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ParameterError
from repro.core.scheme import PPANNS
from repro.eval.metrics import recall_at_k
from repro.hnsw.bruteforce import exact_knn

__all__ = [
    "CurvePoint",
    "MethodCurve",
    "ServingPoint",
    "ServingCurve",
    "sweep_ppanns",
    "sweep_filter_only",
    "sweep_shards",
    "sweep_refine_engine",
    "sweep_serving",
    "ground_truth",
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


@dataclass(frozen=True)
class ServingPoint:
    """One point of a serving-layer window sweep.

    Attributes
    ----------
    window_seconds:
        The swept micro-batch latency window.
    qps:
        Served throughput: queries / (last completion - first submit).
    latency_p50 / latency_p95 / latency_p99:
        End-to-end per-query latency percentiles (admission to
        completion) from the frontend's metrics.
    mean_batch_size:
        Mean scheduler-formed micro-batch size at this window.
    batches:
        Micro-batches dispatched.
    """

    window_seconds: float
    qps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    mean_batch_size: float
    batches: int


@dataclass(frozen=True)
class ServingCurve:
    """A labelled throughput/latency curve over the batch-window grid."""

    label: str
    points: tuple[ServingPoint, ...]

    def best_qps(self) -> float:
        """The curve's throughput ceiling."""
        return max(point.qps for point in self.points)

    def best_point(self) -> ServingPoint:
        """The point with the highest served throughput."""
        return max(self.points, key=lambda point: point.qps)


def sweep_serving(
    scheme: PPANNS,
    queries: np.ndarray,
    k: int,
    window_grid: tuple[float, ...],
    max_batch_size: int = 32,
    ratio_k: int | None = None,
    ef_search: int | None = None,
    rate: float | None = None,
    seed: int = 0,
    label: str | None = None,
) -> ServingCurve:
    """Sweep the micro-batch latency window of the online serving layer.

    The workload is encrypted query-by-query up front (the online model:
    each user ships an individual :class:`EncryptedQuery`) and replayed
    open-loop through a fresh
    :class:`~repro.serve.frontend.ServingFrontend` per window —
    submissions never wait for answers, so the scheduler, not the
    client, sets the batching.  ``rate`` is the Poisson arrival rate in
    queries/second (inter-arrivals drawn from a seeded exponential);
    ``None`` submits back-to-back, the heavy-traffic limit.
    """
    from repro.serve import replay_open_loop

    encrypted = [
        scheme.user.encrypt_query(query, k, ratio_k=ratio_k, ef_search=ef_search)
        for query in queries
    ]
    points = []
    for window in window_grid:
        frontend = scheme.serve(
            max_batch_size=max_batch_size,
            batch_window_seconds=window,
            max_queue_depth=max(1024, len(encrypted)),
        )
        with frontend:
            _, elapsed = replay_open_loop(frontend, encrypted, rate=rate, seed=seed)
            snapshot = frontend.metrics.snapshot()
        points.append(
            ServingPoint(
                window_seconds=float(window),
                qps=len(encrypted) / elapsed if elapsed > 0 else float("inf"),
                latency_p50=snapshot.latency_p50,
                latency_p95=snapshot.latency_p95,
                latency_p99=snapshot.latency_p99,
                mean_batch_size=snapshot.mean_batch_size,
                batches=snapshot.batches,
            )
        )
    return ServingCurve(
        label=label if label is not None else f"serving(max_batch={max_batch_size})",
        points=tuple(points),
    )


def ground_truth(
    database: np.ndarray, queries: np.ndarray, k: int
) -> list[np.ndarray]:
    """Exact k-NN ids for every query (the recall reference)."""
    return [exact_knn(database, query, k)[0] for query in queries]


def sweep_ppanns(
    scheme: PPANNS,
    queries: np.ndarray,
    truth: list[np.ndarray],
    k: int,
    ratio_k: int,
    ef_grid: tuple[int, ...],
    label: str | None = None,
) -> MethodCurve:
    """Sweep ``ef_search`` for the full filter-and-refine scheme.

    Query encryption happens outside the timed region — the paper measures
    *server-side* search performance (Section VII: "Our solution is mainly
    performed on the server, so we focus on the server-side search
    performance").
    """
    if len(truth) != len(queries):
        raise ParameterError("truth list does not match query count")
    encrypted = scheme.user.encrypt_queries(queries, k)
    points = []
    for ef in ef_grid:
        start = time.perf_counter()
        results = scheme.server.answer(encrypted, ratio_k=ratio_k, ef_search=ef)
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
    return MethodCurve(
        label=label if label is not None else f"PP-ANNS(ratio_k={ratio_k})",
        points=tuple(points),
    )


def sweep_shards(
    database: np.ndarray,
    queries: np.ndarray,
    truth: list[np.ndarray],
    k: int,
    shard_grid: tuple[int, ...],
    beta: float,
    backend: str = "bruteforce",
    shard_strategy: str = "round_robin",
    ratio_k: int = 8,
    ef_search: int | None = None,
    seed: int = 0,
    label: str | None = None,
) -> MethodCurve:
    """Sweep the shard count of the scatter-gather serving layer.

    One scheme is built per shard count (shard backends are constructed
    over the partitioned ciphertexts, so the build is part of the swept
    configuration); each point reports the filter-phase mean latency —
    the phase sharding parallelizes — and Recall@k, with the shard count
    as the curve parameter.
    """
    if len(truth) != len(queries):
        raise ParameterError("truth list does not match query count")
    points = []
    for num_shards in shard_grid:
        scheme = PPANNS(
            dim=database.shape[1],
            beta=beta,
            backend=backend,
            shards=num_shards,
            shard_strategy=shard_strategy,
            rng=np.random.default_rng(seed),
        ).fit(database)
        results = scheme.query_batch(
            queries, k, ratio_k=ratio_k, ef_search=ef_search
        )
        recalls = [
            recall_at_k(result.ids, query_truth, k)
            for result, query_truth in zip(results, truth)
        ]
        points.append(
            CurvePoint(
                parameter=float(num_shards),
                recall=float(np.mean(recalls)),
                mean_latency_seconds=results.filter_seconds / len(queries),
            )
        )
    return MethodCurve(
        label=label if label is not None else f"sharded({backend})",
        points=tuple(points),
    )


def sweep_refine_engine(
    scheme: PPANNS,
    queries: np.ndarray,
    truth: list[np.ndarray],
    k: int,
    ratio_k: int,
    ef_grid: tuple[int, ...],
    engines: tuple[str, ...] = ("heap", "vectorized"),
) -> list[MethodCurve]:
    """One recall/latency curve per refine engine over a shared ef grid.

    Both engines answer the *same* encrypted batch at every grid point
    (the engine is a per-call server override), so the curves differ
    only in refine-stage implementation; recalls coincide because the
    vectorized engine is bit-identical to the heap reference.
    """
    if len(truth) != len(queries):
        raise ParameterError("truth list does not match query count")
    encrypted = scheme.user.encrypt_queries(queries, k)
    curves = []
    for engine in engines:
        points = []
        for ef in ef_grid:
            start = time.perf_counter()
            results = scheme.server.answer(
                encrypted, ratio_k=ratio_k, ef_search=ef, refine_engine=engine
            )
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
        curves.append(MethodCurve(label=f"refine={engine}", points=tuple(points)))
    return curves


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
