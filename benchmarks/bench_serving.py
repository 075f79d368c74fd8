"""Online serving: micro-batched frontend vs one-query-at-a-time answer.

The serving layer's claim (``repro.serve``) is that the server can form
its *own* batches from online traffic and recover the amortization +
fan-out wins that PRs 1-4 gave pre-assembled offline batches.  This
bench drives an **open-loop Poisson arrival workload** — submissions
never wait on answers, the heavy-traffic regime the ROADMAP targets —
through a :class:`~repro.serve.frontend.ServingFrontend`, sweeps the
micro-batch latency window, and compares served throughput against the
sequential baseline that answers each ``EncryptedQuery`` individually
(`CloudServer.answer`, no batching anywhere).

The filter backend is the exact brute-force scan: its distance kernels
release the GIL (so the batch fan-out parallelizes on multi-core
hosts), and its determinism lets the bench assert the served ids are
**bit-identical** to the sequential path for every query — the serving
layer must change scheduling only, never answers.

Writes the machine-readable ``BENCH_serving.json`` next to the repo
root, mirroring ``bench_refine_engines.py``.

Acceptance bar: at the reference grid point (``n=4096, d=64, k=10,
ratio_k=8``, window 4 ms, size cap 16) micro-batched throughput must
beat the sequential baseline by ≥2x on ≥4-core hosts.  The bar is
CPU/CI-graded like ``bench_refine_engines.py``:
shared CI runners and 1-2 core hosts — where the fan-out has no cores
to use and only the per-batch amortization (minus the admission
overhead) remains — get a sanity floor instead of a speedup bar.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.grading import bench_environment, is_graded
from repro.core.plane import process_plane_available
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.serve import replay_open_loop

N = 4096
DIM = 64
K = 10
RATIO_K = 8
N_QUERIES = 48
REPEATS = 3
MAX_BATCH = 16

#: The swept micro-batch latency windows (seconds); 0 = no batching.
WINDOW_GRID = (0.0, 0.001, 0.004)

#: The window the ≥2x assertion applies to (with MAX_BATCH as the cap).
ACCEPTANCE_WINDOW = 0.004

#: Open-loop Poisson arrival rate, as a multiple of the sequential
#: baseline's throughput — arrivals outpace a batchless server, so the
#: queue is never starved and the scheduler actually gets to batch.
RATE_MULTIPLIER = 4.0

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def _serving_workload(seed: int = 60):
    """A fitted server plus the individually encrypted online workload."""
    rng = np.random.default_rng(seed)
    database = rng.standard_normal((N, DIM)) * 2.0
    queries = rng.standard_normal((N_QUERIES, DIM)) * 2.0
    owner = DataOwner(DIM, beta=1.0, backend="bruteforce", rng=rng)
    index = owner.build_index(database)
    server = CloudServer(index, default_ratio_k=RATIO_K)
    user = QueryUser(owner.authorize_user(), rng=rng)
    encrypted = [user.encrypt_query(query, K) for query in queries]
    return server, encrypted


def _process_executor_row(index, encrypted, sequential_results, rate, sequential_qps):
    """The acceptance window re-run on the process data plane.

    Records availability honestly: on platforms without shared memory
    the row says so instead of silently skipping, and the ids are still
    asserted bit-identical to the sequential thread oracle whenever the
    plane runs.
    """
    if not process_plane_available():
        return {"available": False}
    server = CloudServer(index, default_ratio_k=RATIO_K, executor="processes")
    try:
        served_seconds, served_results, snapshot = _served_seconds(
            server, encrypted, ACCEPTANCE_WINDOW, rate, seed=62
        )
    finally:
        server.close()
    for sequential_result, served_result in zip(sequential_results, served_results):
        assert np.array_equal(sequential_result.ids, served_result.ids), (
            "process-executor served ids diverged from the sequential oracle"
        )
    served_qps = N_QUERIES / served_seconds
    return {
        "available": True,
        "window_seconds": ACCEPTANCE_WINDOW,
        "served_qps": served_qps,
        "speedup": served_qps / sequential_qps,
        "mean_batch_size": snapshot.mean_batch_size,
    }


def _sequential_seconds(server, encrypted):
    """(best wall clock, per-query results) of the unbatched baseline."""
    results = None
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        results = [server.answer(query) for query in encrypted]
        best = min(best, time.perf_counter() - start)
    return best, results


def _served_seconds(server, encrypted, window, rate, seed):
    """(best wall clock, results, snapshot) of the micro-batched path.

    All three come from the *same* (fastest) repeat, so the JSON row's
    latency/batch columns describe the run whose throughput is
    reported.
    """
    best = float("inf")
    best_results = None
    best_snapshot = None
    for repeat in range(REPEATS):
        frontend = server.serving_frontend(
            max_batch_size=MAX_BATCH,
            batch_window_seconds=window,
            max_queue_depth=max(1024, len(encrypted)),
        )
        with frontend:
            results, elapsed = replay_open_loop(
                frontend, encrypted, rate=rate, seed=seed + repeat
            )
            snapshot = frontend.metrics.snapshot()
        if elapsed < best:
            best, best_results, best_snapshot = elapsed, results, snapshot
    return best, best_results, best_snapshot


def test_serving_window_sweep():
    """Window sweep + JSON artifact + the graded ≥2x throughput bar."""
    server, encrypted = _serving_workload()
    sequential_seconds, sequential_results = _sequential_seconds(server, encrypted)
    sequential_qps = N_QUERIES / sequential_seconds
    rate = RATE_MULTIPLIER * sequential_qps

    windows = []
    speedups = {}
    for window in WINDOW_GRID:
        served_seconds, served_results, snapshot = _served_seconds(
            server, encrypted, window, rate, seed=61
        )
        # The serving layer may change scheduling, never answers.
        for sequential_result, served_result in zip(
            sequential_results, served_results
        ):
            assert np.array_equal(sequential_result.ids, served_result.ids), (
                f"served ids diverged from sequential at window={window}"
            )
        served_qps = N_QUERIES / served_seconds
        speedups[window] = served_qps / sequential_qps
        windows.append(
            {
                "window_seconds": window,
                "served_qps": served_qps,
                "speedup": speedups[window],
                "batches": snapshot.batches,
                "mean_batch_size": snapshot.mean_batch_size,
                "latency_p50": snapshot.latency_p50,
                "latency_p95": snapshot.latency_p95,
                "latency_p99": snapshot.latency_p99,
                "max_queue_depth": snapshot.max_queue_depth,
            }
        )

    process_row = _process_executor_row(
        server.index, encrypted, sequential_results, rate, sequential_qps
    )

    _RESULT_PATH.write_text(
        json.dumps(
            {
                "n": N,
                "dim": DIM,
                "k": K,
                "ratio_k": RATIO_K,
                "queries": N_QUERIES,
                "repeats": REPEATS,
                "max_batch_size": MAX_BATCH,
                "rate_multiplier": RATE_MULTIPLIER,
                "filter_engine": server.filter_engine,
                **bench_environment(executor="threads"),
                "sequential_qps": sequential_qps,
                "windows": windows,
                "process_executor": process_row,
            },
            indent=2,
        )
        + "\n"
    )

    print()
    print(f"sequential baseline: {sequential_qps:.0f} QPS")
    for row in windows:
        print(
            f"window {row['window_seconds'] * 1e3:5.1f}ms: "
            f"{row['served_qps']:7.0f} QPS ({row['speedup']:.2f}x), "
            f"mean batch {row['mean_batch_size']:.1f}"
        )
    if process_row.get("available"):
        print(
            f"process executor: {process_row['served_qps']:.0f} QPS "
            f"({process_row['speedup']:.2f}x) at the acceptance window"
        )
    print(f"wrote {_RESULT_PATH.name}")

    # Graded like bench_refine_engines.py: real
    # multi-core hosts must clear the 2x bar; shared CI runners and 1-2
    # core hosts get sanity floors instead — the serving win is
    # parallelism, which a core-starved host cannot express, leaving
    # only per-batch amortization minus the admission overhead (queue
    # hop + future + scheduler handoff per query, a real ~30-40% tax at
    # sub-millisecond query times on a single core).  The floors catch
    # a pathological scheduler, not a missing speedup.
    best = speedups[ACCEPTANCE_WINDOW]
    cores = os.cpu_count() or 1
    if is_graded():
        floor = 2.0
    elif os.environ.get("CI"):
        floor = 0.5
    else:
        floor = 1.1 if cores >= 2 else 0.4
    assert best >= floor, (
        f"micro-batched serving speedup {best:.2f}x below the {floor}x bar "
        f"at window={ACCEPTANCE_WINDOW}s, cap={MAX_BATCH}, n={N}, d={DIM}, "
        f"k={K}, ratio_k={RATIO_K} ({cores} cores)"
    )
    # Re-grade the same bar on the process executor: on a graded host
    # the shared-memory plane must also clear 2x over sequential at the
    # acceptance window (elsewhere the row is recorded ungraded).
    if is_graded() and process_row.get("available"):
        assert process_row["speedup"] >= 2.0, (
            f"process-executor serving speedup {process_row['speedup']:.2f}x "
            f"below the 2.0x bar at window={ACCEPTANCE_WINDOW}s ({cores} cores)"
        )
