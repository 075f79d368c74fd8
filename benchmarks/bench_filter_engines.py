"""Filter engines: the per-query oracle loop vs. the batched kernels.

The filter phase — k'-ANNS over the DCPE ciphertexts — dominates the
server's wall clock.  The ``heap`` engine answers a micro-batch with a
loop of the seed's per-query beam search; the ``vectorized`` engine
(``repro.core.filterengine``) hands it to ``backend.search_batch`` — a
lockstep beam search over the layer-0 CSR snapshot on the graph
backends (from ``LOCKSTEP_MIN_ROWS`` rows up; the same per-query loop
below), one norm-cached GEMM on brute force and one GEMM per probed
posting list on IVF — replaying the oracle's
decisions exactly, so ids and distances are bit-identical.  Single
queries take the same ``backend.search`` on both engines, so there is
no per-query grid to measure.

This bench isolates the filter stage: backends are built directly over
random "ciphertext" vectors (DCPE output is distributionally just a
scaled/perturbed cloud, and the engines never look past the backend
interface), so the timing contains nothing but engine work.  It sweeps
``engine.search_batch`` — the call ``execute_batch`` actually drives —
over a ``(backend, rows)`` grid whose row counts span the lockstep
crossover, and writes the machine-readable ``BENCH_filter.json`` next
to the repo root.

Bars: every answer is bit-identical to the oracle, and the default
engine never loses to it where this repo's code picks the path — ≥ 0.9x
at every graph-backend point (the slack is timer noise below the
crossover, where both engines run the same loop) — and ≥ 1.0x on every
backend at the largest batch, where the batched kernels must pay for
themselves.  Small flat-backend batches are recorded, not barred: a
small GEMM on a multi-threaded BLAS whose pool has gone idle is
dominated by thread wake-up (8 ms against 0.2 ms single-threaded on the
recording host), which is host behaviour, not engine work.  The
measured speedups live in the artifact and in the README defaults
table, not in a bar.
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.grading import bench_environment
from repro.core.backends import build_backend
from repro.core.filterengine import FILTER_ENGINES
from repro.eval.reporting import format_table
from repro.hnsw.graph import LOCKSTEP_MIN_ROWS, HNSWParams

REPEATS = 7
K_PRIME = 32
N = 4096
DIM = 64

#: Micro-batch row counts on both sides of the lockstep crossover.
BATCH_ROWS = (2, LOCKSTEP_MIN_ROWS - 1, LOCKSTEP_MIN_ROWS, 8, 32)

#: ``(backend, ef_search)`` — every backend's ``search_batch`` is a
#: genuinely batched kernel.
GRID = (("hnsw", 128), ("nsg", 128), ("bruteforce", None), ("ivf", None))

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_filter.json"


def _build(kind: str, seed: int = 60):
    """A filter backend over random ciphertext-like vectors."""
    vectors = np.random.default_rng(seed).standard_normal((N, DIM)) * 2.0
    params = HNSWParams(m=8, ef_construction=64) if kind == "hnsw" else None
    return build_backend(
        kind, vectors, rng=np.random.default_rng(seed + 1), params=params
    )


def test_filter_engine_grid():
    """Heap loop vs batched kernels across the grid; JSON artifact + bars."""
    table = []
    configs = []
    for kind, ef_search in GRID:
        backend = _build(kind)
        for rows in BATCH_ROWS:
            batch = np.random.default_rng(61).standard_normal((rows, DIM)) * 2.0
            answers = {
                name: engine.search_batch(backend, batch, K_PRIME, ef_search=ef_search)
                for name, engine in FILTER_ENGINES.items()
            }
            for (ids_h, dists_h), (ids_v, dists_v) in zip(
                answers["heap"], answers["vectorized"]
            ):
                assert np.array_equal(ids_h, ids_v), f"ids diverged on {kind}"
                assert np.array_equal(dists_h, dists_v)
            # Samples interleave the engines so drift on a noisy host
            # hits both columns alike.
            samples = {name: [] for name in FILTER_ENGINES}
            for _ in range(REPEATS):
                for name, engine in FILTER_ENGINES.items():
                    start = time.perf_counter()
                    engine.search_batch(backend, batch, K_PRIME, ef_search=ef_search)
                    samples[name].append(time.perf_counter() - start)
            medians = {name: float(np.median(vals)) for name, vals in samples.items()}
            speedup = medians["heap"] / medians["vectorized"]
            configs.append(
                {
                    "n": N,
                    "d": DIM,
                    "ef_search": ef_search,
                    "backend": kind,
                    "rows": rows,
                    "k_prime": K_PRIME,
                    "median_seconds": medians,
                    "speedup": speedup,
                }
            )
            table.append(
                [
                    kind,
                    rows,
                    medians["heap"] * 1e3 / rows,
                    medians["vectorized"] * 1e3 / rows,
                    speedup,
                ]
            )

    _RESULT_PATH.write_text(
        json.dumps(
            {
                "repeats": REPEATS,
                "lockstep_min_rows": LOCKSTEP_MIN_ROWS,
                **bench_environment(),
                "batched": configs,
            },
            indent=2,
        )
        + "\n"
    )

    print()
    print(
        format_table(
            ["backend", "rows", "heap ms/q", "vectorized ms/q", "speedup"],
            table,
            title=f"batched filter path, n={N}, d={DIM}, median of {REPEATS}",
        )
    )
    print(f"wrote {_RESULT_PATH.name}")

    for config in configs:
        if config["rows"] == BATCH_ROWS[-1]:
            floor = 1.0
        elif config["backend"] in ("hnsw", "nsg"):
            floor = 0.9
        else:
            continue
        assert config["speedup"] >= floor, (
            f"the default filter engine loses to the oracle loop: "
            f"{config['speedup']:.2f}x < {floor}x on {config['backend']} "
            f"at {config['rows']} rows"
        )
