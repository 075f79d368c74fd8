"""Pluggable filter-phase execution engines (Algorithm 1's k'-ANNS).

The filter phase runs k'-ANNS over the DCPE ciphertexts and dominates
the server's wall clock.  This module mirrors the
:class:`~repro.core.refine.RefineEngine` precedent so the search
substrate can be swapped per request:

* :class:`HeapFilterEngine` (``"heap"``) — the oracle-faithful
  reference: every query, batched or not, runs the seed's per-query
  ``backend.search`` loop, byte for byte.
  ``SearchStats.kernel_seconds`` stays 0.0.
* :class:`VectorizedFilterEngine` (``"vectorized"``, the default) —
  single queries take the same ``backend.search`` (there is one
  per-query beam search), and micro-batches go to
  ``backend.search_batch``, which every backend implements with a
  batched kernel: GEMM on brute force and IVF, and on the graph
  backends a lockstep multi-query beam search, which itself loops
  ``search`` below its measured crossover.  Results are
  **bit-identical** to the heap engine — ids, distances,
  ``distance_computations`` and ``hops`` — because the lockstep
  traversal replays the oracle's decisions exactly and the GEMM kernels
  verify their selections against the oracle's own distance kernel,
  falling back on any tie (property-tested in
  ``tests/strategies/test_filter_engine_properties.py``).  Wall time
  inside the backend call is accumulated into
  ``SearchStats.kernel_seconds`` and surfaces as
  ``SearchResult.filter_kernel_seconds``.

Engines are looked up by name through :func:`get_filter_engine`; the
knob threads through :class:`~repro.core.roles.CloudServer`,
:class:`~repro.core.scheme.PPANNS`, ``repro.core.search.execute_batch``
and the CLI's ``--filter-engine`` flag.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.errors import ParameterError
from repro.hnsw.graph import SearchStats

__all__ = [
    "DEFAULT_FILTER_ENGINE",
    "FILTER_ENGINES",
    "FilterEngine",
    "HeapFilterEngine",
    "VectorizedFilterEngine",
    "available_filter_engines",
    "get_filter_engine",
]


@runtime_checkable
class FilterEngine(Protocol):
    """The filter-phase contract: k'-ANNS over a filter backend."""

    name: str

    def search(
        self,
        backend,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One query against ``backend``: ``(ids, dists)`` nearest-first."""
        ...

    def search_batch(
        self,
        backend,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """A micro-batch against ``backend``, one result tuple per query."""
        ...


class HeapFilterEngine:
    """The oracle-faithful reference: the seed's per-query beam search.

    Every query takes the exact code path the seed shipped —
    ``backend.search`` — so its results and stats are the ground truth
    the vectorized engine is property-tested against.
    """

    name = "heap"

    def search(
        self,
        backend,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One oracle query (``SearchStats.kernel_seconds`` stays 0)."""
        return backend.search(sap_query, k_prime, ef_search=ef_search, stats=stats)

    def search_batch(
        self,
        backend,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-query oracle loop — no batched kernels on this engine."""
        queries = np.asarray(sap_queries)
        return [
            backend.search(
                queries[row],
                k_prime,
                ef_search=ef_search,
                stats=stats_list[row] if stats_list is not None else None,
            )
            for row in range(queries.shape[0])
        ]


class VectorizedFilterEngine:
    """The oracle's per-query search plus batched multi-query kernels.

    Single queries run ``backend.search``, timed.  Micro-batches go to
    ``backend.search_batch``: brute force runs one GEMM per batch and
    IVF one GEMM per probed posting list over list-major rows (each
    verified against the oracle kernel with a tie-safe fallback), and
    the graph backends run a lockstep beam search that fuses each
    round's distance blocks across the batch
    (:func:`repro.hnsw.graph.lockstep_beam_search`) once the batch
    reaches :data:`repro.hnsw.graph.LOCKSTEP_MIN_ROWS`.  Either way the
    results are bit-identical to :class:`HeapFilterEngine`.

    Wall time spent inside the backend call is accumulated into
    ``SearchStats.kernel_seconds`` (smeared evenly across a batched
    kernel's queries) so instrumentation can separate kernel time from
    pipeline overhead.
    """

    name = "vectorized"

    def search(
        self,
        backend,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One query through ``backend.search``, timed into the stats."""
        start = time.perf_counter()
        out = backend.search(sap_query, k_prime, ef_search=ef_search, stats=stats)
        if stats is not None:
            stats.kernel_seconds += time.perf_counter() - start
        return out

    def search_batch(
        self,
        backend,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The backend's batched kernel, its time smeared across the rows."""
        queries = np.asarray(sap_queries)
        start = time.perf_counter()
        out = backend.search_batch(
            queries, k_prime, ef_search=ef_search, stats_list=stats_list
        )
        if stats_list is not None and queries.shape[0]:
            share = (time.perf_counter() - start) / queries.shape[0]
            for stats in stats_list:
                if stats is not None:
                    stats.kernel_seconds += share
        return out


#: Registered filter engines by name.
FILTER_ENGINES: dict[str, FilterEngine] = {
    HeapFilterEngine.name: HeapFilterEngine(),
    VectorizedFilterEngine.name: VectorizedFilterEngine(),
}

#: The serving default: the batched kernels (bit-identical to ``heap``).
DEFAULT_FILTER_ENGINE = VectorizedFilterEngine.name


def available_filter_engines() -> tuple[str, ...]:
    """Registered engine names, stable order (reference first)."""
    return tuple(FILTER_ENGINES)


def get_filter_engine(engine: "str | FilterEngine | None") -> FilterEngine:
    """Resolve an engine name (or pass an instance through).

    ``None`` resolves to :data:`DEFAULT_FILTER_ENGINE`.
    """
    if engine is None:
        return FILTER_ENGINES[DEFAULT_FILTER_ENGINE]
    if isinstance(engine, str):
        try:
            return FILTER_ENGINES[engine]
        except KeyError:
            raise ParameterError(
                f"unknown filter engine {engine!r}; "
                f"available: {', '.join(available_filter_engines())}"
            ) from None
    if isinstance(engine, FilterEngine):
        return engine
    raise ParameterError(
        f"filter engine must be a name or FilterEngine, got {type(engine)!r}"
    )
