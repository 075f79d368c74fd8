"""The request/response message protocol between query user and server.

The paper's system model (Figure 1, Algorithm 2) is a message exchange:
the user sends ``(C_SAP(q), T_q, k)``, the server answers with k ids.
This module gives that protocol explicit, batch-first types:

* :class:`SearchRequest` — the plaintext search parameters a query
  carries (``k``, ``ratio_k``, ``ef_search``, ``mode``).  Frozen, so a
  request resolved once can be shared across a whole batch.
* :class:`EncryptedQuery` / :class:`EncryptedQueryBatch` — the encrypted
  query message(s).  The batch form stores the DCPE ciphertexts and DCE
  trapdoors as two matrices so user-side encryption and server-side
  parameter resolution amortize across queries.
* :class:`SearchResult` / :class:`SearchResultBatch` — the answer(s),
  with per-query and aggregate instrumentation plus byte accounting:
  the per-stage wall-clock split (``filter_seconds`` /
  ``mask_seconds`` / ``refine_seconds``) and the refine-engine fields
  (``refine_engine`` name, ``refine_kernel_seconds``).
  ``SearchReport`` remains as a deprecated alias of
  :class:`SearchResult` for the seed API; accessing it emits a
  :class:`DeprecationWarning` (module-level ``__getattr__``, matching
  the ``EncryptedIndex.graph`` precedent).
* :class:`ShardTiming` — per-shard instrumentation attached to results
  answered by a :class:`~repro.core.sharding.ShardedEncryptedIndex`:
  each shard's filter wall clock, candidate count, and gather payload
  (12 bytes per candidate: an 8-byte id plus a 4-byte float32 distance).

The wire layout of every message — field order, dtypes, and the byte
accounting rules implemented by ``upload_bytes`` / ``download_bytes`` —
is specified normatively in ``docs/FORMATS.md``; this module is its
executable counterpart.

``ef_search`` clamping lives here, in :func:`resolve_ef_search`, so the
full and filter-only paths cannot drift apart again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from repro.core.dce import DCETrapdoor
from repro.core.errors import KeyMismatchError, ParameterError
from repro.hnsw.graph import SearchStats

__all__ = [
    "MODES",
    "SearchRequest",
    "EncryptedQuery",
    "EncryptedQueryBatch",
    "SearchResult",
    "SearchResultBatch",
    "SearchReport",  # noqa: F822  (module __getattr__, deprecated alias)
    "ShardTiming",
    "resolve_ef_search",
]

#: Valid search modes: the full filter-and-refine pipeline (Algorithm 2)
#: or the filter phase alone (the paper's HNSW(filter) reference method).
MODES = ("full", "filter_only")


def resolve_ef_search(ef_search: int | None, k_prime: int) -> int | None:
    """The single ``ef_search`` clamping authority.

    A beam narrower than the candidate count ``k'`` cannot produce ``k'``
    candidates, so an explicit ``ef_search`` below ``k'`` is raised to
    ``k'``.  ``None`` keeps the backend's own default.  Both the full and
    filter-only paths must call this — historically only one of them
    clamped, which made the two modes disagree for small ``ef_search``.
    """
    if ef_search is not None and ef_search < k_prime:
        return k_prime
    return ef_search


@dataclass(frozen=True)
class SearchRequest:
    """Plaintext search parameters carried inside an encrypted query.

    Attributes
    ----------
    k:
        Number of neighbors requested.
    ratio_k:
        ``k' = ratio_k * k`` filter-phase multiplier; ``None`` defers to
        the server's default.
    ef_search:
        Filter-phase beam width; ``None`` defers to the backend default.
    mode:
        ``"full"`` (Algorithm 2) or ``"filter_only"`` (filter phase only).
    """

    k: int
    ratio_k: int | None = None
    ef_search: int | None = None
    mode: str = "full"

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ParameterError(f"k must be positive, got {self.k}")
        if self.ratio_k is not None and self.ratio_k < 1:
            raise ParameterError(f"ratio_k must be >= 1, got {self.ratio_k}")
        if self.ef_search is not None and self.ef_search < 1:
            raise ParameterError(f"ef_search must be >= 1, got {self.ef_search}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")

    def resolve(
        self,
        default_ratio_k: int,
        ratio_k: int | None = None,
        ef_search: int | None = None,
        mode: str | None = None,
    ) -> "SearchRequest":
        """Fill server-side defaults / per-call overrides into a concrete request.

        Precedence per field: explicit override argument, then the value
        carried by the request, then the server default.  The returned
        request always has a concrete ``ratio_k``.
        """
        resolved_ratio = ratio_k if ratio_k is not None else self.ratio_k
        if resolved_ratio is None:
            resolved_ratio = default_ratio_k
        if resolved_ratio < 1:
            raise ParameterError(f"ratio_k must be >= 1, got {resolved_ratio}")
        return replace(
            self,
            ratio_k=resolved_ratio,
            ef_search=ef_search if ef_search is not None else self.ef_search,
            mode=mode if mode is not None else self.mode,
        )

    @property
    def k_prime(self) -> int:
        """``k' = ratio_k * k``; requires a resolved ``ratio_k``."""
        if self.ratio_k is None:
            raise ParameterError("k_prime is undefined until ratio_k is resolved")
        return self.ratio_k * self.k


@dataclass(frozen=True, init=False)
class EncryptedQuery:
    """One encrypted query message: ``(C_SAP(q), T_q, request)`` (Figure 1).

    Attributes
    ----------
    sap_vector:
        The DCPE ciphertext of the query (filter phase).
    trapdoor:
        The DCE trapdoor of the query (refine phase).
    request:
        The plaintext search parameters.
    """

    sap_vector: np.ndarray
    trapdoor: DCETrapdoor
    request: SearchRequest

    def __init__(
        self,
        sap_vector: np.ndarray,
        trapdoor: DCETrapdoor,
        request: SearchRequest | None = None,
        k: int | None = None,
    ) -> None:
        # Seed callers passed a bare ``k``; fold it into a SearchRequest.
        if request is None:
            if k is None:
                raise ParameterError("EncryptedQuery needs a request (or legacy k)")
            request = SearchRequest(k=k)
        elif k is not None:
            raise ParameterError("pass either a request or a legacy k, not both")
        object.__setattr__(self, "sap_vector", sap_vector)
        object.__setattr__(self, "trapdoor", trapdoor)
        object.__setattr__(self, "request", request)

    @property
    def k(self) -> int:
        """Number of neighbors requested (from the carried request)."""
        return self.request.k

    def upload_bytes(self) -> int:
        """Size of the query message.

        ``C_SAP(q)`` travels as float32 (d * 4 bytes), the trapdoor as
        float64 ((2d+16) * 8 bytes) and the request as a 4-byte integer
        (the optional knobs ride in the same word).
        """
        d = int(self.sap_vector.shape[0])
        return 4 * d + 8 * self.trapdoor.ciphertext_dim + 4


@dataclass(frozen=True, init=False)
class EncryptedQueryBatch:
    """A batch of encrypted queries sharing one :class:`SearchRequest`.

    The DCPE ciphertexts and DCE trapdoors are stored as two matrices —
    ``(n, d)`` and ``(n, 2d+16)`` — which is what lets the user encrypt a
    whole workload with two BLAS matrix products and the server amortize
    per-batch setup.

    Attributes
    ----------
    sap_vectors:
        DCPE ciphertexts, one row per query.
    trapdoor_vectors:
        DCE trapdoor vectors, one row per query.
    key_id:
        The DCE key tag shared by every trapdoor in the batch.
    request:
        The search parameters shared by every query in the batch.
    """

    sap_vectors: np.ndarray
    trapdoor_vectors: np.ndarray
    key_id: int
    request: SearchRequest

    def __init__(
        self,
        sap_vectors: np.ndarray,
        trapdoor_vectors: np.ndarray,
        key_id: int,
        request: SearchRequest,
    ) -> None:
        sap_vectors = np.asarray(sap_vectors, dtype=np.float64)
        trapdoor_vectors = np.asarray(trapdoor_vectors, dtype=np.float64)
        if sap_vectors.ndim != 2:
            raise ParameterError(
                f"sap_vectors must be a (n, d) matrix, got shape {sap_vectors.shape}"
            )
        if trapdoor_vectors.ndim != 2:
            raise ParameterError(
                "trapdoor_vectors must be a (n, 2d+16) matrix, got shape "
                f"{trapdoor_vectors.shape}"
            )
        if sap_vectors.shape[0] != trapdoor_vectors.shape[0]:
            raise ParameterError(
                f"{sap_vectors.shape[0]} SAP rows but "
                f"{trapdoor_vectors.shape[0]} trapdoor rows"
            )
        object.__setattr__(self, "sap_vectors", sap_vectors)
        object.__setattr__(self, "trapdoor_vectors", trapdoor_vectors)
        object.__setattr__(self, "key_id", int(key_id))
        object.__setattr__(self, "request", request)

    @classmethod
    def from_queries(cls, queries: Sequence[EncryptedQuery]) -> "EncryptedQueryBatch":
        """Stack individually encrypted queries into a batch.

        All queries must share the same request and DCE key.
        """
        if not queries:
            raise ParameterError("cannot build a batch from zero queries")
        request = queries[0].request
        key_id = queries[0].trapdoor.key_id
        for query in queries[1:]:
            if query.request != request:
                raise ParameterError("all queries in a batch must share one request")
            if query.trapdoor.key_id != key_id:
                raise KeyMismatchError("queries in a batch come from different keys")
        return cls(
            np.stack([q.sap_vector for q in queries]),
            np.stack([q.trapdoor.vector for q in queries]),
            key_id,
            request,
        )

    def __len__(self) -> int:
        return int(self.sap_vectors.shape[0])

    def __getitem__(self, index: int) -> EncryptedQuery:
        return EncryptedQuery(
            self.sap_vectors[index],
            DCETrapdoor(self.trapdoor_vectors[index], self.key_id),
            request=self.request,
        )

    def __iter__(self) -> Iterator[EncryptedQuery]:
        for index in range(len(self)):
            yield self[index]

    @property
    def dim(self) -> int:
        """DCPE-ciphertext (= plaintext) dimensionality."""
        return int(self.sap_vectors.shape[1])

    def upload_bytes(self) -> int:
        """Total size of the batched query message (per-query size * n)."""
        if len(self) == 0:
            return 0
        return len(self) * self[0].upload_bytes()


@dataclass(frozen=True)
class ShardTiming:
    """Per-shard filter instrumentation of one scatter-gather answer.

    Attributes
    ----------
    shard_id:
        Position of the shard in the index's shard list.
    seconds:
        Wall-clock of the shard's local k'-ANNS (including the local ->
        global id mapping).
    candidates:
        Candidates the shard contributed to the gather step.
    """

    shard_id: int
    seconds: float
    candidates: int

    @property
    def gather_bytes(self) -> int:
        """Bytes the shard ships to the merger: ``(id8, dist4)`` per candidate."""
        return 12 * self.candidates


@dataclass
class SearchResult:
    """Instrumented answer to one query (formerly ``SearchReport``).

    Attributes
    ----------
    ids:
        The returned neighbor ids (server-side ids; the user maps them
        back to records).
    filter_stats:
        Graph-search instrumentation (distance computations, hops).
    refine_comparisons:
        DCE ``DistanceComp`` decisions in the refine phase — real oracle
        calls for the ``heap`` engine, the equivalent-oracle-call count
        for the ``vectorized`` engine.
    k_prime:
        The number of filter-phase candidates refined.
    filter_seconds / mask_seconds / refine_seconds:
        Wall-clock split of the pipeline stages (filter k'-ANNS,
        liveness masking, refine); the three sum to ``total_seconds``.
    refine_engine:
        Name of the :class:`~repro.core.refine.RefineEngine` that ran
        the refine stage (``None`` for filter-only / legacy results).
    refine_kernel_seconds:
        Wall clock inside the refine engine's batched numeric kernels
        (candidate gather + sign matrix); 0.0 for the scalar ``heap``
        engine.  Always <= ``refine_seconds``.
    filter_engine:
        Name of the :class:`~repro.core.filterengine.FilterEngine` that
        ran the filter stage (``None`` on legacy paths).
    filter_kernel_seconds:
        Wall clock inside the ``vectorized`` filter engine's backend
        calls (per-query search, lockstep batches, batched GEMM scans);
        0.0 for the ``heap`` engine.  Mirrors
        ``SearchStats.kernel_seconds``.
    request:
        The resolved request this result answers (None on legacy paths).
    shard_timings:
        Per-shard filter timings when the index is sharded, else None.
    """

    ids: np.ndarray
    filter_stats: SearchStats = field(default_factory=SearchStats)
    refine_comparisons: int = 0
    k_prime: int = 0
    filter_seconds: float = 0.0
    mask_seconds: float = 0.0
    refine_seconds: float = 0.0
    refine_engine: str | None = None
    refine_kernel_seconds: float = 0.0
    filter_engine: str | None = None
    filter_kernel_seconds: float = 0.0
    request: SearchRequest | None = None
    shard_timings: tuple[ShardTiming, ...] | None = None

    @property
    def total_seconds(self) -> float:
        """Wall-clock total across the filter, mask and refine stages."""
        return self.filter_seconds + self.mask_seconds + self.refine_seconds

    def download_bytes(self) -> int:
        """Result message size: 4 bytes per returned id (Section V-C)."""
        return 4 * int(self.ids.shape[0])

    def gather_bytes(self) -> int:
        """Shard-to-merger traffic for this answer (0 when unsharded)."""
        if not self.shard_timings:
            return 0
        return sum(timing.gather_bytes for timing in self.shard_timings)


def __getattr__(name: str):
    """Deprecated module attributes (warn on access, once per call site).

    ``SearchReport`` is the seed era's name for :class:`SearchResult`;
    the alias still resolves — including via ``from repro.core.protocol
    import SearchReport`` — but every access emits a
    :class:`DeprecationWarning`, exactly like the
    ``EncryptedIndex.graph`` accessor it postdates.
    """
    if name == "SearchReport":
        warnings.warn(
            "SearchReport is deprecated; use SearchResult instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return SearchResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class SearchResultBatch:
    """The server's answer to an :class:`EncryptedQueryBatch`.

    Wraps the per-query :class:`SearchResult` objects and aggregates their
    instrumentation, so batch callers get both the ids matrix and the
    totals without re-deriving them.

    Two timing views coexist: the per-query stage timings (and their
    sums below) are **thread-local** wall clocks — with the pipelined
    executor they include time a worker spends descheduled behind
    sibling queries, so their sum can exceed real elapsed time on a
    busy pool.  ``wall_seconds`` is the batch's actual start-to-finish
    wall clock as measured by the executor (``None`` on hand-built
    batches), and it is what :attr:`qps` prefers.
    """

    results: list[SearchResult]
    request: SearchRequest | None = None
    wall_seconds: float | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> SearchResult:
        return self.results[index]

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def ids_matrix(self, fill: int = -1) -> np.ndarray:
        """The ``(n, k)`` id matrix; short rows are padded with ``fill``.

        A row can be short when tombstoned candidates reduced the live
        result set below ``k``.
        """
        if not self.results:
            return np.empty((0, 0), dtype=np.int64)
        width = max(int(r.ids.shape[0]) for r in self.results)
        matrix = np.full((len(self.results), width), fill, dtype=np.int64)
        for row, result in enumerate(self.results):
            matrix[row, : result.ids.shape[0]] = result.ids
        return matrix

    @property
    def ids(self) -> np.ndarray:
        """Alias of :meth:`ids_matrix` with the default fill."""
        return self.ids_matrix()

    @property
    def filter_seconds(self) -> float:
        """Total filter-phase wall clock across the batch."""
        return sum(r.filter_seconds for r in self.results)

    @property
    def mask_seconds(self) -> float:
        """Total liveness-masking wall clock across the batch."""
        return sum(r.mask_seconds for r in self.results)

    @property
    def refine_seconds(self) -> float:
        """Total refine-phase wall clock across the batch."""
        return sum(r.refine_seconds for r in self.results)

    @property
    def refine_kernel_seconds(self) -> float:
        """Total refine-engine kernel wall clock across the batch."""
        return sum(r.refine_kernel_seconds for r in self.results)

    @property
    def refine_engines(self) -> tuple[str, ...]:
        """Distinct refine-engine names across the batch (usually one)."""
        return tuple(
            sorted({r.refine_engine for r in self.results if r.refine_engine})
        )

    @property
    def filter_kernel_seconds(self) -> float:
        """Total filter-engine kernel wall clock across the batch."""
        return sum(r.filter_kernel_seconds for r in self.results)

    @property
    def filter_engines(self) -> tuple[str, ...]:
        """Distinct filter-engine names across the batch (usually one)."""
        return tuple(
            sorted({r.filter_engine for r in self.results if r.filter_engine})
        )

    @property
    def total_seconds(self) -> float:
        """Total wall clock across the batch."""
        return sum(r.total_seconds for r in self.results)

    @property
    def mean_seconds(self) -> float:
        """Mean per-query wall clock."""
        if not self.results:
            return 0.0
        return self.total_seconds / len(self.results)

    @property
    def qps(self) -> float:
        """Observed batch throughput.

        Prefers the executor-measured ``wall_seconds`` (queries may have
        run concurrently); falls back to the single-thread throughput
        implied by the mean per-query latency when no wall clock was
        recorded.
        """
        if self.wall_seconds is not None:
            if self.wall_seconds <= 0:
                return float("inf")
            return len(self.results) / self.wall_seconds
        mean = self.mean_seconds
        if mean <= 0:
            return float("inf")
        return 1.0 / mean

    @property
    def refine_comparisons(self) -> int:
        """Total DCE comparisons across the batch."""
        return sum(r.refine_comparisons for r in self.results)

    @property
    def filter_stats(self) -> SearchStats:
        """Merged graph-search instrumentation across the batch."""
        merged = SearchStats()
        for result in self.results:
            merged.merge(result.filter_stats)
        return merged

    def download_bytes(self) -> int:
        """Total result message size across the batch."""
        return sum(r.download_bytes() for r in self.results)

    def gather_bytes(self) -> int:
        """Total shard-to-merger traffic across the batch (0 if unsharded)."""
        return sum(r.gather_bytes() for r in self.results)

    def shard_seconds(self) -> dict[int, float]:
        """Total filter wall clock per shard id across the batch.

        Empty when the answering index was unsharded.
        """
        totals: dict[int, float] = {}
        for result in self.results:
            for timing in result.shard_timings or ():
                totals[timing.shard_id] = (
                    totals.get(timing.shard_id, 0.0) + timing.seconds
                )
        return totals
