"""Filter-and-refine search (Section V-B, Algorithm 2) as a staged pipeline.

Given the encrypted query pair — the DCPE ciphertext ``C_SAP(q)`` for the
filter phase and the DCE trapdoor ``T_q`` for the refine phase — the
server runs every query through one explicit **staged pipeline**,
:data:`PIPELINE_STAGES`: named stage callables over a shared
:class:`PipelineContext`, executed in order by :func:`run_pipeline`:

* **resolve**: per-query parameter resolution — the ``ef_search`` clamp
  against ``k'`` and fresh filter instrumentation;
* **filter**: runs k'-ANNS (``k' = ratio_k * k > k``) on the filter
  backend over ``C_SAP``, using ordinary Euclidean distances on DCPE
  ciphertexts (same cost as plaintext distances), yielding high-quality
  candidates — scatter-gather when the index is sharded;
* **mask**: drops tombstoned candidates against the batch's liveness
  mask;
* **refine**: selects the top-k by DCE ``DistanceComp`` outcomes alone,
  through a pluggable :class:`~repro.core.refine.RefineEngine` — the
  ``heap`` reference (one scalar oracle call per comparison, O(log k)
  per candidate) or the default ``vectorized`` engine (one contiguous
  ``C_DCE`` gather + batched sign kernels, bit-identical ids).  Skipped
  for ``filter_only`` requests;
* **respond**: assembles the instrumented :class:`SearchResult` from
  the context (ids, per-stage seconds, shard timings).

Every stage is timed by the runner (``PipelineContext.stage_seconds``);
the filter/mask/refine entries surface as the result's
``filter_seconds`` / ``mask_seconds`` / ``refine_seconds`` split, so
per-stage attribution is a property of the pipeline, not of hand-placed
clocks.  The staged decomposition is id-preserving by construction —
the stages perform exactly the seed path's operations in the seed
path's order, so results are bit-identical to the historical monolithic
body (property-tested in ``tests/strategies/test_pipeline_properties.py``
for every backend kind, monolithic and sharded).

Total server cost: ``O(d (log n + k' log k))`` per query (Section V-C).

The ``k'`` knob trades accuracy for refine cost (Figure 5); ``beta``
bounds the filter phase's candidate quality (Figure 4).

The entry point is :func:`execute_batch`, and a single query is a batch
of one (``CloudServer.answer`` wraps it with
``EncryptedQueryBatch.from_queries``).  Parameter resolution, engine
resolution, the key check, and liveness-mask construction happen once
per batch, and the queries then run **one after another on the calling
thread**.  The graph walks and refine scans hold the GIL, so a thread
per query made them slower, not faster: on a 2-core host, traced refine
time on the ``batch_bruteforce_inproc`` benchmark fell from 399 to 294
µs/query once the fan-out went.  Parallelism comes from the batched
filter kernels and the shard scatter.
Results come back in query order and a failing query neither kills nor
reorders its siblings (the first failure by query position is re-raised
after every query ran).  :func:`execute_batch_settled` is the no-raise
form the online serving layer (:mod:`repro.serve`) consumes: each query
settles independently to its result or its exception, so a
scheduler-formed micro-batch can deliver per-query failures to
per-query futures without discarding sibling answers.

The engine is index-shape agnostic: it calls ``index.filter_search``, so
a monolithic :class:`~repro.core.index.EncryptedIndex` answers from its
single backend while a
:class:`~repro.core.sharding.ShardedEncryptedIndex` scatter-gathers the
filter phase across its shards (and the result carries per-shard
timings).  The refine phase is identical either way — ``C_DCE`` is never
partitioned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.dce import DCETrapdoor
from repro.core.errors import KeyMismatchError, ParameterError
from repro.core.executor import Settled
from repro.core.filterengine import FilterEngine, get_filter_engine
from repro.core.index import EncryptedIndex
from repro.core.protocol import (
    EncryptedQuery,
    EncryptedQueryBatch,
    SearchRequest,
    SearchResult,
    SearchResultBatch,
    resolve_ef_search,
)
from repro.core.refine import RefineEngine, RefineOutcome, get_refine_engine
from repro.core.sharding import ShardedEncryptedIndex
from repro.hnsw.graph import SearchStats

__all__ = [
    "EncryptedQuery",
    "EncryptedQueryBatch",
    "SearchRequest",
    "SearchResult",
    "SearchResultBatch",
    "PipelineContext",
    "PIPELINE_STAGES",
    "run_pipeline",
    "execute_batch",
    "execute_batch_settled",
]


# -- the staged pipeline ---------------------------------------------------------


@dataclass
class PipelineContext:
    """Everything one query's staged pipeline reads and writes.

    The immutable inputs (index, ciphertexts, resolved request, batch
    liveness mask, resolved engines) are set by the caller; the stages fill
    in the intermediate state (``candidate_ids``, ``refine_outcome``,
    ...) and :func:`run_pipeline` records each stage's wall clock into
    ``stage_seconds``.  The ``respond`` stage folds it all into
    ``result``.
    """

    index: "EncryptedIndex | ShardedEncryptedIndex"
    sap_vector: np.ndarray
    trapdoor: DCETrapdoor
    request: SearchRequest
    k_prime: int
    live_mask: np.ndarray
    engine: RefineEngine
    #: Filter-stage engine, already resolved by the entry point.
    filter_engine: FilterEngine = field(
        default_factory=lambda: get_filter_engine(None)
    )
    #: Precomputed filter output for this query — set by the batched
    #: filter pre-pass in :func:`execute_batch_settled` so ``stage_filter``
    #: consumes ``(ids, dists, shard_timings, stats, seconds)`` instead of
    #: searching again.
    prefiltered: tuple | None = None

    # -- filled in by the stages --
    ef_search: int | None = None
    filter_stats: SearchStats | None = None
    candidate_ids: np.ndarray | None = None
    candidate_dists: np.ndarray | None = None
    shard_timings: tuple | None = None
    refine_outcome: RefineOutcome | None = None
    #: Per-query filter wall clock from the batched pre-pass (the
    #: batch's filter time smeared evenly); overrides the stage timer.
    filter_seconds_override: float | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    result: SearchResult | None = None


def stage_resolve(ctx: PipelineContext) -> None:
    """Per-query parameter resolution: the ``ef_search`` clamp + stats."""
    ctx.ef_search = resolve_ef_search(ctx.request.ef_search, ctx.k_prime)
    ctx.filter_stats = SearchStats()


def stage_filter(ctx: PipelineContext) -> None:
    """k'-ANNS over ``C_SAP`` (Line 1; scatter-gather when sharded).

    When the batch executor already filtered this query through a
    batched kernel (``ctx.prefiltered``), the stage just installs that
    output — ids, distances, timings and stats are bit-identical to
    searching here.
    """
    if ctx.prefiltered is not None:
        ids, dists, timings, stats, seconds = ctx.prefiltered
        ctx.candidate_ids = ids
        ctx.candidate_dists = dists
        ctx.shard_timings = timings
        ctx.filter_stats.merge(stats)
        ctx.filter_seconds_override = seconds
        return
    ctx.candidate_ids, ctx.candidate_dists, ctx.shard_timings = (
        ctx.index.filter_search(
            ctx.sap_vector,
            ctx.k_prime,
            ef_search=ctx.ef_search,
            stats=ctx.filter_stats,
            engine=ctx.filter_engine,
        )
    )


def stage_mask(ctx: PipelineContext) -> None:
    """Drop tombstoned candidates against the batch's liveness mask."""
    if ctx.candidate_ids.shape[0]:
        ctx.candidate_ids = ctx.candidate_ids[ctx.live_mask[ctx.candidate_ids]]


def stage_refine(ctx: PipelineContext) -> None:
    """DCE comparison-only top-k (Lines 2-9); no-op for filter_only."""
    if ctx.request.mode == "filter_only":
        return
    ctx.refine_outcome = ctx.engine.refine(
        ctx.index.dce_database, ctx.trapdoor, ctx.candidate_ids, ctx.request.k
    )


def stage_respond(ctx: PipelineContext) -> None:
    """Assemble the instrumented :class:`SearchResult` from the context."""
    seconds = ctx.stage_seconds
    filter_seconds = (
        ctx.filter_seconds_override
        if ctx.filter_seconds_override is not None
        else seconds.get("filter", 0.0)
    )
    filter_engine = ctx.filter_engine.name
    if ctx.refine_outcome is None:
        ctx.result = SearchResult(
            ids=ctx.candidate_ids[: ctx.request.k],
            filter_stats=ctx.filter_stats,
            refine_comparisons=0,
            k_prime=ctx.k_prime,
            filter_seconds=filter_seconds,
            mask_seconds=seconds.get("mask", 0.0),
            filter_engine=filter_engine,
            filter_kernel_seconds=ctx.filter_stats.kernel_seconds,
            request=ctx.request,
            shard_timings=ctx.shard_timings,
        )
        return
    ctx.result = SearchResult(
        ids=ctx.refine_outcome.ids,
        filter_stats=ctx.filter_stats,
        refine_comparisons=ctx.refine_outcome.comparisons,
        k_prime=ctx.k_prime,
        filter_seconds=filter_seconds,
        mask_seconds=seconds.get("mask", 0.0),
        refine_seconds=seconds.get("refine", 0.0),
        refine_engine=ctx.engine.name,
        refine_kernel_seconds=ctx.refine_outcome.kernel_seconds,
        filter_engine=filter_engine,
        filter_kernel_seconds=ctx.filter_stats.kernel_seconds,
        request=ctx.request,
        shard_timings=ctx.shard_timings,
    )


#: The named stages of Algorithm 2's server-side execution, in order.
#: Each entry is ``(name, callable)`` over a :class:`PipelineContext`;
#: :func:`run_pipeline` times every stage under its name.
PIPELINE_STAGES: tuple[tuple[str, Callable[[PipelineContext], None]], ...] = (
    ("resolve", stage_resolve),
    ("filter", stage_filter),
    ("mask", stage_mask),
    ("refine", stage_refine),
    ("respond", stage_respond),
)


def run_pipeline(ctx: PipelineContext) -> SearchResult:
    """Run one query's :data:`PIPELINE_STAGES` in order; time each stage.

    Returns the ``respond`` stage's :class:`SearchResult`.  Stage wall
    clocks land in ``ctx.stage_seconds`` under the stage names, which is
    where the result's ``filter_seconds`` / ``mask_seconds`` /
    ``refine_seconds`` split comes from.
    """
    for name, stage in PIPELINE_STAGES:
        start = time.perf_counter()
        stage(ctx)
        ctx.stage_seconds[name] = time.perf_counter() - start
    return ctx.result


def _resolve_batch(
    index: "EncryptedIndex | ShardedEncryptedIndex",
    batch: EncryptedQueryBatch,
    default_ratio_k: int,
    ratio_k: int | None,
    ef_search: int | None,
    mode: str | None,
) -> SearchRequest:
    """The once-per-batch work: dim check, request resolution, key check."""
    if batch.dim != index.dim:
        raise ParameterError(
            f"query batch has dimension {batch.dim}, but the index holds "
            f"{index.dim}-dimensional ciphertexts"
        )
    request = batch.request.resolve(
        default_ratio_k, ratio_k=ratio_k, ef_search=ef_search, mode=mode
    )
    if request.mode == "full":
        if batch.trapdoor_vectors.shape[1] == 0:
            raise ParameterError(
                "batch carries no trapdoors (encrypted for filter_only mode); "
                "re-encrypt with mode='full' to refine"
            )
        if batch.key_id != index.dce_database.key_id:
            raise KeyMismatchError("query trapdoors do not match the index's DCE key")
    return request


def _wants_batched_kernel(index) -> bool:
    """Whether the index's backend(s) advertise a batched filter kernel."""
    backend = getattr(index, "backend", None)
    if backend is not None:
        return bool(getattr(backend, "batched_kernel", False))
    shards = getattr(index, "shards", None)
    if shards:
        return any(
            shard.backend is not None
            and getattr(shard.backend, "batched_kernel", False)
            for shard in shards
        )
    return False


def execute_batch_settled(
    index: "EncryptedIndex | ShardedEncryptedIndex",
    batch: EncryptedQueryBatch,
    default_ratio_k: int = 8,
    ratio_k: int | None = None,
    ef_search: int | None = None,
    mode: str | None = None,
    refine_engine: "str | RefineEngine | None" = None,
    filter_engine: "str | FilterEngine | None" = None,
) -> tuple[list[Settled[SearchResult]], float, SearchRequest]:
    """The settled form of :func:`execute_batch` (the serving primitive).

    Runs the same amortized batch pass, but instead of re-raising the
    first per-query failure it returns one
    :class:`~repro.core.executor.Settled` per query, in query order —
    each holding either the query's :class:`SearchResult` or the
    exception its pipeline raised.  A failing query neither kills nor
    reorders its batch siblings, which is what lets the online serving
    scheduler (:mod:`repro.serve`) route each failure to its own future
    while the siblings' answers are delivered normally.

    Batch-level validation (dimension, trapdoor presence, key check)
    and the batched filter pre-pass still raise directly — those
    failures poison every query in the batch equally.

    Returns ``(settled, wall_seconds, request)`` where ``wall_seconds``
    is the batch's start-to-finish wall clock — the batched filter
    pre-pass included — and ``request`` the
    batch's fully resolved :class:`SearchRequest` (so callers never
    re-resolve and risk drifting from what actually executed).

    ``filter_engine`` selects the filter-stage engine (bit-identical
    results on every engine).  On the ``vectorized`` engine, backends
    that advertise a batched kernel (brute-force, IVF) filter the whole
    batch in one GEMM pre-pass before the per-query loop.
    """
    engine = get_refine_engine(refine_engine)
    fengine = get_filter_engine(filter_engine)
    request = _resolve_batch(index, batch, default_ratio_k, ratio_k, ef_search, mode)
    k_prime = request.k_prime
    live_mask = index.live_mask()
    key_id = batch.key_id

    start = time.perf_counter()
    prefiltered = None
    if (
        fengine.name == "vectorized"
        and len(batch) > 1
        and _wants_batched_kernel(index)
    ):
        # Batched filter pre-pass: one GEMM kernel answers every query's
        # filter phase (bit-identical to filtering each query alone); the
        # stage pipeline then consumes the precomputed candidates.  A
        # failure here is a batch-level error, like the key check.
        resolved_ef = resolve_ef_search(request.ef_search, k_prime)
        stats_list = [SearchStats() for _ in range(len(batch))]
        pre_start = time.perf_counter()
        rows = index.filter_search_batch(
            batch.sap_vectors,
            k_prime,
            ef_search=resolved_ef,
            stats_list=stats_list,
            engine=fengine,
        )
        share = (time.perf_counter() - pre_start) / len(batch)
        prefiltered = [
            (ids, dists, timings, stats_list[i], share)
            for i, (ids, dists, timings) in enumerate(rows)
        ]

    def run_query(i: int) -> SearchResult:
        return run_pipeline(
            PipelineContext(
                index=index,
                sap_vector=batch.sap_vectors[i],
                trapdoor=DCETrapdoor(batch.trapdoor_vectors[i], key_id),
                request=request,
                k_prime=k_prime,
                live_mask=live_mask,
                engine=engine,
                filter_engine=fengine,
                prefiltered=None if prefiltered is None else prefiltered[i],
            )
        )

    settled = [Settled.capture(run_query, i) for i in range(len(batch))]
    return settled, time.perf_counter() - start, request


def execute_batch(
    index: "EncryptedIndex | ShardedEncryptedIndex",
    batch: EncryptedQueryBatch,
    default_ratio_k: int = 8,
    ratio_k: int | None = None,
    ef_search: int | None = None,
    mode: str | None = None,
    refine_engine: "str | RefineEngine | None" = None,
    filter_engine: "str | FilterEngine | None" = None,
) -> SearchResultBatch:
    """Answer a whole encrypted batch through one pipelined, amortized pass.

    Parameter resolution, the trapdoor key check, and the liveness mask
    are computed once; the queries then run the staged Algorithm 2
    pipeline one after another on the calling thread, with results in
    query order.  Per-query error isolation: every query runs to
    completion even if a sibling raises, and the first failure by query
    position is re-raised after the loop.  Results are element-wise
    identical to answering the batch's queries one at a time.

    ``refine_engine`` selects the refine-stage implementation by name
    (``"heap"`` or ``"vectorized"``); ``None`` uses the default
    (:data:`repro.core.refine.DEFAULT_REFINE_ENGINE`).
    ``filter_engine`` does the same for the filter stage
    (:data:`repro.core.filterengine.DEFAULT_FILTER_ENGINE`), including
    the batched GEMM pre-pass on backends that support it.

    The returned batch records the per-query loop's start-to-finish
    wall clock in ``wall_seconds``.
    """
    settled, wall_seconds, request = execute_batch_settled(
        index,
        batch,
        default_ratio_k=default_ratio_k,
        ratio_k=ratio_k,
        ef_search=ef_search,
        mode=mode,
        refine_engine=refine_engine,
        filter_engine=filter_engine,
    )
    results = [outcome.unwrap() for outcome in settled]
    return SearchResultBatch(results, request=request, wall_seconds=wall_seconds)

