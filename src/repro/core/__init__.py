"""The paper's primary contribution: DCE + the PP-ANNS scheme.

Public API:

* :class:`repro.core.dce.DCEScheme` — distance comparison encryption
  (Section IV): exact encrypted distance comparisons at O(d).
* :class:`repro.core.dcpe.DCPEScheme` — Scale-and-Perturb approximate
  DCPE (Algorithm 1), the filter phase's encryption.
* :class:`repro.core.index.EncryptedIndex` — the server-side triplet
  ``(C_SAP, backend(C_SAP), C_DCE)`` (Section V-A).
* :mod:`repro.core.protocol` — the batch-first request/response types:
  :class:`SearchRequest`, :class:`EncryptedQuery` /
  :class:`EncryptedQueryBatch`, :class:`SearchResult` /
  :class:`SearchResultBatch`.
* :mod:`repro.core.backends` — the :class:`FilterBackend` protocol and
  the HNSW / NSG / IVF / brute-force adapters (Section V-A's
  substitutability remark).
* :func:`repro.core.search.execute_batch` — Algorithm 2, run as the
  staged pipeline :data:`repro.core.search.PIPELINE_STAGES` (resolve →
  filter → mask → refine → respond over a :class:`PipelineContext`)
  for each query of a batch after the per-batch setup; a single query
  is a batch of one.  :func:`repro.core.search.execute_batch_settled`
  is the per-query settled form the online serving layer
  (:mod:`repro.serve`) consumes.
* :mod:`repro.core.refine` — pluggable refine engines behind the
  :class:`RefineEngine` protocol: the ``heap`` comparison-oracle
  reference and the batched ``vectorized`` default.
* :class:`repro.core.roles` — DataOwner / QueryUser / CloudServer.
* :class:`repro.core.scheme.PPANNS` — a one-object facade over the whole
  pipeline.
* :mod:`repro.core.sharding` — horizontal partitioning:
  :class:`ShardedEncryptedIndex` with a scatter-gather filter phase
  (``DataOwner.build_index(..., shards=N)``).
* :mod:`repro.core.maintenance` — insert/delete (Section V-D) and
  online tombstone compaction (:func:`compact_index`).
* :mod:`repro.core.journal` — incremental persistence: the v4
  journaled directory store (:class:`IndexJournal`, base + checksummed
  delta segments, atomic write-new-then-rename publication).
* :mod:`repro.core.params` — beta and k' tuning (Section VII-A).
* :mod:`repro.core.build` — the seed-reproducible index construction
  pipeline (per-shard builds from SeedSequence-spawned shard RNGs,
  :class:`BuildReport` timing split).
"""

from repro.core.backends import (
    BACKENDS,
    BruteForceBackend,
    FilterBackend,
    HNSWBackend,
    IVFBackend,
    NSGBackend,
    available_backends,
    build_backend,
)
from repro.core.build import (
    BUILD_MODES,
    BuildReport,
    ShardBuildTiming,
    build_shard_backends,
    spawn_shard_rngs,
)
from repro.core.dce import (
    DCECiphertext,
    DCEEncryptedDatabase,
    DCEScheme,
    DCETrapdoor,
    dce_keygen,
    distance_comp,
    distance_comp_many,
    sdc_mac_count,
)
from repro.core.dcpe import DCPEScheme, dcpe_keygen, beta_lower_bound, beta_upper_bound
from repro.core.errors import (
    CiphertextFormatError,
    DimensionMismatchError,
    KeyMismatchError,
    ParameterError,
    PPANNSError,
)
from repro.core.index import EncryptedIndex, IndexSizeReport
from repro.core.journal import FileOps, IndexJournal, JournalStats
from repro.core.keys import DCEKey, DCPEKey
from repro.core.maintenance import (
    CompactionReport,
    compact_index,
    delete_vector,
    insert_vector,
)
from repro.core.persistence import load_index, load_keys, save_index, save_keys
from repro.core.refine import (
    DEFAULT_REFINE_ENGINE,
    REFINE_ENGINES,
    HeapRefineEngine,
    RefineEngine,
    RefineOutcome,
    VectorizedRefineEngine,
    available_refine_engines,
    get_refine_engine,
)
from repro.core.protocol import (
    EncryptedQuery,
    EncryptedQueryBatch,
    SearchRequest,
    SearchResult,
    SearchResultBatch,
    ShardTiming,
    resolve_ef_search,
)
from repro.core.roles import CloudServer, DataOwner, QueryUser, SecretKeyBundle
from repro.core.scheme import PPANNS
from repro.core.search import (
    PIPELINE_STAGES,
    PipelineContext,
    execute_batch,
    execute_batch_settled,
    run_pipeline,
)
from repro.core.sharding import (
    SHARD_STRATEGIES,
    Shard,
    ShardedEncryptedIndex,
    build_sharded_index,
)


__all__ = [
    "DCEScheme",
    "DCECiphertext",
    "DCETrapdoor",
    "DCEEncryptedDatabase",
    "dce_keygen",
    "distance_comp",
    "distance_comp_many",
    "sdc_mac_count",
    "DCPEScheme",
    "dcpe_keygen",
    "beta_lower_bound",
    "beta_upper_bound",
    "DCEKey",
    "DCPEKey",
    "EncryptedIndex",
    "IndexSizeReport",
    "ShardedEncryptedIndex",
    "Shard",
    "ShardTiming",
    "SHARD_STRATEGIES",
    "build_sharded_index",
    "SearchRequest",
    "EncryptedQuery",
    "EncryptedQueryBatch",
    "SearchResult",
    "SearchResultBatch",
    "resolve_ef_search",
    "FilterBackend",
    "HNSWBackend",
    "NSGBackend",
    "IVFBackend",
    "BruteForceBackend",
    "BACKENDS",
    "available_backends",
    "build_backend",
    "execute_batch",
    "execute_batch_settled",
    "PipelineContext",
    "PIPELINE_STAGES",
    "run_pipeline",
    "RefineEngine",
    "RefineOutcome",
    "HeapRefineEngine",
    "VectorizedRefineEngine",
    "REFINE_ENGINES",
    "DEFAULT_REFINE_ENGINE",
    "available_refine_engines",
    "get_refine_engine",
    "BUILD_MODES",
    "BuildReport",
    "ShardBuildTiming",
    "build_shard_backends",
    "spawn_shard_rngs",
    "DataOwner",
    "QueryUser",
    "CloudServer",
    "SecretKeyBundle",
    "PPANNS",
    "insert_vector",
    "delete_vector",
    "compact_index",
    "CompactionReport",
    "IndexJournal",
    "JournalStats",
    "FileOps",
    "save_index",
    "load_index",
    "save_keys",
    "load_keys",
    "PPANNSError",
    "DimensionMismatchError",
    "KeyMismatchError",
    "CiphertextFormatError",
    "ParameterError",
]
