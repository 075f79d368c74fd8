"""repro — reproduction of "Privacy-Preserving Approximate Nearest Neighbor
Search on High-Dimensional Data" (Liu, Zhang, Xie, Li, Yu, Cui; ICDE 2025).

The package implements the paper's complete system and its evaluation:

* :mod:`repro.core` — Distance Comparison Encryption (DCE), DCPE
  (Scale-and-Perturb), the privacy-preserving index, the staged
  filter-and-refine search pipeline, system roles and index
  maintenance.
* :mod:`repro.serve` — the online micro-batching serving layer:
  bounded admission, scheduler-formed micro-batches, result caching,
  serving metrics.
* :mod:`repro.hnsw` — HNSW and NSG proximity graphs built from scratch.
* :mod:`repro.lsh` — E2LSH, the index substrate of two baselines.
* :mod:`repro.baselines` — ASPE (+ broken enhanced variants), AME,
  HNSW-AME, DCE linear scan, RS-SANN, PACM-ANN, PRI-ANN.
* :mod:`repro.crypto` — AES-128/CTR, 2-server PIR, random matrices and
  permutations.
* :mod:`repro.attacks` — the executable KPA attacks of Section III.
* :mod:`repro.datasets` / :mod:`repro.eval` — workloads and the
  experiment harness regenerating every table and figure of Section VII.

Quickstart (batch-first API)::

    import numpy as np
    from repro import PPANNS

    rng = np.random.default_rng(0)
    data = rng.standard_normal((5000, 64))
    queries = rng.standard_normal((256, 64))

    scheme = PPANNS(dim=64, beta=1.0, rng=rng).fit(data)
    batch = scheme.query_batch(queries, k=10, ratio_k=8)
    ids = batch.ids                      # (256, 10) neighbor-id matrix

    # Single queries and other filter backends work the same way:
    ids0 = scheme.query(queries[0], k=10)
    nsg = PPANNS(dim=64, beta=1.0, backend="nsg", rng=rng).fit(data)
"""

from repro.core import (
    BUILD_MODES,
    PPANNS,
    BuildReport,
    CloudServer,
    DataOwner,
    DCEScheme,
    DCPEScheme,
    EncryptedIndex,
    EncryptedQuery,
    EncryptedQueryBatch,
    FilterBackend,
    QueryUser,
    SearchRequest,
    SearchResult,
    SearchResultBatch,
    SecretKeyBundle,
    ShardedEncryptedIndex,
    ShardTiming,
    available_backends,
    build_backend,
    build_sharded_index,
    execute_batch,
)
from repro.hnsw import HNSWIndex, HNSWParams
from repro.serve import BatchScheduler, QueueFullError, ServerMetrics, ServingFrontend

__version__ = "1.0.0"


__all__ = [
    "PPANNS",
    "DataOwner",
    "QueryUser",
    "CloudServer",
    "SecretKeyBundle",
    "DCEScheme",
    "DCPEScheme",
    "EncryptedIndex",
    "ShardedEncryptedIndex",
    "ShardTiming",
    "build_sharded_index",
    "BUILD_MODES",
    "BuildReport",
    "SearchRequest",
    "EncryptedQuery",
    "EncryptedQueryBatch",
    "SearchResult",
    "SearchResultBatch",
    "FilterBackend",
    "available_backends",
    "build_backend",
    "execute_batch",
    "HNSWIndex",
    "HNSWParams",
    "ServingFrontend",
    "BatchScheduler",
    "ServerMetrics",
    "QueueFullError",
    "__version__",
]
