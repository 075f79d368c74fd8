"""Exact k-NN by linear scan — the recall ground truth.

Every Recall@k number in the paper is measured against exact neighbors
(Section VII, "Performance Metrics"); this module provides the reference
implementation plus a tiny index-shaped wrapper so the evaluation harness
can treat exact search like any other method.
"""

from __future__ import annotations

from typing import ClassVar, Mapping

import numpy as np

from repro.core.errors import DimensionMismatchError, ParameterError
from repro.hnsw.distance import (
    gemm_topk_preselect,
    pairwise_squared_distances,
    squared_distances_to_many,
)
from repro.hnsw.graph import SearchStats, sorted_id_array

__all__ = ["exact_knn", "BruteForceIndex"]


def exact_knn(
    vectors: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors of ``query`` among the rows of ``vectors``.

    Returns ``(ids, squared_distances)`` sorted nearest-first.  Uses
    ``argpartition`` so the cost is O(n + k log k) beyond the distance pass.
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    vectors = np.asarray(vectors, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if vectors.ndim != 2:
        raise ParameterError(f"vectors must be 2-D, got shape {vectors.shape}")
    if query.shape[-1] != vectors.shape[1]:
        raise DimensionMismatchError(vectors.shape[1], query.shape[-1], what="query")
    k = min(k, vectors.shape[0])
    dists = squared_distances_to_many(query, vectors)
    nearest = np.argpartition(dists, k - 1)[:k]
    order = np.argsort(dists[nearest], kind="stable")
    ids = nearest[order]
    return ids.astype(np.int64), dists[ids]


class BruteForceIndex:
    """Linear-scan index with the same ``search`` signature as HNSW.

    The no-index reference :class:`~repro.core.backends.FilterBackend`.
    """

    #: Backend kind: the registry key and the persisted ``backend_kind``.
    kind: ClassVar[str] = "bruteforce"

    def __init__(self, vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ParameterError(
                f"need a non-empty (n, d) array, got shape {vectors.shape}"
            )
        self._vectors = vectors
        self._deleted: set[int] = set()
        # Row-norm cache for the batched GEMM path; keyed by array
        # identity so the vstack in insert() invalidates it naturally.
        self._norms: np.ndarray | None = None
        self._norms_for: np.ndarray | None = None

    @classmethod
    def from_state(
        cls, vectors: np.ndarray, data: Mapping[str, np.ndarray]
    ) -> "BruteForceIndex":
        """The index :meth:`state_arrays` described, over ``vectors``."""
        index = cls(vectors)
        index._deleted = set(int(i) for i in data["bruteforce_deleted"])
        return index

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The ``bruteforce_*`` arrays persisted with the index
        (``docs/FORMATS.md``)."""
        return {"bruteforce_deleted": self.deleted_ids()}

    def rebuild(
        self, vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "BruteForceIndex":
        """A scan over ``vectors`` (compaction drops tombstoned rows this
        way).  A linear scan has no randomness, so ``rng`` goes unused."""
        return BruteForceIndex(vectors)

    def edge_count(self) -> int:
        """Directed graph edges: none, a linear scan has no graph."""
        return 0

    @property
    def size(self) -> int:
        """Number of indexed vectors, including any deleted slots."""
        return int(self._vectors.shape[0])

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return int(self._vectors.shape[1])

    @property
    def vectors(self) -> np.ndarray:
        """The indexed vectors, including any deleted slots."""
        return self._vectors

    def is_deleted(self, node: int) -> bool:
        """Whether ``node`` has been tombstoned."""
        return node in self._deleted

    def deleted_ids(self) -> np.ndarray:
        """Sorted tombstoned ids as int64 (see :func:`sorted_id_array`)."""
        return sorted_id_array(self._deleted)

    def insert(self, vector: np.ndarray) -> int:
        """Append one vector, returning its id."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self.dim:
            raise DimensionMismatchError(self.dim, vector.shape[-1])
        self._vectors = np.vstack([self._vectors, vector])
        return self.size - 1

    def mark_deleted(self, node: int) -> None:
        """Tombstone ``node`` so scans skip it."""
        if not 0 <= node < self.size:
            raise IndexError(f"node {node} out of range")
        self._deleted.add(node)

    def search(
        self,
        query: np.ndarray,
        k: int,
        ef_search: int | None = None,
        stats: "SearchStats | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact search; see :func:`exact_knn`.

        ``ef_search`` is accepted for interface parity with the graph
        indexes and ignored — a linear scan has no beam.
        """
        ids, dists = exact_knn(self._vectors, query, k + len(self._deleted))
        if stats is not None:
            stats.distance_computations += self.size
            stats.hops += 1
        if self._deleted:
            keep = np.array([i not in self._deleted for i in ids.tolist()])
            ids, dists = ids[keep], dists[keep]
        return ids[:k], dists[:k]

    def _row_norms(self) -> np.ndarray:
        vectors = self._vectors
        if self._norms_for is not vectors:
            self._norms = np.einsum("ij,ij->i", vectors, vectors)
            self._norms_for = vectors
        return self._norms

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched exact search: one GEMM for the whole micro-batch.

        Bit-identical to looping :meth:`search` per query — the GEMM
        scores only preselect candidates whose distances are then
        recomputed with the per-row kernel, and any query whose
        selection has a tie (or an unsafe boundary) falls back to the
        per-query path outright.
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatchError(self.dim, queries.shape[-1], what="queries")
        kk = min(k + len(self._deleted), self.size)
        approx = pairwise_squared_distances(
            queries, self._vectors, b_norms=self._row_norms()
        )
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for row in range(queries.shape[0]):
            query = queries[row]
            selected = gemm_topk_preselect(
                approx[row],
                kk,
                lambda cand, q=query: squared_distances_to_many(q, self._vectors[cand]),
                candidate_cap=4 * kk + 64,
            )
            if selected is None:
                ids, dists = exact_knn(self._vectors, query, k + len(self._deleted))
            else:
                ids, dists = selected[0].astype(np.int64), selected[1]
            stats = stats_list[row] if stats_list is not None else None
            if stats is not None:
                stats.distance_computations += self.size
                stats.hops += 1
            if self._deleted:
                keep = np.array([i not in self._deleted for i in ids.tolist()])
                ids, dists = ids[keep], dists[keep]
            out.append((ids[:k], dists[:k]))
        return out
