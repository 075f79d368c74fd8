"""IVF-Flat — inverted-file index with a k-means coarse quantizer.

Inverted files are the third classical ANN index family the paper
discusses (Section I and VIII cite Jegou et al.'s product-quantization
IVF [13]); like HNSW and LSH they operate purely on vector geometry, so
an IVF index can also be built **over DCPE ciphertexts** as yet another
filter-phase backend (Section V-A's substitutability remark, exercised by
the ablation tests).

Construction: Lloyd's k-means (from scratch, k-means++ seeding) assigns
every vector to its nearest of ``num_lists`` centroids; each centroid
keeps a posting list.  Search probes the ``nprobe`` closest centroids and
re-ranks their members exactly — ``nprobe`` is the recall/throughput
knob, playing the role HNSW's ``ef_search`` does.  As a filter backend
the index takes the shared ``ef_search`` and maps it onto ``nprobe``
(``IVFFlatIndex._nprobe_for``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from repro.core.errors import DimensionMismatchError, ParameterError
from repro.hnsw.distance import (
    gemm_topk_preselect,
    pairwise_squared_distances,
    squared_distances_to_many,
)
from repro.hnsw.graph import SearchStats, sorted_id_array

__all__ = ["IVFParams", "IVFFlatIndex", "kmeans"]


@dataclass(frozen=True)
class IVFParams:
    """IVF configuration.

    Attributes
    ----------
    num_lists:
        Number of coarse clusters (posting lists).
    train_iterations:
        Lloyd iterations for the quantizer.
    """

    num_lists: int = 16
    train_iterations: int = 10

    def __post_init__(self) -> None:
        if self.num_lists < 1:
            raise ParameterError(f"num_lists must be >= 1, got {self.num_lists}")
        if self.train_iterations < 1:
            raise ParameterError(
                f"train_iterations must be >= 1, got {self.train_iterations}"
            )


def kmeans(
    vectors: np.ndarray,
    num_clusters: int,
    iterations: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ seeding.

    Returns ``(centroids, assignments)``.  Empty clusters are re-seeded
    from the points farthest from their current centroid.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if num_clusters > n:
        num_clusters = n
    # k-means++ seeding.
    first = int(rng.integers(0, n))
    centroids = [vectors[first]]
    closest = squared_distances_to_many(vectors[first], vectors)
    for _ in range(num_clusters - 1):
        total = float(closest.sum())
        if total <= 0:
            centroids.append(vectors[int(rng.integers(0, n))])
            continue
        probabilities = closest / total
        chosen = int(rng.choice(n, p=probabilities))
        centroids.append(vectors[chosen])
        closest = np.minimum(
            closest, squared_distances_to_many(vectors[chosen], vectors)
        )
    centroid_array = np.stack(centroids)

    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        distances = pairwise_squared_distances(vectors, centroid_array)
        assignments = np.argmin(distances, axis=1)
        for cluster in range(centroid_array.shape[0]):
            members = vectors[assignments == cluster]
            if members.shape[0] > 0:
                centroid_array[cluster] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the worst-served point.
                worst = int(np.argmax(distances[np.arange(n), assignments]))
                centroid_array[cluster] = vectors[worst]
    distances = pairwise_squared_distances(vectors, centroid_array)
    assignments = np.argmin(distances, axis=1)
    return centroid_array, assignments


def _list_major(
    vectors: np.ndarray, ids: np.ndarray, lists: np.ndarray, num_lists: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The list-major layout ``(ids, offsets, rows, norms)``.

    ``ids`` are grouped by posting list (``lists[i]`` holds ``ids[i]``),
    keeping their given order within each list.  List ``c`` owns
    ``ids[offsets[c]:offsets[c + 1]]``; the same slice of ``rows`` holds
    their vectors, copied contiguously, and of ``norms`` their squared
    norms.
    """
    order = np.argsort(lists, kind="stable")
    ids = ids[order]
    offsets = np.zeros(num_lists + 1, dtype=np.int64)
    np.cumsum(np.bincount(lists, minlength=num_lists), out=offsets[1:])
    rows = vectors[ids]
    return ids, offsets, rows, np.einsum("ij,ij->i", rows, rows)


def _check_nprobe(nprobe: int) -> int:
    if nprobe < 1:
        raise ParameterError(f"nprobe must be >= 1, got {nprobe}")
    return nprobe


def _positions(offsets: np.ndarray, lists: np.ndarray) -> np.ndarray:
    """Layout positions of the rows of ``lists``, list after list."""
    return np.concatenate([np.arange(offsets[c], offsets[c + 1]) for c in lists])


class IVFFlatIndex:
    """Inverted-file index over a fixed vector set.

    The posting lists live in one list-major layout (see
    :func:`_list_major`), ascending ids within each list.  Mutations
    build a new layout and swap it in as a single attribute, so a
    concurrent reader sees either the whole old layout or the whole new
    one.  The class is a :class:`~repro.core.backends.FilterBackend`.

    Parameters
    ----------
    vectors:
        ``(n, d)`` vectors to index (DCPE ciphertexts in the PP-ANNS
        setting).
    params:
        IVF configuration.
    rng:
        Randomness for quantizer training.
    default_nprobe:
        The fewest lists a search probes when it names no ``nprobe``;
        ``ef_search`` can only raise the count (see :meth:`_nprobe_for`).
        Persisted with the index and kept by :meth:`rebuild`.
    """

    #: Backend kind: the registry key and the persisted ``backend_kind``.
    kind: ClassVar[str] = "ivf"

    def __init__(
        self,
        vectors: np.ndarray,
        params: IVFParams | None = None,
        rng: np.random.Generator | None = None,
        default_nprobe: int = 4,
    ) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ParameterError(
                f"need a non-empty (n, d) array, got shape {vectors.shape}"
            )
        self._default_nprobe = _check_nprobe(default_nprobe)
        self._vectors = vectors
        self._params = params if params is not None else IVFParams()
        rng = rng if rng is not None else np.random.default_rng()
        self._centroids, assignments = kmeans(
            vectors, self._params.num_lists, self._params.train_iterations, rng
        )
        self._deleted: set[int] = set()
        self._layout = _list_major(
            vectors, np.arange(vectors.shape[0]), assignments, self.num_lists
        )

    @classmethod
    def from_state(
        cls, vectors: np.ndarray, data: Mapping[str, np.ndarray]
    ) -> "IVFFlatIndex":
        """The index :meth:`state_arrays` described, over ``vectors``,
        skipping k-means training."""
        num_lists, train_iterations, default_nprobe = (
            int(x) for x in data["ivf_params"]
        )
        index = cls.__new__(cls)
        index._default_nprobe = _check_nprobe(default_nprobe)
        index._vectors = np.asarray(vectors, dtype=np.float64)
        index._params = IVFParams(
            num_lists=num_lists, train_iterations=train_iterations
        )
        index._centroids = np.asarray(data["ivf_centroids"], dtype=np.float64)
        index._deleted = set(int(i) for i in data["ivf_deleted"])
        live = np.ones(index.size, dtype=bool)
        live[index.deleted_ids()] = False
        ids = np.flatnonzero(live)
        assignments = np.asarray(data["ivf_assignments"], dtype=np.int64)
        index._layout = _list_major(
            index._vectors, ids, assignments[ids], index.num_lists
        )
        return index

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The ``ivf_*`` arrays persisted with the index (``docs/FORMATS.md``)."""
        return {
            "ivf_centroids": self._centroids,
            "ivf_assignments": self.assignments(),
            "ivf_deleted": self.deleted_ids(),
            "ivf_params": np.array(
                [
                    self._params.num_lists,
                    self._params.train_iterations,
                    self._default_nprobe,
                ],
                dtype=np.int64,
            ),
        }

    def rebuild(
        self, vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "IVFFlatIndex":
        """A fresh index over ``vectors`` with this index's parameters and
        ``default_nprobe`` (compaction drops tombstoned rows this way)."""
        return IVFFlatIndex(
            vectors, self._params, rng=rng, default_nprobe=self._default_nprobe
        )

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        return int(self._vectors.shape[0])

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return int(self._vectors.shape[1])

    @property
    def params(self) -> IVFParams:
        """IVF configuration."""
        return self._params

    @property
    def centroids(self) -> np.ndarray:
        """The trained coarse-quantizer centroids."""
        return self._centroids

    @property
    def num_lists(self) -> int:
        """Number of posting lists actually trained."""
        return int(self._centroids.shape[0])

    @property
    def vectors(self) -> np.ndarray:
        """The indexed vectors, including any deleted slots."""
        return self._vectors

    def _nprobe_for(self, ef_search: int | None) -> int:
        """The probe count standing in for a beam width of ``ef_search``.

        At least ``default_nprobe`` lists, plus enough lists that the
        expected number of scanned vectors (``ef_search`` of them,
        assuming balanced lists) is covered; ``None`` gives
        ``default_nprobe``.
        """
        if ef_search is None:
            return self._default_nprobe
        per_list = max(1.0, self.size / max(1, self.num_lists))
        return max(self._default_nprobe, math.ceil(ef_search / per_list))

    def edge_count(self) -> int:
        """Directed graph edges: none, an inverted file has no graph."""
        return 0

    def list_sizes(self) -> list[int]:
        """Posting-list occupancy (for balance diagnostics)."""
        return np.diff(self._layout[1]).tolist()

    def _postings(self) -> tuple[np.ndarray, np.ndarray]:
        """Live ids in list-major order, and the posting list of each."""
        ids, offsets, _, _ = self._layout
        return ids, np.repeat(np.arange(self.num_lists), np.diff(offsets))

    def assignments(self) -> np.ndarray:
        """Per-vector posting-list assignment (for persistence).

        A live vector reports the list that holds it, so
        :meth:`from_state` rebuilds exactly these posting lists.  A
        tombstoned id, which no list holds, reports its nearest centroid.
        """
        ids, lists = self._postings()
        dead = self.deleted_ids()
        out = np.empty(self.size, dtype=np.int64)
        out[dead] = np.argmin(
            pairwise_squared_distances(self._vectors[dead], self._centroids), axis=1
        )
        out[ids] = lists
        return out

    def is_deleted(self, node: int) -> bool:
        """Whether ``node`` has been tombstoned."""
        return node in self._deleted

    def deleted_ids(self) -> np.ndarray:
        """Sorted tombstoned ids as int64 (see :func:`sorted_id_array`)."""
        return sorted_id_array(self._deleted)

    def insert(self, vector: np.ndarray) -> int:
        """Insert one vector into its nearest posting list, returning its id."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self.dim:
            raise DimensionMismatchError(self.dim, vector.shape[-1])
        new_id = self.size
        nearest = int(np.argmin(squared_distances_to_many(vector, self._centroids)))
        ids, lists = self._postings()
        self._vectors = np.vstack([self._vectors, vector])
        self._layout = _list_major(
            self._vectors,
            np.append(ids, new_id),
            np.append(lists, nearest),
            self.num_lists,
        )
        return new_id

    def mark_deleted(self, node: int) -> None:
        """Remove ``node`` from its posting list so probes skip it."""
        if not 0 <= node < self.size:
            raise IndexError(f"node {node} out of range")
        self._deleted.add(node)
        ids, lists = self._postings()
        keep = ids != node
        self._layout = _list_major(
            self._vectors, ids[keep], lists[keep], self.num_lists
        )

    def _probe_order(
        self, query: np.ndarray, nprobe: int, stats: SearchStats | None
    ) -> np.ndarray:
        """The ``nprobe`` lists nearest to ``query``, nearest first."""
        centroid_dists = squared_distances_to_many(query, self._centroids)
        if stats is not None:
            stats.distance_computations += self.num_lists
        return np.argsort(centroid_dists, kind="stable")[: min(nprobe, self.num_lists)]

    def search(
        self,
        query: np.ndarray,
        k: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
        *,
        nprobe: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe the ``nprobe`` nearest lists, exact-rerank their members.

        Same result contract as the graph indexes: ``(ids, squared
        distances)`` nearest-first.  Without ``nprobe`` the probe count
        comes from ``ef_search`` (:meth:`_nprobe_for`).
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        if nprobe is None:
            nprobe = self._nprobe_for(ef_search)
        _check_nprobe(nprobe)
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1 or query.shape[0] != self.dim:
            raise DimensionMismatchError(self.dim, query.shape[-1], what="query")
        ids, offsets, rows, _ = self._layout
        probe_order = self._probe_order(query, nprobe, stats)
        positions = _positions(offsets, probe_order)
        if positions.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        dists = squared_distances_to_many(query, rows[positions])
        if stats is not None:
            stats.distance_computations += positions.shape[0]
            stats.hops += len(probe_order)
        order = np.argsort(dists, kind="stable")[:k]
        return ids[positions[order]], dists[order]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
        *,
        nprobe: int | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched probe-and-rerank, bit-identical to looping :meth:`search`.

        Probe order comes from the per-query centroid kernel, as in
        :meth:`search`.  Each probed list then runs one GEMM: the queries
        that probe it against its contiguous rows, with cached norms.  A
        query's segments, concatenated in probe order, *preselect* its
        top ``k``, whose distances are recomputed with the oracle's
        kernel; the full exact rerank takes over whenever the selection
        is not provably identical (see
        :func:`repro.hnsw.distance.gemm_topk_preselect`).
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        if nprobe is None:
            nprobe = self._nprobe_for(ef_search)
        _check_nprobe(nprobe)
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatchError(self.dim, queries.shape[-1], what="queries")
        ids, offsets, rows, norms = self._layout
        stats_list = stats_list if stats_list is not None else [None] * len(queries)
        probes = np.array(
            [
                self._probe_order(query, nprobe, stats)
                for query, stats in zip(queries, stats_list)
            ]
        )
        query_norms = np.einsum("ij,ij->i", queries, queries)
        # Row r of ``approx`` is filled only on the lists query r probes.
        approx = np.empty((queries.shape[0], ids.shape[0]))
        for c in np.unique(probes):
            who = np.flatnonzero((probes == c).any(axis=1))
            lo, hi = offsets[c], offsets[c + 1]
            approx[who, lo:hi] = np.maximum(
                norms[lo:hi]
                - 2.0 * (queries[who] @ rows[lo:hi].T)
                + query_norms[who, None],
                0.0,
            )

        out: list[tuple[np.ndarray, np.ndarray]] = []
        for row, (query, probe_order, stats) in enumerate(
            zip(queries, probes, stats_list)
        ):
            positions = _positions(offsets, probe_order)
            if positions.shape[0] == 0:
                out.append((np.empty(0, dtype=np.int64), np.empty(0)))
                continue
            kk = min(k, positions.shape[0])
            selected = gemm_topk_preselect(
                approx[row, positions],
                kk,
                lambda cand: squared_distances_to_many(query, rows[positions[cand]]),
                candidate_cap=4 * kk + 64,
            )
            if selected is None:
                dists = squared_distances_to_many(query, rows[positions])
                order = np.argsort(dists, kind="stable")[:k]
                chosen, top = positions[order], dists[order]
            else:
                chosen, top = positions[selected[0]], selected[1]
            if stats is not None:
                stats.distance_computations += positions.shape[0]
                stats.hops += len(probe_order)
            out.append((ids[chosen], top))
        return out
