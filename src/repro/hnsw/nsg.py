"""A navigating-spreading-out-style flat proximity graph.

Section V-A of the paper notes the privacy-preserving index "can leverage
other proximity graph-based approaches ... like the navigating
spreading-out graph [NSG]" in place of HNSW.  This module provides that
alternative backend so the claim is exercised: a single-layer graph built
by

1. computing an exact k-NN graph over the (encrypted) vectors,
2. picking the medoid as the fixed navigation entry point,
3. pruning each node's candidate set with NSG's monotonic-path edge
   selection (the same dominance rule as HNSW's heuristic), and
4. adding reverse edges and connecting any stragglers to the medoid.

Search is the standard best-first beam search from the medoid.  The build
is O(n^2) from the exact k-NN graph — fine at the scaled-down sizes this
reproduction targets, and it keeps the substrate dependency-free.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from repro.core.errors import DimensionMismatchError, ParameterError
from repro.hnsw.distance import pairwise_squared_distances, squared_distances_to_many
from repro.hnsw.graph import (
    LOCKSTEP_MIN_ROWS,
    SearchStats,
    _SearchMode,
    compile_search_mode,
    lockstep_beam_search,
    sorted_id_array,
)

__all__ = ["NSGParams", "NSGIndex"]


def _nearest(dists: np.ndarray, count: int, skip: np.ndarray) -> np.ndarray:
    """The first ``count`` ids of a stable argsort of ``dists`` not marked
    in the boolean mask ``skip``.  Only the ``count + skipped`` smallest
    can qualify, so just the entries at or below that partition threshold
    are sorted; taken in id order, their stable sort breaks ties by id
    exactly as the full one does."""
    kth = min(count + int(np.count_nonzero(skip)), dists.shape[0]) - 1
    near = np.flatnonzero(dists <= np.partition(dists, kth)[kth])
    order = near[np.argsort(dists[near], kind="stable")]
    return order[~skip[order]][:count]


@dataclass(frozen=True)
class NSGParams:
    """Construction parameters for the NSG-style graph.

    Attributes
    ----------
    knn:
        Size of the initial exact k-NN candidate lists.
    max_degree:
        Out-degree cap after pruning (NSG's ``R``).
    """

    knn: int = 32
    max_degree: int = 16

    def __post_init__(self) -> None:
        if self.knn < 1:
            raise ParameterError(f"knn must be >= 1, got {self.knn}")
        if self.max_degree < 1:
            raise ParameterError(f"max_degree must be >= 1, got {self.max_degree}")


class NSGIndex:
    """A flat proximity graph with a medoid entry point.

    Parameters
    ----------
    vectors:
        The ``(n, d)`` vectors to index (DCPE ciphertexts in the PP-ANNS
        setting).
    params:
        Construction parameters.

    The class is a :class:`~repro.core.backends.FilterBackend`.
    """

    #: Backend kind: the registry key and the persisted ``backend_kind``.
    kind: ClassVar[str] = "nsg"

    def __init__(self, vectors: np.ndarray, params: NSGParams | None = None) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ParameterError(
                f"need a non-empty (n, d) array, got shape {vectors.shape}"
            )
        self._vectors = vectors
        self._params = params if params is not None else NSGParams()
        self._medoid = 0
        self._neighbors: list[list[int]] = []
        self._deleted: set[int] = set()
        self._adjacency_version = 0
        self._search_mode: "_SearchMode | None" = None
        self._build()
        self._adjacency_version += 1

    @classmethod
    def from_state(
        cls, vectors: np.ndarray, data: Mapping[str, np.ndarray]
    ) -> "NSGIndex":
        """The graph :meth:`state_arrays` described, over ``vectors``,
        skipping the O(n^2) build."""
        knn, max_degree = (int(x) for x in data["nsg_params"])
        index = cls.__new__(cls)
        index._vectors = np.asarray(vectors, dtype=np.float64)
        index._params = NSGParams(knn=knn, max_degree=max_degree)
        index._medoid = int(data["nsg_medoid"][0])
        index._neighbors = [[] for _ in range(index._vectors.shape[0])]
        for node, neighbor in data["nsg_edges"]:
            index._neighbors[int(node)].append(int(neighbor))
        index._deleted = set(int(i) for i in data["nsg_deleted"])
        index._adjacency_version = 0
        index._search_mode = None
        return index

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The ``nsg_*`` arrays persisted with the index (``docs/FORMATS.md``)."""
        return {
            "nsg_edges": self.adjacency_arrays(),
            "nsg_deleted": self.deleted_ids(),
            "nsg_medoid": np.array([self._medoid], dtype=np.int64),
            "nsg_params": np.array(
                [self._params.knn, self._params.max_degree], dtype=np.int64
            ),
        }

    def rebuild(
        self, vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "NSGIndex":
        """A fresh graph over ``vectors`` with this graph's parameters
        (compaction drops tombstoned rows this way).  The build is
        deterministic, so ``rng`` goes unused."""
        return NSGIndex(vectors, self._params)

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        return int(self._vectors.shape[0])

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return int(self._vectors.shape[1])

    @property
    def params(self) -> NSGParams:
        """Construction parameters."""
        return self._params

    @property
    def medoid(self) -> int:
        """Id of the navigation entry point."""
        return self._medoid

    @property
    def vectors(self) -> np.ndarray:
        """The indexed vectors."""
        return self._vectors

    def neighbors(self, node: int) -> list[int]:
        """Out-neighbors of ``node`` (copy)."""
        return list(self._neighbors[node])

    def is_deleted(self, node: int) -> bool:
        """Whether ``node`` has been tombstoned."""
        return node in self._deleted

    def deleted_ids(self) -> np.ndarray:
        """Sorted tombstoned ids as int64 (see :func:`sorted_id_array`)."""
        return sorted_id_array(self._deleted)

    def adjacency_arrays(self) -> np.ndarray:
        """Flat ``(e, 2)`` int64 edge export ``(node, neighbor)``.

        Ordered by node, then neighbor-list position (the persistence
        order in ``docs/FORMATS.md``); assembled from whole-array
        primitives instead of a per-edge Python loop.
        """
        lengths = np.fromiter(
            (len(adjacent) for adjacent in self._neighbors),
            dtype=np.int64,
            count=len(self._neighbors),
        )
        total = int(lengths.sum())
        if total == 0:
            return np.empty((0, 2), dtype=np.int64)
        targets = np.fromiter(
            itertools.chain.from_iterable(self._neighbors),
            dtype=np.int64,
            count=total,
        )
        sources = np.repeat(np.arange(len(self._neighbors), dtype=np.int64), lengths)
        return np.column_stack((sources, targets))

    def edge_count(self) -> int:
        """Total directed edges over live nodes."""
        return sum(
            len(adj)
            for node, adj in enumerate(self._neighbors)
            if node not in self._deleted
        )

    def _build(self) -> None:
        """Exact k-NN lists (:func:`_nearest`, ties by id), pruned by
        :meth:`_prune`, reverse-linked, re-capped, medoid-connected."""
        n = self.size
        knn = min(self._params.knn, n - 1)
        all_dists = pairwise_squared_distances(self._vectors, self._vectors)
        # Medoid: vector minimizing total distance to the rest.
        self._medoid = int(np.argmin(all_dists.sum(axis=1)))
        self._neighbors = []
        if n == 1:
            self._neighbors.append([])
            return
        skip = np.zeros(n, dtype=bool)
        for node in range(n):
            dists = all_dists[node]
            skip[node] = True
            candidates = _nearest(dists, knn, skip)
            skip[node] = False
            self._neighbors.append(self._prune(candidates, dists[candidates]))
        # Reverse edges improve reachability, then cap degrees again.
        for node in range(n):
            for neighbor in list(self._neighbors[node]):
                if node not in self._neighbors[neighbor]:
                    self._neighbors[neighbor].append(node)
        for node in range(n):
            if len(self._neighbors[node]) > self._params.max_degree:
                ids = np.array(self._neighbors[node], dtype=np.int64)
                self._neighbors[node] = self._prune(ids, all_dists[node][ids])
        # Guarantee connectivity through the medoid.
        reachable = self._reachable_from(self._medoid)
        for node in range(n):
            if node not in reachable:
                self._neighbors[self._medoid].append(node)
                self._neighbors[node].append(self._medoid)

    def _prune(self, ids: np.ndarray, dists: np.ndarray) -> list[int]:
        """NSG edge selection: keep candidates not dominated by a kept one.

        ``ids`` are visited nearest-first by ``dists``, their distances to
        the node (ties keep the given order); ``c`` is dominated when a
        kept ``s`` has ``dist(s, c) < dists[c]``.  As in HNSW's
        ``_heuristic_prune_batched``, each kept neighbor ORs that predicate
        for all candidates into one mask: a per-pair loop's floats and
        comparisons, so its selection.
        """
        order = np.argsort(dists, kind="stable")
        ids, dists = ids[order], dists[order]
        vectors = self._vectors[ids]
        dominated = np.zeros(ids.shape[0], dtype=bool)
        selected: list[int] = []
        for position in range(ids.shape[0]):
            if len(selected) >= self._params.max_degree:
                break
            if dominated[position]:
                continue
            selected.append(int(ids[position]))
            dominated |= squared_distances_to_many(vectors[position], vectors) < dists
        return selected

    def _reachable_from(self, start: int) -> set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self._neighbors[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def insert(self, vector: np.ndarray) -> int:
        """Insert one vector, returning its id.

        NSG has no native incremental build; the new node is linked to its
        pruned nearest neighbors and reverse edges are added (with the
        usual degree cap), which preserves search quality at the scales
        this reproduction targets without an O(n^2) rebuild.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self.dim:
            raise DimensionMismatchError(self.dim, vector.shape[-1])
        new_id = self.size
        dists = squared_distances_to_many(vector, self._vectors)
        self._vectors = np.vstack([self._vectors, vector])
        skip = np.zeros(new_id, dtype=bool)
        skip[sorted_id_array(self._deleted)] = True
        candidates = _nearest(dists, self._params.knn, skip)
        self._neighbors.append(self._prune(candidates, dists[candidates]))
        for neighbor in self._neighbors[new_id]:
            row = self._neighbors[neighbor]
            row.append(new_id)
            if len(row) > self._params.max_degree:
                ids = np.array(row, dtype=np.int64)
                to_row = squared_distances_to_many(
                    self._vectors[neighbor], self._vectors[ids]
                )
                self._neighbors[neighbor] = self._prune(ids, to_row)
        self._adjacency_version += 1
        return new_id

    # -- flat search mode (CSR) -------------------------------------------------

    def search_mode(self) -> _SearchMode:
        """The CSR snapshot of the (single-layer) adjacency, compiled
        lazily per graph generation — see
        :meth:`repro.hnsw.graph.HNSWIndex.search_mode`."""
        mode = self._search_mode
        if mode is not None and mode.version == self._adjacency_version:
            return mode
        mode = compile_search_mode(self._adjacency_version, self._neighbors)
        self._search_mode = mode
        return mode

    def mark_deleted(self, node: int) -> None:
        """Tombstone ``node``: it keeps routing but never appears in results."""
        if not 0 <= node < self.size:
            raise IndexError(f"node {node} out of range")
        self._deleted.add(node)

    def search(
        self,
        query: np.ndarray,
        k: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Best-first beam search from the medoid.

        Same contract as :meth:`repro.hnsw.graph.HNSWIndex.search`,
        including the tombstone beam widening: when tombstones exist the
        beam grows by their count so they cannot crowd live results
        below ``k``.
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1 or query.shape[0] != self.dim:
            raise DimensionMismatchError(self.dim, query.shape[-1], what="query")
        ef = ef_search if ef_search is not None else max(k, 2 * self._params.max_degree)
        if ef < k:
            raise ParameterError(f"ef_search ({ef}) must be >= k ({k})")
        beam = ef + len(self._deleted)
        start_dist = float(
            squared_distances_to_many(query, self._vectors[self._medoid][np.newaxis])[0]
        )
        if stats is not None:
            stats.distance_computations += 1
        visited = {self._medoid}
        candidates = [(start_dist, self._medoid)]
        results = [(-start_dist, self._medoid)]
        while candidates:
            dist, node = heapq.heappop(candidates)
            if len(results) >= beam and dist > -results[0][0]:
                break
            if stats is not None:
                stats.hops += 1
            unvisited = [n for n in self._neighbors[node] if n not in visited]
            if not unvisited:
                continue
            visited.update(unvisited)
            dists = squared_distances_to_many(query, self._vectors[unvisited])
            if stats is not None:
                stats.distance_computations += len(unvisited)
            bound = -results[0][0] if len(results) >= beam else math.inf
            for neighbor_dist, neighbor in zip(dists.tolist(), unvisited):
                if neighbor_dist < bound or len(results) < beam:
                    heapq.heappush(candidates, (neighbor_dist, neighbor))
                    heapq.heappush(results, (-neighbor_dist, neighbor))
                    if len(results) > beam:
                        heapq.heappop(results)
                    bound = -results[0][0] if len(results) >= beam else math.inf
        ordered = sorted((-negated, node) for negated, node in results)
        live = [(dist, node) for dist, node in ordered if node not in self._deleted]
        top = live[:k]
        ids = np.array([node for _, node in top], dtype=np.int64)
        dists_out = np.array([dist for dist, _ in top])
        return ids, dists_out

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats | None] | None" = None,
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Multi-query :meth:`search` — bit-identical per query.

        Fewer than :data:`~repro.hnsw.graph.LOCKSTEP_MIN_ROWS` rows are
        a plain loop of :meth:`search`.  From the crossover up, every
        query starts at the medoid and replays its own beam decisions
        exactly (ids, distances, stats all bit-identical to
        :meth:`search`) while the per-round neighbor distance blocks are
        fused across the batch (see
        :func:`repro.hnsw.graph.lockstep_beam_search`).
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatchError(
                self.dim, queries.shape[-1], what="query batch"
            )
        num = queries.shape[0]
        if num == 0:
            return []
        ef = ef_search if ef_search is not None else max(k, 2 * self._params.max_degree)
        if ef < k:
            raise ParameterError(f"ef_search ({ef}) must be >= k ({k})")
        if stats_list is None:
            stats_list = [None] * num
        if num < LOCKSTEP_MIN_ROWS:
            return [
                self.search(queries[row], k, ef_search=ef_search, stats=stats_list[row])
                for row in range(num)
            ]
        beam = ef + len(self._deleted)
        found = lockstep_beam_search(
            self._vectors, self.size, queries, [self._medoid] * num, beam,
            self.search_mode(), stats_list,
        )
        out = []
        for row in range(num):
            live = [
                (dist, node) for dist, node in found[row]
                if node not in self._deleted
            ]
            top = live[:k]
            ids = np.array([node for _, node in top], dtype=np.int64)
            dists_out = np.array([dist for dist, _ in top])
            out.append((ids, dists_out))
        return out
