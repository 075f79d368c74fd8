"""Pluggable filter-phase backends (Section V-A's substitutability remark).

The paper builds its privacy-preserving index over HNSW but notes the
filter phase "can leverage other proximity graph-based approaches"; the
repo already carries NSG, IVF-Flat and a linear scan as parallel code
paths.  This module turns those substrates into interchangeable
:class:`FilterBackend` implementations so :class:`~repro.core.index.EncryptedIndex`
and :class:`~repro.core.roles.CloudServer` never care which one they run
on — the backend becomes a scenario knob (``--backend`` in the CLI,
``backend=`` in :class:`~repro.core.scheme.PPANNS`).

Every backend operates purely on DCPE ciphertext geometry, exactly like
the HNSW original, so the privacy argument is unchanged.

Contract (the :class:`FilterBackend` protocol):

* ``build(sap_vectors, rng=..., params=...)`` — class-level constructor
  over the DCPE ciphertext matrix;
* ``search(sap_query, k_prime, ef_search=..., stats=...)`` — k'-ANNS on
  ciphertexts, returning ``(ids, squared_distances)`` nearest-first;
* ``search_batch(sap_queries, k_prime, ...)`` — multi-query filtering,
  bit-identical to looping ``search``: brute-force and IVF run batched
  GEMM kernels, the graph backends a lockstep beam search once the
  batch is large enough to pay for it (``batched_kernel`` advertises
  that the backend has such a kernel);
* ``insert(sap_row)`` / ``mark_deleted(vector_id)`` — maintenance
  (Section V-D), keeping ids aligned with ``C_SAP`` / ``C_DCE``;
* ``state_arrays()`` / ``from_state(...)`` — persistence hooks.

The persistence hooks define each backend's on-disk payload, embedded
into the index file by :mod:`repro.core.persistence` — at the top level
for format v2 (monolithic) and under ``shard{i}_`` prefixes for format
v3 (sharded).  The exact key set per backend kind (``graph_*``,
``nsg_*``, ``ivf_*``, ``bruteforce_*``) is specified in
``docs/FORMATS.md``; ``state_arrays`` never persists the vectors
themselves, which ``from_state`` reloads from the caller's ``C_SAP``
slice.  In a sharded index every shard owns a full, independent backend
instance of the same kind, built over only its slice of ``C_SAP`` and
addressed by shard-local ids.
"""

from __future__ import annotations

import math
from typing import ClassVar, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.core.errors import ParameterError
from repro.hnsw.bruteforce import BruteForceIndex
from repro.hnsw.graph import HNSWIndex, HNSWParams, SearchStats, _Node
from repro.hnsw.ivf import IVFFlatIndex, IVFParams
from repro.hnsw.nsg import NSGIndex, NSGParams

__all__ = [
    "FilterBackend",
    "HNSWBackend",
    "NSGBackend",
    "IVFBackend",
    "BruteForceBackend",
    "BACKENDS",
    "available_backends",
    "build_backend",
    "backend_from_state",
]


@runtime_checkable
class FilterBackend(Protocol):
    """What the encrypted index needs from a filter-phase substrate."""

    kind: ClassVar[str]

    #: Whether ``search_batch`` is a genuinely batched kernel (GEMM or
    #: lockstep beam per micro-batch) rather than a per-query loop.
    batched_kernel: ClassVar[bool]

    @property
    def substrate(self):  # pragma: no cover - trivial accessor
        """The wrapped index object."""
        ...

    @property
    def vectors(self) -> np.ndarray:
        """Indexed vectors in id order, including deleted slots."""
        ...

    def search(
        self,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k'-ANNS over DCPE ciphertexts: ``(ids, dists)`` nearest-first."""
        ...

    def search_batch(
        self,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Multi-query filtering, bit-identical to looping :meth:`search`."""
        ...

    def insert(self, sap_row: np.ndarray) -> int:
        """Insert one DCPE ciphertext row; returns the assigned id."""
        ...

    def mark_deleted(self, vector_id: int) -> None:
        """Delete ``vector_id`` from the substrate (Section V-D)."""
        ...

    def edge_count(self) -> int:
        """Directed edges in the substrate (0 for non-graph backends)."""
        ...

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Arrays to persist alongside the index."""
        ...


class HNSWBackend:
    """The paper's default: an HNSW graph over ``C_SAP`` (Section V-A)."""

    kind: ClassVar[str] = "hnsw"
    batched_kernel: ClassVar[bool] = True

    def __init__(self, graph: HNSWIndex) -> None:
        self._graph = graph

    @classmethod
    def build(
        cls,
        sap_vectors: np.ndarray,
        rng: np.random.Generator | None = None,
        params: HNSWParams | None = None,
        build_mode: str = "sequential",
    ) -> "HNSWBackend":
        """Build a fresh HNSW graph over the DCPE ciphertext matrix.

        ``build_mode`` is one of :data:`repro.hnsw.graph.BUILD_MODES`;
        both run the same insert loop and build the same graph.
        """
        graph = HNSWIndex(
            sap_vectors.shape[1],
            params if params is not None else HNSWParams(),
            rng=rng,
        ).build(sap_vectors, mode=build_mode)
        return cls(graph)

    @property
    def substrate(self) -> HNSWIndex:
        """The wrapped HNSWIndex instance."""
        return self._graph

    @property
    def vectors(self) -> np.ndarray:
        """Indexed vectors in id order, including deleted slots."""
        return self._graph.vectors

    def search(
        self,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k'-ANNS over DCPE ciphertexts: ``(ids, dists)`` nearest-first."""
        return self._graph.search(sap_query, k_prime, ef_search=ef_search, stats=stats)

    def search_batch(
        self,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Multi-query filtering, bit-identical per query.

        Batches past the measured crossover march over the layer-0 CSR
        snapshot in lockstep, each round's distance blocks fused into
        one gather + einsum; smaller ones loop :meth:`search` (see
        :meth:`repro.hnsw.graph.HNSWIndex.search_batch`).
        """
        return self._graph.search_batch(
            sap_queries, k_prime, ef_search=ef_search, stats_list=stats_list
        )

    def insert(self, sap_row: np.ndarray, level: int | None = None) -> int:
        """Insert one DCPE ciphertext row; returns the assigned id.

        ``level`` forces the HNSW level draw (journal replay — see
        :meth:`repro.hnsw.graph.HNSWIndex.insert`); ``None`` draws from
        the graph's RNG as usual.
        """
        return self._graph.insert(sap_row, level=level)

    def node_level(self, vector_id: int) -> int:
        """The node's top HNSW level (recorded for journal replay)."""
        return self._graph.node_level(vector_id)

    def rebuild(
        self, sap_vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "HNSWBackend":
        """Fresh build over ``sap_vectors`` with this backend's parameters.

        The compactor (:mod:`repro.core.maintenance`) uses this to drop
        tombstoned rows without re-deriving construction knobs.
        """
        return type(self).build(sap_vectors, rng=rng, params=self._graph.params)

    def mark_deleted(self, vector_id: int) -> None:
        """Section V-D deletion: unlink, tombstone, repair in-neighbors."""
        graph = self._graph
        in_neighbors = graph.in_neighbors(vector_id)
        graph.remove_edges_to(vector_id)
        graph.mark_deleted(vector_id)
        for neighbor in in_neighbors:
            if not graph.is_deleted(neighbor):
                graph.repair_node(neighbor)

    def edge_count(self) -> int:
        """Directed edges in the substrate (0 for non-graph backends)."""
        return self._graph.edge_count(0)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Arrays to persist alongside the index (see docs/FORMATS.md)."""
        graph = self._graph
        # Flat array assembly (graph.adjacency_arrays) — the export used
        # to walk a nodes x levels x neighbors Python loop per edge.
        levels, edge_array = graph.adjacency_arrays()
        # The graph's vectors are exactly the C_SAP rows save_index already
        # writes, so they are not duplicated here; from_state reloads them
        # from the sap_vectors argument.
        return {
            "graph_levels": levels,
            "graph_edges": edge_array,
            "graph_deleted": graph.deleted_ids(),
            "graph_entry_point": np.array(
                [-1 if graph.entry_point is None else graph.entry_point],
                dtype=np.int64,
            ),
            "graph_params": np.array(
                [graph.params.m, graph.params.ef_construction], dtype=np.int64
            ),
        }

    @classmethod
    def from_state(
        cls,
        sap_vectors: np.ndarray,
        data: Mapping[str, np.ndarray],
    ) -> "HNSWBackend":
        """Rebuild the backend from its persisted state arrays."""
        # v1 files carried the vectors under graph_vectors; v2 dedups them
        # into the sap_vectors array the caller already loaded.
        vectors = data["graph_vectors"] if "graph_vectors" in data else sap_vectors
        vectors = np.asarray(vectors, dtype=np.float64)
        levels = data["graph_levels"]
        m, ef_construction = (int(x) for x in data["graph_params"])
        graph = HNSWIndex(
            vectors.shape[1], HNSWParams(m=m, ef_construction=ef_construction)
        )
        # Reconstruct internal state directly; going through insert() would
        # re-run construction and change the edges.
        count = vectors.shape[0]
        graph._buffer = vectors.copy()
        graph._nodes = [
            _Node(
                level=int(levels[i]),
                neighbors=[[] for _ in range(int(levels[i]) + 1)],
            )
            for i in range(count)
        ]
        for node, level, neighbor in data["graph_edges"]:
            graph._nodes[int(node)].neighbors[int(level)].append(int(neighbor))
        graph._deleted = set(int(i) for i in data["graph_deleted"])
        entry = int(data["graph_entry_point"][0])
        graph._entry_point = None if entry < 0 else entry
        graph._max_level = int(levels.max()) if count else -1
        return cls(graph)


class NSGBackend:
    """Flat NSG-style proximity graph backend."""

    kind: ClassVar[str] = "nsg"
    batched_kernel: ClassVar[bool] = True

    def __init__(self, index: NSGIndex) -> None:
        self._index = index

    @classmethod
    def build(
        cls,
        sap_vectors: np.ndarray,
        rng: np.random.Generator | None = None,
        params: NSGParams | None = None,
        build_mode: str = "sequential",
    ) -> "NSGBackend":
        """Build a fresh NSG-style graph over the DCPE ciphertext matrix.

        ``build_mode`` is accepted for knob parity and ignored: the NSG
        build has a single, already array-oriented path.
        """
        return cls(NSGIndex(sap_vectors, params))

    @property
    def substrate(self) -> NSGIndex:
        """The wrapped NSGIndex instance."""
        return self._index

    @property
    def vectors(self) -> np.ndarray:
        """Indexed vectors in id order, including deleted slots."""
        return self._index.vectors

    def search(
        self,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k'-ANNS over DCPE ciphertexts: ``(ids, dists)`` nearest-first."""
        return self._index.search(sap_query, k_prime, ef_search=ef_search, stats=stats)

    def search_batch(
        self,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Multi-query filtering, bit-identical per query.

        Batches past the measured crossover march over the layer-0 CSR
        snapshot in lockstep, each round's distance blocks fused into
        one gather + einsum; smaller ones loop :meth:`search` (see
        :meth:`repro.hnsw.nsg.NSGIndex.search_batch`).
        """
        return self._index.search_batch(
            sap_queries, k_prime, ef_search=ef_search, stats_list=stats_list
        )

    def insert(self, sap_row: np.ndarray) -> int:
        """Insert one DCPE ciphertext row; returns the assigned id."""
        return self._index.insert(sap_row)

    def rebuild(
        self, sap_vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "NSGBackend":
        """Fresh build over ``sap_vectors`` with this backend's parameters."""
        return type(self).build(sap_vectors, rng=rng, params=self._index.params)

    def mark_deleted(self, vector_id: int) -> None:
        """Delete ``vector_id`` from the substrate (Section V-D)."""
        self._index.mark_deleted(vector_id)

    def edge_count(self) -> int:
        """Directed edges in the substrate (0 for non-graph backends)."""
        return self._index.edge_count()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Arrays to persist alongside the index (see docs/FORMATS.md)."""
        index = self._index
        return {
            "nsg_edges": index.adjacency_arrays(),
            "nsg_deleted": index.deleted_ids(),
            "nsg_medoid": np.array([index.medoid], dtype=np.int64),
            "nsg_params": np.array(
                [index.params.knn, index.params.max_degree], dtype=np.int64
            ),
        }

    @classmethod
    def from_state(
        cls, sap_vectors: np.ndarray, data: Mapping[str, np.ndarray]
    ) -> "NSGBackend":
        """Rebuild the backend from its persisted state arrays."""
        knn, max_degree = (int(x) for x in data["nsg_params"])
        neighbors: list[list[int]] = [[] for _ in range(sap_vectors.shape[0])]
        for node, neighbor in data["nsg_edges"]:
            neighbors[int(node)].append(int(neighbor))
        index = NSGIndex.from_state(
            sap_vectors,
            NSGParams(knn=knn, max_degree=max_degree),
            neighbors,
            int(data["nsg_medoid"][0]),
            deleted=set(int(i) for i in data["nsg_deleted"]),
        )
        return cls(index)


class IVFBackend:
    """IVF-Flat backend; ``ef_search`` scales the probe count.

    IVF's recall knob is ``nprobe``, not a beam width, so the shared
    ``ef_search`` parameter is mapped onto it: the backend probes at least
    ``default_nprobe`` lists, plus enough lists that the expected number
    of scanned vectors (``ef_search``-many, assuming balanced lists) is
    covered.
    """

    kind: ClassVar[str] = "ivf"
    batched_kernel: ClassVar[bool] = True

    def __init__(self, index: IVFFlatIndex, default_nprobe: int = 4) -> None:
        if default_nprobe < 1:
            raise ParameterError(f"nprobe must be >= 1, got {default_nprobe}")
        self._index = index
        self._default_nprobe = default_nprobe

    @classmethod
    def build(
        cls,
        sap_vectors: np.ndarray,
        rng: np.random.Generator | None = None,
        params: IVFParams | None = None,
        default_nprobe: int = 4,
        build_mode: str = "sequential",
    ) -> "IVFBackend":
        """Build a fresh IVF-Flat index over the DCPE ciphertext matrix.

        ``build_mode`` is accepted for knob parity and ignored: k-means
        training has a single, already array-oriented path.
        """
        return cls(IVFFlatIndex(sap_vectors, params, rng=rng), default_nprobe)

    @property
    def substrate(self) -> IVFFlatIndex:
        """The wrapped IVFFlatIndex instance."""
        return self._index

    @property
    def vectors(self) -> np.ndarray:
        """Indexed vectors in id order, including deleted slots."""
        return self._index.vectors

    def _nprobe_for(self, ef_search: int | None) -> int:
        if ef_search is None:
            return self._default_nprobe
        per_list = max(1.0, self._index.size / max(1, self._index.num_lists))
        return max(self._default_nprobe, math.ceil(ef_search / per_list))

    def search(
        self,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k'-ANNS over DCPE ciphertexts: ``(ids, dists)`` nearest-first."""
        return self._index.search(
            sap_query, k_prime, nprobe=self._nprobe_for(ef_search), stats=stats
        )

    def search_batch(
        self,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched probe-and-rerank: one GEMM per probed posting list
        over list-major rows, then a tie-safe top-k' preselect."""
        return self._index.search_batch(
            sap_queries,
            k_prime,
            nprobe=self._nprobe_for(ef_search),
            stats_list=stats_list,
        )

    def insert(self, sap_row: np.ndarray) -> int:
        """Insert one DCPE ciphertext row; returns the assigned id."""
        return self._index.insert(sap_row)

    def rebuild(
        self, sap_vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "IVFBackend":
        """Fresh build over ``sap_vectors`` with this backend's parameters."""
        return type(self).build(
            sap_vectors,
            rng=rng,
            params=self._index.params,
            default_nprobe=self._default_nprobe,
        )

    def mark_deleted(self, vector_id: int) -> None:
        """Delete ``vector_id`` from the substrate (Section V-D)."""
        self._index.mark_deleted(vector_id)

    def edge_count(self) -> int:
        """Directed edges in the substrate (0 for non-graph backends)."""
        return 0

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Arrays to persist alongside the index (see docs/FORMATS.md)."""
        index = self._index
        return {
            "ivf_centroids": index.centroids,
            "ivf_assignments": index.assignments(),
            "ivf_deleted": index.deleted_ids(),
            "ivf_params": np.array(
                [
                    index.params.num_lists,
                    index.params.train_iterations,
                    self._default_nprobe,
                ],
                dtype=np.int64,
            ),
        }

    @classmethod
    def from_state(
        cls, sap_vectors: np.ndarray, data: Mapping[str, np.ndarray]
    ) -> "IVFBackend":
        """Rebuild the backend from its persisted state arrays."""
        num_lists, train_iterations, default_nprobe = (
            int(x) for x in data["ivf_params"]
        )
        index = IVFFlatIndex.from_state(
            sap_vectors,
            IVFParams(num_lists=num_lists, train_iterations=train_iterations),
            data["ivf_centroids"],
            np.asarray(data["ivf_assignments"], dtype=np.int64),
            deleted=set(int(i) for i in data["ivf_deleted"]),
        )
        return cls(index, default_nprobe)


class BruteForceBackend:
    """Exact linear scan — the no-index reference backend."""

    kind: ClassVar[str] = "bruteforce"
    batched_kernel: ClassVar[bool] = True

    def __init__(self, index: BruteForceIndex) -> None:
        self._index = index

    @classmethod
    def build(
        cls,
        sap_vectors: np.ndarray,
        rng: np.random.Generator | None = None,
        params: None = None,
        build_mode: str = "sequential",
    ) -> "BruteForceBackend":
        """Build a linear-scan index over the DCPE ciphertext matrix.

        ``build_mode`` is accepted for knob parity and ignored: a linear
        scan has no construction work at all.
        """
        return cls(BruteForceIndex(sap_vectors))

    @property
    def substrate(self) -> BruteForceIndex:
        """The wrapped BruteForceIndex instance."""
        return self._index

    @property
    def vectors(self) -> np.ndarray:
        """Indexed vectors in id order, including deleted slots."""
        return self._index.vectors

    def search(
        self,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k'-ANNS over DCPE ciphertexts: ``(ids, dists)`` nearest-first."""
        return self._index.search(sap_query, k_prime, ef_search=ef_search, stats=stats)

    def search_batch(
        self,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched exact scan: one GEMM for the whole micro-batch."""
        return self._index.search_batch(
            sap_queries, k_prime, ef_search=ef_search, stats_list=stats_list
        )

    def insert(self, sap_row: np.ndarray) -> int:
        """Insert one DCPE ciphertext row; returns the assigned id."""
        return self._index.insert(sap_row)

    def rebuild(
        self, sap_vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "BruteForceBackend":
        """Fresh build over ``sap_vectors`` (a linear scan has no knobs)."""
        return type(self).build(sap_vectors, rng=rng)

    def mark_deleted(self, vector_id: int) -> None:
        """Delete ``vector_id`` from the substrate (Section V-D)."""
        self._index.mark_deleted(vector_id)

    def edge_count(self) -> int:
        """Directed edges in the substrate (0 for non-graph backends)."""
        return 0

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Arrays to persist alongside the index (see docs/FORMATS.md)."""
        return {"bruteforce_deleted": self._index.deleted_ids()}

    @classmethod
    def from_state(
        cls, sap_vectors: np.ndarray, data: Mapping[str, np.ndarray]
    ) -> "BruteForceBackend":
        """Rebuild the backend from its persisted state arrays."""
        return cls(
            BruteForceIndex.from_state(
                sap_vectors, set(int(i) for i in data["bruteforce_deleted"])
            )
        )


#: Registry of the shipped backend kinds.
BACKENDS: dict[str, type] = {
    HNSWBackend.kind: HNSWBackend,
    NSGBackend.kind: NSGBackend,
    IVFBackend.kind: IVFBackend,
    BruteForceBackend.kind: BruteForceBackend,
}


def available_backends() -> tuple[str, ...]:
    """The registered backend kinds, stable order."""
    return tuple(BACKENDS)


def build_backend(
    kind: str,
    sap_vectors: np.ndarray,
    rng: np.random.Generator | None = None,
    params=None,
    build_mode: str = "sequential",
) -> FilterBackend:
    """Build a filter backend of ``kind`` over the DCPE ciphertexts.

    ``build_mode`` selects the HNSW construction path (one of
    :data:`repro.hnsw.graph.BUILD_MODES`); the other backend kinds have
    a single build path and ignore it.
    """
    try:
        backend_cls = BACKENDS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown backend {kind!r}; available: {', '.join(BACKENDS)}"
        ) from None
    return backend_cls.build(sap_vectors, rng=rng, params=params, build_mode=build_mode)


def backend_from_state(
    kind: str,
    sap_vectors: np.ndarray,
    data: Mapping[str, np.ndarray],
) -> FilterBackend:
    """Rebuild a persisted backend of ``kind`` from its state arrays."""
    try:
        backend_cls = BACKENDS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown backend {kind!r}; available: {', '.join(BACKENDS)}"
        ) from None
    return backend_cls.from_state(sap_vectors, data)
