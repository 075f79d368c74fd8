"""Pluggable filter-phase backends (Section V-A's substitutability remark).

The paper builds its privacy-preserving index over HNSW but notes the
filter phase "can leverage other proximity graph-based approaches".
Four index classes serve that claim, and each implements the
:class:`FilterBackend` protocol itself: :class:`~repro.hnsw.graph.HNSWIndex`
(``hnsw``, the paper's choice), :class:`~repro.hnsw.nsg.NSGIndex`
(``nsg``), :class:`~repro.hnsw.ivf.IVFFlatIndex` (``ivf``) and
:class:`~repro.hnsw.bruteforce.BruteForceIndex` (``bruteforce``).
:class:`~repro.core.index.EncryptedIndex` and
:class:`~repro.core.roles.CloudServer` hold one of them and never care
which — the kind is a scenario knob (``--backend`` in the CLI,
``backend=`` in :class:`~repro.core.scheme.PPANNS`).

Every backend operates purely on DCPE ciphertext geometry, exactly like
the HNSW original, so the privacy argument is unchanged.

Contract (the :class:`FilterBackend` protocol):

* ``search(sap_query, k_prime, ef_search=..., stats=...)`` — k'-ANNS on
  ciphertexts, returning ``(ids, squared_distances)`` nearest-first;
  IVF maps ``ef_search`` onto its probe count;
* ``search_batch(sap_queries, k_prime, ...)`` — multi-query filtering,
  bit-identical to looping ``search``: brute force and IVF run GEMM
  kernels, the graph backends a lockstep beam search once the batch is
  large enough to pay for it;
* ``insert(sap_row)`` / ``mark_deleted(vector_id)`` — maintenance
  (Section V-D), keeping ids aligned with ``C_SAP`` / ``C_DCE``;
* ``rebuild(sap_vectors, rng)`` — a fresh build with the same
  parameters, which compaction uses;
* ``state_arrays()`` and the classmethod ``from_state(vectors, data)``
  — persistence.

This module keeps only the protocol and the kind -> class table behind
:func:`build_backend`, :func:`backend_from_state` and
:func:`available_backends`.

``state_arrays`` defines each backend's on-disk payload, embedded into
the index file by :mod:`repro.core.persistence` — at the top level for
format v2 (monolithic) and under ``shard{i}_`` prefixes for format v3
(sharded).  The exact key set per backend kind (``graph_*``, ``nsg_*``,
``ivf_*``, ``bruteforce_*``) is specified in ``docs/FORMATS.md``;
``state_arrays`` never persists the vectors themselves, which
``from_state`` reloads from the caller's ``C_SAP`` slice.  In a sharded
index every shard owns a full, independent backend of the same kind,
built over only its slice of ``C_SAP`` and addressed by shard-local ids.
"""

from __future__ import annotations

from typing import ClassVar, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.core.errors import ParameterError
from repro.hnsw.bruteforce import BruteForceIndex
from repro.hnsw.graph import HNSWIndex, SearchStats
from repro.hnsw.ivf import IVFFlatIndex
from repro.hnsw.nsg import NSGIndex

__all__ = [
    "FilterBackend",
    "BACKENDS",
    "available_backends",
    "build_backend",
    "backend_from_state",
]


@runtime_checkable
class FilterBackend(Protocol):
    """What the encrypted index needs from a filter-phase index."""

    kind: ClassVar[str]

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
        """Delete ``vector_id`` (Section V-D)."""
        ...

    def rebuild(
        self, sap_vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "FilterBackend":
        """A fresh build over ``sap_vectors`` with this backend's parameters."""
        ...

    def edge_count(self) -> int:
        """Directed edges in the graph (0 for non-graph backends)."""
        ...

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Arrays to persist alongside the index."""
        ...


#: The shipped backend kinds.
BACKENDS: dict[str, type] = {
    backend_cls.kind: backend_cls
    for backend_cls in (HNSWIndex, NSGIndex, IVFFlatIndex, BruteForceIndex)
}


def available_backends() -> tuple[str, ...]:
    """The registered backend kinds, stable order."""
    return tuple(BACKENDS)


def _backend_class(kind: str) -> type:
    try:
        return BACKENDS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown backend {kind!r}; available: {', '.join(BACKENDS)}"
        ) from None


def build_backend(
    kind: str,
    sap_vectors: np.ndarray,
    rng: np.random.Generator | None = None,
    params=None,
) -> FilterBackend:
    """Build a filter backend of ``kind`` over the DCPE ciphertexts.

    ``params`` is the kind's construction parameters (``HNSWParams``,
    ``NSGParams``, ``IVFParams``; ``None`` for the defaults) and ``rng``
    its randomness (HNSW level draws, k-means seeding).
    """
    backend_cls = _backend_class(kind)
    if backend_cls is HNSWIndex:
        return HNSWIndex(sap_vectors.shape[1], params, rng=rng).build(sap_vectors)
    if backend_cls is IVFFlatIndex:
        return IVFFlatIndex(sap_vectors, params, rng=rng)
    if backend_cls is NSGIndex:
        return NSGIndex(sap_vectors, params)
    return BruteForceIndex(sap_vectors)


def backend_from_state(
    kind: str,
    sap_vectors: np.ndarray,
    data: Mapping[str, np.ndarray],
) -> FilterBackend:
    """Rebuild a persisted backend of ``kind`` from its state arrays."""
    return _backend_class(kind).from_state(sap_vectors, data)
