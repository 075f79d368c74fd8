"""The privacy-preserving index (Section V-A, Figure 3 box B2).

What the cloud server stores — and all it ever stores — is three pieces,
each produced by the data owner:

1. ``C_SAP``: the DCPE (Scale-and-Perturb) ciphertexts of every database
   vector, still ``d``-dimensional, supporting cheap *approximate*
   distances.
2. A filter-phase :class:`~repro.core.backends.FilterBackend` built
   **over** ``C_SAP`` — never over plaintexts, so its structure encodes
   only approximate neighbor relations (the paper's privacy argument for
   index leakage).  HNSW is the paper's choice; NSG, IVF-Flat and a
   linear scan are interchangeable (Section V-A's substitutability
   remark).
3. ``C_DCE``: the DCE ciphertexts of every vector, supporting exact
   distance *comparisons* at 4x plaintext-distance cost.

Vector ``i`` in the plaintext database corresponds to row ``i`` of
``C_SAP``, id ``i`` of the backend and entry ``i`` of ``C_DCE``; the
filter phase returns backend ids that the refine phase uses to look up
DCE ciphertexts directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.backends import FilterBackend
from repro.core.dce import DCEEncryptedDatabase
from repro.core.errors import CiphertextFormatError, ParameterError
from repro.core.filterengine import get_filter_engine

__all__ = ["EncryptedIndex", "IndexSizeReport"]


class _FilterView(NamedTuple):
    """The filter-phase state, swapped atomically on compaction.

    A reader (``filter_search``) grabs the whole tuple once, so it can
    never observe a new backend paired with a stale id map while a
    compaction swap is in flight.  ``live_ids`` is ``None`` for the
    common identity case (backend id == global id, the pre-compaction
    layout); after a compaction it maps the rebuilt backend's local ids
    back to global ids, exactly like a shard's ``global_ids``.
    """

    backend: FilterBackend
    live_ids: "np.ndarray | None"
    local_of: "dict[int, int] | None"


@dataclass(frozen=True)
class IndexSizeReport:
    """Server-side storage accounting (Section V-C, "Space Complexity").

    All counts are in floats (8 bytes each at float64).  The paper's
    accounting: ``C_SAP`` costs the same as the plaintext database (n*d),
    ``C_DCE`` costs ``(8 + 64/d)`` times that, and the graph is O(n*m).
    """

    num_vectors: int
    dim: int
    sap_floats: int
    dce_floats: int
    graph_edges: int

    @property
    def plaintext_floats(self) -> int:
        """Floats the plaintext database would occupy."""
        return self.num_vectors * self.dim

    @property
    def dce_overhead_ratio(self) -> float:
        """``C_DCE`` size over plaintext size; paper predicts ``8 + 64/d``."""
        if self.plaintext_floats == 0:
            return 0.0
        return self.dce_floats / self.plaintext_floats

    @property
    def total_floats(self) -> int:
        """Total float storage excluding graph adjacency."""
        return self.sap_floats + self.dce_floats


class EncryptedIndex:
    """The server-side triplet ``(C_SAP, backend(C_SAP), C_DCE)``.

    Instances are produced by :class:`repro.core.roles.DataOwner` (build)
    and mutated only through :mod:`repro.core.maintenance` (insert /
    delete).  The server reads but never decrypts.

    The second component is any :class:`FilterBackend` — one of the
    index classes, such as :class:`~repro.hnsw.graph.HNSWIndex`.
    """

    def __init__(
        self,
        sap_vectors: np.ndarray,
        backend: FilterBackend,
        dce_database: DCEEncryptedDatabase,
        live_ids: np.ndarray | None = None,
        retired: "frozenset[int] | set[int] | tuple[int, ...]" = (),
    ) -> None:
        sap_vectors = np.asarray(sap_vectors, dtype=np.float64)
        if sap_vectors.ndim != 2:
            raise CiphertextFormatError(
                f"C_SAP must be a (n, d) array, got shape {sap_vectors.shape}"
            )
        if sap_vectors.shape[0] != len(dce_database):
            raise CiphertextFormatError(
                f"C_SAP has {sap_vectors.shape[0]} rows but C_DCE has "
                f"{len(dce_database)} entries"
            )
        retired = frozenset(int(i) for i in retired)
        if live_ids is None:
            if retired:
                raise CiphertextFormatError(
                    "retired ids require an explicit live_ids map"
                )
            if backend.vectors.shape[0] != sap_vectors.shape[0]:
                raise CiphertextFormatError(
                    f"backend indexes {backend.vectors.shape[0]} vectors but "
                    f"C_SAP has {sap_vectors.shape[0]}"
                )
            local_of = None
        else:
            live_ids = np.asarray(live_ids, dtype=np.int64)
            if backend.vectors.shape[0] != live_ids.size:
                raise CiphertextFormatError(
                    f"backend indexes {backend.vectors.shape[0]} vectors but "
                    f"the live_ids map names {live_ids.size}"
                )
            if live_ids.size + len(retired) != sap_vectors.shape[0]:
                raise CiphertextFormatError(
                    f"live ({live_ids.size}) + retired ({len(retired)}) ids "
                    f"must cover all {sap_vectors.shape[0]} C_SAP rows"
                )
            local_of = {int(g): i for i, g in enumerate(live_ids.tolist())}
            if len(local_of) != live_ids.size or not retired.isdisjoint(local_of):
                raise CiphertextFormatError(
                    "live_ids must be unique and disjoint from retired ids"
                )
        self._sap = sap_vectors
        self._view = _FilterView(backend, live_ids, local_of)
        self._dce = dce_database
        self._tombstones: set[int] = set()
        self._retired: set[int] = set(retired)
        #: Optional :class:`~repro.core.build.BuildReport` attached by the
        #: construction pipeline (DataOwner.build_index) and by
        #: persistence when the on-disk file carried build metadata.
        self.build_report = None

    # -- accessors -------------------------------------------------------------

    @property
    def sap_vectors(self) -> np.ndarray:
        """The DCPE ciphertexts (``C_SAP``)."""
        return self._sap

    @property
    def backend(self) -> FilterBackend:
        """The filter-phase backend over ``C_SAP``."""
        return self._view.backend

    @property
    def backend_kind(self) -> str:
        """The backend's registry kind (``hnsw``, ``nsg``, ...)."""
        return self._view.backend.kind

    @property
    def live_ids(self) -> np.ndarray | None:
        """Backend-local -> global id map, or ``None`` pre-compaction.

        Before the first compaction the backend indexes every ``C_SAP``
        row, so backend ids *are* global ids and no map is kept.  After a
        compaction the backend only holds the surviving rows and this
        array maps its local ids back to the stable global ids — the ids
        the refine phase, the DCE database and the serving layer speak.
        """
        return self._view.live_ids

    @property
    def dce_database(self) -> DCEEncryptedDatabase:
        """The DCE ciphertexts (``C_DCE``)."""
        return self._dce

    @property
    def dim(self) -> int:
        """Plaintext / DCPE-ciphertext dimensionality."""
        return int(self._sap.shape[1])

    @property
    def tombstones(self) -> frozenset[int]:
        """Ids deleted by :mod:`repro.core.maintenance` but not yet
        compacted away — still occupying backend slots."""
        return frozenset(self._tombstones)

    @property
    def retired(self) -> frozenset[int]:
        """Ids a compaction removed from the backend for good.

        Unlike tombstones these no longer occupy backend slots; they are
        recorded so global ids are never reassigned and old journal
        segments / cached results referring to them stay unambiguous.
        """
        return frozenset(self._retired)

    def __len__(self) -> int:
        return (
            int(self._sap.shape[0]) - len(self._retired) - len(self._tombstones)
        )

    def is_live(self, vector_id: int) -> bool:
        """Whether ``vector_id`` is present and not deleted."""
        return (
            0 <= vector_id < self._sap.shape[0]
            and vector_id not in self._tombstones
            and vector_id not in self._retired
        )

    def live_mask(self) -> np.ndarray:
        """Boolean liveness per id slot — amortizes :meth:`is_live` for
        batch answering (one array build instead of per-candidate calls)."""
        mask = np.ones(self._sap.shape[0], dtype=bool)
        for dead in (self._tombstones, self._retired):
            if dead:
                mask[np.fromiter(dead, dtype=np.int64)] = False
        return mask

    # -- the filter phase --------------------------------------------------------

    def filter_search(
        self,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats=None,
        engine=None,
    ) -> tuple[np.ndarray, np.ndarray, tuple | None]:
        """Filter-phase k'-ANNS over ``C_SAP``.

        Returns ``(ids, dists, shard_timings)`` nearest-first; the third
        element is always ``None`` for a monolithic index — the sharded
        index (:class:`~repro.core.sharding.ShardedEncryptedIndex`)
        answers the same call by scatter-gather and fills it in.
        ``engine`` selects the filter engine (name, instance or ``None``
        for the default — see :mod:`repro.core.filterengine`); every
        engine returns bit-identical results.
        """
        # One read of the swap-atomic view: a concurrent compaction can
        # replace self._view but never mutate the tuple we hold.
        view = self._view
        ids, dists = get_filter_engine(engine).search(
            view.backend, sap_query, k_prime, ef_search=ef_search, stats=stats
        )
        if view.live_ids is not None and ids.size:
            ids = np.where(ids >= 0, view.live_ids[np.clip(ids, 0, None)], ids)
        return ids, dists, None

    def filter_search_batch(
        self,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list=None,
        engine=None,
    ) -> list[tuple[np.ndarray, np.ndarray, tuple | None]]:
        """Filter-phase k'-ANNS for a whole micro-batch of queries.

        One ``(ids, dists, shard_timings)`` tuple per query, in order —
        the per-query contract of :meth:`filter_search`, but the engine
        may answer the batch with one kernel where the backend supports
        it (``vectorized`` engine: one GEMM on brute force, one GEMM per
        probed posting list on IVF, a lockstep beam search on the graph
        backends).  Results are
        bit-identical to looping :meth:`filter_search`.
        """
        view = self._view
        results = get_filter_engine(engine).search_batch(
            view.backend, sap_queries, k_prime, ef_search=ef_search,
            stats_list=stats_list,
        )
        out: list[tuple[np.ndarray, np.ndarray, tuple | None]] = []
        for ids, dists in results:
            if view.live_ids is not None and ids.size:
                ids = np.where(ids >= 0, view.live_ids[np.clip(ids, 0, None)], ids)
            out.append((ids, dists, None))
        return out

    # -- maintenance routing (used by repro.core.maintenance) --------------------

    def backend_insert(self, sap_row: np.ndarray, level: int | None = None) -> int:
        """Insert one DCPE row into the filter backend; returns its global id.

        ``level`` forces the HNSW level draw during journal replay
        (:mod:`repro.core.journal`); other backend kinds ignore it.
        """
        view = self._view
        if view.backend.kind == "hnsw":
            local = view.backend.insert(sap_row, level=level)
        else:
            local = view.backend.insert(sap_row)
        if view.live_ids is None:
            return int(local)
        global_id = int(self._sap.shape[0])
        live_ids = np.append(view.live_ids, global_id)
        local_of = dict(view.local_of)
        local_of[global_id] = int(local)
        self._view = _FilterView(view.backend, live_ids, local_of)
        return global_id

    def backend_mark_deleted(self, vector_id: int) -> None:
        """Delete ``vector_id`` (a global id) from the filter backend."""
        view = self._view
        local = vector_id if view.local_of is None else view.local_of[vector_id]
        view.backend.mark_deleted(local)

    def replay_level(self, vector_id: int) -> int:
        """The HNSW level assigned to ``vector_id``, or ``-1``.

        Journal inserts record this so replay can force the same level —
        the level draw is the only randomness in an HNSW insert, so
        forcing it makes replay bit-identical.  Non-HNSW backends are
        deterministic and return ``-1`` (meaning "draw normally", which
        for them is a no-op).
        """
        view = self._view
        if view.backend.kind != "hnsw":
            return -1
        local = vector_id if view.local_of is None else view.local_of[vector_id]
        return int(view.backend.node_level(local))

    # -- compaction (used by repro.core.maintenance) -----------------------------

    def compact(self, rng: np.random.Generator | None = None) -> int:
        """Rebuild the filter backend without tombstoned rows.

        Returns the number of tombstones dropped.  ``C_SAP`` and
        ``C_DCE`` keep their rows (global ids are never renumbered);
        only the backend shrinks, with :attr:`live_ids` mapping its new
        local ids back to global ids.  The swap is ordered so concurrent
        readers never resurrect a deleted id: tombstones move to
        :attr:`retired` *before* the new view is published, and are
        cleared from the tombstone set only after.
        """
        view = self._view
        tomb = set(self._tombstones)
        if not tomb:
            return 0
        n = int(self._sap.shape[0])
        if view.live_ids is None:
            current = np.arange(n, dtype=np.int64)
        else:
            current = view.live_ids
        keep = current[~np.isin(current, np.fromiter(tomb, dtype=np.int64))]
        if keep.size == 0:
            raise ParameterError(
                "cannot compact an index down to zero live vectors"
            )
        new_backend = view.backend.rebuild(self._sap[keep], rng=rng)
        local_of = {int(g): i for i, g in enumerate(keep.tolist())}
        self._retired |= tomb
        self._view = _FilterView(new_backend, keep, local_of)
        self._tombstones -= tomb
        return len(tomb)

    # -- mutation (used by repro.core.maintenance only) --------------------------

    def _append(self, sap_row: np.ndarray, dce_db: DCEEncryptedDatabase) -> None:
        self._sap = np.vstack([self._sap, sap_row[np.newaxis]])
        self._dce = dce_db

    def _mark_deleted(self, vector_id: int) -> None:
        self._tombstones.add(vector_id)

    # -- reporting ----------------------------------------------------------------

    def size_report(self) -> IndexSizeReport:
        """Storage accounting for the three index components."""
        return IndexSizeReport(
            num_vectors=self._sap.shape[0],
            dim=self.dim,
            sap_floats=int(self._sap.size),
            dce_floats=int(self._dce.components.size),
            graph_edges=self._view.backend.edge_count(),
        )
