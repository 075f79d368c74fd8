"""Single-object facade over the full PP-ANNS scheme.

:class:`PPANNS` wires a :class:`DataOwner`, a :class:`QueryUser` and a
:class:`CloudServer` together in one process so experiments and examples
can exercise the complete pipeline (Figure 1) in a few lines::

    scheme = PPANNS(dim=128, beta=2.0, rng=rng)
    scheme.fit(database)
    ids = scheme.query(q, k=10, ratio_k=8)
    batch = scheme.query_batch(queries, k=10)     # batch-first path

The facade preserves the trust boundaries in spirit — the server object
only ever receives ciphertexts — while keeping everything addressable for
instrumentation.
"""

from __future__ import annotations

import os
import weakref

import numpy as np

from repro.core.errors import ParameterError
from repro.core.maintenance import compact_index, delete_vector, insert_vector
from repro.core.protocol import SearchResult, SearchResultBatch
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.hnsw.graph import HNSWParams

__all__ = ["PPANNS"]


class PPANNS:
    """The complete privacy-preserving k-ANNS scheme, end to end.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    beta:
        DCPE perturbation budget.  The paper tunes this per dataset so the
        filter-only recall ceiling is about 0.5; see
        :func:`repro.core.params.tune_beta`.
    scale:
        DCPE scaling factor (paper default 1024).
    hnsw_params:
        Graph construction parameters (for the default ``hnsw`` backend).
    backend:
        Filter-backend kind (``hnsw``, ``nsg``, ``ivf``, ``bruteforce``).
    backend_params:
        Construction parameters for non-HNSW backends.
    shards:
        Horizontal partition count for the filter structures (``None``
        or ``1`` keeps the monolithic index; ``>= 2`` scatter-gathers
        the filter phase — see :mod:`repro.core.sharding`).
    shard_strategy:
        Shard-assignment strategy (``round_robin`` or ``hash``).
    build_mode:
        HNSW build mode (``"sequential"`` or ``"bulk"``), recorded in
        the build report; both run the same insert loop and build the
        same graph.
    default_ratio_k:
        Default ``k'/k`` for queries.
    refine_engine:
        Refine-stage engine the server runs (``"heap"`` or
        ``"vectorized"``; ``None`` selects the default — see
        :mod:`repro.core.refine`).
    filter_engine:
        Filter-stage engine the server runs (``"heap"`` — the seed's
        per-query beam search — or ``"vectorized"`` — the batched
        kernels, bit-identical; ``None`` selects the
        default — see :mod:`repro.core.filterengine`).
    rng:
        Randomness for every component.
    """

    def __init__(
        self,
        dim: int,
        beta: float,
        scale: float = 1024.0,
        hnsw_params: HNSWParams | None = None,
        backend: str = "hnsw",
        backend_params=None,
        shards: int | None = None,
        shard_strategy: str = "round_robin",
        build_mode: str = "sequential",
        default_ratio_k: int = 8,
        refine_engine: str | None = None,
        filter_engine: str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng()
        self._owner = DataOwner(
            dim,
            beta=beta,
            scale=scale,
            hnsw_params=hnsw_params,
            backend=backend,
            backend_params=backend_params,
            shards=shards,
            shard_strategy=shard_strategy,
            build_mode=build_mode,
            rng=rng,
        )
        self._user = QueryUser(self._owner.authorize_user(), rng=rng)
        self._server: CloudServer | None = None
        self._default_ratio_k = default_ratio_k
        self._refine_engine = refine_engine
        self._filter_engine = filter_engine
        # Frontends created through serve(); held weakly so an
        # abandoned frontend doesn't outlive its callers, and flushed
        # on maintenance (cached results go stale on mutation).
        self._frontends: "weakref.WeakSet" = weakref.WeakSet()
        # Optional incremental-persistence journal (enable_journal);
        # mutations through insert()/delete() append delta segments.
        self._journal = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def owner(self) -> DataOwner:
        """The data owner (holds all secret keys)."""
        return self._owner

    @property
    def user(self) -> QueryUser:
        """The authorized query user."""
        return self._user

    @property
    def server(self) -> CloudServer:
        """The cloud server; available after :meth:`fit`."""
        if self._server is None:
            raise ParameterError("call fit() before using the server")
        return self._server

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._server is not None

    def fit(self, vectors: np.ndarray) -> "PPANNS":
        """Encrypt ``vectors`` and outsource the index to the server.

        Re-fitting replaces the server's index; a journal enabled for
        the previous index is detached (it describes state this index
        never had) — call :meth:`enable_journal` again to track the new
        one.
        """
        index = self._owner.build_index(vectors)
        self._server = CloudServer(
            index,
            default_ratio_k=self._default_ratio_k,
            refine_engine=self._refine_engine,
            filter_engine=self._filter_engine,
        )
        self._journal = None
        return self

    def close(self) -> None:
        """Close the server (idempotent; a no-op before :meth:`fit`)."""
        if self._server is not None:
            self._server.close()

    def __enter__(self) -> "PPANNS":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def enable_journal(self, path: str | os.PathLike) -> "PPANNS":
        """Persist the fitted index at ``path`` as a journaled v4 store.

        Writes the base snapshot now; every subsequent :meth:`insert` /
        :meth:`delete` appends a delta segment instead of rewriting the
        file, and :meth:`compact` folds the deltas into a fresh base.
        ``repro.core.persistence.load_index(path)`` restores the exact
        live state.
        """
        from repro.core.journal import IndexJournal

        self._journal = IndexJournal.create(path, self.server.index)
        return self

    @property
    def journal(self):
        """The active :class:`~repro.core.journal.IndexJournal`, or None."""
        return self._journal

    # -- querying -------------------------------------------------------------------

    def query(
        self,
        vector: np.ndarray,
        k: int,
        ratio_k: int | None = None,
        ef_search: int | None = None,
    ) -> np.ndarray:
        """Full round trip: encrypt, search, return neighbor ids."""
        return self.query_with_report(vector, k, ratio_k, ef_search).ids

    def query_with_report(
        self,
        vector: np.ndarray,
        k: int,
        ratio_k: int | None = None,
        ef_search: int | None = None,
    ) -> SearchResult:
        """Like :meth:`query` but returns the instrumented result."""
        encrypted = self._user.encrypt_query(vector, k)
        return self.server.answer(encrypted, ratio_k=ratio_k, ef_search=ef_search)

    def query_batch(
        self,
        vectors: np.ndarray,
        k: int,
        ratio_k: int | None = None,
        ef_search: int | None = None,
        mode: str = "full",
    ) -> SearchResultBatch:
        """Batch round trip: vectorized encryption, amortized answering.

        This is the throughput path — the user encrypts the whole
        workload with matrix products and the server amortizes per-batch
        setup (see :func:`repro.core.search.execute_batch`).
        """
        encrypted = self._user.encrypt_queries(
            vectors, k, ratio_k=ratio_k, ef_search=ef_search, mode=mode
        )
        return self.server.answer(encrypted)

    def serve(
        self,
        max_batch_size: int = 32,
        max_queue_depth: int = 1024,
        cache_size: int = 0,
        refine_engine: str | None = None,
        filter_engine: str | None = None,
    ):
        """An online serving frontend over the fitted server.

        Returns a :class:`~repro.serve.frontend.ServingFrontend`:
        submit encrypted queries one at a time and the server forms the
        micro-batches that amortize per-batch setup (whatever is queued,
        up to the size cap, bounded queue with
        :class:`~repro.serve.frontend.QueueFullError` backpressure,
        optional LRU result cache, live
        :class:`~repro.serve.metrics.ServerMetrics`)::

            with scheme.serve(max_batch_size=32) as frontend:
                future = frontend.submit(scheme.user.encrypt_query(q, k=10))
                ids = future.result().ids

        Frontends created here are tracked (weakly) by the facade:
        :meth:`insert` / :meth:`delete` flush their result caches
        automatically, since a cached answer can go stale on any index
        mutation.
        """
        frontend = self.server.serving_frontend(
            max_batch_size=max_batch_size,
            max_queue_depth=max_queue_depth,
            cache_size=cache_size,
            refine_engine=refine_engine,
            filter_engine=filter_engine,
        )
        self._frontends.add(frontend)
        return frontend

    def query_filter_only(
        self,
        vector: np.ndarray,
        k: int,
        ef_search: int | None = None,
        k_prime: int | None = None,
    ) -> SearchResult:
        """Filter-phase-only query (Figure 4 / HNSW(filter) reference)."""
        encrypted = self._user.encrypt_query(vector, k)
        return self.server.answer_filter_only(
            encrypted, ef_search=ef_search, k_prime=k_prime
        )

    # -- maintenance -------------------------------------------------------------------

    def _flush_serving_caches(self) -> None:
        """Flush tracked frontends serving the *current* server.

        Only frontends attached to the mutated index go stale; a
        frontend created before a re-``fit`` still answers over the old
        server object and its cache is untouched by mutations here.
        """
        for frontend in list(self._frontends):
            if frontend.server is self._server:
                frontend.cache_clear()

    def insert(self, vector: np.ndarray) -> int:
        """Insert one vector (owner encrypts, server links); returns its id.

        Flushes the result caches of frontends serving the mutated
        index — an insert can change any cached top-k — and appends a
        delta segment when a journal is enabled.
        """
        inserted = insert_vector(
            self._owner, self.server.index, vector, journal=self._journal
        )
        self._flush_serving_caches()
        return inserted

    def delete(self, vector_id: int) -> None:
        """Delete a vector server-side (Section V-D).

        Flushes the result caches of frontends serving the mutated
        index — cached answers may carry the tombstoned id — and
        appends a delta segment when a journal is enabled.
        """
        delete_vector(self.server.index, vector_id, journal=self._journal)
        self._flush_serving_caches()

    def compact(self):
        """Drop every tombstone from the filter structures (online).

        Rebuilds the backend (per shard when sharded) behind an atomic
        swap while tracked frontends keep answering, then flushes their
        result caches — the generation bump guarantees in-flight
        pre-compaction answers cannot repopulate them.  With a journal
        enabled the delta segments are folded into a fresh base
        generation.  Returns a
        :class:`~repro.core.maintenance.CompactionReport`.
        """
        report = compact_index(
            self.server.index, rng=self._owner.rng, journal=self._journal
        )
        self._flush_serving_caches()
        return report
