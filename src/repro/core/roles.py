"""The three participants of the system model (Section II-A, Figure 1).

* :class:`DataOwner` — holds the plaintext database and all secret keys;
  encrypts the database under DCPE and DCE, builds the filter backend
  over the DCPE ciphertexts, and hands the resulting
  :class:`EncryptedIndex` to the server.  Also authorizes users by
  sharing the secret keys (step 0 in Figure 1).
* :class:`QueryUser` — holds the authorized keys; per query it computes
  only the two encryptions (``C_SAP(q)`` at O(d) and ``T_q`` at O(d^2))
  and decodes the returned ids.  This is property P3: minimal user
  involvement.  :meth:`QueryUser.encrypt_queries` encrypts a whole
  workload with matrix-matrix products — one BLAS call per phase instead
  of ``n`` matrix-vector products.
* :class:`CloudServer` — honest-but-curious; stores the encrypted index
  and answers :class:`EncryptedQuery` / :class:`EncryptedQueryBatch`
  messages with Algorithm 2.  It sees ciphertexts, index structure and
  comparison outcomes — nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.backends import build_backend
from repro.core.build import BUILD_MODES, BuildReport
from repro.core.dcpe import DCPEScheme, dcpe_keygen, DEFAULT_SCALE
from repro.core.dce import DCEScheme, DCETrapdoor
from repro.core.errors import ParameterError
from repro.core.filterengine import FilterEngine, get_filter_engine
from repro.core.index import EncryptedIndex
from repro.core.keys import DCEKey, DCPEKey
from repro.core.protocol import (
    EncryptedQuery,
    EncryptedQueryBatch,
    SearchRequest,
    SearchResult,
    SearchResultBatch,
)
from repro.core.refine import RefineEngine, get_refine_engine
from repro.core.search import execute_batch
from repro.core.sharding import (
    SHARD_STRATEGIES,
    ShardedEncryptedIndex,
    build_sharded_index,
)
from repro.hnsw.graph import HNSWParams

__all__ = ["SecretKeyBundle", "DataOwner", "QueryUser", "CloudServer"]


@dataclass(frozen=True)
class SecretKeyBundle:
    """The authorized secret key ``sk`` shared owner -> user (Figure 1 step 0)."""

    dim: int
    dce_key: DCEKey
    dcpe_key: DCPEKey


class DataOwner:
    """Owns the plaintext database and performs all encryption.

    Parameters
    ----------
    dim:
        Plaintext vector dimensionality.
    beta:
        DCPE perturbation budget (privacy/accuracy knob of Figure 4).
    scale:
        DCPE scaling factor; paper default 1024.
    hnsw_params:
        Graph construction parameters (used by the ``hnsw`` backend).
    backend:
        Filter-backend kind to build over the DCPE ciphertexts; one of
        :func:`repro.core.backends.available_backends`.
    backend_params:
        Construction parameters for non-HNSW backends (e.g.
        :class:`~repro.hnsw.nsg.NSGParams`).
    shards:
        Horizontal partition count for the filter structures; ``None``
        or ``1`` builds the monolithic index, ``>= 2`` builds a
        :class:`~repro.core.sharding.ShardedEncryptedIndex` whose filter
        phase scatter-gathers across shards.
    shard_strategy:
        Shard-assignment strategy recorded in the index (one of
        :data:`~repro.core.sharding.SHARD_STRATEGIES`).
    build_mode:
        HNSW build mode (one of :data:`repro.core.build.BUILD_MODES`),
        validated and recorded in the build report; both values run the
        same insert loop and build the same graph.
    rng:
        Randomness for key generation, encryption and index construction.
    """

    def __init__(
        self,
        dim: int,
        beta: float,
        scale: float = DEFAULT_SCALE,
        hnsw_params: HNSWParams | None = None,
        backend: str = "hnsw",
        backend_params=None,
        shards: int | None = None,
        shard_strategy: str = "round_robin",
        build_mode: str = "sequential",
        rng: np.random.Generator | None = None,
    ) -> None:
        if dim <= 0:
            raise ParameterError(f"dimension must be positive, got {dim}")
        if shards is not None and shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if shard_strategy not in SHARD_STRATEGIES:
            raise ParameterError(
                f"unknown shard strategy {shard_strategy!r}; "
                f"available: {', '.join(SHARD_STRATEGIES)}"
            )
        if build_mode not in BUILD_MODES:
            raise ParameterError(
                f"unknown build mode {build_mode!r}; "
                f"available: {', '.join(BUILD_MODES)}"
            )
        self._dim = dim
        self._rng = rng if rng is not None else np.random.default_rng()
        self._dce = DCEScheme(dim, rng=self._rng)
        self._dcpe = DCPEScheme(dim, dcpe_keygen(beta, scale, self._rng), rng=self._rng)
        self._hnsw_params = hnsw_params if hnsw_params is not None else HNSWParams()
        self._backend = backend
        self._backend_params = backend_params
        self._shards = shards
        self._shard_strategy = shard_strategy
        self._build_mode = build_mode

    @property
    def dim(self) -> int:
        """Plaintext dimensionality."""
        return self._dim

    @property
    def rng(self) -> np.random.Generator:
        """The owner's randomness source (shared with index builds)."""
        return self._rng

    @property
    def backend_kind(self) -> str:
        """The filter-backend kind this owner builds."""
        return self._backend

    @property
    def shards(self) -> int | None:
        """Configured shard count (None means monolithic)."""
        return self._shards

    @property
    def shard_strategy(self) -> str:
        """Configured shard-assignment strategy."""
        return self._shard_strategy

    @property
    def build_mode(self) -> str:
        """Configured HNSW construction path."""
        return self._build_mode

    @property
    def dce_scheme(self) -> DCEScheme:
        """The owner's DCE scheme instance (secret)."""
        return self._dce

    @property
    def dcpe_scheme(self) -> DCPEScheme:
        """The owner's DCPE scheme instance (secret)."""
        return self._dcpe

    def authorize_user(self) -> SecretKeyBundle:
        """Produce the key bundle a query user needs (Figure 1, step 0)."""
        return SecretKeyBundle(
            dim=self._dim,
            dce_key=self._dce.key,
            dcpe_key=self._dcpe.key,
        )

    def build_index(
        self,
        vectors: np.ndarray,
        shards: int | None = None,
        shard_strategy: str | None = None,
        build_mode: str | None = None,
    ) -> "EncryptedIndex | ShardedEncryptedIndex":
        """Encrypt the database and build the privacy-preserving index.

        This is steps B1 + B2 of Figure 3: DCE ciphertexts, DCPE
        ciphertexts, and the filter backend built over the *DCPE*
        ciphertexts.  ``shards`` / ``shard_strategy`` / ``build_mode``
        override the owner-level configuration for this build; with an
        effective shard count >= 2 the filter structures are partitioned
        into a :class:`~repro.core.sharding.ShardedEncryptedIndex` (the
        encryption steps are identical — shards only ever see
        ciphertexts).

        The returned index carries a
        :class:`~repro.core.build.BuildReport` (``build_report``) that
        splits the owner-side cost into ``encrypt_seconds`` (B1) and
        ``build_seconds`` (B2), with per-shard timings when sharded.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self._dim:
            raise ParameterError(
                f"expected a (n, {self._dim}) database, got shape {vectors.shape}"
            )
        shards = shards if shards is not None else self._shards
        strategy = shard_strategy if shard_strategy is not None else (
            self._shard_strategy
        )
        mode = build_mode if build_mode is not None else self._build_mode
        if shards is not None and shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if mode not in BUILD_MODES:
            raise ParameterError(
                f"unknown build mode {mode!r}; available: {', '.join(BUILD_MODES)}"
            )
        encrypt_start = time.perf_counter()
        sap = self._dcpe.encrypt_database(vectors)
        dce_db = self._dce.encrypt_database(vectors)
        encrypt_seconds = time.perf_counter() - encrypt_start
        params = self._backend_params
        if params is None and self._backend == "hnsw":
            params = self._hnsw_params
        if shards is not None and shards >= 2:
            index = build_sharded_index(
                sap,
                dce_db,
                backend=self._backend,
                num_shards=shards,
                strategy=strategy,
                rng=self._rng,
                params=params,
            )
            index.build_report.build_mode = mode
            index.build_report.encrypt_seconds = encrypt_seconds
            return index
        build_start = time.perf_counter()
        backend = build_backend(self._backend, sap, rng=self._rng, params=params)
        index = EncryptedIndex(sap, backend, dce_db)
        index.build_report = BuildReport(
            backend=self._backend,
            num_vectors=int(sap.shape[0]),
            dim=self._dim,
            shards=1,
            build_mode=mode,
            encrypt_seconds=encrypt_seconds,
            build_seconds=time.perf_counter() - build_start,
        )
        return index

    def encrypt_vector(self, vector: np.ndarray) -> tuple[np.ndarray, "np.ndarray"]:
        """Encrypt one new vector for insertion: ``(C_SAP(u), C_DCE(u))``.

        Returns the SAP row and the DCE ciphertext (see
        :func:`repro.core.maintenance.insert_vector`).
        """
        sap_row = self._dcpe.encrypt(vector)
        dce_ct = self._dce.encrypt(vector)
        return sap_row, dce_ct


class QueryUser:
    """An authorized query user.

    Per query the user performs exactly two encryptions and nothing else;
    the paper's user-side complexity is O(d^2), dominated by the trapdoor's
    matrix-vector products.  For a workload of n queries,
    :meth:`encrypt_queries` performs the same work as two matrix-matrix
    products, which BLAS executes far faster than n independent matvecs.
    """

    def __init__(
        self,
        keys: SecretKeyBundle,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._rng = rng if rng is not None else np.random.default_rng()
        self._dim = keys.dim
        self._dce = DCEScheme(keys.dim, rng=self._rng, key=keys.dce_key)
        self._dcpe = DCPEScheme(keys.dim, keys.dcpe_key, rng=self._rng)

    @property
    def dim(self) -> int:
        """Plaintext dimensionality."""
        return self._dim

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1 or query.shape[0] != self._dim:
            raise ParameterError(
                f"expected a 1-D query of dimension {self._dim}, "
                f"got shape {query.shape}"
            )
        return query

    def encrypt_query(
        self,
        query: np.ndarray,
        k: int,
        ratio_k: int | None = None,
        ef_search: int | None = None,
        mode: str = "full",
    ) -> EncryptedQuery:
        """Produce the query message ``(C_SAP(q), T_q, request)``.

        A ``filter_only`` query carries no trapdoor (the filter phase
        never compares under DCE), saving the user the O(d^2) TrapGen.
        """
        query = self._check_query(query)
        request = SearchRequest(k=k, ratio_k=ratio_k, ef_search=ef_search, mode=mode)
        sap = self._dcpe.encrypt(query)
        if mode == "filter_only":
            trapdoor = DCETrapdoor(np.zeros(0), self._dce.key_id)
        else:
            trapdoor = self._dce.trapdoor(query)
        return EncryptedQuery(sap_vector=sap, trapdoor=trapdoor, request=request)

    def encrypt_queries(
        self,
        queries: np.ndarray,
        k: int,
        ratio_k: int | None = None,
        ef_search: int | None = None,
        mode: str = "full",
    ) -> EncryptedQueryBatch:
        """Encrypt a whole ``(n, d)`` query workload in one vectorized pass.

        All DCPE ciphertexts are produced by one scale-and-perturb over
        the matrix and all DCE trapdoors by matrix-matrix products (see
        :meth:`repro.core.dce.DCEScheme.trapdoor_batch`), so the user-side
        cost per query drops well below the n-matvec loop.

        A ``filter_only`` batch carries no trapdoors at all — the filter
        phase never compares under DCE, so the message is just the DCPE
        ciphertexts and the request (and the upload accounting shrinks
        accordingly).
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self._dim:
            raise ParameterError(
                f"expected a (n, {self._dim}) query matrix, got shape {queries.shape}"
            )
        request = SearchRequest(k=k, ratio_k=ratio_k, ef_search=ef_search, mode=mode)
        sap = self._dcpe.encrypt_database(queries)
        if mode == "filter_only":
            trapdoors = np.zeros((queries.shape[0], 0))
        else:
            trapdoors = self._dce.trapdoor_batch(queries)
        return EncryptedQueryBatch(sap, trapdoors, self._dce.key_id, request)


class CloudServer:
    """The honest-but-curious server: stores the index, answers queries.

    Parameters
    ----------
    index:
        The encrypted index received from the data owner — monolithic or
        sharded; a :class:`~repro.core.sharding.ShardedEncryptedIndex`
        makes ``answer`` scatter-gather the filter phase across shards.
    default_ratio_k:
        ``k' = ratio_k * k`` used when a query doesn't specify ``k'``.
    refine_engine:
        Refine-stage engine for the full pipeline: an engine name
        (``"heap"`` / ``"vectorized"``) or instance; ``None`` selects
        :data:`repro.core.refine.DEFAULT_REFINE_ENGINE`.  Per-call
        overrides on :meth:`answer` take precedence.
    filter_engine:
        Filter-stage engine (k'-ANNS substrate): an engine name
        (``"heap"`` / ``"vectorized"``) or instance; ``None`` selects
        :data:`repro.core.filterengine.DEFAULT_FILTER_ENGINE`.  Both
        engines are bit-identical — the knob trades the seed's
        per-query beam search against the batched kernels.  Per-call
        overrides on :meth:`answer` take precedence.
    """

    def __init__(
        self,
        index: "EncryptedIndex | ShardedEncryptedIndex",
        default_ratio_k: int = 8,
        refine_engine: "str | RefineEngine | None" = None,
        filter_engine: "str | FilterEngine | None" = None,
    ) -> None:
        if default_ratio_k < 1:
            raise ParameterError(f"ratio_k must be >= 1, got {default_ratio_k}")
        self._index = index
        self._default_ratio_k = default_ratio_k
        self._refine_engine = get_refine_engine(refine_engine)
        self._filter_engine = get_filter_engine(filter_engine)

    @property
    def index(self) -> "EncryptedIndex | ShardedEncryptedIndex":
        """The server's stored index."""
        return self._index

    @property
    def default_ratio_k(self) -> int:
        """Default ``k'/k`` multiplier."""
        return self._default_ratio_k

    @property
    def refine_engine(self) -> str:
        """Name of the server's default refine engine."""
        return self._refine_engine.name

    @property
    def filter_engine(self) -> str:
        """Name of the server's default filter engine."""
        return self._filter_engine.name

    def close(self) -> None:
        """Release server-held resources (idempotent).

        The server holds none, so this is a no-op: a closed server still
        answers.  It stays so that callers can manage a server with
        ``with`` and close it unconditionally.
        """

    def __enter__(self) -> "CloudServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def default_ratio_for(self, mode: str) -> int:
        """Default ``k'/k`` by mode.

        The server's ``default_ratio_k`` is tuned for the refine pipeline;
        the ``filter_only`` reference method defaults to ``k' = k`` (the
        paper's HNSW(filter)), matching :meth:`answer_filter_only`.
        Public because the serving frontend resolves the same defaults
        for scheduler-formed micro-batches.
        """
        return 1 if mode == "filter_only" else self._default_ratio_k

    def compact(self, rng: "np.random.Generator | None" = None):
        """Drop tombstones from the stored index's filter structures.

        Server-side-only maintenance (like deletion): the rebuild runs
        over ciphertexts the server already holds, so no key material is
        involved.  Returns a
        :class:`~repro.core.maintenance.CompactionReport`.
        """
        from repro.core.maintenance import compact_index

        return compact_index(self._index, rng=rng)

    def serving_frontend(
        self,
        max_batch_size: int = 32,
        max_queue_depth: int = 1024,
    ):
        """An online :class:`~repro.serve.frontend.ServingFrontend` over this server.

        Requests submitted to the frontend enter a bounded admission
        queue (explicit backpressure via
        :class:`~repro.serve.frontend.QueueFullError`), a scheduler
        thread batches whatever is queued (up to ``max_batch_size``) as
        soon as it is free, and each batch runs the same amortized
        engine as :meth:`answer` on a pre-assembled batch.  See
        :mod:`repro.serve` for the knobs.
        """
        from repro.serve.frontend import ServingFrontend

        return ServingFrontend(
            self,
            max_batch_size=max_batch_size,
            max_queue_depth=max_queue_depth,
        )

    def answer(
        self,
        query: EncryptedQuery | EncryptedQueryBatch,
        ratio_k: int | None = None,
        ef_search: int | None = None,
        refine_engine: "str | RefineEngine | None" = None,
        filter_engine: "str | FilterEngine | None" = None,
    ) -> SearchResult | SearchResultBatch:
        """Run Algorithm 2 for one encrypted query or a whole batch.

        A single query is answered as a batch of one, so both forms run
        :func:`~repro.core.search.execute_batch`; a batch amortizes
        parameter resolution, the key check and liveness filtering
        across its queries, and its results are element-wise identical
        to answering each query alone.  ``refine_engine`` /
        ``filter_engine`` override the server's configured engines for
        this call (``filter_engine`` applies to every mode — the filter
        phase always runs).
        """
        if refine_engine is not None and query.request.mode == "filter_only":
            raise ParameterError(
                "refine_engine has no effect on a filter_only request "
                "(the refine phase is skipped entirely)"
            )
        single = isinstance(query, EncryptedQuery)
        batch = EncryptedQueryBatch.from_queries([query]) if single else query
        results = execute_batch(
            self._index,
            batch,
            default_ratio_k=self.default_ratio_for(batch.request.mode),
            ratio_k=ratio_k,
            ef_search=ef_search,
            refine_engine=(
                self._refine_engine if refine_engine is None else refine_engine
            ),
            filter_engine=(
                self._filter_engine if filter_engine is None else filter_engine
            ),
        )
        return results[0] if single else results

    def answer_filter_only(
        self,
        query: EncryptedQuery,
        ef_search: int | None = None,
        k_prime: int | None = None,
        filter_engine: "str | FilterEngine | None" = None,
    ) -> SearchResult:
        """Filter phase only (the paper's HNSW(filter) reference method).

        Answers ``query`` as a ``filter_only`` batch of one with
        ``k' = k_prime`` (``k' = k`` when omitted) and the given
        ``ef_search``, whatever ``ratio_k`` / ``ef_search`` the query
        itself carries.  ``k_prime`` must be a positive multiple of
        ``k``, because ``k' = ratio_k * k``; anything else raises
        :class:`ParameterError`.
        """
        k = query.k
        if k_prime is not None and (k_prime < k or k_prime % k):
            raise ParameterError(
                f"k' ({k_prime}) must be a positive multiple of k ({k})"
            )
        request = SearchRequest(
            k=k,
            ratio_k=1 if k_prime is None else k_prime // k,
            ef_search=ef_search,
            mode="filter_only",
        )
        return self.answer(
            replace(query, request=request), filter_engine=filter_engine
        )
