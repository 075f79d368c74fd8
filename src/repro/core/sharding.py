"""Horizontal partitioning of the encrypted corpus (scatter-gather serving).

The monolithic :class:`~repro.core.index.EncryptedIndex` holds one filter
backend over the whole ``C_SAP`` matrix, so build time, memory, and
per-query filter latency all grow with a single unpartitioned structure.
This module splits the corpus across ``N`` shards — each shard owning its
own :class:`~repro.core.backends.FilterBackend` over its slice of the
DCPE ciphertexts — and answers the filter phase by **scatter-gather**:

* **scatter** — the query's DCPE ciphertext fans out to every shard
  over the process-wide worker pool of :mod:`repro.core.executor`
  (kept after an A/B against a serial scatter; see that module);
* **gather** — per-shard candidate heaps come back as ``(global id,
  approximate distance)`` pairs and are merged into one global top-k'
  by distance (ties broken by id);
* **refine** — runs once, globally, over the merged candidates, exactly
  as in the unsharded pipeline.  ``C_DCE`` is never partitioned.

The decomposition is privacy-neutral: every shard sees only DCPE
ciphertexts — the same view the single server already had — and the
merge works on ciphertext-space distances the server could compute
anyway.  Shard assignment (:data:`SHARD_STRATEGIES`) keys on the public
vector id, never on plaintext content.

Global ids stay the single currency of the system: vector ``i`` is row
``i`` of ``C_SAP`` and entry ``i`` of ``C_DCE``; each shard keeps a
``global_ids`` map from its local backend ids back to the global space.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.backends import FilterBackend, build_backend
from repro.core.build import BuildReport, build_shard_backends
from repro.core.dce import DCEEncryptedDatabase
from repro.core.errors import CiphertextFormatError, ParameterError
from repro.core.executor import map_ordered
from repro.core.filterengine import FilterEngine, get_filter_engine
from repro.core.index import IndexSizeReport
from repro.core.protocol import ShardTiming
from repro.hnsw.graph import HNSWIndex, SearchStats

__all__ = [
    "SHARD_STRATEGIES",
    "assign_shards",
    "shard_of",
    "Shard",
    "ShardedEncryptedIndex",
    "build_sharded_index",
]

#: Registered shard-assignment strategies: ``round_robin`` (id modulo N,
#: perfectly balanced) and ``hash`` (splitmix64 of the id modulo N,
#: balanced in expectation and stable under arbitrary id growth).
SHARD_STRATEGIES = ("round_robin", "hash")

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """One splitmix64 mixing round — a cheap, high-quality integer hash."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def shard_of(strategy: str, global_id: int, num_shards: int) -> int:
    """The shard that owns ``global_id`` under ``strategy``."""
    if strategy == "round_robin":
        return global_id % num_shards
    if strategy == "hash":
        return _splitmix64(global_id) % num_shards
    raise ParameterError(
        f"unknown shard strategy {strategy!r}; available: {', '.join(SHARD_STRATEGIES)}"
    )


def _splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_splitmix64` over a uint64 array (wrapping mul)."""
    values = (values + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def assign_shards(num_vectors: int, num_shards: int, strategy: str) -> np.ndarray:
    """Shard assignment for ids ``0..num_vectors-1`` as an int64 array.

    Vectorized — the assignment sits on the build path of every sharded
    index, so it must not cost interpreter time per id.
    """
    if num_shards < 1:
        raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
    if strategy == "round_robin":
        return np.arange(num_vectors, dtype=np.int64) % num_shards
    if strategy == "hash":
        with np.errstate(over="ignore"):
            hashes = _splitmix64_array(np.arange(num_vectors, dtype=np.uint64))
        return (hashes % np.uint64(num_shards)).astype(np.int64)
    raise ParameterError(
        f"unknown shard strategy {strategy!r}; available: {', '.join(SHARD_STRATEGIES)}"
    )


# The scatter step draws from the process-wide worker pool in
# repro.core.executor; map_ordered keeps the gather deterministic.


class Shard:
    """One horizontal partition: a filter backend plus its id map.

    Attributes
    ----------
    shard_id:
        Position of this shard in the index's shard list.
    backend:
        The shard's :class:`FilterBackend` over its slice of ``C_SAP``,
        or ``None`` while the shard is empty (a backend is built lazily
        on the first insert).
    global_ids:
        ``global_ids[local]`` is the global vector id of the backend's
        local id ``local``; the inverse of the index's routing tables.
    """

    __slots__ = ("shard_id", "backend", "global_ids")

    def __init__(
        self,
        shard_id: int,
        backend: FilterBackend | None,
        global_ids: np.ndarray,
    ) -> None:
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if backend is None and global_ids.size:
            raise CiphertextFormatError(
                f"shard {shard_id} maps {global_ids.size} ids but has no backend"
            )
        if backend is not None and backend.vectors.shape[0] != global_ids.size:
            raise CiphertextFormatError(
                f"shard {shard_id} backend indexes {backend.vectors.shape[0]} "
                f"vectors but maps {global_ids.size} global ids"
            )
        self.shard_id = shard_id
        self.backend = backend
        self.global_ids = global_ids

    def __len__(self) -> int:
        return int(self.global_ids.size)

    def search(
        self,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None,
        stats: SearchStats,
        engine: FilterEngine,
    ) -> tuple[np.ndarray, np.ndarray, ShardTiming]:
        """Local k'-ANNS, mapped to global ids, with wall-clock timing.

        ``engine`` is the filter engine instance the index resolved.
        """
        start = time.perf_counter()
        if self.backend is None:
            ids = np.empty(0, dtype=np.int64)
            dists = np.empty(0)
        else:
            local_ids, dists = engine.search(
                self.backend, sap_query, k_prime, ef_search=ef_search, stats=stats
            )
            ids = self.global_ids[local_ids]
        timing = ShardTiming(
            shard_id=self.shard_id,
            seconds=time.perf_counter() - start,
            candidates=int(ids.shape[0]),
        )
        return ids, dists, timing

    def search_batch(
        self,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None,
        stats_list: "list[SearchStats] | None",
        engine: FilterEngine,
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[ShardTiming]]:
        """Local k'-ANNS for a micro-batch, mapped to global ids.

        One ``(ids, dists)`` pair and one :class:`ShardTiming` per
        query; the shard's wall clock is smeared evenly across the
        batch (a batched kernel answers all queries in one call).
        """
        start = time.perf_counter()
        count = int(np.asarray(sap_queries).shape[0])
        if self.backend is None:
            results = [
                (np.empty(0, dtype=np.int64), np.empty(0)) for _ in range(count)
            ]
        else:
            results = [
                (self.global_ids[ids], dists)
                for ids, dists in engine.search_batch(
                    self.backend,
                    sap_queries,
                    k_prime,
                    ef_search=ef_search,
                    stats_list=stats_list,
                )
            ]
        share = (time.perf_counter() - start) / max(1, count)
        timings = [
            ShardTiming(
                shard_id=self.shard_id, seconds=share, candidates=int(ids.shape[0])
            )
            for ids, _ in results
        ]
        return results, timings


class ShardedEncryptedIndex:
    """A sharded server-side index: ``(C_SAP, [shard backends], C_DCE)``.

    Duck-types :class:`~repro.core.index.EncryptedIndex` for everything
    the search engine, maintenance, and persistence layers need — the
    difference is that the filter phase scatter-gathers across shards
    instead of consulting one backend.  ``C_SAP`` and ``C_DCE`` remain
    global and id-aligned; only the filter structures are partitioned.

    Instances are produced by :func:`build_sharded_index` (via
    :meth:`repro.core.roles.DataOwner.build_index` with ``shards >= 2``)
    or loaded from a format-v3 file.
    """

    def __init__(
        self,
        sap_vectors: np.ndarray,
        shards: list[Shard],
        dce_database: DCEEncryptedDatabase,
        strategy: str = "round_robin",
        backend_params=None,
        rng: np.random.Generator | None = None,
        retired: "frozenset[int] | set[int] | tuple[int, ...]" = (),
        kind_hint: str | None = None,
    ) -> None:
        sap_vectors = np.asarray(sap_vectors, dtype=np.float64)
        if sap_vectors.ndim != 2:
            raise CiphertextFormatError(
                f"C_SAP must be a (n, d) array, got shape {sap_vectors.shape}"
            )
        if strategy not in SHARD_STRATEGIES:
            raise ParameterError(
                f"unknown shard strategy {strategy!r}; "
                f"available: {', '.join(SHARD_STRATEGIES)}"
            )
        if not shards:
            raise ParameterError("a sharded index needs at least one shard")
        num_vectors = sap_vectors.shape[0]
        if num_vectors != len(dce_database):
            raise CiphertextFormatError(
                f"C_SAP has {num_vectors} rows but C_DCE has "
                f"{len(dce_database)} entries"
            )
        kinds = {shard.backend.kind for shard in shards if shard.backend is not None}
        if len(kinds) > 1:
            raise CiphertextFormatError(
                f"shards mix backend kinds: {sorted(kinds)}"
            )
        retired = frozenset(int(i) for i in retired)
        # Routing tables: global id -> (owning shard, local backend id).
        # Retired ids (compacted away) legitimately map to -1; any other
        # unowned id is a corruption.
        shard_map = np.full(num_vectors, -1, dtype=np.int64)
        local_map = np.full(num_vectors, -1, dtype=np.int64)
        for shard in shards:
            shard_map[shard.global_ids] = shard.shard_id
            local_map[shard.global_ids] = np.arange(len(shard), dtype=np.int64)
        unowned = (
            set(int(i) for i in np.nonzero(shard_map < 0)[0]) if num_vectors else set()
        )
        if unowned != retired:
            raise CiphertextFormatError(
                f"{len(unowned.symmetric_difference(retired))} vector ids "
                f"disagree between shard ownership and the retired set"
            )
        self._sap = sap_vectors
        self._shards = shards
        self._dce = dce_database
        self._strategy = strategy
        self._backend_params = backend_params
        self._rng = rng if rng is not None else np.random.default_rng()
        self._shard_map = shard_map
        self._local_map = local_map
        self._tombstones: set[int] = set()
        self._retired: set[int] = set(retired)
        self._kind_hint = next(iter(kinds)) if kinds else kind_hint
        #: Optional :class:`~repro.core.build.BuildReport` attached by the
        #: construction pipeline (build_sharded_index / DataOwner) and by
        #: persistence when the on-disk file carried build metadata.
        self.build_report = None

    # -- accessors -------------------------------------------------------------

    @property
    def sap_vectors(self) -> np.ndarray:
        """The DCPE ciphertexts (``C_SAP``), global and id-aligned."""
        return self._sap

    @property
    def shards(self) -> tuple[Shard, ...]:
        """The shard list (read-only view)."""
        return tuple(self._shards)

    @property
    def num_shards(self) -> int:
        """Number of shards the corpus is partitioned into."""
        return len(self._shards)

    @property
    def strategy(self) -> str:
        """The recorded shard-assignment strategy."""
        return self._strategy

    @property
    def backend_kind(self) -> str:
        """The registry kind shared by every shard backend."""
        for shard in self._shards:
            if shard.backend is not None:
                return shard.backend.kind
        # Every shard may be empty (e.g. all rows compacted out of a
        # shard, or a fresh load of such an index) — fall back to the
        # kind recorded at construction / load time.
        if self._kind_hint is not None:
            return self._kind_hint
        raise CiphertextFormatError("index has no built shard backends")

    @property
    def dce_database(self) -> DCEEncryptedDatabase:
        """The DCE ciphertexts (``C_DCE``), global — refine is unsharded."""
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
        """Ids a compaction removed from their shard backend for good
        (see :attr:`EncryptedIndex.retired`); never reassigned."""
        return frozenset(self._retired)

    def __len__(self) -> int:
        return (
            int(self._sap.shape[0]) - len(self._retired) - len(self._tombstones)
        )

    def shard_assignment(self) -> np.ndarray:
        """``assignment[i]`` is the shard owning global id ``i`` (``-1``
        for retired ids)."""
        return self._shard_map.copy()

    def is_live(self, vector_id: int) -> bool:
        """Whether ``vector_id`` is present and not deleted."""
        return (
            0 <= vector_id < self._sap.shape[0]
            and vector_id not in self._tombstones
            and vector_id not in self._retired
        )

    def live_mask(self) -> np.ndarray:
        """Boolean liveness per global id slot (see ``EncryptedIndex``)."""
        mask = np.ones(self._sap.shape[0], dtype=bool)
        for dead in (self._tombstones, self._retired):
            if dead:
                mask[np.fromiter(dead, dtype=np.int64)] = False
        return mask

    # -- the scatter-gather filter phase ----------------------------------------

    def filter_search(
        self,
        sap_query: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
        engine=None,
    ) -> tuple[np.ndarray, np.ndarray, tuple[ShardTiming, ...]]:
        """Scatter the filter phase across shards and merge to global top-k'.

        Every shard runs its own k'-ANNS (so the merged pool always
        contains each shard's best candidates) and the gather step keeps
        the ``k_prime`` globally closest by approximate distance, ties
        broken by global id.  Returns ``(ids, dists, shard_timings)``
        nearest-first.  ``engine`` selects the filter engine each shard
        runs (see :mod:`repro.core.filterengine`); results are
        engine-independent.
        """
        engine = get_filter_engine(engine)
        shard_stats = [SearchStats() for _ in self._shards]
        outcomes = map_ordered(
            lambda pair: pair[0].search(sap_query, k_prime, ef_search, pair[1], engine),
            zip(self._shards, shard_stats),
        )
        if stats is not None:
            for local in shard_stats:
                stats.merge(local)
        timings = tuple(timing for _, _, timing in outcomes)
        all_ids = np.concatenate([ids for ids, _, _ in outcomes])
        all_dists = np.concatenate([dists for _, dists, _ in outcomes])
        order = np.lexsort((all_ids, all_dists))[:k_prime]
        return all_ids[order], all_dists[order], timings

    def filter_search_batch(
        self,
        sap_queries: np.ndarray,
        k_prime: int,
        ef_search: int | None = None,
        stats_list=None,
        engine=None,
    ) -> list[tuple[np.ndarray, np.ndarray, tuple[ShardTiming, ...]]]:
        """Scatter a whole micro-batch across shards, merge per query.

        Each shard answers the full batch in one call (batched kernels
        amortize within the shard), then every query's per-shard pools
        are merged exactly as in :meth:`filter_search` — so the results
        are bit-identical to looping it.
        """
        engine = get_filter_engine(engine)
        queries = np.asarray(sap_queries)
        count = int(queries.shape[0])
        per_shard_stats = [
            [SearchStats() for _ in range(count)] for _ in self._shards
        ]
        outcomes = map_ordered(
            lambda pair: pair[0].search_batch(
                queries, k_prime, ef_search, pair[1], engine
            ),
            zip(self._shards, per_shard_stats),
        )
        out: list[tuple[np.ndarray, np.ndarray, tuple[ShardTiming, ...]]] = []
        for row in range(count):
            if stats_list is not None and stats_list[row] is not None:
                for shard_stats in per_shard_stats:
                    stats_list[row].merge(shard_stats[row])
            all_ids = np.concatenate([results[row][0] for results, _ in outcomes])
            all_dists = np.concatenate([results[row][1] for results, _ in outcomes])
            order = np.lexsort((all_ids, all_dists))[:k_prime]
            timings = tuple(shard_timings[row] for _, shard_timings in outcomes)
            out.append((all_ids[order], all_dists[order], timings))
        return out

    # -- maintenance routing (used by repro.core.maintenance) --------------------

    def _lazy_build_params(self):
        """Construction parameters for a backend built on first insert.

        Falls back to a non-empty sibling shard's backend parameters
        when none were configured (e.g. after a v3 load, which persists
        backend state but not the original construction params), so the
        lazily built shard matches its siblings instead of silently
        using library defaults.
        """
        if self._backend_params is not None:
            return self._backend_params
        for shard in self._shards:
            if shard.backend is not None:
                return getattr(shard.backend, "params", None)
        return None

    def backend_insert(self, sap_row: np.ndarray, level: int | None = None) -> int:
        """Insert one DCPE row into the shard its new global id maps to.

        ``level`` forces the HNSW level draw during journal replay
        (:mod:`repro.core.journal`); other backend kinds ignore it.
        """
        global_id = int(self._sap.shape[0])
        target = shard_of(self._strategy, global_id, len(self._shards))
        shard = self._shards[target]
        row = np.asarray(sap_row, dtype=np.float64)
        kind = self.backend_kind
        if shard.backend is None:
            # First vector ever routed here: build the backend over it.
            # The HNSW path goes empty-graph-then-insert so a forced
            # replay level applies to the founding node too.
            if kind == "hnsw":
                shard.backend = HNSWIndex(
                    row.shape[0], self._lazy_build_params(), rng=self._rng
                )
                shard.backend.insert(row, level=level)
            else:
                shard.backend = build_backend(
                    kind,
                    row[np.newaxis],
                    rng=self._rng,
                    params=self._lazy_build_params(),
                )
            local_id = 0
        elif kind == "hnsw":
            local_id = shard.backend.insert(row, level=level)
        else:
            local_id = shard.backend.insert(row)
        shard.global_ids = np.append(shard.global_ids, global_id)
        self._shard_map = np.append(self._shard_map, target)
        self._local_map = np.append(self._local_map, local_id)
        return global_id

    def backend_mark_deleted(self, vector_id: int) -> None:
        """Route a deletion to the owning shard's backend (local id)."""
        shard = self._shards[int(self._shard_map[vector_id])]
        shard.backend.mark_deleted(int(self._local_map[vector_id]))

    def replay_level(self, vector_id: int) -> int:
        """The HNSW level assigned to ``vector_id``, or ``-1``
        (see :meth:`EncryptedIndex.replay_level`)."""
        if self.backend_kind != "hnsw":
            return -1
        shard = self._shards[int(self._shard_map[vector_id])]
        return int(shard.backend.node_level(int(self._local_map[vector_id])))

    # -- compaction (used by repro.core.maintenance) -----------------------------

    def compact_shard(
        self, shard_id: int, rng: np.random.Generator | None = None
    ) -> int:
        """Rebuild one shard's backend without its tombstoned rows.

        Returns the number of tombstones dropped from this shard.  The
        shard object is replaced wholesale — a concurrent filter search
        holding the old :class:`Shard` keeps a consistent
        (backend, global_ids) pair; the next search picks up the new
        one.  Tombstones move to :attr:`retired` before the swap so a
        deleted id can never be observed as live mid-compaction.
        """
        shard = self._shards[shard_id]
        tomb = {
            int(g)
            for g in self._tombstones
            if int(self._shard_map[int(g)]) == shard.shard_id
        }
        if shard.backend is None or not tomb:
            return 0
        current = shard.global_ids
        keep = current[~np.isin(current, np.fromiter(tomb, dtype=np.int64))]
        if keep.size:
            new_backend = shard.backend.rebuild(
                self._sap[keep], rng=rng if rng is not None else self._rng
            )
        else:
            new_backend = None
        new_shard = Shard(shard.shard_id, new_backend, keep)
        self._retired |= tomb
        self._shards[shard_id] = new_shard
        if tomb:
            dead = np.fromiter(tomb, dtype=np.int64)
            self._shard_map[dead] = -1
            self._local_map[dead] = -1
        if keep.size:
            self._local_map[keep] = np.arange(keep.size, dtype=np.int64)
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
        """Storage accounting; graph edges sum over every shard."""
        return IndexSizeReport(
            num_vectors=self._sap.shape[0],
            dim=self.dim,
            sap_floats=int(self._sap.size),
            dce_floats=int(self._dce.components.size),
            graph_edges=sum(
                shard.backend.edge_count()
                for shard in self._shards
                if shard.backend is not None
            ),
        )


def build_sharded_index(
    sap_vectors: np.ndarray,
    dce_database: DCEEncryptedDatabase,
    backend: str = "hnsw",
    num_shards: int = 2,
    strategy: str = "round_robin",
    rng: np.random.Generator | None = None,
    params=None,
) -> ShardedEncryptedIndex:
    """Partition encrypted data into shards and build a backend per shard.

    Shard backends build one after another (:mod:`repro.core.build`).

    Parameters
    ----------
    sap_vectors:
        The global ``(n, d)`` DCPE ciphertext matrix.
    dce_database:
        The global DCE ciphertexts (stays unsharded).
    backend:
        Filter-backend kind built inside every shard.
    num_shards:
        Number of partitions; must be >= 1.
    strategy:
        Shard-assignment strategy (one of :data:`SHARD_STRATEGIES`).
    rng:
        Randomness for backend construction.  Every shard builds from
        its own child generator derived via
        ``np.random.SeedSequence.spawn`` — a shard's backend is a pure
        function of its ciphertext slice and its child seed
        (brute-force shards are additionally seed-independent).  Two
        builds from the same generator still differ, as the spawn
        counter advances between calls.
    params:
        Backend construction parameters, shared by every shard.

    The returned index carries a
    :class:`~repro.core.build.BuildReport` (``build_report``) with the
    construction wall clock and per-shard timings;
    :meth:`repro.core.roles.DataOwner.build_index` fills in the
    encryption half of the split.
    """
    sap_vectors = np.asarray(sap_vectors, dtype=np.float64)
    assignment = assign_shards(sap_vectors.shape[0], num_shards, strategy)
    owned = [
        np.nonzero(assignment == shard_id)[0].astype(np.int64)
        for shard_id in range(num_shards)
    ]
    start = time.perf_counter()
    backends, timings = build_shard_backends(
        backend,
        sap_vectors,
        owned,
        rng=rng,
        params=params,
    )
    build_seconds = time.perf_counter() - start
    shards = [
        Shard(shard_id, shard_backend, ids)
        for shard_id, (shard_backend, ids) in enumerate(zip(backends, owned))
    ]
    index = ShardedEncryptedIndex(
        sap_vectors,
        shards,
        dce_database,
        strategy=strategy,
        backend_params=params,
        rng=rng,
    )
    index.build_report = BuildReport(
        backend=backend,
        num_vectors=int(sap_vectors.shape[0]),
        dim=int(sap_vectors.shape[1]) if sap_vectors.ndim == 2 else 0,
        shards=num_shards,
        build_seconds=build_seconds,
        shard_timings=timings,
    )
    return index
