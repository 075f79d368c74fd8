"""Hierarchical Navigable Small World graphs, from scratch.

Implements Malkov & Yashunin (TPAMI 2020): a multi-layer proximity graph
where layer assignment is geometric (``floor(-ln U * mL)``), upper layers
form a coarse navigation skeleton and layer 0 contains every vector.
Insertion greedily descends from the entry point, then runs an
``ef_construction``-wide beam search per layer and links to ``M`` diverse
neighbors chosen by the *heuristic* selection rule (Algorithm 4 of the
HNSW paper), which prunes candidates dominated by an already-selected
neighbor.

In the PP-ANNS scheme the vectors handed to this index are **DCPE
ciphertexts**, never plaintexts (Section V-A): the graph's edges then only
reflect approximate neighbor relations, which is part of the privacy
argument.  The index itself is metric-agnostic — it just sees vectors.

Search (``search``) is the standard layered beam search returning the
``ef_search``-quality top-k with per-query :class:`SearchStats` so the
evaluation harness can report distance-computation counts and hops.

Construction has one path: :meth:`HNSWIndex.build` draws every level
up front in one vectorized RNG call (the identical uniform stream the
per-insert draw consumes) and loops :meth:`HNSWIndex.insert`.  Both
:data:`BUILD_MODES` run that loop.  Below :data:`DENSE_ROW_MAX_NODES`
nodes an insert computes its distances to every existing node in one
kernel call, and its beam search reads each neighbor's distance from
that row instead of gathering and reducing per hop.  The row comes from
the same diff-einsum kernel, whose per-row reductions do not depend on
the row count, so every float the beam compares is the one the per-hop
gather would produce.  Neighbor selection answers its domination tests
from batched distance kernels: one kernel call per *selected* neighbor
instead of one per *candidate*.

Search has one per-query path and one batched path.
:meth:`HNSWIndex.search` walks the per-node ``list[list[int]]``
adjacency with a Python ``set`` for visited bookkeeping — Algorithm 1's
beam search, and the oracle every other path is tested against.
:meth:`HNSWIndex.search_batch` answers micro-batches of at least
:data:`LOCKSTEP_MIN_ROWS` queries with :func:`lockstep_beam_search`
over a **flat CSR snapshot of layer 0** (:class:`_SearchMode`), compiled
lazily per graph generation; smaller batches loop :meth:`search`, so
single-query traffic never compiles a snapshot.  Any adjacency mutation
bumps ``_adjacency_version``, which invalidates the snapshot; the next
lockstep batch recompiles it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import ClassVar, Mapping

import numpy as np

from repro.core.errors import DimensionMismatchError, ParameterError
from repro.hnsw.distance import squared_distances_to_many

__all__ = [
    "BUILD_MODES",
    "DENSE_ROW_MAX_NODES",
    "HNSWParams",
    "HNSWIndex",
    "LOCKSTEP_MIN_ROWS",
    "SearchStats",
    "sorted_id_array",
]

#: Accepted ``build`` modes.  Both run the same insert loop and build
#: the same graph; ``bulk`` additionally requires an empty graph.
BUILD_MODES = ("sequential", "bulk")

#: Largest node count at which ``insert`` computes one dense distance
#: row to every existing node; above it, the beam gathers and reduces
#: each hop's fresh neighbors.  The row costs O(n*d) per insert, the
#: per-hop gathers a numpy dispatch per expansion, so the row loses once
#: n outgrows the beam.  Microseconds per level-0 insert into an n-node
#: graph, dense row vs per-hop gather (deep profile, d=96, m=16,
#: ef_construction=200; median of 6 alternating repeats of 150 inserts;
#: 2-core host, Python 3.11 / numpy 2.4):
#:
#:   n          1500   3000   4000   5000   6000   12000
#:   dense      2108   2704   2878   3327   3678   5250
#:   gather     2792   3127   3165   3420   3451   3570
#:
#: The row stops winning between 5000 and 6000 nodes at d=96, and its
#: cost grows with d, so the constant sits below that.  The graph is
#: identical either way.  A code constant, not a knob: re-measure and
#: edit it here.
DENSE_ROW_MAX_NODES = 4096


def sorted_id_array(ids: "set[int]") -> np.ndarray:
    """A tombstone set as a sorted int64 array — one build, no id scan.

    Shared by every substrate's ``deleted_ids`` so the persisted
    ``*_deleted`` payloads cannot drift apart in dtype or empty-case
    handling.
    """
    if not ids:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.fromiter(ids, dtype=np.int64, count=len(ids)))


@dataclass(frozen=True)
class HNSWParams:
    """Construction parameters of an HNSW graph.

    Attributes
    ----------
    m:
        Out-degree target for layers >= 1; layer 0 allows ``2*m``.
        The paper's experiments use ``m=40`` on million-scale data; our
        scaled-down defaults follow the common ``m=16``.
    ef_construction:
        Beam width during insertion (paper: 600 at million scale).
    level_multiplier:
        ``mL`` of the geometric level distribution; defaults to
        ``1/ln(m)`` as recommended.
    extend_candidates:
        Whether the selection heuristic also examines neighbors of
        candidates (HNSW paper Algorithm 4 option).
    keep_pruned:
        Whether to backfill pruned candidates up to ``M`` links.
    """

    m: int = 16
    ef_construction: int = 200
    level_multiplier: float | None = None
    extend_candidates: bool = False
    keep_pruned: bool = True

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ParameterError(f"m must be >= 2, got {self.m}")
        if self.ef_construction < 1:
            raise ParameterError(
                f"ef_construction must be >= 1, got {self.ef_construction}"
            )

    @property
    def ml(self) -> float:
        """Effective level multiplier."""
        if self.level_multiplier is not None:
            return self.level_multiplier
        return 1.0 / math.log(self.m)

    def max_degree(self, level: int) -> int:
        """Maximum out-degree at ``level`` (``2m`` at level 0, ``m`` above)."""
        return 2 * self.m if level == 0 else self.m


@dataclass
class SearchStats:
    """Per-query instrumentation of a graph search.

    Attributes
    ----------
    distance_computations:
        Number of query-to-vector distance evaluations.
    hops:
        Number of node expansions across all layers.
    kernel_seconds:
        Wall seconds the ``vectorized`` filter engine spent inside the
        backend's search call; stays 0.0 on the oracle ``heap`` engine,
        mirroring ``RefineOutcome.kernel_seconds``.
    """

    distance_computations: int = 0
    hops: int = 0
    kernel_seconds: float = 0.0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another query's stats into this one."""
        self.distance_computations += other.distance_computations
        self.hops += other.hops
        self.kernel_seconds += other.kernel_seconds


@dataclass
class _Node:
    """Internal per-vector record: its top level and per-level adjacency."""

    level: int
    neighbors: list[list[int]] = field(default_factory=list)


class _SearchMode:
    """A flat CSR snapshot of the layer-0 adjacency for lockstep search.

    One ``(indptr, indices)`` int64 pair: ``indices[indptr[v] :
    indptr[v + 1]]`` is node ``v``'s layer-0 neighbor row, in exactly
    the order the list-of-lists holds — which is what keeps
    :func:`lockstep_beam_search`, its only reader, bit-identical to the
    oracle.  ``version`` pins the snapshot to the ``_adjacency_version``
    it was compiled from so a stale snapshot can never answer for a
    mutated graph.

    The epoch-stamped ``visited`` scratch lives here too, one per thread
    (searches on a shared index run concurrently under the thread
    executor): marking a node visited writes the current epoch into an
    int32 matrix, and "clearing" it for the next batch is a single epoch
    bump instead of an O(rows * n) refill.
    """

    __slots__ = ("version", "indptr", "indices", "_scratch")

    def __init__(self, version: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.version = version
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self._scratch = threading.local()

    def next_epoch_batch(self, count: int, rows: int) -> tuple[np.ndarray, int]:
        """This thread's ``(rows, count)`` visited scratch, advanced one
        epoch: one row per in-flight query, reused across micro-batches."""
        local = self._scratch
        visited = getattr(local, "batch_visited", None)
        if (
            visited is None
            or visited.shape[0] < rows
            or visited.shape[1] < count
        ):
            visited = np.zeros((max(rows, 1), max(count, 1)), dtype=np.int32)
            local.batch_visited = visited
            local.batch_epoch = 0
        epoch = local.batch_epoch + 1
        if epoch >= np.iinfo(np.int32).max:
            visited.fill(0)
            epoch = 1
        local.batch_epoch = epoch
        return visited, epoch


def compile_search_mode(
    version: int, rows: "list[list[int]] | list[tuple[int, ...]]"
) -> _SearchMode:
    """Compile per-node layer-0 neighbor rows into a :class:`_SearchMode`.

    ``rows[node]`` is node ``node``'s neighbor sequence.  Shared by the
    HNSW and NSG substrates so the CSR layout cannot drift between them.
    """
    counts = np.zeros(len(rows) + 1, dtype=np.int64)
    for node, adjacent in enumerate(rows):
        counts[node + 1] = len(adjacent)
    indptr = np.cumsum(counts, dtype=np.int64)
    indices = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
    )
    return _SearchMode(version, indptr, indices)


#: Fewest query rows ``search_batch`` answers in lockstep; smaller
#: batches loop the per-query oracle, which needs no snapshot.  Lockstep
#: amortizes numpy dispatch across rows, so it loses below a crossover.
#: Lockstep speedup over a loop of ``search`` on the same rows (deep
#: profile, k'=80, median of 40 interleaved repeats, 2-core host,
#: Python 3.11 / numpy 2.4):
#:
#:   rows          1     2     3     4     5     6     8     16    32
#:   HNSW n=1500   0.48  0.77  0.95  1.12  1.19  1.26  1.41  1.63  1.68
#:   NSG  n=3000   0.45  0.67  0.80  0.94  0.99  1.07  1.23  1.32  1.44
#:
#: 5 is the first row count at which neither substrate loses.  A code
#: constant, not a knob: re-measure and edit it here.
LOCKSTEP_MIN_ROWS = 5


def lockstep_beam_search(
    buffer: np.ndarray,
    node_count: int,
    queries: np.ndarray,
    entry_points: "list[int]",
    ef: int,
    mode: _SearchMode,
    stats_list: "list[SearchStats | None]",
) -> "list[list[tuple[float, int]]]":
    """All queries' layer-0 beams, advanced in lockstep rounds.

    Bit-identical per query to the oracle's layer-0 beam
    (``HNSWIndex._search_layer`` with one entry point, the loop inside
    ``NSGIndex.search``): every query replays its own pop / termination
    / accept sequence exactly.
    Each round, every still-active query pops one candidate, and the
    round's per-row work is fused across the batch — one 2D gather and
    scatter against the epoch-stamped visited matrix, and one
    subtract + einsum over the concatenated neighbor rows.  Per-row
    reductions are independent of batch composition, so the fused block
    yields the same distances the per-query calls would — only the
    numpy dispatch cost is amortized across the micro-batch.

    The one pacing difference from the single-query loop: a popped node
    whose neighbors are all visited makes the oracle pop again
    immediately, while here the query just sits out the rest of the
    round.  An empty expansion mutates nothing but the hop counter —
    which is charged at pop time either way — so the per-query state
    sequence is unchanged.  Queries terminate independently and drop
    out of the lockstep; shared by the HNSW and NSG substrates.
    """
    num = queries.shape[0]
    indptr = mode.indptr
    indices = mode.indices
    visited, epoch = mode.next_epoch_batch(node_count, num)
    push = heapq.heappush
    pop = heapq.heappop
    entry_ids = np.asarray(entry_points, dtype=np.int64)
    entry_diff = buffer.take(entry_ids, axis=0) - queries
    entry_dists = np.einsum("ij,ij->i", entry_diff, entry_diff)
    candidates: "list[list[tuple[float, int]]]" = []
    results: "list[list[tuple[float, int]]]" = []
    for row in range(num):
        stats = stats_list[row]
        if stats is not None:
            stats.distance_computations += 1
        dist = float(entry_dists[row])
        candidates.append([(dist, entry_points[row])])
        results.append([(-dist, entry_points[row])])
        visited[row, entry_points[row]] = epoch
    active = list(range(num))
    while active:
        survivors: "list[int]" = []
        expanded: "list[int]" = []
        blocks: "list[np.ndarray]" = []
        for row in active:
            cands = candidates[row]
            res = results[row]
            dist, node = pop(cands)
            if len(res) >= ef and dist > -res[0][0]:
                continue  # terminated: never requeued
            stats = stats_list[row]
            if stats is not None:
                stats.hops += 1
            survivors.append(row)
            adjacent = indices[indptr[node] : indptr[node + 1]]
            if adjacent.shape[0]:
                expanded.append(row)
                blocks.append(adjacent)
        if expanded:
            counts = [block.shape[0] for block in blocks]
            all_adjacent = np.concatenate(blocks)
            rep = np.repeat(np.asarray(expanded, dtype=np.intp), counts)
            fresh_mask = visited[rep, all_adjacent] != epoch
            all_fresh = all_adjacent[fresh_mask]
            rep_fresh = rep[fresh_mask]
            visited[rep_fresh, all_fresh] = epoch
            diff = buffer.take(all_fresh, axis=0) - queries.take(rep_fresh, axis=0)
            all_dists = np.einsum("ij,ij->i", diff, diff)
            starts = np.cumsum([0] + counts[:-1])
            widths = np.add.reduceat(fresh_mask, starts, dtype=np.intp)
            # One bulk conversion per round; the accept loops slice the
            # Python lists (cheaper than per-row array views + tolist).
            dist_values = all_dists.tolist()
            fresh_values = all_fresh.tolist()
            offset = 0
            for row, width in zip(expanded, widths.tolist()):
                if width == 0:
                    continue
                end = offset + width
                dists = dist_values[offset:end]
                fresh = fresh_values[offset:end]
                offset = end
                stats = stats_list[row]
                if stats is not None:
                    stats.distance_computations += width
                cands = candidates[row]
                res = results[row]
                if len(res) >= ef:
                    # Full beam: the bound only tightens, so the
                    # rejected tail never touches the heaps (same
                    # accepted multiset as the oracle loop).
                    bound = -res[0][0]
                    for neighbor_dist, neighbor in zip(dists, fresh):
                        if neighbor_dist < bound:
                            push(cands, (neighbor_dist, neighbor))
                            push(res, (-neighbor_dist, neighbor))
                            pop(res)
                            bound = -res[0][0]
                else:
                    bound = math.inf
                    for neighbor_dist, neighbor in zip(dists, fresh):
                        if neighbor_dist < bound or len(res) < ef:
                            push(cands, (neighbor_dist, neighbor))
                            push(res, (-neighbor_dist, neighbor))
                            if len(res) > ef:
                                pop(res)
                            bound = -res[0][0] if len(res) >= ef else math.inf
        active = [row for row in survivors if candidates[row]]
    return [sorted((-negated, item) for negated, item in res) for res in results]


class HNSWIndex:
    """An HNSW graph over a set of vectors.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    params:
        Construction parameters.
    rng:
        Randomness for level assignment.

    Notes
    -----
    Vectors are stored in insertion order and addressed by integer ids
    ``0..n-1``; the PP-ANNS scheme uses the same ids for the DCE ciphertext
    array, so the refine phase can cross-reference candidates directly.
    The class is the paper's default
    :class:`~repro.core.backends.FilterBackend`.
    """

    #: Backend kind: the registry key and the persisted ``backend_kind``.
    kind: ClassVar[str] = "hnsw"

    def __init__(
        self,
        dim: int,
        params: HNSWParams | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if dim <= 0:
            raise ParameterError(f"dimension must be positive, got {dim}")
        self._dim = dim
        self._params = params if params is not None else HNSWParams()
        self._rng = rng if rng is not None else np.random.default_rng()
        # Amortized-doubling storage so bulk builds avoid O(n^2) copying.
        self._buffer = np.empty((16, dim))
        self._nodes: list[_Node] = []
        self._entry_point: int | None = None
        self._max_level = -1
        self._deleted: set[int] = set()
        # Monotone counter bumped by every adjacency mutation; the CSR
        # search mode and the reverse-adjacency map key off it.
        self._adjacency_version = 0
        self._search_mode: "_SearchMode | None" = None
        # Lazily built target -> {(source, layer)} reverse-adjacency map
        # (None until first needed), maintained incrementally by the
        # neighbor-list write helpers.
        self._reverse: "dict[int, set[tuple[int, int]]] | None" = None

    # -- properties ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self._dim

    @property
    def params(self) -> HNSWParams:
        """Construction parameters."""
        return self._params

    @property
    def size(self) -> int:
        """Number of live (non-deleted) vectors."""
        return len(self._nodes) - len(self._deleted)

    @property
    def max_level(self) -> int:
        """Highest layer currently in the graph (-1 when empty)."""
        return self._max_level

    @property
    def entry_point(self) -> int | None:
        """Id of the current global entry point."""
        return self._entry_point

    @property
    def vectors(self) -> np.ndarray:
        """The stored vectors, including any deleted slots."""
        return self._buffer[: len(self._nodes)]

    def neighbors(self, node: int, level: int = 0) -> list[int]:
        """Out-neighbors of ``node`` at ``level`` (copy)."""
        record = self._nodes[node]
        if level > record.level:
            return []
        return list(record.neighbors[level])

    def node_level(self, node: int) -> int:
        """Top layer of ``node``."""
        return self._nodes[node].level

    def is_deleted(self, node: int) -> bool:
        """Whether ``node`` has been marked deleted."""
        return node in self._deleted

    # -- construction ---------------------------------------------------------

    def _level_of(self, uniform: float) -> int:
        # math.log, not np.log: numpy's SIMD log differs from the scalar
        # libm by 1 ulp on a small fraction of inputs, which would flip a
        # level whenever -log(u)*ml lands within that ulp of an integer.
        # max() guards against log(0).
        return int(-math.log(max(uniform, 1e-300)) * self._params.ml)

    def _draw_level(self) -> int:
        return self._level_of(self._rng.uniform(0.0, 1.0))

    def build(self, vectors: np.ndarray, mode: str = "sequential") -> "HNSWIndex":
        """Build the graph over ``vectors``; returns ``self`` for chaining.

        Every level is drawn up front in one vectorized RNG call (the
        identical uniform stream that one draw per :meth:`insert` would
        consume), then each row goes through :meth:`insert` with its
        level fixed, so ``build(rows)`` builds the graph ``for row in
        rows: insert(row)`` builds.  ``mode`` must be one of
        :data:`BUILD_MODES`; both run this loop, and ``bulk`` refuses a
        non-empty graph.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self._dim:
            raise DimensionMismatchError(self._dim, vectors.shape[-1], what="build input")
        if mode not in BUILD_MODES:
            raise ParameterError(
                f"unknown build mode {mode!r}; available: {', '.join(BUILD_MODES)}"
            )
        if mode == "bulk" and self._nodes:
            raise ParameterError(
                "bulk build requires an empty graph; use insert() to extend"
            )
        if vectors.shape[0] == 0:
            return self
        uniforms = self._rng.uniform(0.0, 1.0, size=vectors.shape[0])
        for row, uniform in zip(vectors, uniforms.tolist()):
            self.insert(row, level=self._level_of(uniform))
        return self

    def insert(self, vector: np.ndarray, level: int | None = None) -> int:
        """Insert one vector, returning its id.

        ``level`` forces the node's top level instead of drawing it from
        the RNG — the hook journal replay (:mod:`repro.core.journal`)
        uses to re-apply a recorded insertion deterministically.  With
        the level fixed, insertion is a pure function of the current
        graph state, so replaying the recorded level reproduces the
        exact adjacency the original insert built.

        Up to :data:`DENSE_ROW_MAX_NODES` existing nodes, the distances
        to all of them come from one kernel call, and the beam searches
        read them from that row instead of computing them per hop.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self._dim:
            raise DimensionMismatchError(self._dim, vector.shape[-1])
        node_id = len(self._nodes)
        if level is None:
            level = self._draw_level()
        elif level < 0:
            raise ParameterError(f"level must be >= 0, got {level}")
        if node_id >= self._buffer.shape[0]:
            grown = np.empty((2 * self._buffer.shape[0], self._dim))
            grown[:node_id] = self._buffer[:node_id]
            self._buffer = grown
        self._buffer[node_id] = vector
        self._nodes.append(
            _Node(level=level, neighbors=[[] for _ in range(level + 1)])
        )
        self._adjacency_version += 1  # node count changes the CSR shape
        if self._entry_point is None:
            self._entry_point = node_id
            self._max_level = level
            return node_id

        current = self._entry_point
        # Greedy descent through layers above the new node's level.
        for layer in range(self._max_level, level, -1):
            current = self._greedy_closest(vector, current, layer)
        # Beam search + heuristic linking on the remaining layers.
        ef = max(self._params.ef_construction, 1)
        row = (
            squared_distances_to_many(vector, self._buffer[:node_id]).tolist()
            if node_id <= DENSE_ROW_MAX_NODES
            else None
        )
        for layer in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(vector, [current], ef, layer, row=row)
            selected = self._select_neighbors(vector, candidates, self._params.m, layer)
            self._set_neighbor_list(node_id, layer, [item for _, item in selected])
            for _, neighbor in selected:
                self._link(neighbor, node_id, layer)
            if candidates:
                current = candidates[0][1]
        if level > self._max_level:
            self._max_level = level
            self._entry_point = node_id
        return node_id

    def _link(self, source: int, target: int, layer: int) -> None:
        """Add edge source->target at ``layer``, shrinking with the heuristic."""
        neighbor_list = self._nodes[source].neighbors[layer]
        if target in neighbor_list:
            return
        neighbor_list.append(target)
        self._adjacency_version += 1
        if self._reverse is not None:
            self._reverse.setdefault(target, set()).add((source, layer))
        max_degree = self._params.max_degree(layer)
        if len(neighbor_list) > max_degree:
            source_vector = self._buffer[source]
            dists = squared_distances_to_many(
                source_vector, self._buffer[neighbor_list]
            )
            candidates = sorted(zip(dists.tolist(), neighbor_list))
            selected = self._heuristic_prune_batched(candidates, max_degree)
            self._set_neighbor_list(source, layer, [item for _, item in selected])

    def _set_neighbor_list(
        self, source: int, layer: int, neighbor_ids: list[int]
    ) -> None:
        """Overwrite ``source``'s neighbor row at ``layer``.

        The single choke point for whole-row rewrites: it keeps the
        reverse-adjacency map consistent (when built) and bumps the
        adjacency version so the CSR search mode recompiles.
        """
        record = self._nodes[source]
        if self._reverse is not None:
            old = set(record.neighbors[layer])
            new = set(neighbor_ids)
            for target in old - new:
                entry = self._reverse.get(target)
                if entry is not None:
                    entry.discard((source, layer))
            for target in new - old:
                self._reverse.setdefault(target, set()).add((source, layer))
        record.neighbors[layer] = neighbor_ids
        self._adjacency_version += 1

    def _select_neighbors(
        self,
        vector: np.ndarray,
        candidates: list[tuple[float, int]],
        count: int,
        layer: int,
    ) -> list[tuple[float, int]]:
        """HNSW Algorithm 4: pick up to ``count`` diverse neighbors."""
        if self._params.extend_candidates:
            seen = {item for _, item in candidates}
            extended = list(candidates)
            for _, item in candidates:
                extension = (
                    self._nodes[item].neighbors[layer]
                    if layer <= self._nodes[item].level
                    else []
                )
                for neighbor in extension:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        dist = float(
                            squared_distances_to_many(
                                vector, self._buffer[neighbor][np.newaxis]
                            )[0]
                        )
                        extended.append((dist, neighbor))
            candidates = sorted(extended)
        return self._heuristic_prune_batched(candidates, count)

    def _heuristic_prune_batched(
        self,
        candidates: list[tuple[float, int]],
        count: int,
    ) -> list[tuple[float, int]]:
        """Keep candidates not dominated by an already-selected neighbor.

        A candidate ``c`` is dominated when some selected ``s`` satisfies
        ``dist(c, s) < dist(c, query_vector)`` — the core diversification
        rule that gives HNSW graphs their navigability.  Candidates are
        visited nearest-first; with ``keep_pruned``, dominated ones
        backfill the selection up to ``count``.

        Rather than one distance call per candidate against the selected
        set so far, each time a neighbor ``s`` is *selected* one kernel
        call computes ``dist(s, ·)`` to every candidate at once and ORs
        ``dist(s, c) < dist(c, q)`` into a per-candidate domination
        flag.  The predicate per (candidate, selected) pair, and the
        floats it compares, are those of the per-candidate loop; only
        the kernel-call count drops from O(#candidates) to O(#selected).
        """
        ordered = sorted(candidates)
        if not ordered:
            return []
        cand_ids = [item for _, item in ordered]
        cand_dists = np.array([dist for dist, _ in ordered])
        cand_vectors = self._buffer[cand_ids]
        dominated = np.zeros(len(ordered), dtype=bool)
        selected: list[tuple[float, int]] = []
        pruned: list[tuple[float, int]] = []
        for position, (dist, item) in enumerate(ordered):
            if len(selected) >= count:
                break
            if dominated[position]:
                pruned.append((dist, item))
                continue
            selected.append((dist, item))
            to_selected = squared_distances_to_many(
                cand_vectors[position], cand_vectors
            )
            dominated |= to_selected < cand_dists
        if self._params.keep_pruned:
            for dist, item in pruned:
                if len(selected) >= count:
                    break
                selected.append((dist, item))
        return selected

    # -- flat search mode (CSR) -------------------------------------------------

    def search_mode(self) -> _SearchMode:
        """The layer-0 CSR snapshot of the current adjacency, compiled lazily.

        Cached per graph generation: any adjacency mutation bumps
        ``_adjacency_version`` and the next call recompiles.
        :meth:`from_state` writes ``_nodes`` without the mutation
        helpers, which is safe because it fills a fresh graph before the
        first lockstep batch compiles anything.
        """
        mode = self._search_mode
        if mode is not None and mode.version == self._adjacency_version:
            return mode
        mode = compile_search_mode(
            self._adjacency_version,
            [record.neighbors[0] for record in self._nodes],
        )
        self._search_mode = mode
        return mode

    # -- search ----------------------------------------------------------------

    def _greedy_closest(self, query: np.ndarray, start: int, layer: int) -> int:
        """Greedy walk to a local minimum of distance-to-query at ``layer``."""
        current = start
        current_dist = float(
            squared_distances_to_many(query, self._buffer[current][np.newaxis])[0]
        )
        improved = True
        while improved:
            improved = False
            neighbor_ids = self._nodes[current].neighbors[layer]
            if not neighbor_ids:
                break
            dists = squared_distances_to_many(query, self._buffer[neighbor_ids])
            best = int(np.argmin(dists))
            if dists[best] < current_dist:
                current = neighbor_ids[best]
                current_dist = float(dists[best])
                improved = True
        return current

    def _search_layer(
        self,
        query: np.ndarray,
        entry_points: list[int],
        ef: int,
        layer: int,
        stats: SearchStats | None = None,
        row: "list[float] | None" = None,
    ) -> list[tuple[float, int]]:
        """Beam search at one layer; returns up to ``ef`` (dist, id) ascending.

        ``row`` is the query's distance to every node (an insert's dense
        row); without it, each expansion computes its fresh neighbors'
        distances with one gather and one kernel call.
        """
        push = heapq.heappush
        pop = heapq.heappop
        nodes = self._nodes
        visited = set(entry_points)
        if row is None:
            entry_dists = squared_distances_to_many(
                query, self._buffer[entry_points]
            ).tolist()
        else:
            entry_dists = [row[p] for p in entry_points]
        if stats is not None:
            stats.distance_computations += len(entry_points)
        candidates = list(zip(entry_dists, entry_points))
        heapq.heapify(candidates)  # min-heap by distance
        results = [(-d, p) for d, p in zip(entry_dists, entry_points)]
        heapq.heapify(results)  # max-heap via negation
        while len(results) > ef:
            pop(results)
        while candidates:
            dist, node = pop(candidates)
            if len(results) >= ef and dist > -results[0][0]:
                break
            if stats is not None:
                stats.hops += 1
            neighbor_ids = [
                n for n in nodes[node].neighbors[layer] if n not in visited
            ]
            if not neighbor_ids:
                continue
            visited.update(neighbor_ids)
            if row is None:
                dists = squared_distances_to_many(
                    query, self._buffer[neighbor_ids]
                ).tolist()
            else:
                dists = [row[n] for n in neighbor_ids]
            if stats is not None:
                stats.distance_computations += len(neighbor_ids)
            if len(results) >= ef:
                # Full beam: the bound only tightens, so rejected
                # neighbors never touch the heaps, and an accepted one
                # (strictly nearer than the bound) replaces the top.
                bound = -results[0][0]
                for neighbor_dist, neighbor in zip(dists, neighbor_ids):
                    if neighbor_dist < bound:
                        push(candidates, (neighbor_dist, neighbor))
                        heapq.heapreplace(results, (-neighbor_dist, neighbor))
                        bound = -results[0][0]
            else:
                for neighbor_dist, neighbor in zip(dists, neighbor_ids):
                    if len(results) < ef or neighbor_dist < -results[0][0]:
                        push(candidates, (neighbor_dist, neighbor))
                        push(results, (-neighbor_dist, neighbor))
                        if len(results) > ef:
                            pop(results)
        return sorted((-negated, item) for negated, item in results)

    def search(
        self,
        query: np.ndarray,
        k: int,
        ef_search: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k-ANN search: returns ``(ids, squared_distances)`` nearest-first.

        Parameters
        ----------
        query:
            Query vector (same space as the indexed vectors — DCPE
            ciphertexts in the PP-ANNS scheme).
        k:
            Number of neighbors to return.
        ef_search:
            Beam width at layer 0; defaults to ``max(k, 2m)``.  Larger
            values trade throughput for recall (the x-axis sweeps in the
            paper's figures).  When tombstones exist the layer-0 beam is
            widened by the tombstone count so deleted nodes sitting
            inside the beam cannot crowd live results below ``k`` (the
            widening is a no-op on a tombstone-free graph; compaction
            restores the narrow beam).
        stats:
            Optional accumulator for instrumentation.
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1 or query.shape[0] != self._dim:
            raise DimensionMismatchError(self._dim, query.shape[-1], what="query")
        if self._entry_point is None:
            return np.empty(0, dtype=np.int64), np.empty(0)
        ef = ef_search if ef_search is not None else max(k, 2 * self._params.m)
        if ef < k:
            raise ParameterError(f"ef_search ({ef}) must be >= k ({k})")
        current = self._entry_point
        for layer in range(self._max_level, 0, -1):
            current = self._greedy_closest(query, current, layer)
        beam = ef + len(self._deleted)
        found = self._search_layer(query, [current], beam, 0, stats=stats)
        live = [(dist, item) for dist, item in found if item not in self._deleted]
        top = live[:k]
        ids = np.array([item for _, item in top], dtype=np.int64)
        dists = np.array([dist for dist, _ in top])
        return ids, dists

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        ef_search: int | None = None,
        stats_list: "list[SearchStats] | None" = None,
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Multi-query :meth:`search` — bit-identical per query.

        Fewer than :data:`LOCKSTEP_MIN_ROWS` rows are a plain loop of
        :meth:`search` on the calling thread.  From the crossover up,
        every query descends the upper layers with the oracle's greedy
        walk and the layer-0 beams advance in lockstep: one node
        expansion per query per round, the round's distance blocks
        fused into a single gather + subtract + einsum over the
        concatenated neighbor rows (:func:`lockstep_beam_search`).
        Per-row reductions are independent of batch composition (the
        invariant an insert's dense distance row also relies on), and
        each query's pop/expand/accept sequence is untouched, so ids,
        distances and stats are exactly what :meth:`search` returns for
        that query alone; only the numpy dispatch cost is amortized
        across the micro-batch.  Queries finish independently: a beam
        that hits its termination bound drops out of the lockstep while
        the rest keep marching.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self._dim:
            raise DimensionMismatchError(
                self._dim, queries.shape[-1], what="query batch"
            )
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        num = queries.shape[0]
        if self._entry_point is None or num == 0:
            return [(np.empty(0, dtype=np.int64), np.empty(0)) for _ in range(num)]
        ef = ef_search if ef_search is not None else max(k, 2 * self._params.m)
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
        entries = []
        for row in range(num):
            current = self._entry_point
            for layer in range(self._max_level, 0, -1):
                current = self._greedy_closest(queries[row], current, layer)
            entries.append(current)
        found = lockstep_beam_search(
            self._buffer,
            len(self._nodes),
            queries,
            entries,
            beam,
            self.search_mode(),
            stats_list,
        )
        out = []
        for row in range(num):
            live = [
                (dist, item)
                for dist, item in found[row]
                if item not in self._deleted
            ]
            top = live[:k]
            out.append(
                (
                    np.array([item for _, item in top], dtype=np.int64),
                    np.array([dist for dist, _ in top]),
                )
            )
        return out

    # -- maintenance -------------------------------------------------------------

    def mark_deleted(self, node: int) -> None:
        """Section V-D deletion: unlink ``node``, tombstone it, and re-link
        each live in-neighbor with :meth:`repair_node` (ascending id)."""
        if not 0 <= node < len(self._nodes):
            raise IndexError(f"node {node} out of range")
        in_neighbors = self.in_neighbors(node)
        self.remove_edges_to(node)
        self._tombstone(node)
        for neighbor in in_neighbors:
            self.repair_node(neighbor)

    def _tombstone(self, node: int) -> None:
        """Mark ``node`` deleted so searches skip it (edges remain)."""
        self._deleted.add(node)
        if node == self._entry_point:
            self._reassign_entry_point()

    def _ensure_reverse(self) -> "dict[int, set[tuple[int, int]]]":
        """The target -> {(source, layer)} reverse-adjacency map.

        Built with one full scan on first use, then maintained
        incrementally by the neighbor-list write helpers — so
        :meth:`in_neighbors` and :meth:`remove_edges_to` are O(degree)
        per call instead of rescanning every edge in the graph.
        """
        if self._reverse is None:
            reverse: "dict[int, set[tuple[int, int]]]" = {}
            for source, record in enumerate(self._nodes):
                for layer, adjacent in enumerate(record.neighbors):
                    for target in adjacent:
                        reverse.setdefault(target, set()).add((source, layer))
            self._reverse = reverse
        return self._reverse

    def in_neighbors(self, node: int, layer: int = 0) -> list[int]:
        """Ids of live nodes with an edge *into* ``node`` at ``layer``.

        Ascending id order (the order the historical full-graph scan
        produced — deletion repair iterates this, so the order is part
        of the semantics).
        """
        reverse = self._ensure_reverse()
        return sorted(
            source
            for source, edge_layer in reverse.get(node, ())
            if edge_layer == layer and source != node and source not in self._deleted
        )

    def remove_edges_to(self, node: int) -> None:
        """Drop every edge pointing at ``node`` (deletion, Section V-D)."""
        reverse = self._ensure_reverse()
        for source, layer in sorted(reverse.pop(node, ())):
            self._nodes[source].neighbors[layer].remove(node)
        self._adjacency_version += 1

    def repair_node(self, node: int) -> None:
        """Re-link ``node`` by re-running neighbor selection on every layer.

        Used after a deletion disturbed this node's out-neighborhood
        (Section V-D: re-insert each in-neighbor of the deleted vector).
        """
        vector = self._buffer[node]
        entry = self._entry_point
        if entry is None or entry == node:
            return
        current = entry
        node_level = self._nodes[node].level
        for layer in range(self._max_level, node_level, -1):
            current = self._greedy_closest(vector, current, layer)
        ef = max(self._params.ef_construction, 1)
        for layer in range(min(node_level, self._max_level), -1, -1):
            candidates = self._search_layer(vector, [current], ef, layer)
            candidates = [
                (dist, item)
                for dist, item in candidates
                if item != node and item not in self._deleted
            ]
            selected = self._select_neighbors(vector, candidates, self._params.m, layer)
            self._set_neighbor_list(node, layer, [item for _, item in selected])
            for _, neighbor in selected:
                self._link(neighbor, node, layer)
            if candidates:
                current = candidates[0][1]

    def _reassign_entry_point(self) -> None:
        """Pick a new entry point after the old one was deleted."""
        best: int | None = None
        best_level = -1
        for candidate, record in enumerate(self._nodes):
            if candidate in self._deleted:
                continue
            if record.level > best_level:
                best = candidate
                best_level = record.level
        self._entry_point = best
        self._max_level = best_level

    # -- introspection -------------------------------------------------------------

    def deleted_ids(self) -> np.ndarray:
        """Sorted tombstoned ids as int64 (see :func:`sorted_id_array`)."""
        return sorted_id_array(self._deleted)

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(levels, edges)`` export for persistence.

        ``levels`` is ``(n,)`` int64; ``edges`` is ``(e, 3)`` int64 rows
        of ``(node, level, neighbor)`` ordered by node, then level, then
        neighbor-list position — the order ``docs/FORMATS.md`` specifies.
        Assembled from whole-array primitives (``fromiter`` over chained
        lists + ``repeat``) instead of a per-edge Python loop.
        """
        count = len(self._nodes)
        levels = np.fromiter(
            (node.level for node in self._nodes), dtype=np.int64, count=count
        )
        list_nodes: list[int] = []
        list_levels: list[int] = []
        list_lengths: list[int] = []
        chunks: list[list[int]] = []
        for node, record in enumerate(self._nodes):
            for level, adjacent in enumerate(record.neighbors):
                if adjacent:
                    list_nodes.append(node)
                    list_levels.append(level)
                    list_lengths.append(len(adjacent))
                    chunks.append(adjacent)
        if not chunks:
            return levels, np.empty((0, 3), dtype=np.int64)
        lengths = np.array(list_lengths, dtype=np.int64)
        targets = np.fromiter(
            itertools.chain.from_iterable(chunks),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        sources = np.repeat(np.array(list_nodes, dtype=np.int64), lengths)
        layers = np.repeat(np.array(list_levels, dtype=np.int64), lengths)
        return levels, np.column_stack((sources, layers, targets))

    def degree_histogram(self, layer: int = 0) -> dict[int, int]:
        """Histogram of out-degrees at ``layer`` over live nodes."""
        histogram: dict[int, int] = {}
        for node, record in enumerate(self._nodes):
            if node in self._deleted or layer > record.level:
                continue
            degree = len(record.neighbors[layer])
            histogram[degree] = histogram.get(degree, 0) + 1
        return histogram

    def edge_count(self, layer: int = 0) -> int:
        """Total directed edges at ``layer`` over live nodes."""
        return sum(
            len(record.neighbors[layer])
            for node, record in enumerate(self._nodes)
            if node not in self._deleted and layer <= record.level
        )

    # -- persistence and compaction ------------------------------------------------

    def rebuild(
        self, vectors: np.ndarray, rng: np.random.Generator | None = None
    ) -> "HNSWIndex":
        """A fresh graph over ``vectors`` with this graph's parameters
        (compaction drops tombstoned rows this way)."""
        return HNSWIndex(self._dim, self._params, rng=rng).build(vectors)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The ``graph_*`` arrays persisted with the index (``docs/FORMATS.md``).

        The vectors are not among them: they are the ``C_SAP`` rows the
        index file already holds, which :meth:`from_state` takes back.
        """
        levels, edges = self.adjacency_arrays()
        return {
            "graph_levels": levels,
            "graph_edges": edges,
            "graph_deleted": self.deleted_ids(),
            "graph_entry_point": np.array(
                [-1 if self._entry_point is None else self._entry_point],
                dtype=np.int64,
            ),
            "graph_params": np.array(
                [self._params.m, self._params.ef_construction], dtype=np.int64
            ),
        }

    @classmethod
    def from_state(
        cls, vectors: np.ndarray, data: Mapping[str, np.ndarray]
    ) -> "HNSWIndex":
        """The graph :meth:`state_arrays` described, over ``vectors``.

        The adjacency is written back as persisted; going through
        :meth:`insert` would re-run construction and change the edges.
        Format v1 files carried the vectors as ``graph_vectors``, which
        then win over ``vectors``.
        """
        vectors = np.asarray(data.get("graph_vectors", vectors), dtype=np.float64)
        levels = data["graph_levels"]
        m, ef_construction = (int(x) for x in data["graph_params"])
        graph = cls(vectors.shape[1], HNSWParams(m=m, ef_construction=ef_construction))
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
        return graph
