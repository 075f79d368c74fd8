"""Pluggable refine-phase execution engines (Algorithm 2, lines 2-9).

The refine phase selects the top-k of the filter phase's k' candidates
using only DCE ``DistanceComp`` outcomes.  The paper analyses it as
``O(d k' log k)`` comparisons per query — and the straightforward
implementation pays a full interpreter round trip into
:func:`repro.core.dce.distance_comp` for every one of them, which is
what dominated the server's wall clock before this module existed.

Two engines implement the same contract behind the
:class:`RefineEngine` protocol:

* :class:`HeapRefineEngine` (``"heap"``) — the oracle-faithful
  reference: a k-bounded :class:`~repro.hnsw.heap.ComparisonMaxHeap`
  whose every comparison is one scalar ``DistanceComp`` call, exactly
  as the paper's server would evaluate it.  ``comparisons`` counts real
  oracle invocations.
* :class:`VectorizedRefineEngine` (``"vectorized"``, the default) —
  gathers the candidates' *p*-role ``C_DCE`` rows once, then replays
  the exact comparison-heap algorithm, answering each run of
  reject-against-the-current-top decisions with **one** batched
  pivot-vs-candidates kernel
  (:func:`repro.core.dce.distance_comp_block`, the regrouping
  :func:`repro.core.dce.distance_comp_many` also wraps) and the
  heap-maintenance comparisons with the scalar expression.  A batched
  sign is trusted only outside the kernel's rigorous rounding slack;
  the remainder is re-reduced with the scalar expression, so the
  returned ids — order included — are bit-identical to the heap engine
  at any data scale (property-tested in
  ``tests/strategies/test_refine_properties.py``), and its decision
  count is reported in ``comparisons`` as the equivalent-oracle-call
  estimate.  With the filter handing candidates over nearest-first
  (the serving path), the whole post-fill tail is a single BLAS matvec
  (``BENCH_refine.json``, written by
  ``benchmarks/bench_refine_engines.py``: 3.4-4.1x the heap engine on
  unit-scale gaussians, 4.9x on sift-scale data, 2-core host).

Both engines consume the candidate ids as the ``np.int64`` array the
filter phase produces — no per-element boxing into Python ints.

Engines are looked up by name through :func:`get_refine_engine`; the
knob threads through :class:`~repro.core.roles.CloudServer`,
:class:`~repro.core.scheme.PPANNS`, ``repro.core.search.execute_batch``
and the CLI's ``--refine-engine`` flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.dce import (
    DCEEncryptedDatabase,
    DCETrapdoor,
    distance_comp,
    distance_comp_block,
    p_role_rows,
)
from repro.core.errors import (
    DimensionMismatchError,
    KeyMismatchError,
    ParameterError,
)
from repro.hnsw.heap import ComparisonMaxHeap

__all__ = [
    "DEFAULT_REFINE_ENGINE",
    "REFINE_ENGINES",
    "RefineEngine",
    "RefineOutcome",
    "HeapRefineEngine",
    "VectorizedRefineEngine",
    "available_refine_engines",
    "get_refine_engine",
]


@dataclass(frozen=True)
class RefineOutcome:
    """What a refine engine returns for one query.

    Attributes
    ----------
    ids:
        The selected top-k candidate ids (``np.int64``), in the heap
        order both engines share.
    comparisons:
        Comparison-oracle decisions taken.  For the heap engine these
        are real ``DistanceComp`` calls; for the vectorized engine the
        same count is the equivalent-oracle-call estimate (the batched
        kernel answered them all up front).
    kernel_seconds:
        Wall clock spent inside batched numeric kernels (candidate
        gather + batched comparison scans, rechecks included).  Zero
        for the scalar heap engine.
    rechecks:
        Batched signs that fell inside the kernel's rounding slack and
        were re-reduced with the scalar oracle expression.  Zero for
        the scalar heap engine.
    """

    ids: np.ndarray
    comparisons: int
    kernel_seconds: float = 0.0
    rechecks: int = 0


@runtime_checkable
class RefineEngine(Protocol):
    """The refine-phase contract: comparison-only top-k over candidates."""

    name: str

    def refine(
        self,
        dce: DCEEncryptedDatabase,
        trapdoor: DCETrapdoor,
        candidate_ids: np.ndarray,
        k: int,
    ) -> RefineOutcome:
        """Select the top-``k`` of ``candidate_ids`` by DCE comparisons."""
        ...


def _as_id_array(candidate_ids: np.ndarray) -> np.ndarray:
    """The candidate ids as a 1-D ``int64`` array (no Python-int boxing)."""
    ids = np.asarray(candidate_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ParameterError(
            f"candidate ids must be a 1-D array, got shape {ids.shape}"
        )
    return ids


class HeapRefineEngine:
    """The oracle-faithful reference: one ``DistanceComp`` per decision.

    Every heap comparison is a scalar call into
    :func:`repro.core.dce.distance_comp` — exactly the access pattern
    the paper's server performs, which keeps its ``comparisons`` count a
    ground-truth oracle-call tally for the cost-model benchmarks.
    """

    name = "heap"

    def refine(
        self,
        dce: DCEEncryptedDatabase,
        trapdoor: DCETrapdoor,
        candidate_ids: np.ndarray,
        k: int,
    ) -> RefineOutcome:
        """Algorithm 2 lines 2-9, comparison by comparison."""
        ids = _as_id_array(candidate_ids)

        def is_farther(a: np.int64, b: np.int64) -> bool:
            return distance_comp(dce[a], dce[b], trapdoor) >= 0.0

        heap = ComparisonMaxHeap(k, is_farther)
        for candidate in ids:
            heap.offer(candidate)
        return RefineOutcome(
            ids=np.array(heap.items(), dtype=np.int64),
            comparisons=heap.oracle_calls,
        )


class VectorizedRefineEngine:
    """Batched pivot-vs-candidate comparisons, heap-faithful selection.

    The engine gathers the candidates' two *p*-role ``C_DCE`` rows once
    into one flat ``(m, 2(2d+16))`` matrix and answers comparisons in
    blocks through :func:`repro.core.dce.distance_comp_block`: the
    pivot's *o*-role rows are folded with the trapdoor into one weight
    vector, so a pivot-vs-candidates batch is a single matvec.

    It then replays Algorithm 2's heap **exactly**, but exploits its
    access pattern: once the heap is full, every candidate is first
    judged against the current heap top, and the top only changes when
    a candidate is accepted.  All consecutive rejections against one
    top are therefore a single batched *pivot-vs-candidates* sign
    kernel — one BLAS matvec per heap change instead of one interpreter
    round trip per candidate.  With the filter handing candidates over
    nearest-first (the serving path), the k nearest fill the heap first
    and the entire tail collapses into one matvec.

    A batched sign is trusted only where ``|z|`` clears the kernel's
    rounding slack — a rigorous bound on how far any regrouped
    reduction can sit from the scalar oracle's, whatever the data scale
    — and the rest (exact ties, true knife edges; ``rechecks`` counts
    them) are re-reduced with the oracle's own scalar expression —
    the same one the heap bookkeeping (fill-phase sift-ups, post-accept
    sift-downs) evaluates.  Every decision is therefore the oracle's,
    and the returned ids — order included — are bit-identical to
    :class:`HeapRefineEngine` (property-tested across value scales,
    ties included).

    ``comparisons`` counts exactly the decisions the serial heap would
    have made (scanned rejections + heap maintenance) — the
    equivalent-oracle-call estimate.
    """

    name = "vectorized"

    def refine(
        self,
        dce: DCEEncryptedDatabase,
        trapdoor: DCETrapdoor,
        candidate_ids: np.ndarray,
        k: int,
    ) -> RefineOutcome:
        """Algorithm 2 lines 2-9 with batched rejection scans."""
        ids = _as_id_array(candidate_ids)
        m = int(ids.shape[0])
        if m == 0:
            # Parity with the heap engine: an empty refine performs no
            # comparisons, so it cannot observe a key mismatch either
            # (the protocol layer key-checks every request up front).
            return RefineOutcome(ids=ids, comparisons=0)
        components = dce.components
        width = int(components.shape[2])
        vector = trapdoor.vector
        if m >= 2:
            # The scalar engine only observes a bad trapdoor on its
            # first comparison, and with >= 2 candidates at least one
            # comparison always happens; with fewer it performs none,
            # so neither engine raises then.
            if trapdoor.key_id != dce.key_id:
                raise KeyMismatchError(
                    "ciphertexts and trapdoor come from different keys"
                )
            if vector.shape[0] != width:
                raise DimensionMismatchError(
                    int(vector.shape[0]), width, what="DCE ciphertext"
                )
        kernel_start = time.perf_counter()
        # One contiguous gather of both p-role rows per candidate.  The
        # o-role rows are only ever needed for items that reach the heap
        # (~k + accepts of them), and those are read straight from C_DCE.
        p_rows, p_norms = p_role_rows(components[ids, 2:4])
        kernel_seconds = time.perf_counter() - kernel_start
        rechecks = 0

        def exact_z(a: int, b: int) -> float:
            # Bit-identical to distance_comp(dce[ids[a]], dce[ids[b]], t):
            # same elementwise expression, same 1-D ddot reduction.
            o = components[ids[a]]
            row = p_rows[b]
            return float((o[0] * row[:width] - o[1] * row[width:]) @ vector)

        heap = ComparisonMaxHeap(k, lambda a, b: exact_z(a, b) >= 0.0)
        offered = 0
        while offered < m and not heap.is_full():
            heap.offer(offered)
            offered += 1
        scanned = 0
        while offered < m:
            top = heap.top()
            scan_start = time.perf_counter()
            z, slack = distance_comp_block(
                components[ids[top], np.newaxis, 0:2],
                vector,
                p_rows[offered:],
                p_norms[offered:],
            )
            z, slack = z[0], slack[0]
            # Rows the batch does not reject outright, in offer order: a
            # trusted non-negative is the accept; an untrusted sign is
            # the oracle's to decide, and only up to the first accept.
            first = -1
            for row in np.flatnonzero(~(z < -slack)).tolist():
                if z[row] > slack[row]:
                    first = row
                    break
                rechecks += 1
                if exact_z(top, offered + row) >= 0.0:
                    first = row
                    break
            kernel_seconds += time.perf_counter() - scan_start
            if first < 0:
                scanned += int(z.shape[0])
                break
            scanned += first + 1
            heap.replace_top(offered + first)
            offered += first + 1
        return RefineOutcome(
            ids=ids[heap.items()],
            comparisons=heap.oracle_calls + scanned,
            kernel_seconds=kernel_seconds,
            rechecks=rechecks,
        )


#: Registered refine engines by name.
REFINE_ENGINES: dict[str, RefineEngine] = {
    HeapRefineEngine.name: HeapRefineEngine(),
    VectorizedRefineEngine.name: VectorizedRefineEngine(),
}

#: The serving default: the batched kernel (bit-identical to ``heap``).
DEFAULT_REFINE_ENGINE = VectorizedRefineEngine.name


def available_refine_engines() -> tuple[str, ...]:
    """Registered engine names, stable order (reference first)."""
    return tuple(REFINE_ENGINES)


def get_refine_engine(engine: "str | RefineEngine | None") -> RefineEngine:
    """Resolve an engine name (or pass an instance through).

    ``None`` resolves to :data:`DEFAULT_REFINE_ENGINE`.
    """
    if engine is None:
        return REFINE_ENGINES[DEFAULT_REFINE_ENGINE]
    if isinstance(engine, str):
        try:
            return REFINE_ENGINES[engine]
        except KeyError:
            raise ParameterError(
                f"unknown refine engine {engine!r}; "
                f"available: {', '.join(available_refine_engines())}"
            ) from None
    if isinstance(engine, RefineEngine):
        return engine
    raise ParameterError(
        f"refine engine must be a name or RefineEngine, got {type(engine)!r}"
    )
