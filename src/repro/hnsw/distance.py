"""Squared-Euclidean distance kernels.

The paper measures everything in squared Euclidean distance
``dist(p, q) = sum_i (p_i - q_i)^2`` (Section II-C); squaring preserves
nearest-neighbor order and avoids the sqrt.  These helpers are the single
place distance computations happen, so operation accounting (a "normal
distance computation" = ``d`` MACs, against which DCE's ``4d+32`` is
compared) stays consistent across the library.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "squared_distance",
    "squared_distances_to_many",
    "pairwise_squared_distances",
    "gemm_topk_preselect",
    "distance_mac_count",
]


def distance_mac_count(dim: int) -> int:
    """Multiply-accumulate count of one plaintext distance computation."""
    return dim


def squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two 1-D vectors."""
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(diff @ diff)


def squared_distances_to_many(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Squared distances from one query to each row of ``vectors``.

    This is the hot path of graph search — one call per node expansion —
    so it stays a single fused numpy expression.
    """
    diff = vectors - query
    return np.einsum("ij,ij->i", diff, diff)


def pairwise_squared_distances(
    a: np.ndarray, b: np.ndarray, b_norms: np.ndarray | None = None
) -> np.ndarray:
    """All squared distances between rows of ``a`` (n, d) and ``b`` (m, d).

    Uses the ``||a||^2 - 2ab + ||b||^2`` expansion with clipping at zero
    (the expansion can go slightly negative in floats).  ``b_norms`` lets
    callers that sweep many query batches against one fixed matrix cache
    the per-row ``||b||^2`` term (shape ``(m,)``).

    Every step after the GEMM runs in place on its result, so the peak is
    one ``(n, m)`` array; the operations and their order are those of
    ``max(a_norms - 2 * (a @ b.T) + b_norms, 0)``, so the values are
    bit-identical to that expression.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_norms = np.einsum("ij,ij->i", a, a)[:, None]
    if b_norms is None:
        b_norms = np.einsum("ij,ij->i", b, b)
    out = a @ b.T
    np.multiply(out, 2.0, out=out)
    np.subtract(a_norms, out, out=out)
    np.add(out, b_norms[None, :], out=out)
    return np.maximum(out, 0.0, out=out)


def gemm_topk_preselect(approx_row, kk, exact_for, candidate_cap=None):
    """Tie-free top-``kk`` selection from approximate (GEMM) distances.

    ``approx_row`` holds norm-expansion distances whose float error
    against the per-row diff kernel is bounded well below a 1e-9
    relative slack.  Candidates within that slack of the ``kk``-th
    smallest approximate value are re-scored exactly via
    ``exact_for(positions)`` (which must use the same kernel the
    per-query oracle uses), and the selection is returned only when it
    is *provably* identical to a stable exact sort: any tie at or
    inside the boundary, or a boundary the candidate slack cannot
    cover, returns ``None`` so the caller falls back to the oracle
    path.  Returns ``(positions, exact_values)`` nearest-first.
    """
    thr = float(np.partition(approx_row, kk - 1)[kk - 1])
    eps = 1e-9 * (1.0 + float(approx_row.max()))
    cand = np.flatnonzero(approx_row <= thr + 2.0 * eps)
    if candidate_cap is not None and cand.shape[0] > candidate_cap:
        return None
    exact = exact_for(cand)
    order = np.argsort(exact, kind="stable")
    vals = exact[order]
    if vals.shape[0] > kk and vals[kk - 1] == vals[kk]:
        return None  # boundary tie with an excluded candidate
    top_vals = vals[:kk]
    if np.any(top_vals[1:] == top_vals[:-1]):
        return None  # tie inside the selection: oracle tie order differs
    if float(top_vals[-1]) >= thr + eps:
        return None  # candidate set does not provably cover the top-kk
    return cand[order[:kk]], top_vals
