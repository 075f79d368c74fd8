"""Distance Comparison Encryption (DCE) — Section IV of the paper.

DCE lets an untrusted server evaluate, for two encrypted database vectors
``o, p`` and an encrypted query ``q``::

    sign(dist(o, q) - dist(p, q))

*exactly*, while revealing nothing else (IND-KPA with comparison-result
leakage, Theorem 4).  It has two phases:

**Vector randomization** (steps 1-4, Equations 1-5) maps ``p`` in ``R^d``
to ``p_bar`` in ``R^{d+8}`` such that for a query's randomized vector
``q_bar``::

    p_bar . q_bar == ||p||^2 - 2 p.q           (Equation 5)

i.e. the squared distance to the query up to the shared ``||q||^2`` term,
which cancels in comparisons.

**Vector transformation** (Equations 8-16) hides ``p_bar`` behind the
split matrix ``M3`` and the ``kv`` masking vectors using the polarization
identity ``2a + 2b = (a+1)(b+1) - (a-1)(b-1)`` (Equation 6), producing four
component vectors per database vector and one trapdoor vector per query.
``DistanceComp`` then costs ``4d + 32`` multiply-accumulates — O(d), about
4x a plaintext distance — versus O(d^2) for AME.

Shapes (for plaintext dimension ``d``, padded to even):

==============  =======================  ==========
object          composition              floats
==============  =======================  ==========
ciphertext      4 vectors in R^{2d+16}   ``8d+64``
trapdoor        1 vector in R^{2d+16}    ``2d+16``
==============  =======================  ==========
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import CiphertextFormatError, DimensionMismatchError, KeyMismatchError
from repro.core.keys import DCEKey
from repro.crypto.matrices import random_invertible_matrix, split_rows
from repro.crypto.permutation import Permutation

__all__ = [
    "DCEScheme",
    "DCECiphertext",
    "DCETrapdoor",
    "DCEEncryptedDatabase",
    "dce_keygen",
    "distance_comp",
    "distance_comp_block",
    "distance_comp_many",
    "p_role_rows",
    "sdc_mac_count",
]


@dataclass(frozen=True)
class DCECiphertext:
    """DCE ciphertext ``C_p = (p'_1, p'_2, p'_3, p'_4)`` of one vector.

    ``components`` stacks the four vectors as a ``(4, 2d+16)`` array.
    Components 1-2 are used when the vector plays the *o* role (first
    argument of a comparison), components 3-4 for the *p* role.
    """

    components: np.ndarray
    key_id: int

    def __post_init__(self) -> None:
        if self.components.ndim != 2 or self.components.shape[0] != 4:
            raise CiphertextFormatError(
                f"DCE ciphertext must be a (4, 2d+16) array, got {self.components.shape}"
            )

    @property
    def ciphertext_dim(self) -> int:
        """Width ``2d+16`` of each component vector."""
        return int(self.components.shape[1])

    @property
    def size_in_floats(self) -> int:
        """Total float count (``8d + 64``)."""
        return int(self.components.size)


@dataclass(frozen=True)
class DCETrapdoor:
    """DCE trapdoor ``T_q`` for one query vector: one vector in R^{2d+16}."""

    vector: np.ndarray
    key_id: int

    def __post_init__(self) -> None:
        if self.vector.ndim != 1:
            raise CiphertextFormatError(
                f"DCE trapdoor must be a 1-D vector, got shape {self.vector.shape}"
            )

    @property
    def ciphertext_dim(self) -> int:
        """Width ``2d+16`` of the trapdoor vector."""
        return int(self.vector.shape[0])


class DCEEncryptedDatabase:
    """Column-stacked DCE ciphertexts of a whole database.

    Stores the four components of every vector's ciphertext as four
    ``(n, 2d+16)`` arrays so batched comparisons and micro-benchmarks can
    run vectorized, while :meth:`__getitem__` still hands out per-vector
    :class:`DCECiphertext` views for Algorithm 2's refine phase.
    """

    def __init__(self, components: np.ndarray, key_id: int) -> None:
        if components.ndim != 3 or components.shape[1] != 4:
            raise CiphertextFormatError(
                f"expected a (n, 4, 2d+16) array, got {components.shape}"
            )
        self._components = components
        self._key_id = key_id

    @property
    def key_id(self) -> int:
        """Tag of the key these ciphertexts were produced under."""
        return self._key_id

    @property
    def components(self) -> np.ndarray:
        """The raw ``(n, 4, 2d+16)`` ciphertext array."""
        return self._components

    def __len__(self) -> int:
        return int(self._components.shape[0])

    def __getitem__(self, index: int) -> DCECiphertext:
        return DCECiphertext(self._components[index], self._key_id)

    def subset(self, indices: np.ndarray) -> "DCEEncryptedDatabase":
        """Ciphertexts of a subset of vectors (used by index maintenance)."""
        return DCEEncryptedDatabase(self._components[indices], self._key_id)

    def append(self, ciphertext: DCECiphertext) -> "DCEEncryptedDatabase":
        """Return a new database with ``ciphertext`` appended (insertion)."""
        if ciphertext.key_id != self._key_id:
            raise KeyMismatchError("cannot append a ciphertext from a different key")
        stacked = np.concatenate(
            [self._components, ciphertext.components[np.newaxis]], axis=0
        )
        return DCEEncryptedDatabase(stacked, self._key_id)


def sdc_mac_count(dim: int) -> int:
    """Multiply-accumulate count of one DCE secure distance comparison.

    Section IV-B: each comparison performs two elementwise products and one
    inner product over ``R^{2d+16}`` — ``4d + 32`` MACs in total.
    """
    return 4 * dim + 32


def dce_keygen(dim: int, rng: np.random.Generator) -> DCEKey:
    """``KeyGen(1^zeta, d) -> SK`` — sample a DCE secret key.

    Parameters
    ----------
    dim:
        Plaintext dimensionality; must be even (the scheme pairs adjacent
        coordinates in randomization step 1).  :class:`DCEScheme` pads odd
        dimensions transparently, so call through it for odd ``d``.
    rng:
        Source of randomness for all key material.

    Returns
    -------
    DCEKey
        The full secret key, including matrix inverses.
    """
    if dim <= 0 or dim % 2 != 0:
        raise ValueError(f"DCE key dimension must be a positive even integer, got {dim}")
    half_dim = dim // 2 + 4
    m1, m1_inv = random_invertible_matrix(half_dim, rng)
    m2, m2_inv = random_invertible_matrix(half_dim, rng)
    full_dim = 2 * dim + 16
    m3, m3_inv = random_invertible_matrix(full_dim, rng)
    m_up, m_down = split_rows(m3)
    pi1 = Permutation.random(dim, rng)
    pi2 = Permutation.random(dim + 8, rng)
    # Scheme-wide randoms r1..r4; bounded away from zero so gamma_p
    # (divided by r4) stays well scaled.
    r_values = rng.uniform(0.5, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
    # Masking vectors: bounded magnitudes with random signs, and
    # kv4 = kv1*kv3/kv2 to satisfy the kv1.kv3 == kv2.kv4 constraint.
    def _masking_vector() -> np.ndarray:
        magnitudes = rng.uniform(0.5, 1.5, size=full_dim)
        signs = rng.choice([-1.0, 1.0], size=full_dim)
        return magnitudes * signs

    kv1 = _masking_vector()
    kv2 = _masking_vector()
    kv3 = _masking_vector()
    kv4 = kv1 * kv3 / kv2
    return DCEKey(
        dim=dim,
        m1=m1,
        m1_inv=m1_inv,
        m2=m2,
        m2_inv=m2_inv,
        m_up=m_up,
        m_down=m_down,
        m3_inv=m3_inv,
        pi1=pi1,
        pi2=pi2,
        r1=float(r_values[0]),
        r2=float(r_values[1]),
        r3=float(r_values[2]),
        r4=float(r_values[3]),
        kv1=kv1,
        kv2=kv2,
        kv3=kv3,
        kv4=kv4,
        key_id=int(rng.integers(0, 2**62)),
    )


def distance_comp(
    cipher_o: DCECiphertext, cipher_p: DCECiphertext, trapdoor: DCETrapdoor
) -> float:
    """``DistanceComp(C_o, C_p, T_q)`` — the server-side comparison oracle.

    Returns ``Z = 2 r_o r_p r_q (dist(o,q) - dist(p,q))`` (Theorem 3), so::

        Z <  0  <=>  dist(o, q) <  dist(p, q)
        Z >= 0  <=>  dist(o, q) >= dist(p, q)

    The multipliers ``r_o, r_p, r_q`` are secret positives, so only the
    sign is meaningful to the server.
    """
    if not (cipher_o.key_id == cipher_p.key_id == trapdoor.key_id):
        raise KeyMismatchError("ciphertexts and trapdoor come from different keys")
    o = cipher_o.components
    p = cipher_p.components
    combined = o[0] * p[2] - o[1] * p[3]
    return float(combined @ trapdoor.vector)


_EPS = float(np.finfo(np.float64).eps)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def p_role_rows(p_pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The *p*-role operand of :func:`distance_comp_block`.

    Flattens an ``(m, 2, 2d+16)`` block of *p*-role components
    (``components[:, 2:4]``) to one ``(m, 2(2d+16))`` matrix — a view
    wherever the block's layout allows, so slicing ``C_DCE`` itself
    copies nothing — and returns it with its row 2-norms (the per-row
    factor of the kernel's rounding bound).
    """
    rows = p_pairs.reshape(p_pairs.shape[0], -1)
    return rows, _row_norms(rows)


def distance_comp_block(
    o_pairs: np.ndarray,
    vector: np.ndarray,
    p_rows: np.ndarray,
    p_norms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``DistanceComp`` with the margin its signs can be trusted by.

    ``o_pairs`` is the ``(a, 2, 2d+16)`` block of *o*-role components
    (``components[:, 0:2]``), ``vector`` the trapdoor, and ``p_rows`` /
    ``p_norms`` come from :func:`p_role_rows` for ``b`` ciphertexts.
    Returns ``(z, slack)``, both ``(a, b)``: ``z[i, j]`` regroups the
    oracle's ``(o_1 * p_3 - o_2 * p_4) . t`` as
    ``[p_3, p_4] . [o_1 * t, -(o_2 * t)]`` — the trapdoor folded into the
    *o* side, one BLAS product over the whole block, no per-pair
    temporaries — and wherever ``|z| > slack`` its sign **is** the sign
    :func:`distance_comp` computes for that pair.

    The bound.  Write the exact value as the sum of its ``2D`` terms
    (``D = 2d+16``), ``Z = sum_i a_i``, and let ``S = sum_i |a_i|``,
    ``u = 2**-53``.  The scalar oracle rounds each product, their
    difference, the product with ``t`` and at most ``D - 1`` additions,
    so every ``a_i`` carries at most ``D + 2`` factors ``(1 + delta)``,
    ``|delta| <= u`` — in any summation order, with or without FMA:
    ``|scalar - Z| <= gamma(D+2) S``.  The regrouped form rounds
    ``o * t`` once and reduces ``2D`` terms: ``|z - Z| <= gamma(2D+1) S``.
    Hence ``|z - scalar| <= (3D + 3) u S`` to first order, and by
    Cauchy-Schwarz ``S <= ||weights_i|| * ||p_rows_j||``.  The slack is
    ``2 D eps = 4 D u`` times that product — at least a quarter above
    ``3D + 3`` for every ``D >= 18``, which covers the second-order
    terms and the rounding of the norms themselves (both ~``D u``
    relative).  Exact ties and true knife edges fall inside it; callers
    that need the oracle's sign there re-reduce them with the scalar
    expression.
    """
    width = vector.shape[0]
    weights = o_pairs * vector
    np.negative(weights[:, 1], out=weights[:, 1])
    weights = weights.reshape(-1, 2 * width)
    z = weights @ p_rows.T
    slack = (2 * width * _EPS) * _row_norms(weights)[:, np.newaxis] * p_norms
    return z, slack


def distance_comp_many(
    ciphers_o: DCEEncryptedDatabase,
    ciphers_p: DCEEncryptedDatabase,
    trapdoor: DCETrapdoor,
) -> np.ndarray:
    """All-pairs ``DistanceComp`` as one matrix product.

    Returns the ``(len(o), len(p))`` matrix ``Z`` with ``Z[i, j]`` the
    comparison outcome of :func:`distance_comp` on *o*-role vector ``i``
    and *p*-role vector ``j`` — only the signs are meaningful, and a
    sign is the oracle's up to the rounding margin
    :func:`distance_comp_block` (the kernel this wraps, shared with
    :class:`repro.core.refine.VectorizedRefineEngine`) documents.  Same
    ``4d + 32`` MACs per pair as the scalar oracle, no interpreter
    dispatch per comparison.
    """
    if not (ciphers_o.key_id == ciphers_p.key_id == trapdoor.key_id):
        raise KeyMismatchError("ciphertexts and trapdoor come from different keys")
    o = ciphers_o.components
    p = ciphers_p.components
    width = trapdoor.vector.shape[0]
    if o.shape[2] != width or p.shape[2] != width:
        raise DimensionMismatchError(
            width, int(o.shape[2] if o.shape[2] != width else p.shape[2]),
            what="DCE ciphertext",
        )
    z, _ = distance_comp_block(o[:, 0:2], trapdoor.vector, *p_role_rows(p[:, 2:4]))
    return z


class DCEScheme:
    """End-to-end DCE scheme: key generation, encryption, trapdoors, comparison.

    Handles odd plaintext dimensions by zero-padding to the next even
    dimension (distance-neutral: a shared zero coordinate adds nothing to
    any pairwise distance).

    Parameters
    ----------
    dim:
        Plaintext dimensionality of database and query vectors.
    rng:
        Randomness source; a fresh default generator is used when omitted.
    key:
        Reuse an existing key instead of generating one (e.g. the data
        owner distributing the key to the query user).
    randomizer_range:
        ``(low, high)`` bounds for the positive per-vector / per-query
        randomizers ``r_p`` and ``r_q``, sampled log-uniformly.  The
        default matches the conditioning-friendly ``(0.5, 2)``; widening
        it (e.g. ``(2**-8, 2**8)``) dilutes the residual statistical
        signal that ``|Z|`` magnitudes carry under known-plaintext
        regression (see EXPERIMENTS.md, "Reproduction note") at the cost
        of a larger ciphertext dynamic range.
    """

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator | None = None,
        key: DCEKey | None = None,
        randomizer_range: tuple[float, float] = (0.5, 2.0),
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        low, high = randomizer_range
        if low <= 0 or high <= 0 or low > high:
            raise ValueError(
                f"randomizer_range must be 0 < low <= high, got {randomizer_range}"
            )
        self._plain_dim = dim
        self._padded_dim = dim if dim % 2 == 0 else dim + 1
        self._rng = rng if rng is not None else np.random.default_rng()
        self._log_randomizer_bounds = (float(np.log(low)), float(np.log(high)))
        if key is None:
            key = dce_keygen(self._padded_dim, self._rng)
        elif key.dim != self._padded_dim:
            raise DimensionMismatchError(self._padded_dim, key.dim, what="DCE key")
        self._key = key

    def _draw_randomizers(self, shape) -> np.ndarray:
        """Positive randomizers, log-uniform over the configured range."""
        low, high = self._log_randomizer_bounds
        return np.exp(self._rng.uniform(low, high, size=shape))

    # -- properties ---------------------------------------------------------

    @property
    def key(self) -> DCEKey:
        """The secret key (data-owner side only)."""
        return self._key

    @property
    def dim(self) -> int:
        """Plaintext dimensionality accepted by :meth:`encrypt`."""
        return self._plain_dim

    @property
    def ciphertext_dim(self) -> int:
        """Width ``2d+16`` of each ciphertext component."""
        return self._key.ciphertext_dim

    @property
    def key_id(self) -> int:
        """Tag of this scheme's key (shared by all its ciphertexts)."""
        return self._key.key_id

    # -- phase 1: vector randomization (Equations 1-5) -----------------------

    def _pad(self, vectors: np.ndarray) -> np.ndarray:
        """Zero-pad the last axis from the plaintext to the padded dimension."""
        if self._padded_dim == self._plain_dim:
            return vectors
        pad_width = [(0, 0)] * (vectors.ndim - 1) + [(0, 1)]
        return np.pad(vectors, pad_width)

    @staticmethod
    def _pairwise_mix(vectors: np.ndarray, negate: bool) -> np.ndarray:
        """Step 1: map ``[x1, x2, ...]`` to ``[x1+x2, x1-x2, x3+x4, ...]``.

        With ``negate=True`` (queries) the whole result is negated, giving
        ``check_p . check_q == -2 p.q``.
        """
        evens = vectors[..., 0::2]
        odds = vectors[..., 1::2]
        mixed = np.empty_like(vectors)
        mixed[..., 0::2] = evens + odds
        mixed[..., 1::2] = evens - odds
        return -mixed if negate else mixed

    def _randomize_database(self, vectors: np.ndarray) -> np.ndarray:
        """Steps 1-4 for database vectors: ``(n, d) -> (n, d+8)`` bar-vectors."""
        key = self._key
        n = vectors.shape[0]
        half = key.dim // 2
        squared_norms = np.einsum("ij,ij->i", vectors, vectors)
        hatted = key.pi1.apply(self._pairwise_mix(vectors, negate=False))
        # Per-vector randoms of step 3, scaled to the data's magnitude so no
        # ciphertext slot is orders of magnitude off the others.
        magnitude = np.sqrt(squared_norms) + 1.0
        alpha = self._rng.standard_normal((n, 2)) * magnitude[:, None]
        r_prime = self._rng.standard_normal((n, 3)) * magnitude[:, None]
        gamma = (
            squared_norms
            - r_prime[:, 0] * key.r1
            - r_prime[:, 1] * key.r2
            - r_prime[:, 2] * key.r3
        ) / key.r4
        part1 = np.concatenate(
            [
                hatted[:, :half],
                alpha[:, 0:1],
                -alpha[:, 0:1],
                r_prime[:, 0:1],
                r_prime[:, 1:2],
            ],
            axis=1,
        )
        part2 = np.concatenate(
            [
                hatted[:, half:],
                alpha[:, 1:2],
                alpha[:, 1:2],
                r_prime[:, 2:3],
                gamma[:, None],
            ],
            axis=1,
        )
        combined = np.concatenate([part1 @ key.m1, part2 @ key.m2], axis=1)
        return key.pi2.apply(combined)

    def _randomize_query(self, vector: np.ndarray) -> np.ndarray:
        """Steps 1-4 for one query vector: ``(d,) -> (d+8,)`` bar-vector."""
        key = self._key
        half = key.dim // 2
        hatted = key.pi1.apply(self._pairwise_mix(vector, negate=True))
        beta = self._rng.standard_normal(2) * (np.linalg.norm(vector) + 1.0)
        part1 = np.concatenate(
            [hatted[:half], [beta[0], beta[0], key.r1, key.r2]]
        )
        part2 = np.concatenate(
            [hatted[half:], [beta[1], -beta[1], key.r3, key.r4]]
        )
        combined = np.concatenate([key.m1_inv @ part1, key.m2_inv @ part2])
        return key.pi2.apply(combined)

    def _randomize_queries(self, vectors: np.ndarray) -> np.ndarray:
        """Steps 1-4 for many queries: ``(n, d) -> (n, d+8)`` bar-vectors.

        Identical math to :meth:`_randomize_query`, expressed as two
        matrix-matrix products (``part @ M^-T == (M^-1 @ part^T)^T``) so a
        whole workload's randomization is two BLAS calls instead of ``2n``
        matrix-vector products.
        """
        key = self._key
        n = vectors.shape[0]
        half = key.dim // 2
        hatted = key.pi1.apply(self._pairwise_mix(vectors, negate=True))
        norms = np.linalg.norm(vectors, axis=1)
        beta = self._rng.standard_normal((n, 2)) * (norms + 1.0)[:, None]
        constants = np.ones((n, 1))
        part1 = np.concatenate(
            [
                hatted[:, :half],
                beta[:, 0:1],
                beta[:, 0:1],
                key.r1 * constants,
                key.r2 * constants,
            ],
            axis=1,
        )
        part2 = np.concatenate(
            [
                hatted[:, half:],
                beta[:, 1:2],
                -beta[:, 1:2],
                key.r3 * constants,
                key.r4 * constants,
            ],
            axis=1,
        )
        combined = np.concatenate([part1 @ key.m1_inv.T, part2 @ key.m2_inv.T], axis=1)
        return key.pi2.apply(combined)

    # -- phase 2: vector transformation (Equations 8-16) ----------------------

    def _transform_database(self, bar_vectors: np.ndarray) -> np.ndarray:
        """``(n, d+8)`` bar-vectors -> ``(n, 4, 2d+16)`` ciphertext components.

        Component ``i`` is ``r_p * (bar @ M + (-1)^i) / kv_i`` with ``M``
        the upper rows of ``M3`` for components 0-1 and the lower rows for
        2-3.  Every step writes into the returned array (each projection
        lands in its odd slot and the even slot is derived from it), so
        the peak is ``components`` plus the one bar array.  The operations
        and their order are those of the out-of-place expression, so the
        ciphertexts are bit-identical to it.
        """
        key = self._key
        n = bar_vectors.shape[0]
        r_p = self._draw_randomizers((n, 1))
        components = np.empty((n, 4, key.ciphertext_dim))
        for even, m in ((0, key.m_up), (2, key.m_down)):
            odd = components[:, even + 1]
            np.matmul(bar_vectors, m, out=odd)
            np.add(odd, 1.0, out=components[:, even])
            np.subtract(odd, 1.0, out=odd)
        for slot, kv in enumerate((key.kv1, key.kv2, key.kv3, key.kv4)):
            part = components[:, slot]
            np.multiply(r_p, part, out=part)
            np.divide(part, kv, out=part)
        return components

    # -- public API -----------------------------------------------------------

    def encrypt(self, vector: np.ndarray) -> DCECiphertext:
        """``Enc(p, SK) -> C_p`` — encrypt one database vector."""
        vector = self._check_vector(vector)
        bar = self._randomize_database(vector[np.newaxis])
        components = self._transform_database(bar)[0]
        return DCECiphertext(components, self._key.key_id)

    def encrypt_database(self, vectors: np.ndarray) -> DCEEncryptedDatabase:
        """Encrypt a whole ``(n, d)`` database in one vectorized pass."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise CiphertextFormatError(
                f"expected a (n, d) array of database vectors, got {vectors.shape}"
            )
        if vectors.shape[1] != self._plain_dim:
            raise DimensionMismatchError(self._plain_dim, vectors.shape[1], what="database")
        padded = self._pad(vectors)
        bar = self._randomize_database(padded)
        return DCEEncryptedDatabase(self._transform_database(bar), self._key.key_id)

    def trapdoor(self, query: np.ndarray) -> DCETrapdoor:
        """``TrapGen(q, SK) -> T_q`` — encrypt one query vector.

        This is the *only* computation the query user performs per query
        (plus the O(d) DCPE encryption); its cost is O(d^2) from the two
        matrix-vector products.
        """
        query = self._check_vector(query)
        bar = self._randomize_query(query)
        stacked = np.concatenate([bar, -bar])
        r_q = float(self._draw_randomizers(()))
        vector = r_q * (self._key.m3_inv @ stacked) * (self._key.kv2 * self._key.kv4)
        return DCETrapdoor(vector, self._key.key_id)

    def trapdoor_batch(self, queries: np.ndarray) -> np.ndarray:
        """``TrapGen`` for a whole ``(n, d)`` query workload at once.

        Returns the ``(n, 2d+16)`` matrix of trapdoor vectors (row ``i``
        is the vector of query ``i``'s :class:`DCETrapdoor`).  The
        randomization and the ``M3^-1`` projection run as matrix-matrix
        products — one BLAS call each instead of ``n`` matrix-vector
        products, which is where the batch encryption speedup comes from.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise CiphertextFormatError(
                f"expected a (n, d) array of query vectors, got {queries.shape}"
            )
        if queries.shape[1] != self._plain_dim:
            raise DimensionMismatchError(
                self._plain_dim, queries.shape[1], what="query batch"
            )
        bar = self._randomize_queries(self._pad(queries))
        stacked = np.concatenate([bar, -bar], axis=1)
        r_q = self._draw_randomizers((queries.shape[0], 1))
        return r_q * (stacked @ self._key.m3_inv.T) * (self._key.kv2 * self._key.kv4)

    def compare(
        self, cipher_o: DCECiphertext, cipher_p: DCECiphertext, trapdoor: DCETrapdoor
    ) -> float:
        """Instance-method alias of :func:`distance_comp`."""
        return distance_comp(cipher_o, cipher_p, trapdoor)

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise CiphertextFormatError(f"expected a 1-D vector, got shape {vector.shape}")
        if vector.shape[0] != self._plain_dim:
            raise DimensionMismatchError(self._plain_dim, vector.shape[0])
        return self._pad(vector)
