"""Property-based tests for the pluggable refine engines.

The contract the vectorized engine promises
(:mod:`repro.core.refine`): for *any* candidate set — any order, any
tie pattern (duplicate database vectors encrypt to distinct ciphertexts
with mathematically equal distances), and any ``k`` including
``k >= len(candidates)`` — it returns **bit-identical** ids to the
comparison-heap reference engine, in the same (heap) order, with the
same equivalent-oracle-call count — at every data scale.

The database deliberately contains many duplicated rows so that exact
distance ties are common, and candidate sets are drawn as arbitrary
permutations of arbitrary subsets so both the nearest-first serving
order and adversarial orders are exercised.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dce import DCEScheme
from repro.core.refine import REFINE_ENGINES

from tests.strategies import seeds

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_DIM = 10
_UNIQUE_VECTORS = 12
_NUM_VECTORS = 36
_NUM_QUERIES = 4

# A duplicate-heavy database: 36 rows drawn from 12 distinct vectors,
# so most candidate sets contain exact-distance ties.
_tie_rng = np.random.default_rng(707)
_base = _tie_rng.standard_normal((_UNIQUE_VECTORS, _DIM)) * 2.0
_database = _base[_tie_rng.integers(0, _UNIQUE_VECTORS, size=_NUM_VECTORS)]
_queries = _tie_rng.standard_normal((_NUM_QUERIES, _DIM)) * 2.0


def _encrypt(scale: float, **scheme_options):
    """``(database, queries, ciphertexts, trapdoors)`` at one value scale."""
    scheme = DCEScheme(_DIM, rng=np.random.default_rng(606), **scheme_options)
    database, queries = _database * scale, _queries * scale
    return (
        database,
        queries,
        scheme.encrypt_database(database),
        [scheme.trapdoor(query) for query in queries],
    )


# DCE's Z is a cancelling sum, and the cancellation deepens with the
# value scale and the randomizers' dynamic range (at 4096 a fifth of the
# signs between *distinct* distances already sit inside the batched
# kernel's rounding slack): the engines must agree there too, not only
# on the well-conditioned unit-scale default.
_WORKLOADS = (
    _encrypt(1.0),
    _encrypt(1.0, randomizer_range=(2**-8, 2**8)),
    _encrypt(128.0, randomizer_range=(2**-8, 2**8)),
    _encrypt(4096.0, randomizer_range=(2**-8, 2**8)),
)
workloads = st.integers(min_value=0, max_value=len(_WORKLOADS) - 1)


@st.composite
def candidate_sets(draw):
    """A permutation of an arbitrary non-empty subset of the ids."""
    size = draw(st.integers(min_value=1, max_value=_NUM_VECTORS))
    seed = draw(seeds)
    return np.random.default_rng(seed).permutation(_NUM_VECTORS)[:size].astype(
        np.int64
    )


@given(
    workload=workloads,
    candidates=candidate_sets(),
    query_index=st.integers(min_value=0, max_value=_NUM_QUERIES - 1),
    k=st.integers(min_value=1, max_value=_NUM_VECTORS + 5),
)
@_SETTINGS
def test_vectorized_bit_identical_to_heap(workload, candidates, query_index, k):
    """Same ids, same order, same comparison count — always."""
    _, _, encrypted, trapdoors = _WORKLOADS[workload]
    trapdoor = trapdoors[query_index]
    heap = REFINE_ENGINES["heap"].refine(encrypted, trapdoor, candidates, k)
    vectorized = REFINE_ENGINES["vectorized"].refine(
        encrypted, trapdoor, candidates, k
    )
    assert np.array_equal(heap.ids, vectorized.ids), (
        f"engines diverged for candidates={candidates.tolist()}, k={k}: "
        f"heap={heap.ids.tolist()} vectorized={vectorized.ids.tolist()}"
    )
    assert heap.ids.dtype == vectorized.ids.dtype == np.int64
    assert heap.comparisons == vectorized.comparisons


@given(
    workload=workloads,
    candidates=candidate_sets(),
    query_index=st.integers(min_value=0, max_value=_NUM_QUERIES - 1),
    k=st.integers(min_value=1, max_value=_NUM_VECTORS + 5),
)
@_SETTINGS
def test_nearest_first_order_bit_identical(workload, candidates, query_index, k):
    """The serving-path order (nearest-first candidates) in particular."""
    database, queries, encrypted, trapdoors = _WORKLOADS[workload]
    dists = ((database[candidates] - queries[query_index]) ** 2).sum(axis=1)
    ordered = candidates[np.argsort(dists, kind="stable")]
    trapdoor = trapdoors[query_index]
    heap = REFINE_ENGINES["heap"].refine(encrypted, trapdoor, ordered, k)
    vectorized = REFINE_ENGINES["vectorized"].refine(
        encrypted, trapdoor, ordered, k
    )
    assert np.array_equal(heap.ids, vectorized.ids)
    assert heap.comparisons == vectorized.comparisons
