"""Distance kernel tests."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hnsw.distance import (
    distance_mac_count,
    pairwise_squared_distances,
    squared_distance,
    squared_distances_to_many,
)


class TestSquaredDistance:
    def test_known_value(self):
        assert squared_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 25.0

    def test_zero_for_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert squared_distance(v, v) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 16))
        assert np.isclose(squared_distance(a, b), squared_distance(b, a))

    @given(st.integers(min_value=1, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_matches_numpy(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        assert np.isclose(squared_distance(a, b), np.sum((a - b) ** 2))


class TestBatchKernels:
    def test_to_many_matches_loop(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal(8)
        vs = rng.standard_normal((20, 8))
        batch = squared_distances_to_many(q, vs)
        for i in range(20):
            assert np.isclose(batch[i], squared_distance(q, vs[i]))

    def test_pairwise_matches_loop(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((9, 5))
        pairwise = pairwise_squared_distances(a, b)
        assert pairwise.shape == (6, 9)
        for i in range(6):
            for j in range(9):
                assert np.isclose(pairwise[i, j], squared_distance(a[i], b[j]), atol=1e-8)

    def test_pairwise_non_negative(self):
        # The expansion ||a||^2 - 2ab + ||b||^2 can dip below 0 in floats;
        # the kernel must clip.
        a = np.ones((3, 4)) * 1e8
        assert np.all(pairwise_squared_distances(a, a) >= 0.0)

    def test_mac_count(self):
        assert distance_mac_count(128) == 128


def _reference_pairwise(a, b, b_norms=None):
    """The out-of-place form of ``pairwise_squared_distances``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_norms = np.einsum("ij,ij->i", a, a)[:, None]
    if b_norms is None:
        b_norms = np.einsum("ij,ij->i", b, b)
    cross = a @ b.T
    return np.maximum(a_norms - 2.0 * cross + b_norms[None, :], 0.0)


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestPairwiseInPlace:
    """The in-place kernel writes the out-of-place expression's bits."""

    def test_self_pairwise(self):
        a = np.random.default_rng(3).standard_normal((40, 12))
        assert _same_bits(pairwise_squared_distances(a, a), _reference_pairwise(a, a))

    def test_with_and_without_cached_norms(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((17, 9))
        b = rng.standard_normal((23, 9))
        norms = np.einsum("ij,ij->i", b, b)
        assert _same_bits(pairwise_squared_distances(a, b), _reference_pairwise(a, b))
        assert _same_bits(
            pairwise_squared_distances(a, b, b_norms=norms),
            _reference_pairwise(a, b, b_norms=norms),
        )

    def test_duplicated_rows_hit_the_clip(self):
        rng = np.random.default_rng(5)
        a = np.repeat(rng.standard_normal((8, 6)) * 1e4, 3, axis=0)
        norms = np.einsum("ij,ij->i", a, a)
        assert np.any(norms[:, None] - 2.0 * (a @ a.T) + norms[None, :] < 0.0)
        expected = _reference_pairwise(a, a)
        got = pairwise_squared_distances(a, a)
        assert _same_bits(got, expected)
        assert np.all(got >= 0.0)

    def test_float32_input(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((11, 7)).astype(np.float32)
        b = rng.standard_normal((5, 7)).astype(np.float32)
        got = pairwise_squared_distances(a, b)
        assert got.dtype == np.float64
        assert _same_bits(got, _reference_pairwise(a, b))

    def test_single_row_and_single_column(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((1, 10))
        b = rng.standard_normal((30, 10))
        assert _same_bits(pairwise_squared_distances(a, b), _reference_pairwise(a, b))
        assert _same_bits(pairwise_squared_distances(b, a), _reference_pairwise(b, a))

    def test_peak_memory_is_one_result(self):
        n = 1500
        x = np.random.default_rng(8).standard_normal((n, 16))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            pairwise_squared_distances(x, x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * n * n * 8
