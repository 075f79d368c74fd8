"""Edge-case and stress tests across the core scheme.

Covers the corners the main suites don't: degenerate vectors, extreme
values, high dimensionality (the Gist profile's d=960), duplicates, and
batch interfaces.
"""

import numpy as np
import pytest

from repro import PPANNS
from repro.core.dce import DCEScheme, distance_comp
from repro.core.dcpe import DCPEScheme, dcpe_keygen
from repro.core.protocol import EncryptedQueryBatch
from repro.hnsw.graph import HNSWParams

TINY_HNSW = HNSWParams(m=4, ef_construction=20)


class TestDegenerateVectors:
    def test_zero_vectors(self):
        rng = np.random.default_rng(0)
        scheme = DCEScheme(8, rng=rng)
        vectors = np.vstack([np.zeros(8), np.ones(8) * 3])
        db = scheme.encrypt_database(vectors)
        t = scheme.trapdoor(np.zeros(8))
        # dist(0, 0) = 0 < dist(3*1, 0): sign must be negative.
        assert distance_comp(db[0], db[1], t) < 0

    def test_duplicate_vectors_tie(self):
        rng = np.random.default_rng(1)
        scheme = DCEScheme(8, rng=rng)
        vector = rng.standard_normal(8)
        db = scheme.encrypt_database(np.vstack([vector, vector]))
        t = scheme.trapdoor(rng.standard_normal(8))
        z = distance_comp(db[0], db[1], t)
        # Exact tie: Z is zero up to float noise; no sign guarantee needed,
        # but the magnitude must be negligible vs. the distance scale.
        assert abs(z) < 1e-3

    def test_query_far_outside_data(self):
        rng = np.random.default_rng(2)
        dataset = rng.standard_normal((100, 8))
        scheme = PPANNS(8, beta=0.1, hnsw_params=TINY_HNSW, rng=rng).fit(dataset)
        ids = scheme.query(np.full(8, 1e3), k=5, ef_search=40)
        assert ids.shape[0] == 5  # still returns something sensible

    def test_large_coordinate_values(self):
        rng = np.random.default_rng(3)
        scheme = DCEScheme(8, rng=rng)
        vectors = rng.standard_normal((10, 8)) * 1e4  # SIFT-like magnitudes^2
        q = rng.standard_normal(8) * 1e4
        db = scheme.encrypt_database(vectors)
        t = scheme.trapdoor(q)
        dists = ((vectors - q) ** 2).sum(axis=1)
        for i in range(10):
            for j in range(10):
                if i != j:
                    assert (distance_comp(db[i], db[j], t) < 0) == (dists[i] < dists[j])

    def test_tiny_coordinate_values(self):
        rng = np.random.default_rng(4)
        scheme = DCEScheme(8, rng=rng)
        vectors = rng.standard_normal((10, 8)) * 1e-4
        q = rng.standard_normal(8) * 1e-4
        db = scheme.encrypt_database(vectors)
        t = scheme.trapdoor(q)
        dists = ((vectors - q) ** 2).sum(axis=1)
        errors = sum(
            1
            for i in range(10)
            for j in range(10)
            if i != j
            and abs(dists[i] - dists[j]) > 1e-12
            and (distance_comp(db[i], db[j], t) < 0) != (dists[i] < dists[j])
        )
        assert errors == 0


class TestHighDimensional:
    def test_gist_dimensionality_smoke(self):
        # d=960 (the paper's Gist): key matrices are (1936, 1936); one
        # end-to-end pass must stay exact.
        rng = np.random.default_rng(5)
        scheme = DCEScheme(960, rng=rng)
        vectors = rng.standard_normal((6, 960))
        q = rng.standard_normal(960)
        db = scheme.encrypt_database(vectors)
        t = scheme.trapdoor(q)
        dists = ((vectors - q) ** 2).sum(axis=1)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert (distance_comp(db[i], db[j], t) < 0) == (dists[i] < dists[j])

    def test_dcpe_high_dim_ball_radius(self):
        rng = np.random.default_rng(6)
        scheme = DCPEScheme(960, dcpe_keygen(1.0, scale=16.0, rng=rng), rng=rng)
        encrypted = scheme.encrypt_database(np.zeros((50, 960)))
        assert np.all(np.linalg.norm(encrypted, axis=1) <= scheme.noise_radius + 1e-9)


class TestSmallDatabases:
    def test_n_smaller_than_k(self):
        rng = np.random.default_rng(7)
        scheme = PPANNS(6, beta=0.1, hnsw_params=TINY_HNSW, rng=rng).fit(
            rng.standard_normal((3, 6))
        )
        ids = scheme.query(np.zeros(6), k=10, ratio_k=1, ef_search=12)
        assert 1 <= ids.shape[0] <= 3

    def test_single_vector_database(self):
        rng = np.random.default_rng(8)
        scheme = PPANNS(6, beta=0.1, hnsw_params=TINY_HNSW, rng=rng).fit(
            rng.standard_normal((1, 6))
        )
        ids = scheme.query(np.zeros(6), k=1, ratio_k=1, ef_search=4)
        assert ids.tolist() == [0]


class TestBatchInterface:
    def test_answer_batch_matches_sequential(self, fitted_scheme, small_dataset):
        queries = [
            fitted_scheme.user.encrypt_query(q, 5) for q in small_dataset.queries[:3]
        ]
        batch = fitted_scheme.server.answer(
            EncryptedQueryBatch.from_queries(queries), ratio_k=4, ef_search=60
        )
        assert len(batch) == 3
        for encrypted, report in zip(queries, batch):
            single = fitted_scheme.server.answer(encrypted, ratio_k=4, ef_search=60)
            assert set(report.ids.tolist()) == set(single.ids.tolist())
