"""EncryptedIndex tests: alignment, tombstones, storage accounting."""

import numpy as np
import pytest

from repro.core.errors import CiphertextFormatError
from repro.core.index import EncryptedIndex
from repro.core.roles import DataOwner
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def built():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((80, 12)) * 2.0
    owner = DataOwner(12, beta=0.2, hnsw_params=FAST_HNSW, rng=rng)
    return owner, owner.build_index(vectors), vectors


class TestConstruction:
    def test_component_alignment(self, built):
        _, index, vectors = built
        assert len(index) == vectors.shape[0]
        assert index.sap_vectors.shape == vectors.shape
        assert len(index.dce_database) == vectors.shape[0]
        assert index.backend.vectors.shape[0] == vectors.shape[0]

    def test_graph_is_over_sap_not_plaintext(self, built):
        _, index, vectors = built
        # Graph stores the DCPE ciphertexts, which are scaled by s=1024.
        assert np.allclose(index.backend.vectors, index.sap_vectors)
        assert not np.allclose(index.backend.vectors, vectors)

    def test_misaligned_components_rejected(self, built):
        _, index, _ = built
        with pytest.raises(CiphertextFormatError):
            EncryptedIndex(
                index.sap_vectors[:-1], index.backend, index.dce_database
            )

    def test_non_2d_sap_rejected(self, built):
        _, index, _ = built
        with pytest.raises(CiphertextFormatError):
            EncryptedIndex(
                index.sap_vectors[0], index.backend, index.dce_database
            )


class TestLiveness:
    def test_is_live(self, built):
        _, index, _ = built
        assert index.is_live(0)
        assert index.is_live(79)
        assert not index.is_live(80)
        assert not index.is_live(-1)

    def test_tombstone(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((30, 8))
        owner = DataOwner(8, beta=0.2, hnsw_params=FAST_HNSW, rng=rng)
        index = owner.build_index(vectors)
        index._mark_deleted(5)
        assert not index.is_live(5)
        assert len(index) == 29
        assert 5 in index.tombstones


class TestSizeReport:
    def test_dce_overhead_matches_paper(self, built):
        # Section V-C: C_DCE is (8 + 64/d) times the plaintext size.
        _, index, vectors = built
        report = index.size_report()
        d = vectors.shape[1]
        assert np.isclose(report.dce_overhead_ratio, 8 + 64 / d)

    def test_sap_same_size_as_plaintext(self, built):
        _, index, vectors = built
        report = index.size_report()
        assert report.sap_floats == vectors.size

    def test_totals(self, built):
        _, index, _ = built
        report = index.size_report()
        assert report.total_floats == report.sap_floats + report.dce_floats
        assert report.graph_edges > 0
