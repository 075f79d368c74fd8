"""System-model tests: owner / user / server interplay (Figure 1)."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.backends import available_backends
from repro.core.errors import ParameterError
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.core.scheme import PPANNS
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def actors():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((120, 10)) * 3.0
    owner = DataOwner(10, beta=0.2, hnsw_params=FAST_HNSW, rng=rng)
    index = owner.build_index(vectors)
    server = CloudServer(index)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(1))
    return owner, user, server, vectors


class TestDataOwner:
    def test_build_index_alignment(self, actors):
        _, _, server, vectors = actors
        assert len(server.index) == vectors.shape[0]

    def test_rejects_bad_shapes(self):
        owner = DataOwner(10, beta=0.2, rng=np.random.default_rng(0))
        with pytest.raises(ParameterError):
            owner.build_index(np.zeros((5, 4)))

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ParameterError):
            DataOwner(0, beta=0.2)

    def test_encrypt_vector_pair(self, actors):
        owner, _, _, vectors = actors
        sap, dce = owner.encrypt_vector(vectors[0])
        assert sap.shape == (10,)
        assert dce.components.shape == (4, 2 * 10 + 16)


class TestQueryUser:
    def test_authorized_user_queries_succeed(self, actors):
        _, user, server, vectors = actors
        query = vectors[3] + 0.01
        encrypted = user.encrypt_query(query, 5)
        report = server.answer(encrypted, ef_search=80)
        assert 3 in report.ids

    def test_unauthorized_user_rejected(self, actors):
        _, _, server, vectors = actors
        rogue_owner = DataOwner(10, beta=0.2, rng=np.random.default_rng(99))
        rogue = QueryUser(rogue_owner.authorize_user())
        encrypted = rogue.encrypt_query(vectors[0], 5)
        from repro.core.errors import KeyMismatchError

        with pytest.raises(KeyMismatchError):
            server.answer(encrypted)

    def test_key_bundle_contents(self, actors):
        owner, _, _, _ = actors
        bundle = owner.authorize_user()
        assert bundle.dim == 10
        assert bundle.dce_key is owner.dce_scheme.key
        assert bundle.dcpe_key is owner.dcpe_scheme.key


class TestCloudServer:
    def test_default_ratio_k(self, actors):
        _, user, server, vectors = actors
        encrypted = user.encrypt_query(vectors[0], 5)
        report = server.answer(encrypted)
        assert report.k_prime == server.default_ratio_k * 5

    def test_explicit_ratio_k(self, actors):
        _, user, server, vectors = actors
        encrypted = user.encrypt_query(vectors[0], 5)
        report = server.answer(encrypted, ratio_k=4)
        assert report.k_prime == 20

    def test_invalid_ratio_k(self, actors):
        _, user, server, vectors = actors
        encrypted = user.encrypt_query(vectors[0], 5)
        with pytest.raises(ParameterError):
            server.answer(encrypted, ratio_k=0)

    def test_invalid_default_ratio(self, actors):
        _, _, server, _ = actors
        with pytest.raises(ParameterError):
            CloudServer(server.index, default_ratio_k=0)

    def test_filter_only_endpoint(self, actors):
        _, user, server, vectors = actors
        encrypted = user.encrypt_query(vectors[0], 5)
        report = server.answer_filter_only(encrypted, ef_search=60)
        assert report.ids.shape[0] == 5
        assert report.refine_comparisons == 0

    def test_default_refine_engine(self, actors):
        _, user, server, vectors = actors
        assert server.refine_engine == "vectorized"
        report = server.answer(user.encrypt_query(vectors[0], 5))
        assert report.refine_engine == "vectorized"

    def test_configured_refine_engine(self, actors):
        _, user, server, vectors = actors
        heap_server = CloudServer(server.index, refine_engine="heap")
        assert heap_server.refine_engine == "heap"
        report = heap_server.answer(user.encrypt_query(vectors[0], 5))
        assert report.refine_engine == "heap"
        assert report.refine_kernel_seconds == 0.0

    def test_refine_engine_per_call_override(self, actors):
        _, user, server, vectors = actors
        batch = user.encrypt_queries(vectors[:4] + 0.01, 5)
        default = server.answer(batch)
        overridden = server.answer(batch, refine_engine="heap")
        assert default.refine_engines == ("vectorized",)
        assert overridden.refine_engines == ("heap",)
        # The engines are bit-identical, so the answers agree exactly.
        assert np.array_equal(default.ids_matrix(), overridden.ids_matrix())
        assert default.refine_comparisons == overridden.refine_comparisons

    def test_unknown_refine_engine_rejected(self, actors):
        _, _, server, _ = actors
        with pytest.raises(ParameterError):
            CloudServer(server.index, refine_engine="quantum")

    def test_refine_engine_override_rejected_for_filter_only(self, actors):
        _, user, server, vectors = actors
        batch = user.encrypt_queries(vectors[:2], 5, mode="filter_only")
        with pytest.raises(ParameterError, match="filter_only"):
            server.answer(batch, refine_engine="heap")
        # Without the override the filter-only batch answers normally.
        assert len(server.answer(batch)) == 2


def _shm_entries() -> set:
    """Names under ``/dev/shm`` (empty where the host has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class TestClose:
    @pytest.mark.parametrize("holder", ["server", "scheme"])
    @pytest.mark.parametrize("backend", available_backends())
    def test_close_is_harmless(self, backend, holder):
        """answer -> close() -> answer: the same answers, nothing spawned.

        The benchmark harness re-answers through a closed server for its
        oracle, so ``close()`` must leave the server answering exactly
        as before and must start or leave behind no process and no
        shared-memory segment.
        """
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((60, 8)) * 2.0
        shm_before = _shm_entries()
        if holder == "server":
            owner = DataOwner(
                8, beta=0.3, hnsw_params=FAST_HNSW, backend=backend, rng=rng
            )
            closeable = server = CloudServer(owner.build_index(vectors))
            user = QueryUser(owner.authorize_user(), rng=rng)
        else:
            closeable = PPANNS(
                8, beta=0.3, hnsw_params=FAST_HNSW, backend=backend, rng=rng
            ).fit(vectors)
            server, user = closeable.server, closeable.user
        batch = user.encrypt_queries(vectors[:4] + 0.01, 5)
        before = server.answer(batch)
        closeable.close()
        closeable.close()  # idempotent
        after = server.answer(batch)
        for old, new in zip(before, after):
            # A full answer carries ids but no distances (the refine
            # phase only compares); the counters pin the same search.
            assert np.array_equal(old.ids, new.ids)
            assert (
                old.filter_stats.distance_computations
                == new.filter_stats.distance_computations
            )
            assert old.filter_stats.hops == new.filter_stats.hops
            assert old.refine_comparisons == new.refine_comparisons
        assert multiprocessing.active_children() == []
        assert _shm_entries() - shm_before == set()


class TestTrustBoundary:
    def test_server_never_sees_plaintext(self, actors):
        # The server's whole state is the EncryptedIndex; none of its
        # arrays may (numerically) contain the plaintext database.
        _, _, server, vectors = actors
        sap = server.index.sap_vectors
        assert not np.allclose(sap[: vectors.shape[0]], vectors)
        dce = server.index.dce_database.components
        assert dce.shape[2] == 2 * 10 + 16  # transformed, not raw width
