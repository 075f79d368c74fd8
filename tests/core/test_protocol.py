"""Request/response protocol tests: SearchRequest validation, batch
message types, result aggregation, the unified ef_search clamp, and
dimension validation at the API boundary."""

import numpy as np
import pytest

from repro.core.errors import ParameterError
from repro.core.protocol import (
    EncryptedQuery,
    EncryptedQueryBatch,
    SearchRequest,
    SearchResult,
    SearchResultBatch,
    resolve_ef_search,
)
from repro.core.roles import CloudServer
from repro.hnsw.graph import SearchStats


class TestSearchRequest:
    def test_defaults(self):
        request = SearchRequest(k=5)
        assert request.ratio_k is None
        assert request.ef_search is None
        assert request.mode == "full"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": -3},
            {"k": 5, "ratio_k": 0},
            {"k": 5, "ef_search": 0},
            {"k": 5, "mode": "refine_only"},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            SearchRequest(**kwargs)

    def test_resolve_precedence(self):
        request = SearchRequest(k=4, ratio_k=3)
        # Explicit override beats the carried value beats the default.
        assert request.resolve(8).ratio_k == 3
        assert request.resolve(8, ratio_k=5).ratio_k == 5
        assert SearchRequest(k=4).resolve(8).ratio_k == 8

    def test_resolve_rejects_bad_override(self):
        with pytest.raises(ParameterError):
            SearchRequest(k=4).resolve(8, ratio_k=0)

    def test_k_prime_requires_resolution(self):
        with pytest.raises(ParameterError):
            _ = SearchRequest(k=4).k_prime
        assert SearchRequest(k=4, ratio_k=3).k_prime == 12


class TestEfSearchClamp:
    def test_clamps_below_k_prime(self):
        assert resolve_ef_search(10, 40) == 40

    def test_passes_through_above(self):
        assert resolve_ef_search(100, 40) == 100

    def test_none_defers_to_backend(self):
        assert resolve_ef_search(None, 40) is None

    def test_both_modes_clamp_identically(self, fitted_scheme, small_dataset):
        """Regression: the filter-only path used to pass ef_search through
        unclamped while the full path raised it to k'; both must clamp now."""
        encrypted = fitted_scheme.user.encrypt_query(small_dataset.queries[0], 10)
        # ef_search=10 < k'=40 would make the graph search raise
        # (ef < k') were it not clamped; both paths must succeed and
        # return k results.
        server = CloudServer(fitted_scheme.server.index)
        full = server.answer(encrypted, ratio_k=4, ef_search=10)
        filt = server.answer_filter_only(encrypted, k_prime=40, ef_search=10)
        assert full.ids.shape[0] == 10
        assert filt.ids.shape[0] == 10


class TestEncryptedQueryBatch:
    def test_from_queries_and_indexing(self, fitted_scheme, small_dataset):
        user = fitted_scheme.user
        queries = [
            user.encrypt_query(small_dataset.queries[i], 5, ratio_k=4)
            for i in range(3)
        ]
        batch = EncryptedQueryBatch.from_queries(queries)
        assert len(batch) == 3
        for i, query in enumerate(queries):
            assert np.array_equal(batch[i].sap_vector, query.sap_vector)
            assert np.array_equal(batch[i].trapdoor.vector, query.trapdoor.vector)
            assert batch[i].request == query.request

    def test_from_queries_rejects_mixed_requests(self, fitted_scheme, small_dataset):
        user = fitted_scheme.user
        with pytest.raises(ParameterError):
            EncryptedQueryBatch.from_queries(
                [
                    user.encrypt_query(small_dataset.queries[0], 5),
                    user.encrypt_query(small_dataset.queries[1], 7),
                ]
            )

    def test_upload_bytes_is_sum_of_queries(self, fitted_scheme, small_dataset):
        batch = fitted_scheme.user.encrypt_queries(small_dataset.queries[:4], 5)
        assert batch.upload_bytes() == sum(
            batch[i].upload_bytes() for i in range(len(batch))
        )


class TestSearchResultBatch:
    def _result(self, ids, seconds=0.5, comparisons=3):
        return SearchResult(
            ids=np.array(ids, dtype=np.int64),
            filter_stats=SearchStats(distance_computations=10, hops=2),
            refine_comparisons=comparisons,
            k_prime=8,
            filter_seconds=seconds,
            mask_seconds=seconds / 10,
            refine_seconds=seconds,
            refine_engine="vectorized",
            refine_kernel_seconds=seconds / 4,
        )

    def test_aggregates(self):
        batch = SearchResultBatch([self._result([1, 2]), self._result([3, 4])])
        assert len(batch) == 2
        assert batch.total_seconds == pytest.approx(2.1)
        assert batch.mean_seconds == pytest.approx(1.05)
        assert batch.refine_comparisons == 6
        assert batch.filter_stats.distance_computations == 20
        assert batch.filter_stats.hops == 4
        assert batch.download_bytes() == 16

    def test_stage_timing_aggregates(self):
        batch = SearchResultBatch([self._result([1, 2]), self._result([3, 4])])
        assert batch.filter_seconds == pytest.approx(1.0)
        assert batch.mask_seconds == pytest.approx(0.1)
        assert batch.refine_seconds == pytest.approx(1.0)
        assert batch.refine_kernel_seconds == pytest.approx(0.25)
        assert batch.total_seconds == pytest.approx(
            batch.filter_seconds + batch.mask_seconds + batch.refine_seconds
        )
        assert batch.refine_engines == ("vectorized",)

    def test_refine_engines_empty_for_filter_only(self):
        result = SearchResult(ids=np.array([1], dtype=np.int64))
        batch = SearchResultBatch([result])
        assert batch.refine_engines == ()
        assert batch.refine_kernel_seconds == 0.0

    def test_ids_matrix_pads_short_rows(self):
        batch = SearchResultBatch([self._result([1, 2, 3]), self._result([4])])
        matrix = batch.ids_matrix()
        assert matrix.shape == (2, 3)
        assert matrix[0].tolist() == [1, 2, 3]
        assert matrix[1].tolist() == [4, -1, -1]


class TestDimensionValidation:
    """Satellite: clear ParameterError at the API boundary, not a numpy
    shape error from deep inside DCE."""

    def test_encrypt_query_rejects_wrong_dim(self, fitted_scheme):
        with pytest.raises(ParameterError):
            fitted_scheme.user.encrypt_query(np.zeros(3), 5)

    def test_encrypt_query_rejects_matrix(self, fitted_scheme, small_dataset):
        with pytest.raises(ParameterError):
            fitted_scheme.user.encrypt_query(small_dataset.queries[:2], 5)

    def test_encrypt_queries_rejects_wrong_dim(self, fitted_scheme):
        with pytest.raises(ParameterError):
            fitted_scheme.user.encrypt_queries(np.zeros((4, 3)), 5)

    def test_server_rejects_wrong_dim_query(self, fitted_scheme, small_dataset):
        query = fitted_scheme.user.encrypt_query(small_dataset.queries[0], 5)
        truncated = EncryptedQuery(
            query.sap_vector[:-2], query.trapdoor, request=query.request
        )
        with pytest.raises(ParameterError):
            fitted_scheme.server.answer(truncated)

    def test_server_rejects_wrong_dim_batch(self, fitted_scheme, small_dataset):
        batch = fitted_scheme.user.encrypt_queries(small_dataset.queries[:3], 5)
        bad = EncryptedQueryBatch(
            batch.sap_vectors[:, :-2],
            batch.trapdoor_vectors,
            batch.key_id,
            batch.request,
        )
        with pytest.raises(ParameterError):
            fitted_scheme.server.answer(bad)
