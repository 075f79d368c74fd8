"""Algorithm 2 tests: filter-and-refine correctness and instrumentation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.errors import KeyMismatchError, ParameterError
from repro.core.roles import CloudServer
from repro.eval.metrics import recall_at_k
from repro.hnsw.bruteforce import exact_knn


def _server(scheme):
    """A default-engine server over the scheme's index."""
    return CloudServer(scheme.server.index)


class TestFilterAndRefine:
    def test_high_recall_with_generous_parameters(self, fitted_scheme, small_dataset, small_ground_truth):
        recalls = []
        for i, query in enumerate(small_dataset.queries):
            encrypted = fitted_scheme.user.encrypt_query(query, 10)
            report = _server(fitted_scheme).answer(
                encrypted, ratio_k=8, ef_search=120
            )
            recalls.append(recall_at_k(report.ids, small_ground_truth.for_query(i), 10))
        assert np.mean(recalls) >= 0.9

    def test_returns_k_results(self, fitted_scheme, small_dataset):
        encrypted = fitted_scheme.user.encrypt_query(small_dataset.queries[0], 7)
        report = _server(fitted_scheme).answer(encrypted, ratio_k=4)
        assert report.ids.shape[0] == 7

    def test_results_subset_of_filter_candidates(self, fitted_scheme, small_dataset):
        query = small_dataset.queries[0]
        encrypted = fitted_scheme.user.encrypt_query(query, 5)
        server = _server(fitted_scheme)
        full_report = server.answer(encrypted, ratio_k=8, ef_search=100)
        assert full_report.k_prime == 40
        # The whole k'=40 candidate list: a filter_only answer with
        # k = k' = 40 over the same C_SAP(q) and beam width.
        candidates = server.answer(
            replace(
                encrypted,
                request=replace(
                    encrypted.request, k=40, ratio_k=1, ef_search=100,
                    mode="filter_only",
                ),
            )
        )
        assert candidates.ids.shape[0] == 40
        # Refine only reorders/selects among the filter candidates.
        assert set(full_report.ids.tolist()) <= set(candidates.ids.tolist())

    def test_refine_improves_on_filter(self, small_dataset, small_ground_truth):
        # With noticeable DCPE noise, refine must beat filter-only at k'>k.
        from repro import PPANNS
        from tests.conftest import FAST_HNSW

        noisy = PPANNS(
            dim=small_dataset.dim,
            beta=2.0,
            hnsw_params=FAST_HNSW,
            rng=np.random.default_rng(77),
        ).fit(small_dataset.database)
        filter_recalls = []
        refined_recalls = []
        for i, query in enumerate(small_dataset.queries):
            truth = small_ground_truth.for_query(i)
            filt = noisy.query_filter_only(query, 10, ef_search=150)
            refined = noisy.query_with_report(query, 10, ratio_k=8, ef_search=150)
            filter_recalls.append(recall_at_k(filt.ids, truth, 10))
            refined_recalls.append(recall_at_k(refined.ids, truth, 10))
        assert np.mean(refined_recalls) >= np.mean(filter_recalls)

    def test_comparison_count_bounded(self, fitted_scheme, small_dataset):
        # Refine cost is O(k' log k): generous upper bound check.
        k, ratio = 10, 8
        encrypted = fitted_scheme.user.encrypt_query(small_dataset.queries[0], k)
        report = _server(fitted_scheme).answer(encrypted, ratio_k=ratio)
        k_prime = ratio * k
        assert report.refine_comparisons <= k_prime * (int(np.log2(k)) + 3)
        assert report.refine_comparisons >= k_prime - k

    def test_timings_populated(self, fitted_scheme, small_dataset):
        encrypted = fitted_scheme.user.encrypt_query(small_dataset.queries[0], 10)
        report = _server(fitted_scheme).answer(encrypted, ratio_k=4)
        assert report.filter_seconds > 0
        assert report.refine_seconds > 0
        assert report.mask_seconds >= 0
        # The stage timings account for the whole pipeline: filter,
        # liveness masking, and refine sum to the total.
        assert report.total_seconds == pytest.approx(
            report.filter_seconds + report.mask_seconds + report.refine_seconds
        )
        assert 0 <= report.refine_kernel_seconds <= report.refine_seconds

    def test_k_prime_below_k_rejected(self, fitted_scheme, small_dataset):
        encrypted = fitted_scheme.user.encrypt_query(small_dataset.queries[0], 10)
        with pytest.raises(ParameterError):
            # ratio_k=0 asks for k' = 0 < k.
            _server(fitted_scheme).answer(encrypted, ratio_k=0)

    def test_foreign_trapdoor_rejected(self, fitted_scheme, small_dataset):
        from repro import PPANNS
        from tests.conftest import FAST_HNSW

        other = PPANNS(
            dim=small_dataset.dim,
            beta=0.3,
            hnsw_params=FAST_HNSW,
            rng=np.random.default_rng(5),
        ).fit(small_dataset.database[:50])
        foreign = other.user.encrypt_query(small_dataset.queries[0], 10)
        with pytest.raises(KeyMismatchError):
            _server(fitted_scheme).answer(foreign, ratio_k=4)


class TestFilterOnly:
    def test_filter_only_returns_k(self, fitted_scheme, small_dataset):
        encrypted = fitted_scheme.user.encrypt_query(small_dataset.queries[0], 10)
        report = _server(fitted_scheme).answer_filter_only(encrypted, ef_search=60)
        assert report.ids.shape[0] == 10
        assert report.refine_comparisons == 0

    def test_filter_only_k_prime_validation(self, fitted_scheme, small_dataset):
        encrypted = fitted_scheme.user.encrypt_query(small_dataset.queries[0], 10)
        with pytest.raises(ParameterError):
            _server(fitted_scheme).answer_filter_only(encrypted, k_prime=5)

    def test_filter_only_k_prime_defaults_to_k(self, fitted_scheme, small_dataset):
        """k' = k unless ``k_prime`` is given, whatever ratio_k the query
        carries; a ``k_prime`` that is not a multiple of k is refused."""
        server = _server(fitted_scheme)
        encrypted = fitted_scheme.user.encrypt_query(
            small_dataset.queries[0], 10, ratio_k=8
        )
        assert server.answer_filter_only(encrypted).k_prime == 10
        assert server.answer_filter_only(encrypted, k_prime=30).k_prime == 30
        with pytest.raises(ParameterError, match="multiple of k"):
            server.answer_filter_only(encrypted, k_prime=15)


class TestEncryptedQuery:
    def test_upload_bytes(self, fitted_scheme, small_dataset):
        # C_SAP(q): 4d bytes; T_q: 8*(2d+16); k: 4.
        d = small_dataset.dim
        encrypted = fitted_scheme.user.encrypt_query(small_dataset.queries[0], 10)
        assert encrypted.upload_bytes() == 4 * d + 8 * (2 * d + 16) + 4

    def test_rejects_nonpositive_k(self, fitted_scheme, small_dataset):
        with pytest.raises(ParameterError):
            fitted_scheme.user.encrypt_query(small_dataset.queries[0], 0)

    def test_download_bytes(self, fitted_scheme, small_dataset):
        encrypted = fitted_scheme.user.encrypt_query(small_dataset.queries[0], 10)
        report = _server(fitted_scheme).answer(encrypted, ratio_k=4)
        assert report.download_bytes() == 4 * 10


class TestAgainstBruteForce:
    def test_beta_zero_ratio_large_matches_exact(self, small_dataset):
        # With no DCPE noise and a wide beam, results must equal exact kNN.
        from repro import PPANNS
        from tests.conftest import FAST_HNSW

        scheme = PPANNS(
            dim=small_dataset.dim,
            beta=0.0,
            hnsw_params=FAST_HNSW,
            rng=np.random.default_rng(8),
        ).fit(small_dataset.database)
        for query in small_dataset.queries[:5]:
            ids = scheme.query(query, k=5, ratio_k=16, ef_search=200)
            exact_ids, _ = exact_knn(small_dataset.database, query, 5)
            assert set(ids.tolist()) == set(exact_ids.tolist())
