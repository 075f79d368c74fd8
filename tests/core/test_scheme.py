"""PPANNS facade tests."""

import numpy as np
import pytest

from repro import PPANNS
from repro.core.errors import ParameterError
from repro.eval.metrics import recall_at_k
from tests.conftest import FAST_HNSW


class TestLifecycle:
    def test_server_unavailable_before_fit(self):
        scheme = PPANNS(dim=8, beta=0.5)
        assert not scheme.is_fitted
        with pytest.raises(ParameterError):
            _ = scheme.server

    def test_fit_returns_self(self, small_dataset):
        scheme = PPANNS(
            dim=small_dataset.dim,
            beta=0.3,
            hnsw_params=FAST_HNSW,
            rng=np.random.default_rng(0),
        )
        assert scheme.fit(small_dataset.database) is scheme
        assert scheme.is_fitted

    def test_owner_and_user_share_keys(self, fitted_scheme):
        assert (
            fitted_scheme.owner.dce_scheme.key.key_id
            == fitted_scheme.user._dce.key.key_id
        )


class TestQuerying:
    def test_query_returns_ids(self, fitted_scheme, small_dataset):
        ids = fitted_scheme.query(small_dataset.queries[0], k=10, ef_search=80)
        assert ids.shape == (10,)
        assert len(set(ids.tolist())) == 10

    def test_query_recall(self, fitted_scheme, small_dataset, small_ground_truth):
        recalls = [
            recall_at_k(
                fitted_scheme.query(q, k=10, ratio_k=8, ef_search=120),
                small_ground_truth.for_query(i),
                10,
            )
            for i, q in enumerate(small_dataset.queries)
        ]
        assert np.mean(recalls) >= 0.9

    def test_query_with_report(self, fitted_scheme, small_dataset):
        report = fitted_scheme.query_with_report(small_dataset.queries[0], k=5)
        assert report.ids.shape[0] == 5
        assert report.k_prime == fitted_scheme.server.default_ratio_k * 5

    def test_filter_only_query(self, fitted_scheme, small_dataset):
        report = fitted_scheme.query_filter_only(small_dataset.queries[0], k=5)
        assert report.refine_comparisons == 0

    def test_self_query_finds_self(self, fitted_scheme, small_dataset):
        ids = fitted_scheme.query(small_dataset.database[7], k=5, ef_search=80)
        assert 7 in ids


class TestDeterminismAcrossInstances:
    def test_same_seed_same_results(self, small_dataset):
        def build():
            return PPANNS(
                dim=small_dataset.dim,
                beta=0.3,
                hnsw_params=FAST_HNSW,
                rng=np.random.default_rng(42),
            ).fit(small_dataset.database)

        a = build()
        b = build()
        query = small_dataset.queries[0]
        ids_a = a.query(query, k=10, ef_search=80)
        ids_b = b.query(query, k=10, ef_search=80)
        assert np.array_equal(np.sort(ids_a), np.sort(ids_b))


class TestRefitScope:
    """A re-``fit`` does not strand frontends built before it.

    A frontend created before a re-``fit`` still serves the old server
    object; mutations through the facade touch only the new index.
    """

    def _scheme(self, small_dataset):
        return PPANNS(
            dim=small_dataset.dim,
            beta=0.3,
            hnsw_params=FAST_HNSW,
            rng=np.random.default_rng(7),
        ).fit(small_dataset.database)

    def test_old_frontend_keeps_answering_over_the_old_server(self, small_dataset):
        scheme = self._scheme(small_dataset)
        old_server = scheme.server
        old_frontend = scheme.serve()
        with old_frontend:
            query = scheme.user.encrypt_query(small_dataset.queries[0], k=3)
            before = old_frontend.answer(query, timeout=30)

            scheme.fit(small_dataset.database)  # old_frontend keeps the old server
            assert scheme.server is not old_server
            with scheme.serve() as new_frontend:
                new_frontend.answer(
                    scheme.user.encrypt_query(small_dataset.queries[1], k=3),
                    timeout=30,
                )
                scheme.insert(small_dataset.database[0] + 0.5)

            assert old_frontend.server is old_server
            after = old_frontend.answer(query, timeout=30)
            assert np.array_equal(after.ids, before.ids)
