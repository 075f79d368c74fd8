"""Sweep runner tests."""

import pytest

from repro.core.errors import ParameterError
from repro.eval.runner import sweep_filter_only


class TestSweeps:
    def test_sweep_filter_only(self, fitted_scheme, small_dataset, small_ground_truth):
        curve = sweep_filter_only(
            fitted_scheme, small_dataset.queries, small_ground_truth.ids,
            k=10, ef_grid=(40,),
        )
        assert curve.label == "HNSW(filter)"
        assert len(curve.points) == 1

    def test_truth_mismatch_rejected(self, fitted_scheme, small_dataset):
        with pytest.raises(ParameterError):
            sweep_filter_only(
                fitted_scheme, small_dataset.queries, [], k=10, ef_grid=(20,)
            )


class TestMethodCurve:
    def test_qps_at_recall(self, fitted_scheme, small_dataset, small_ground_truth):
        curve = sweep_filter_only(
            fitted_scheme, small_dataset.queries, small_ground_truth.ids,
            k=10, ef_grid=(40, 120),
        )
        floor = curve.points[0].recall
        assert curve.qps_at_recall(floor) is not None
        assert curve.qps_at_recall(1.1) is None
        assert curve.best_recall() == max(p.recall for p in curve.points)
