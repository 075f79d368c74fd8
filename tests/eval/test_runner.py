"""Sweep runner tests."""

import pytest

from repro.core.errors import ParameterError
from repro.eval.runner import (
    ground_truth,
    sweep_filter_only,
    sweep_ppanns,
    sweep_refine_engine,
    sweep_shards,
)


class TestSweeps:
    def test_sweep_ppanns(self, fitted_scheme, small_dataset):
        truth = ground_truth(small_dataset.database, small_dataset.queries, 10)
        curve = sweep_ppanns(
            fitted_scheme,
            small_dataset.queries,
            truth,
            k=10,
            ratio_k=8,
            ef_grid=(20, 80),
        )
        assert len(curve.points) == 2
        assert curve.points[0].parameter == 20
        # Wider beam: recall no worse (small tolerance for measurement noise).
        assert curve.points[1].recall >= curve.points[0].recall - 0.05
        for point in curve.points:
            assert 0 <= point.recall <= 1
            assert point.qps > 0

    def test_sweep_filter_only(self, fitted_scheme, small_dataset):
        truth = ground_truth(small_dataset.database, small_dataset.queries, 10)
        curve = sweep_filter_only(
            fitted_scheme, small_dataset.queries, truth, k=10, ef_grid=(40,)
        )
        assert curve.label == "HNSW(filter)"
        assert len(curve.points) == 1

    def test_sweep_shards(self, small_dataset):
        truth = ground_truth(small_dataset.database, small_dataset.queries, 10)
        curve = sweep_shards(
            small_dataset.database,
            small_dataset.queries,
            truth,
            k=10,
            shard_grid=(1, 2),
            beta=0.3,
            backend="bruteforce",
            ratio_k=4,
        )
        assert curve.label == "sharded(bruteforce)"
        assert [point.parameter for point in curve.points] == [1.0, 2.0]
        # The brute-force filter is exact, so recall is shard-invariant.
        assert curve.points[0].recall == curve.points[1].recall
        for point in curve.points:
            assert point.mean_latency_seconds > 0

    def test_sweep_refine_engine(self, fitted_scheme, small_dataset):
        truth = ground_truth(small_dataset.database, small_dataset.queries, 10)
        curves = sweep_refine_engine(
            fitted_scheme,
            small_dataset.queries,
            truth,
            k=10,
            ratio_k=8,
            ef_grid=(40, 120),
        )
        assert [curve.label for curve in curves] == [
            "refine=heap",
            "refine=vectorized",
        ]
        heap, vectorized = curves
        # The vectorized engine is bit-identical, so recalls coincide at
        # every operating point.
        for heap_point, vec_point in zip(heap.points, vectorized.points):
            assert heap_point.recall == vec_point.recall
            assert vec_point.qps > 0

    def test_sweep_refine_engine_truth_mismatch_rejected(self, fitted_scheme, small_dataset):
        with pytest.raises(ParameterError):
            sweep_refine_engine(
                fitted_scheme, small_dataset.queries, [], k=10, ratio_k=4,
                ef_grid=(20,),
            )

    def test_sweep_shards_truth_mismatch_rejected(self, small_dataset):
        with pytest.raises(ParameterError):
            sweep_shards(
                small_dataset.database,
                small_dataset.queries,
                [],
                k=10,
                shard_grid=(2,),
                beta=0.3,
            )

    def test_truth_mismatch_rejected(self, fitted_scheme, small_dataset):
        with pytest.raises(ParameterError):
            sweep_ppanns(
                fitted_scheme, small_dataset.queries, [], k=10, ratio_k=4, ef_grid=(20,)
            )


class TestMethodCurve:
    def test_qps_at_recall(self, fitted_scheme, small_dataset):
        truth = ground_truth(small_dataset.database, small_dataset.queries, 10)
        curve = sweep_ppanns(
            fitted_scheme, small_dataset.queries, truth, k=10, ratio_k=8,
            ef_grid=(40, 120),
        )
        floor = curve.points[0].recall
        assert curve.qps_at_recall(floor) is not None
        assert curve.qps_at_recall(1.1) is None
        assert curve.best_recall() == max(p.recall for p in curve.points)
