"""ServerMetrics: counters, percentiles, histograms, snapshots."""

import numpy as np
import pytest

from repro.core.protocol import SearchResult
from repro.serve.metrics import MetricsSnapshot, ServerMetrics, percentile


class TestPercentile:
    def test_empty_sample(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([3.0], 50) == 3.0
        assert percentile([3.0], 99) == 3.0

    def test_nearest_rank_is_an_observed_value(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0

    def test_small_sample_tails(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 3.0


def _result(filter_seconds=0.25, mask_seconds=0.5, refine_seconds=1.0):
    return SearchResult(
        ids=np.array([1, 2], dtype=np.int64),
        filter_seconds=filter_seconds,
        mask_seconds=mask_seconds,
        refine_seconds=refine_seconds,
    )


class TestServerMetrics:
    def test_counters_accumulate(self):
        metrics = ServerMetrics()
        metrics.record_admitted(queue_depth=1)
        metrics.record_admitted(queue_depth=3)
        metrics.record_rejected()
        metrics.record_batch(2)
        metrics.record_completed(0.010, _result())
        metrics.record_failed(0.020)
        snap = metrics.snapshot()
        assert snap.submitted == 2
        assert snap.completed == 1
        assert snap.failed == 1
        assert snap.rejected == 1
        assert snap.cache_hits == 0
        assert snap.batches == 1
        assert snap.max_queue_depth == 3

    def test_stage_seconds_sum_over_results(self):
        metrics = ServerMetrics()
        metrics.record_completed(0.001, _result())
        metrics.record_completed(0.001, _result())
        snap = metrics.snapshot()
        assert snap.stage_seconds["filter"] == pytest.approx(0.5)
        assert snap.stage_seconds["mask"] == pytest.approx(1.0)
        assert snap.stage_seconds["refine"] == pytest.approx(2.0)

    def test_batch_size_histogram_and_mean(self):
        metrics = ServerMetrics()
        for size in (1, 4, 4, 7):
            metrics.record_batch(size)
        snap = metrics.snapshot()
        assert snap.batch_size_histogram == {1: 1, 4: 2, 7: 1}
        assert snap.mean_batch_size == pytest.approx(4.0)

    def test_latency_percentiles(self):
        metrics = ServerMetrics()
        for ms in range(1, 101):
            metrics.record_completed(ms / 1000.0)
        snap = metrics.snapshot()
        assert snap.latency_p50 == pytest.approx(0.050)
        assert snap.latency_p95 == pytest.approx(0.095)
        assert snap.latency_p99 == pytest.approx(0.099)
        assert snap.latency_max == pytest.approx(0.100)
        assert snap.latency_mean == pytest.approx(0.0505)

    def test_latency_reservoir_is_bounded(self):
        metrics = ServerMetrics(latency_window=4)
        for ms in (1, 2, 3, 4, 100, 100, 100, 100):
            metrics.record_completed(ms / 1000.0)
        # Old latencies aged out of the window of 4.
        assert metrics.snapshot().latency_p50 == pytest.approx(0.100)

    def test_qps_uses_elapsed_window(self):
        metrics = ServerMetrics()
        metrics.record_completed(0.001)
        snap = metrics.snapshot()
        assert snap.qps > 0
        assert snap.elapsed_seconds > 0

    def test_reset_zeroes_everything(self):
        metrics = ServerMetrics()
        metrics.record_admitted(5)
        metrics.record_completed(0.001, _result())
        metrics.record_batch(3)
        metrics.reset()
        snap = metrics.snapshot()
        assert snap.submitted == 0
        assert snap.completed == 0
        assert snap.batches == 0
        assert snap.latency_p50 == 0.0
        assert snap.stage_seconds == {}

    def test_snapshot_is_frozen_and_json_ready(self):
        metrics = ServerMetrics()
        metrics.record_batch(2)
        metrics.record_completed(0.001, _result())
        snap = metrics.snapshot()
        assert isinstance(snap, MetricsSnapshot)
        with pytest.raises(AttributeError):
            snap.completed = 5
        payload = snap.as_dict()
        # Histogram keys stringify for JSON; stage split rides along.
        assert payload["batch_size_histogram"] == {"2": 1}
        assert set(payload["stage_seconds"]) == {"filter", "mask", "refine"}
        assert payload["cache_hits"] == 0
        import json

        json.dumps(payload)

    def test_invalid_latency_window_rejected(self):
        with pytest.raises(ValueError):
            ServerMetrics(latency_window=0)
