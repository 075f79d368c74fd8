"""Self-tests of the benchmark harness (collected by the tier-1 run).

They pin the harness's own rules — which percentile a sample supports,
that an open loop times from the due time, what a span's self time is,
how ``compare.py`` classifies — and that the names a run emits are
exactly the names ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run as e2e_run  # noqa: E402

e2e_run.bootstrap()   # puts src/ on the path when PYTHONPATH does not

from e2e_loadgen import (  # noqa: E402
    highest_supported_percentile,
    run_open_loop,
    summarize_windows,
)
from e2e_spans import SpanRecorder, self_times  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((e2e_run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_percentile_rule_needs_ten_samples_beyond():
    # 200 samples: p95 leaves 10 beyond, p99 only 2.
    assert highest_supported_percentile(200) == 95.0
    assert highest_supported_percentile(199) == 90.0
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(10_000) == 99.9
    # Too few for any tail: fall back to the median.
    assert highest_supported_percentile(12) == 50.0


def test_window_medians_shrug_off_a_burst():
    """Ten one-second windows of 1 ms requests; three of them stall."""
    done, latencies = [], []
    for second in range(10):
        slow = second in (3, 4, 5)
        for i in range(100):
            done.append(second + (i + 1) / 100.0)
            latencies.append(0.050 if slow and i % 2 else 0.001)
    queries = [1] * len(done)
    windows = summarize_windows(done, latencies, queries, 10.0, 1.0)
    assert windows["windows"] == 10
    assert windows["p50"] == pytest.approx(0.001)
    # 15 % of all requests were slow, so a whole-run p95 reads 50 ms.
    assert windows["p95"] == pytest.approx(0.001)
    assert sorted(latencies)[int(0.95 * len(latencies))] == pytest.approx(0.050)
    # Throughput is answers over the time they took, not a count per second.
    assert windows["qps"] == pytest.approx(100.0)
    # A window with no completions lengthens the next one's span.
    gap = summarize_windows([0.5, 2.5], [0.1, 0.1], [1, 1], 3.0, 1.0)
    assert gap["windows"] == 2
    assert gap["qps"] == pytest.approx(statistics.median([1 / 0.5, 1 / 2.0]))
    # A request that completes after the phase belongs to the last window.
    late = summarize_windows([0.5, 1.5, 2.4], [0.1, 0.1, 0.9], [1, 1, 1], 2.0, 1.0)
    assert late["windows"] == 2 and late["p95"] == pytest.approx(0.5)


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_times_from_due_time():
    """A 100 ms stall must inflate the requests queued behind it."""
    clock = _FakeClock()
    due_offsets = [0.010 * i for i in range(10)]
    from_due, from_send = {}, {}

    def issue(i, due):
        sent = clock()
        clock.sleep(0.100 if i == 3 else 0.001)   # request 3 stalls the sender
        from_due[i] = clock() - due
        from_send[i] = clock() - sent

    _, lateness = run_open_loop(due_offsets, issue, clock=clock, sleep=clock.sleep)
    assert from_due[2] == pytest.approx(0.001)
    assert from_due[3] == pytest.approx(0.100)
    # Request 4 was due 10 ms after request 3 but could only go 90 ms late;
    # timed from its send it would look like an ordinary 1 ms request.
    assert from_send[4] == pytest.approx(0.001)
    assert from_due[4] == pytest.approx(0.091)
    assert lateness[4] == pytest.approx(0.090)
    assert lateness[2] == pytest.approx(0.0)


def test_span_self_time_is_duration_minus_child_coverage():
    ticks = iter([0.0, 1.0, 3.0, 2.0, 6.0, 10.0])   # root, a, a, b, b, root
    recorder = SpanRecorder(clock=lambda: next(ticks))
    with recorder.span("r", "root") as root:
        with recorder.span("r", "a", root):
            pass
        with recorder.span("r", "b", root):
            pass
    by_name = {span["name"]: span for span in recorder.spans}
    own = self_times(recorder.spans)
    # Children cover [1, 3] and [2, 6]: their union is 5 of the root's 10.
    assert own[by_name["root"]["id"]] == pytest.approx(5.0)
    assert own[by_name["a"]["id"]] == pytest.approx(2.0)
    assert by_name["a"]["parent"] == by_name["root"]["id"]
    assert {span["request_id"] for span in recorder.spans} == {"r"}


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder(enabled=False)
    with recorder.span(1, "request") as root:
        recorder.add(1, "child", 0.0, 1.0, parent=root)
    assert recorder.spans == []


def test_compare_classifies_ok_regressed_unresolved():
    assert compare.classify(worse=0.02, noise=0.01, bound=0.10) == "ok"
    assert compare.classify(worse=-0.30, noise=0.01, bound=0.10) == "ok"
    assert compare.classify(worse=0.20, noise=0.03, bound=0.10) == "regressed"
    assert compare.classify(worse=0.05, noise=0.12, bound=0.10) == "unresolved"
    # Worse than the bound but inside the noise: cannot be called either way.
    assert compare.classify(worse=0.11, noise=0.12, bound=0.10) == "unresolved"
    assert compare.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert compare.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)


def _summary(median, values):
    entry = {"unit": "ms", **e2e_run._spread(values)}
    entry["median"] = median
    return {"workloads": {"w": {"end_to_end": {"request_p50_ms": entry},
                                "per_layer": {}}}}


def test_compare_end_to_end_on_synthetic_summaries():
    declared = {"end_to_end": [
        {"name": "request_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10}]}
    steady = _summary(10.0, [9.9, 10.0, 10.1])
    rows, regressed = compare.compare(steady, _summary(10.5, [10.4, 10.5, 10.6]),
                                      declared)
    assert (rows[0][0], regressed) == ("ok", False)
    rows, regressed = compare.compare(steady, _summary(12.0, [11.9, 12.0, 12.1]),
                                      declared)
    assert (rows[0][0], regressed) == ("regressed", True)
    rows, regressed = compare.compare(steady, _summary(10.5, [8.0, 10.5, 13.0]),
                                      declared)
    assert (rows[0][0], regressed) == ("unresolved", False)


def test_benchmark_json_is_within_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert 1 <= DECLARED["run_seconds"] <= 60
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    names = []
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.fixture(scope="module")
def smoke_passes():
    """Every workload, both passes, at smoke size (tiny n, 0.3 s)."""
    return {
        (name, trace): e2e_run.run_pass(name, 11, 0.3, bool(trace), smoke=True)
        for name in WORKLOADS for trace in (0, 1)
    }


def test_smoke_emits_exactly_the_declared_names(smoke_passes):
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    exercised = set()
    for (name, trace), result in smoke_passes.items():
        correct, attempted, failed, metrics, _ = result
        assert correct and attempted >= 1 and failed == 0, (name, trace)
        assert set(metrics) == (per_layer if trace else end_to_end), (name, trace)
        assert all(NAME.match(metric) for metric in metrics)
        if trace:
            exercised |= {metric for metric, value in metrics.items() if value}
        else:
            # End-to-end metrics are never 0: a bound is a share of them.
            assert all(value > 0 for value in metrics.values()), (name, metrics)
    # No dead names: every per-layer metric moves on at least one workload,
    # except the failure counters, which stay 0 on a healthy run.
    quiet = {"net.retries", "net.refused", "frontend.rejected",
             "frontend.cache_hits", "loadgen.slo_miss_ratio"}
    assert per_layer - exercised <= quiet


def test_smoke_waterfall_shows_the_expected_gaps(smoke_passes):
    net = smoke_passes[("online_hnsw_net", 1)][3]
    assert net["net.transport_overhead_ms"] > 0
    assert net["scheduler.wait_ms"] > 0
    assert net["codec.query_frame_bytes"] > net["user.upload_bytes"]
    bypassed = smoke_passes[("batch_bruteforce_inproc", 1)][3]
    assert bypassed["codec.encode_query_us"] == 0
    assert bypassed["scheduler.batches"] == 0
    mixed = smoke_passes[("mixed_nsg_journal", 1)][3]
    assert mixed["journal.segments"] > 0
    assert mixed["journal.bytes_per_mutation"] > 0
    sharded = smoke_passes[("saturation_ivf_sharded_inproc", 1)][3]
    assert sharded["sharding.shard_skew"] >= 1.0
    assert sharded["scheduler.mean_batch_size"] > 1
    for name in WORKLOADS:
        assert (e2e_run.HERE / "out" / f"trace-{name}.jsonl").is_file()
