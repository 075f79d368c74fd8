"""The repo's end-to-end benchmark: one command, four workloads.

Two ways to run it, from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One pass of one workload in this process.  ``--trace 0`` measures for
    ``S`` seconds with tracing off and reports the end-to-end metrics;
    ``--trace 1`` runs the traced pass (a fixed request count, so its
    exact counts repeat for a fixed seed), prints the per-layer
    waterfall, writes ``out/trace-<workload>.jsonl`` and reports the
    per-layer metrics.  The last line of standard output is one JSON
    object: ``{"correct", "attempted", "failed", "metrics"}``.

``python3 benchmarks/e2e/run.py --seed N [--repeat R] [--out FILE] [--smoke]``
    Every workload, each pass in its own fresh subprocess (so peak RSS
    and lazy state do not bleed across workloads), untraced then traced,
    ``R`` times; prints every metric by name with its unit and sample
    count and writes the summary ``compare.py`` reads.

The exit code is non-zero when an answer disagrees with the oracle, when
``recall_at_10`` falls under 0.5, when the open-loop generator ran late
or ended with a backlog (the numbers are then the generator's, not the
program's), or when a child process, port or ``/dev/shm`` segment is
left behind.  ``BENCHMARK.json`` at the root declares the metric names,
units and bounds; this benchmark claims no gain (``"claim": null``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Hard cap on one pass (set-up, load loop, oracle), in seconds.
PASS_TIMEOUT = 170
#: The open-loop generator must keep its p95 lateness under this.
MAX_LATENESS_SECONDS = 0.005



def declared_units(section: str) -> dict:
    """``{metric name: unit}`` of one ``BENCHMARK.json`` section.

    The file at the repo root is the one declaration of metric names,
    units and bounds; the harness reads it rather than repeating it.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def bootstrap() -> None:
    """Make the harness modules and the program under test importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {SRC / 'repro'} is missing")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _shm_entries() -> set:
    """Names under /dev/shm (the process plane's arenas live there)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _child_pids() -> set:
    """Live direct children of this process (Linux ``/proc`` only)."""
    pids = set()
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[1]) == os.getpid():
            pids.add(int(entry))
    return pids


def _measured(spec, ctx, inputs, outcomes, seconds, setup_seconds, rss_mb):
    """End-to-end metrics and the detail block of one untraced pass.

    The gated latency and throughput figures are medians over the run's
    windows (:func:`e2e_loadgen.summarize_windows`); the whole-run
    figures go into the detail block beside them.
    """
    from e2e_loadgen import summarize_latencies, summarize_windows

    checked, mismatches, recall = spec.verify(ctx, inputs, outcomes)
    reads = outcomes.of_kind("read")
    latency = summarize_latencies([row.latency for row in reads])
    windows = summarize_windows(
        [row.done_at - outcomes.started_at for row in reads],
        [row.latency for row in reads], [row.queries for row in reads],
        seconds, spec.window_seconds,
    )
    answered = sum(row.queries for row in reads)
    finished = max(row.done_at for row in outcomes.rows if not row.error)
    mutations = [row.latency for kind in ("insert", "delete")
                 for row in outcomes.of_kind(kind)]
    attempted = len(outcomes.rows)
    failed = outcomes.errors() + mismatches
    generator_ok = spec.loop != "open" or (
        outcomes.lateness_p95() <= MAX_LATENESS_SECONDS
        and outcomes.backlog_at_end <= spec.rate * 0.2
    )
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "request_p50_ms": windows["p50"] * 1e3,
        "request_p95_ms": windows["p95"] * 1e3,
        "served_qps": windows["qps"],
        "recall_at_10": recall,
        "comm_bytes_per_query": sum(row.comm_bytes for row in reads) / answered,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "samples": latency["samples"],
        "windows": windows["windows"],
        "queries_answered": answered,
        "whole_run_p50_ms": latency["p50"] * 1e3,
        "whole_run_p95_ms": latency["p95"] * 1e3,
        "whole_run_qps": answered / (finished - outcomes.started_at),
        "request_p99_ms": latency["p99"] * 1e3,
        "tail_percentile": latency["tail_percentile"],
        "request_tail_ms": latency["tail"] * 1e3,
        "fail_ratio": failed / attempted,
        "oracle_checked": checked,
        "oracle_mismatches": mismatches,
        "mutation_p50_ms":
            statistics.median(mutations) * 1e3 if mutations else None,
        "mutation_samples": len(mutations),
        "slo_miss_ratio": outcomes.slo_miss_ratio(),
        "lateness_p95_ms": outcomes.lateness_p95() * 1e3,
        "backlog_at_end": outcomes.backlog_at_end,
        "setup_seconds": list(setup_seconds),
    }
    correct = mismatches == 0 and recall >= 0.5 and generator_ok
    return correct, attempted, failed, metrics, detail


WATERFALL_ROWS = (
    # layer, busy keys (us), derived?, count keys
    ("user", ("user.encrypt_us",), False, ("user.upload_bytes",)),
    ("codec", ("codec.encode_query_us", "codec.decode_query_us",
               "codec.encode_result_us", "codec.decode_result_us"), False,
     ("codec.query_frame_bytes", "codec.result_frame_bytes")),
    ("net", ("net.transport_overhead_ms",), True, ("net.retries", "net.refused")),
    ("serve.frontend", ("frontend.submit_us",), False,
     ("frontend.rejected", "frontend.cache_hits")),
    ("serve.scheduler", ("scheduler.wait_ms",), True,
     ("scheduler.mean_batch_size", "scheduler.batches",
      "scheduler.max_queue_depth")),
    ("search", ("search.overhead_us", "search.mask_us"), False, ()),
    ("filter", ("filter.us_per_query",), False,
     ("filter.distance_computations_per_query", "filter.hops_per_query",
      "executor.scatter_overhead_us", "sharding.shard_skew")),
    ("refine", ("refine.us_per_query",), False,
     ("refine.comparisons_per_query", "refine.k_prime")),
)


def waterfall(layers: dict, client_wall_us: float) -> "tuple[list, float]":
    """Rows ``(layer, busy us/query, share of client wall, counts)``.

    Layers timed directly (a span around the call, or a stage clock the
    layer exposes) add up to the attributed time; ``net`` and
    ``serve.scheduler`` are subtractions between two timed paths and are
    listed but not counted, so ``trace.unattributed_share`` says how much
    of the client's wall no directly timed layer accounts for.
    """
    rows, attributed = [], 0.0
    for layer, keys, derived, count_keys in WATERFALL_ROWS:
        busy = sum(
            layers.get(key, 0.0) * (1e3 if key.endswith("_ms") else 1.0)
            for key in keys
        )
        if not derived:
            attributed += busy
        counts = ", ".join(
            f"{key.split('.', 1)[1]}={layers[key]:.6g}"
            for key in count_keys if layers.get(key)
        )
        rows.append((layer + (" (derived)" if derived else ""), busy,
                     busy / client_wall_us, counts))
    unattributed = 1.0 - attributed / client_wall_us
    rows.append(("unattributed", client_wall_us - attributed, unattributed, ""))
    return rows, unattributed


def print_waterfall(name: str, rows, client_wall_us: float) -> None:
    """One table per workload: layer, busy us/query, share, counts."""
    print(f"waterfall {name}: client wall {client_wall_us:.1f} us/query")
    print(f"  {'layer':<26}{'busy us/query':>14}{'share':>9}  counts")
    for layer, busy, share, counts in rows:
        print(f"  {layer:<26}{busy:>14.1f}{share:>9.3f}  {counts}")


def _traced(spec, ctx, inputs, budget, baseline):
    """The traced pass: same loop, fixed count, spans on; per-layer metrics."""
    from e2e_loadgen import summarize_latencies
    from e2e_spans import SpanRecorder, self_times
    from e2e_workloads import OUT_DIR

    recorder = SpanRecorder()
    outcomes = spec.measure(ctx, inputs, budget, recorder)
    checked, mismatches, recall = spec.verify(ctx, inputs, outcomes)
    report = spec.layers(ctx, inputs, outcomes, recorder)
    layers = dict(report.metrics, **ctx.build)
    mismatches += report.id_mismatches

    reads = outcomes.of_kind("read")
    queries = max(1, sum(row.queries for row in reads))
    latency = summarize_latencies([row.latency for row in reads])
    untraced = summarize_latencies(
        [row.latency for row in baseline.of_kind("read")])
    client_wall_us = report.client_wall_us
    if client_wall_us is None:
        client_wall_us = sum(row.latency for row in reads) / queries * 1e6
    rows, unattributed = waterfall(layers, client_wall_us)
    # What the harness itself spends inside the timed interval: the root
    # spans' self time (duration minus what their child spans cover).
    own = self_times(recorder.spans)
    harness_us = sum(
        own[span["id"]] for span in recorder.spans if span["name"] == "request"
    ) / queries * 1e6
    rows.append(("  of which harness", harness_us, harness_us / client_wall_us, ""))
    layers.update({
        "loadgen.samples": latency["samples"],
        "loadgen.lateness_p95_ms": outcomes.lateness_p95() * 1e3,
        "loadgen.request_p99_ms": latency["p99"] * 1e3,
        "loadgen.slo_miss_ratio": outcomes.slo_miss_ratio(),
        "trace.overhead_ratio": latency["p50"] / untraced["p50"],
        "trace.unattributed_share": unattributed,
    })
    declared = declared_units("per_layer")
    unknown = set(layers) - set(declared)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    # A layer this workload's path bypasses did no work: it reports 0.
    metrics = {name: float(layers.get(name, 0.0)) for name in declared}
    recorder.write(OUT_DIR / f"trace-{spec.name}.jsonl")
    print_waterfall(spec.name, rows, client_wall_us)
    detail = {
        "spans": len(recorder.spans),
        "oracle_checked": checked,
        "oracle_mismatches": mismatches,
        "recall_at_10": recall,
        "waterfall": [list(row) for row in rows],
        "client_wall_us": client_wall_us,
    }
    correct = mismatches == 0 and recall >= 0.5
    failed = outcomes.errors() + mismatches
    return correct, len(outcomes.rows), failed, metrics, detail


def _on_timeout(signum, frame):
    raise TimeoutError(f"pass exceeded its hard cap of {PASS_TIMEOUT} s")


def run_pass(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One pass of one workload in this process.

    Returns ``(correct, attempted, failed, metrics, detail)``.  Whatever
    happens — success, a failed check, an exception or the hard timeout —
    the child server, the temporary directories and any shared-memory
    segment are gone when this returns, and that is asserted.
    """
    bootstrap()
    from e2e_spans import SpanRecorder
    from e2e_workloads import WORKLOADS, Budget

    spec = WORKLOADS[name]
    shm_before, children_before = _shm_entries(), _child_pids()
    armed = hasattr(signal, "SIGALRM") and (
        signal.getsignal(signal.SIGALRM) in (signal.SIG_DFL, None))
    if armed:
        signal.signal(signal.SIGALRM, _on_timeout)
        signal.alarm(PASS_TIMEOUT)
    ctx = None
    try:
        inputs = spec.make_inputs(seed, smoke)
        setup_seconds = []

        def fresh_setup():
            nonlocal ctx
            if ctx is not None:
                spec.teardown(ctx)
                ctx = None
            began = time.perf_counter()
            ctx = spec.setup(inputs)
            spec.warm_up(ctx, inputs)
            setup_seconds.append(time.perf_counter() - began)

        if trace:
            # The same replay twice from the same fresh state, spans off
            # then on: their p50 ratio is the tracing overhead.
            budget = Budget(count=spec.traced_requests(smoke))
            fresh_setup()
            baseline = spec.measure(ctx, inputs, budget, SpanRecorder(enabled=False))
            fresh_setup()
            outcome = _traced(spec, ctx, inputs, budget, baseline)
            spec.teardown(ctx)
            ctx = None
        else:
            for _ in range(1 if smoke else spec.setup_repeats):
                fresh_setup()
            outcomes = spec.measure(
                ctx, inputs, Budget(seconds=seconds), SpanRecorder(enabled=False))
            own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            closing = ctx
            spec.teardown(ctx)
            ctx = None
            outcome = _measured(
                spec, closing, inputs, outcomes, seconds, setup_seconds,
                spec.peak_rss_mb(closing, own_rss),
            )
    finally:
        if ctx is not None:
            spec.teardown(ctx)
        if armed:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
    leaked = sorted(_shm_entries() - shm_before)
    children = sorted(_child_pids() - children_before)
    if leaked or children:
        raise RuntimeError(
            f"left behind: /dev/shm {leaked}, child processes {children}")
    return outcome


# -- every workload, each pass in its own subprocess ------------------------------


def _run_subprocess(name, seed, seconds, trace, smoke):
    """Run one pass in a fresh interpreter; returns its parsed result."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT + 20, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "hard timeout", "metrics": {}}
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.startswith(("waterfall", "  ")):
            print(line)
    if done.returncode != 0 and (not lines or not lines[-1].startswith("{")):
        sys.stderr.write(done.stderr[-2000:])
        return {"correct": False, "error": f"exit {done.returncode}",
                "metrics": {}}
    result = json.loads(lines[-1])
    detail = [line for line in lines if line.startswith("DETAIL ")]
    result["detail"] = json.loads(detail[-1][7:]) if detail else {}
    return result


def environment(seed: int, seconds: float) -> dict:
    """The stamp every summary carries, so a number is never read bare."""
    import numpy

    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        head = None
    threads = (os.environ.get("OPENBLAS_NUM_THREADS")
               or os.environ.get("OMP_NUM_THREADS"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(threads) if threads else os.cpu_count(),
        "git_head": head,
        "seed": seed,
        "seconds": seconds,
        "platform": platform.platform(),
    }


def _spread(values) -> dict:
    """Median and quartiles of one metric's repeated values."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"values": list(values), "median": median, "q1": q1, "q3": q3}


def run_all(seed, seconds, repeat, smoke, traces, only=None) -> dict:
    """Run the workloads ``repeat`` times; returns the summary document."""
    bootstrap()
    from e2e_workloads import WORKLOADS

    names = [only] if only else list(WORKLOADS)
    summary = {
        "schema": 1,
        "claim": None,
        "environment": environment(seed, seconds),
        "repeat": repeat,
        "smoke": smoke,
        "workloads": {},
    }
    ok = True
    for name in names:
        block = {"loop": WORKLOADS[name].loop, "end_to_end": {}, "per_layer": {},
                 "detail": {}, "correct": True, "attempted": 0, "failed": 0}
        collected = {0: {}, 1: {}}
        for _ in range(repeat):
            for trace in traces:
                result = _run_subprocess(name, seed, seconds, trace, smoke)
                block["correct"] = block["correct"] and bool(result["correct"])
                if "error" in result:
                    block.setdefault("errors", []).append(result["error"])
                    continue
                if not trace:
                    block["attempted"] += result["attempted"]
                    block["failed"] += result["failed"]
                block["detail"]["traced" if trace else "untraced"] = result["detail"]
                for metric, entry in result["metrics"].items():
                    collected[trace].setdefault(metric, []).append(entry["value"])
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = declared_units(section)
            for metric, values in collected[trace].items():
                block[section][metric] = {"unit": units[metric], **_spread(values)}
        ok = ok and block["correct"]
        summary["workloads"][name] = block
        _print_block(name, block)
    summary["ok"] = ok
    return summary


def _print_block(name: str, block: dict) -> None:
    detail = block["detail"].get("untraced", {})
    print(f"== {name} ({block['loop']} loop): correct={block['correct']} "
          f"attempted={block['attempted']} failed={block['failed']} "
          f"fail_ratio={detail.get('fail_ratio')} "
          f"oracle_mismatches={detail.get('oracle_mismatches')} "
          f"samples={detail.get('samples')}")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in block[section].items():
            print(f"  {metric:<42}{entry['median']:>16.6g} {entry['unit']:<10}"
                  f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                  f"n={len(entry['values'])}]")
    if detail.get("mutation_p50_ms") is not None:
        print(f"  {'mutation_p50_ms':<42}{detail['mutation_p50_ms']:>16.6g} ms"
              f"        [samples={detail['mutation_samples']}]")


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured length of the untraced pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end pass, 1 = traced pass "
                             "(default with no --workload: both)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repeat every pass N times (same seed)")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and 1 s passes (self-test)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = 1.0 if args.smoke else float(declared["run_seconds"])

    if args.workload and args.trace is not None and not args.out:
        bootstrap()
        from e2e_workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
        correct, attempted, failed, metrics, detail = run_pass(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        print("DETAIL " + json.dumps(detail))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0 if correct else 1

    traces = (0, 1) if args.trace is None else (args.trace,)
    summary = run_all(args.seed, args.seconds, args.repeat, args.smoke,
                      traces, only=args.workload)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(f"claim: {json.dumps(summary['claim'])}  ok: {summary['ok']}")
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
