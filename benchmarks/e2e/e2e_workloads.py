"""The four benchmark workloads.

Each workload is a class with the same five steps — ``setup`` (what the
data owner and the operator pay before the first request), ``warm_up``,
``measure`` (the load loop), ``verify`` (oracle check and recall) and
``layers`` (per-layer figures from the traced pass) — driven by
``run.py``.  Why each exists, and which layers it stresses:

* ``online_hnsw_net`` — the paper's deployment shape: open-loop Poisson
  traffic over one pipelined loopback connection into a child server
  process.  ``net``, ``codec``, ``serve.scheduler`` and the graph filter
  do the work; GEMM brute force, sharding and the journal do none.
* ``batch_bruteforce_inproc`` — kernel-bound closed loop: the GEMM filter
  and the vectorized refine do nearly everything; ``net``, ``codec`` and
  ``serve`` do nothing, so a change there predicts no change here.
* ``saturation_ivf_sharded_inproc`` — throughput at saturation with no
  wire: batch formation, executor fan-out and shard scatter/merge carry
  the load, and queueing shows as ``served_qps`` against
  ``request_p95_ms``.
* ``mixed_nsg_journal`` — reads interleaved with journaled writes: each
  write invalidates the compiled CSR snapshot and appends an fsynced
  segment, so a read-path gain that makes snapshots dearer shows here.

Only default engines, executor and frontend settings are used, so a
later change to a default is measured rather than broken.  All inputs
derive from the seed; clients encrypt a fresh query inside the timed
interval (DCPE is randomised, and user-side cost is one of the paper's
claims).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from e2e_loadgen import (
    Outcome,
    Outcomes,
    Reservoir,
    poisson_due_times,
    run_open_loop,
)
from repro.core.protocol import EncryptedQueryBatch
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.core.scheme import PPANNS
from repro.core.search import execute_batch_settled
from repro.datasets import compute_ground_truth, make_dataset

__all__ = ["Budget", "Inputs", "LayerReport", "WORKLOADS", "recall_at_k"]

K = 10
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SRC_DIR = HERE.parent.parent / "src"

#: Answered queries kept (seeded reservoir) for the oracle re-answer.
ORACLE_SAMPLE = 256
#: A request still unanswered this long after the loop ended has failed.
DRAIN_TIMEOUT = 30.0

@dataclass(frozen=True)
class Budget:
    """How long a load loop runs: a wall-clock length or a request count.

    The untraced pass measures for ``seconds``; the traced pass runs a
    fixed ``count`` so that its exact counts repeat for a fixed seed.
    """

    seconds: "float | None" = None
    count: "int | None" = None

    def deadline(self, start: float) -> float:
        """Absolute time after which no new request is issued."""
        return float("inf") if self.seconds is None else start + self.seconds

    def limit(self) -> float:
        """Most requests to issue."""
        return float("inf") if self.count is None else self.count


@dataclass
class Inputs:
    """Everything generated from the seed before set-up is timed."""

    seed: int
    database: np.ndarray
    queries: np.ndarray
    truth: "np.ndarray | None"
    holdout: "np.ndarray | None" = None


@dataclass
class LayerReport:
    """What a traced pass found: the per-layer metrics, plus the client's
    wall per query when it is not the loop's own (the net workload takes it
    from its one-at-a-time replay) and any ids that differed between the
    replayed paths."""

    metrics: dict
    client_wall_us: "float | None" = None
    id_mismatches: int = 0


def recall_at_k(ids: np.ndarray, truth: np.ndarray) -> float:
    """Share of the true ``k`` nearest ids present in ``ids``."""
    return len(set(ids.tolist()) & set(truth.tolist())) / float(len(truth))


def _result_attrs(result) -> dict:
    """The inner split one ``SearchResult`` already exposes."""
    shards = result.shard_timings or ()
    shard_seconds = [timing.seconds for timing in shards]
    return {
        "queries": 1,
        "filter_s": result.filter_seconds,
        "mask_s": result.mask_seconds,
        "refine_s": result.refine_seconds,
        "filter_kernel_s": result.filter_kernel_seconds,
        "refine_kernel_s": result.refine_kernel_seconds,
        "distance_computations": result.filter_stats.distance_computations,
        "hops": result.filter_stats.hops,
        "refine_comparisons": result.refine_comparisons,
        "k_prime": result.k_prime,
        "shard_max_s": max(shard_seconds, default=0.0),
        "shard_mean_s": float(np.mean(shard_seconds)) if shard_seconds else 0.0,
        "shard_sum_s": sum(shard_seconds),
        "shard_candidates": sum(timing.candidates for timing in shards),
    }


def _sum_attrs(rows) -> dict:
    """Key-wise sum of attribute rows (``k_prime`` stays per query)."""
    total: dict = {}
    for row in rows:
        for key, value in row.items():
            total[key] = total.get(key, 0) + value
    if rows:
        total["k_prime"] = rows[0]["k_prime"]
    return total


def stage_layers(
    attr_rows,
    answer_wall_s: "float | None" = None,
    fanout_wall_s: "float | None" = None,
) -> dict:
    """Per-query filter / refine / search figures from result attributes.

    ``answer_wall_s`` is the harness's own clock around the answering
    calls; what it does not cover in stages is ``search.overhead_us``.

    On a batch, mask and refine run in the executor's fan-out and their
    stage clocks are thread-local: summed, they count the time a worker
    sat descheduled behind its siblings and exceed the wall clock.
    ``fanout_wall_s`` (the batch's measured ``wall_seconds``) scales them
    back by the fan-out's parallelism, so the rows add up to wall time.
    The batched filter is the serial pre-pass in front of the fan-out and
    needs no scaling; were it ever to move inside the fan-out, the
    overhead would turn negative and say so.
    """
    total = _sum_attrs(attr_rows)
    queries = max(1, total.get("queries", 0))
    fanned = total.get("mask_s", 0.0) + total.get("refine_s", 0.0)
    parallelism = max(1.0, fanned / fanout_wall_s) if fanout_wall_s else 1.0

    def per_query_us(key: str, scale: float = 1.0) -> float:
        return total.get(key, 0.0) / scale / queries * 1e6

    def share(part: str, whole: str) -> float:
        return total.get(part, 0.0) / total[whole] if total.get(whole) else 0.0

    sharded = bool(total.get("shard_sum_s"))
    layers = {
        "filter.us_per_query": per_query_us("filter_s"),
        # Kernel seconds add up across shards; compare like with like.
        "filter.kernel_share":
            share("filter_kernel_s", "shard_sum_s" if sharded else "filter_s"),
        "filter.distance_computations_per_query":
            total.get("distance_computations", 0) / queries,
        "filter.hops_per_query": total.get("hops", 0) / queries,
        "refine.us_per_query": per_query_us("refine_s", parallelism),
        "refine.kernel_share": share("refine_kernel_s", "refine_s"),
        "refine.comparisons_per_query": total.get("refine_comparisons", 0) / queries,
        "refine.k_prime": total.get("k_prime", 0),
        "search.mask_us": per_query_us("mask_s", parallelism),
    }
    if answer_wall_s is not None:
        stages = total.get("filter_s", 0.0) + fanned / parallelism
        layers["search.overhead_us"] = (answer_wall_s - stages) / queries * 1e6
    if sharded:
        layers["executor.scatter_overhead_us"] = (
            (total["filter_s"] - total["shard_max_s"]) / queries * 1e6
        )
        layers["sharding.shard_skew"] = total["shard_max_s"] / total["shard_mean_s"]
        layers["sharding.candidates_merged_per_query"] = (
            total["shard_candidates"] / queries
        )
    return layers


def _build_report(index, extra_seconds: float = 0.0) -> dict:
    """The ``build.*`` metrics: the index's own report plus start-up time."""
    report = index.build_report
    return {
        "build.encrypt_s": report.encrypt_seconds,
        "build.index_s": report.build_seconds,
        "build.child_start_s": extra_seconds,
    }


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _span_seconds(recorder, name: str) -> list:
    return [s["end"] - s["start"] for s in recorder.spans if s["name"] == name]


class Workload:
    """Shared steps; subclasses provide the load loop and the oracle."""

    name = ""
    index = 0            # position in WORKLOADS; separates the RNG streams
    profile = "deep"
    loop = "closed"
    rate = 0.0           # arrivals per second; open loops only
    n = 0
    smoke_n = 0
    pool = 256
    smoke_pool = 32
    holdout = 0
    warmup_requests = 32
    trace_count = 0      # requests in the traced pass (fixed, so counts repeat)
    #: Complete set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Length of the windows whose medians the run reports
    #: (``e2e_loadgen.summarize_windows``).
    window_seconds = 1.0

    # -- inputs ------------------------------------------------------------------

    def rng(self, seed: int, stream: int) -> np.random.Generator:
        """An independent generator per (seed, workload, purpose)."""
        return np.random.default_rng([seed, self.index, stream])

    def make_inputs(self, seed: int, smoke: bool) -> Inputs:
        """Dataset, query pool and exact ground truth, all from the seed."""
        n = self.smoke_n if smoke else self.n
        pool = self.smoke_pool if smoke else self.pool
        holdout = min(self.holdout, 64) if smoke else self.holdout
        dataset = make_dataset(
            self.profile, num_vectors=n + holdout, num_queries=pool,
            rng=self.rng(seed, 0),
        )
        database = dataset.database[:n]
        truth = None
        if not holdout:
            truth = compute_ground_truth(database, dataset.queries, K).ids
        return Inputs(seed, database, dataset.queries, truth,
                      dataset.database[n:] if holdout else None)

    def traced_requests(self, smoke: bool) -> int:
        """Request count of the traced pass."""
        return max(8, self.trace_count // 20) if smoke else self.trace_count

    # -- steps subclasses implement ------------------------------------------------

    def setup(self, inputs: Inputs):
        """Build the index and start serving; returns the context."""
        raise NotImplementedError

    def measure(self, ctx, inputs: Inputs, budget: Budget, recorder) -> Outcomes:
        """Run the load loop."""
        raise NotImplementedError

    def verify(self, ctx, inputs: Inputs, outcomes: Outcomes):
        """``(oracle_checked, oracle_mismatches, recall_at_10)``."""
        raise NotImplementedError

    def layers(self, ctx, inputs, outcomes: Outcomes, recorder) -> LayerReport:
        """Per-layer metrics of the traced pass."""
        raise NotImplementedError

    def teardown(self, ctx) -> None:
        """Stop everything ``setup`` started."""

    def peak_rss_mb(self, ctx, own_rss_mb: float) -> float:
        """Peak RSS of the process holding the index (this one by default)."""
        return own_rss_mb

    def warm_up(self, ctx, inputs: Inputs) -> None:
        """A few discarded requests: snapshot compile, BLAS spin-up, handshake."""
        from e2e_spans import SpanRecorder

        self.measure(ctx, inputs, Budget(count=self.warmup_requests),
                     SpanRecorder(enabled=False))

    # -- shared helpers ----------------------------------------------------------

    def _recall_of_reads(self, inputs: Inputs, outcomes: Outcomes) -> float:
        hits = []
        for row in outcomes.of_kind("read"):
            ids = np.atleast_2d(row.ids)
            picks = np.atleast_1d(row.pool_index)
            hits.extend(
                recall_at_k(ids[j], inputs.truth[picks[j]]) for j in range(len(picks))
            )
        return _mean(hits)

    def _oracle_single(self, server: CloudServer, sample, canonical=None):
        """Re-answer sampled single queries with the heap engines."""
        mismatches = 0
        for query, ids in sample:
            if canonical is not None:
                query = canonical(query)
            oracle = server.answer(query, filter_engine="heap", refine_engine="heap")
            mismatches += not np.array_equal(oracle.ids, ids)
        return len(sample), mismatches

    def _read_layers(self, outcomes: Outcomes, recorder) -> dict:
        """Layers every in-process read path shares."""
        reads = outcomes.of_kind("read")
        wall = sum(_span_seconds(recorder, "search.answer")) or None
        fanout = sum(row.attrs.get("fanout_wall_s", 0.0) for row in reads) or None
        layers = stage_layers([row.attrs for row in reads], wall, fanout)
        queries = max(1, sum(row.queries for row in reads))
        layers["user.encrypt_us"] = (
            sum(_span_seconds(recorder, "user.encrypt")) / queries * 1e6
        )
        return layers


# -- online_hnsw_net --------------------------------------------------------------


@dataclass
class _NetContext:
    index: object
    user: QueryUser
    key_id: int
    tmpdir: str
    child: subprocess.Popen
    client: object
    build: dict
    child_stats: "dict | None" = None
    sample: "Reservoir | None" = None


class OnlineHnswNet(Workload):
    """Open loop, Poisson 250 req/s, one pipelined NetClient connection."""

    name = "online_hnsw_net"
    index = 0
    profile = "deep"
    loop = "open"
    #: Arrival rate: about half this host's measured capacity on this
    #: path.  A constant of the benchmark; it never adapts to the system.
    rate = 250.0
    beta = 1.2
    n = 1500
    smoke_n = 120
    trace_count = 1000
    #: Sampled requests replayed three ways in the traced pass.
    replay_count = 400

    def setup(self, inputs: Inputs) -> _NetContext:
        from repro.core.persistence import save_index
        from repro.net import NetClient

        owner = DataOwner(
            inputs.database.shape[1], beta=self.beta, backend="hnsw",
            build_mode="bulk", rng=self.rng(inputs.seed, 1),
        )
        index = owner.build_index(inputs.database)
        key_id = int(index.dce_database.key_id)
        start = time.perf_counter()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix="net-", dir=OUT_DIR)
        child = None
        try:
            index_path = os.path.join(tmpdir, "index.npz")
            save_index(index_path, index)
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
            )
            child = subprocess.Popen(
                [sys.executable, str(HERE / "e2e_child.py"), index_path, str(key_id)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
            )
            ready = child.stdout.readline().split()
            if len(ready) != 2 or ready[0] != "READY":
                raise RuntimeError(f"child server did not start: {ready!r}")
            client = NetClient("127.0.0.1", int(ready[1]), key_id)
        except BaseException:
            _stop_child(child)
            shutil.rmtree(tmpdir, ignore_errors=True)
            raise
        return _NetContext(
            index=index,
            user=QueryUser(owner.authorize_user(), rng=self.rng(inputs.seed, 2)),
            key_id=key_id, tmpdir=tmpdir, child=child, client=client,
            build=_build_report(index, time.perf_counter() - start),
        )

    def teardown(self, ctx: _NetContext) -> None:
        try:
            ctx.client.close()
        finally:
            ctx.child_stats = _stop_child(ctx.child)
            shutil.rmtree(ctx.tmpdir, ignore_errors=True)

    def peak_rss_mb(self, ctx: _NetContext, own_rss_mb: float) -> float:
        """The child server's peak RSS (reported as it shuts down)."""
        return float(ctx.child_stats["peak_rss_mb"])

    def measure(self, ctx, inputs, budget, recorder) -> Outcomes:
        arrivals = self.rng(inputs.seed, 3)
        due = poisson_due_times(arrivals, self.rate, budget.seconds, budget.count)
        picks = arrivals.integers(len(inputs.queries), size=len(due))
        outcomes = Outcomes()
        sample = Reservoir(
            max(ORACLE_SAMPLE, self.replay_count if recorder.enabled else 0),
            self.rng(inputs.seed, 4),
        )
        ctx.sample = sample
        user, client, queries = ctx.user, ctx.client, inputs.queries

        def on_done(i, pick, due_at, sent_at, encrypted_at, query, future):
            done = time.perf_counter()
            error = future.exception()
            if error is not None:
                outcomes.add(Outcome("read", done - due_at, done, pick,
                                     error=type(error).__name__))
                return
            result = future.result()
            outcomes.add(Outcome(
                "read", done - due_at, done, pick, result.ids,
                comm_bytes=query.upload_bytes() + result.download_bytes(),
            ))
            # Only this connection's reader thread runs done-callbacks,
            # so the reservoir has a single writer.
            sample.offer(lambda: (query, result.ids))
            root = recorder.add(i, "request", due_at, done)
            recorder.add(i, "loadgen.wait", due_at, sent_at, parent=root)
            recorder.add(i, "user.encrypt", sent_at, encrypted_at, parent=root)
            recorder.add(i, "net.roundtrip", encrypted_at, done, parent=root)

        def issue(i, due_at):
            pick = int(picks[i])
            sent_at = time.perf_counter()
            try:
                query = user.encrypt_query(queries[pick], K)
                encrypted_at = time.perf_counter()
                future = client.submit(query)
            except Exception as exc:
                outcomes.add(Outcome("read", 0.0, time.perf_counter(), pick,
                                     error=type(exc).__name__))
                return
            future.add_done_callback(
                lambda f: on_done(i, pick, due_at, sent_at, encrypted_at, query, f)
            )

        start, outcomes.lateness = run_open_loop(due, issue)
        outcomes.started_at = start + float(due[0])
        outcomes.backlog_at_end = len(due) - len(outcomes.rows)
        give_up = time.perf_counter() + DRAIN_TIMEOUT
        while len(outcomes.rows) < len(due) and time.perf_counter() < give_up:
            time.sleep(0.002)
        for _ in range(len(due) - len(outcomes.rows)):
            outcomes.add(Outcome("read", DRAIN_TIMEOUT, time.perf_counter(),
                                 error="Timeout"))
        return outcomes

    @staticmethod
    def _canonical(query):
        """The float32 ciphertexts the server actually saw (codec round trip)."""
        from repro.net import codec

        body = codec.encode_query_batch(EncryptedQueryBatch.from_queries([query]))
        return codec.decode_query_batch(body)[0]

    def verify(self, ctx, inputs, outcomes):
        checked, mismatches = self._oracle_single(
            CloudServer(ctx.index), ctx.sample.items[:ORACLE_SAMPLE],
            canonical=self._canonical,
        )
        return checked, mismatches, self._recall_of_reads(inputs, outcomes)

    def layers(self, ctx, inputs, outcomes, recorder) -> LayerReport:
        """Replay sampled requests three ways so transport is a subtraction.

        Each request goes through the socket, through the codec functions
        alone and through an in-process ``ServingFrontend`` (plus one
        direct ``CloudServer.answer`` for the pipeline's own overhead),
        one at a time, so every figure is taken under the same (idle)
        load.  The server's scheduler counters are read first: they
        describe the open-loop pass that just ran.
        """
        from repro.net import codec

        stats = ctx.client.stats()
        frontend_stats = stats["frontend"]
        tenant = stats["tenants"][str(ctx.key_id)]
        server = CloudServer(ctx.index)
        rows, attrs = [], []
        query_frame = result_frame = id_mismatches = 0
        with server.serving_frontend() as frontend:
            for rid, (query, _) in enumerate(ctx.sample.items[: self.replay_count]):
                rid = f"replay-{rid}"
                with recorder.span(rid, "replay") as root:
                    with recorder.span(rid, "net.roundtrip", root) as socket_span:
                        wired = ctx.client.answer(query, timeout=DRAIN_TIMEOUT)
                    with recorder.span(rid, "codec.encode_query", root) as enc_q:
                        body = codec.encode_query_batch_v2(
                            EncryptedQueryBatch.from_queries([query]))
                    with recorder.span(rid, "codec.decode_query", root) as dec_q:
                        canonical = codec.decode_query_batch_v2(body)[0][0]
                    with recorder.span(rid, "frontend.submit", root) as submit:
                        future = frontend.submit(canonical)
                    with recorder.span(rid, "frontend.wait", root) as wait:
                        served = future.result(timeout=DRAIN_TIMEOUT)
                    wait.record["attrs"].update(_result_attrs(served))
                    with recorder.span(rid, "codec.encode_result", root) as enc_r:
                        reply = codec.encode_result_batch(
                            codec.SearchResultBatch([served]))
                    with recorder.span(rid, "codec.decode_result", root) as dec_r:
                        codec.decode_result_batch(reply)
                    with recorder.span(rid, "search.answer", root) as direct:
                        answered = server.answer(canonical)
                    direct.record["attrs"].update(_result_attrs(answered))
                id_mismatches += not (
                    np.array_equal(wired.ids, served.ids)
                    and np.array_equal(served.ids, answered.ids)
                )
                query_frame = codec.HEADER_SIZE + len(body)
                result_frame = codec.HEADER_SIZE + len(reply)
                codec_busy = (enc_q.seconds + dec_q.seconds
                              + enc_r.seconds + dec_r.seconds)
                frontend_wall = submit.seconds + wait.seconds
                overhead = direct.seconds - answered.total_seconds
                rows.append({
                    "socket": socket_span.seconds,
                    "enc_q": enc_q.seconds, "dec_q": dec_q.seconds,
                    "enc_r": enc_r.seconds, "dec_r": dec_r.seconds,
                    "submit": submit.seconds,
                    "transport": socket_span.seconds - frontend_wall - codec_busy,
                    "wait": frontend_wall - submit.seconds
                            - served.total_seconds - overhead,
                    "direct": direct.seconds,
                })
                attrs.append(_result_attrs(answered))

        def mean_of(key):
            return _mean(row[key] for row in rows)

        layers = stage_layers(attrs, answer_wall_s=sum(r["direct"] for r in rows))
        layers.update({
            "user.encrypt_us": _mean(_span_seconds(recorder, "user.encrypt")) * 1e6,
            "user.upload_bytes": ctx.sample.items[0][0].upload_bytes(),
            "codec.encode_query_us": mean_of("enc_q") * 1e6,
            "codec.decode_query_us": mean_of("dec_q") * 1e6,
            "codec.encode_result_us": mean_of("enc_r") * 1e6,
            "codec.decode_result_us": mean_of("dec_r") * 1e6,
            "codec.query_frame_bytes": query_frame,
            "codec.result_frame_bytes": result_frame,
            "net.transport_overhead_ms": mean_of("transport") * 1e3,
            "net.overhead_share": mean_of("transport") / mean_of("socket"),
            "net.retries": ctx.client.retry_count,
            "net.refused": frontend_stats["connection_refusals"]
                           + frontend_stats["rate_limited"]
                           + tenant["rejected"],
            "frontend.submit_us": mean_of("submit") * 1e6,
            "frontend.rejected": frontend_stats["rejected"],
            "frontend.cache_hits": frontend_stats["cache_hits"],
            "scheduler.wait_ms": mean_of("wait") * 1e3,
            "scheduler.mean_batch_size": frontend_stats["mean_batch_size"],
            "scheduler.batches": frontend_stats["batches"],
            "scheduler.max_queue_depth": frontend_stats["max_queue_depth"],
        })
        return LayerReport(
            layers,
            client_wall_us=layers["user.encrypt_us"] + mean_of("socket") * 1e6,
            id_mismatches=id_mismatches,
        )


def _stop_child(child) -> "dict | None":
    """Ask the child to exit, wait, kill it if it will not; returns its stats."""
    import json

    if child is None:
        return None
    stats = None
    try:
        if child.poll() is None:
            child.stdin.write("stop\n")
            child.stdin.flush()
            line = child.stdout.readline()
            stats = json.loads(line) if line.strip() else None
        child.wait(timeout=10)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for pipe in (child.stdin, child.stdout):
            if pipe is not None:
                pipe.close()
    return stats


# -- batch_bruteforce_inproc ------------------------------------------------------


@dataclass
class _InprocContext:
    index: object
    server: CloudServer
    users: list
    build: dict
    frontend: object = None
    sample: "Reservoir | None" = None


class BatchBruteforceInproc(Workload):
    """Closed loop, 1 client thread, one 32-query batch in flight."""

    name = "batch_bruteforce_inproc"
    index = 1
    profile = "sift"
    beta = 60.0
    n = 10000
    smoke_n = 200
    batch = 32
    ratio_k = 16
    warmup_requests = 2
    # A sub-second set-up is mostly first-touch page faults, which settle
    # only after the allocator has seen a few; the median needs more of them.
    setup_repeats = 7
    # About 18 batches a second: three seconds give a window its p95.
    window_seconds = 3.0
    trace_count = 40

    def setup(self, inputs):
        owner = DataOwner(inputs.database.shape[1], beta=self.beta,
                          backend="bruteforce", rng=self.rng(inputs.seed, 1))
        index = owner.build_index(inputs.database)
        user = QueryUser(owner.authorize_user(), rng=self.rng(inputs.seed, 2))
        return _InprocContext(index, CloudServer(index), [user], _build_report(index))

    def measure(self, ctx, inputs, budget, recorder) -> Outcomes:
        picker = self.rng(inputs.seed, 3)
        outcomes = Outcomes()
        # Eight 32-query batches give the oracle its >= 200 queries.
        ctx.sample = Reservoir(ORACLE_SAMPLE // self.batch, self.rng(inputs.seed, 4))
        user, server = ctx.users[0], ctx.server
        outcomes.started_at = start = time.perf_counter()
        deadline, issued = budget.deadline(start), 0
        while issued < budget.limit() and time.perf_counter() < deadline:
            picks = picker.integers(len(inputs.queries), size=self.batch)
            began = time.perf_counter()
            try:
                with recorder.span(issued, "request") as root:
                    with recorder.span(issued, "user.encrypt", root):
                        batch = user.encrypt_queries(
                            inputs.queries[picks], K, ratio_k=self.ratio_k)
                    with recorder.span(issued, "search.answer", root):
                        results = server.answer(batch)
                    ids = results.ids_matrix()
            except Exception as exc:
                outcomes.add(Outcome("read", 0.0, time.perf_counter(), picks,
                                     queries=self.batch, error=type(exc).__name__))
                issued += 1
                continue
            done = time.perf_counter()
            outcomes.add(Outcome(
                "read", done - began, done, picks, ids, queries=self.batch,
                comm_bytes=batch.upload_bytes() + results.download_bytes(),
                attrs=dict(_sum_attrs([_result_attrs(r) for r in results]),
                           fanout_wall_s=results.wall_seconds)
                if recorder.enabled else None,
            ))
            ctx.sample.offer(lambda: (batch, ids))
            issued += 1
        return outcomes

    def verify(self, ctx, inputs, outcomes):
        checked = mismatches = 0
        for batch, ids in ctx.sample.items:
            oracle = ctx.server.answer(
                batch, filter_engine="heap", refine_engine="heap").ids_matrix()
            rows_equal = (
                oracle.shape == ids.shape and (oracle == ids).all(axis=1)
            )
            checked += len(batch)
            mismatches += len(batch) - int(np.sum(rows_equal))
        return checked, mismatches, self._recall_of_reads(inputs, outcomes)

    def layers(self, ctx, inputs, outcomes, recorder) -> LayerReport:
        layers = self._read_layers(outcomes, recorder)
        layers["user.upload_bytes"] = ctx.sample.items[0][0][0].upload_bytes()
        return LayerReport(layers)


# -- saturation_ivf_sharded_inproc ------------------------------------------------


class SaturationIvfShardedInproc(Workload):
    """Closed loop, 2 client threads x 16 single-query submissions in flight."""

    name = "saturation_ivf_sharded_inproc"
    index = 2
    profile = "glove"
    beta = 5.0
    n = 20000
    smoke_n = 800
    shards = 4
    clients = 2
    in_flight = 16       # per client; 2 x 16 = the default max_batch_size
    warmup_requests = 64
    setup_repeats = 7    # sub-second set-up: see BatchBruteforceInproc
    trace_count = 2000

    def setup(self, inputs):
        owner = DataOwner(
            inputs.database.shape[1], beta=self.beta, backend="ivf",
            shards=self.shards, shard_strategy="round_robin",
            rng=self.rng(inputs.seed, 1),
        )
        index = owner.build_index(inputs.database)
        start = time.perf_counter()
        server = CloudServer(index)
        frontend = server.serving_frontend().start()
        keys = owner.authorize_user()
        users = [QueryUser(keys, rng=self.rng(inputs.seed, 10 + t))
                 for t in range(self.clients)]
        return _InprocContext(
            index, server, users,
            _build_report(index, time.perf_counter() - start), frontend=frontend,
        )

    def teardown(self, ctx) -> None:
        ctx.frontend.stop()
        ctx.server.close()

    def measure(self, ctx, inputs, budget, recorder) -> Outcomes:
        outcomes = Outcomes()
        frontend, queries = ctx.frontend, inputs.queries
        samples = [
            Reservoir(ORACLE_SAMPLE // self.clients, self.rng(inputs.seed, 20 + t))
            for t in range(self.clients)
        ]
        outcomes.started_at = start = time.perf_counter()
        deadline = budget.deadline(start)
        per_client = budget.limit() / self.clients

        def client(t: int) -> None:
            user, picker = ctx.users[t], self.rng(inputs.seed, 30 + t)
            window: deque = deque()
            issued = 0
            while True:
                while (len(window) < self.in_flight and issued < per_client
                       and time.perf_counter() < deadline):
                    rid = issued * self.clients + t
                    pick = int(picker.integers(len(queries)))
                    began = time.perf_counter()
                    issued += 1
                    try:
                        query = user.encrypt_query(queries[pick], K)
                        encrypted_at = time.perf_counter()
                        future = frontend.submit(query)
                    except Exception as exc:
                        outcomes.add(Outcome("read", 0.0, time.perf_counter(), pick,
                                             error=type(exc).__name__))
                        continue
                    submitted_at = time.perf_counter()
                    stamp = []
                    future.add_done_callback(
                        lambda _, stamp=stamp: stamp.append(time.perf_counter()))
                    window.append((rid, pick, began, encrypted_at, submitted_at,
                                   query, future, stamp))
                if not window:
                    return
                (rid, pick, began, encrypted_at, submitted_at,
                 query, future, stamp) = window.popleft()
                try:
                    result = future.result(timeout=DRAIN_TIMEOUT)
                except Exception as exc:
                    outcomes.add(Outcome("read", DRAIN_TIMEOUT, time.perf_counter(),
                                         pick, error=type(exc).__name__))
                    continue
                # result() can return before the callback has stamped.
                done = stamp[0] if stamp else time.perf_counter()
                outcomes.add(Outcome(
                    "read", done - began, done, pick, result.ids,
                    comm_bytes=query.upload_bytes() + result.download_bytes(),
                    attrs=_result_attrs(result) if recorder.enabled else None,
                ))
                samples[t].offer(lambda: (query, result.ids))
                root = recorder.add(rid, "request", began, done)
                recorder.add(rid, "user.encrypt", began, encrypted_at, parent=root)
                recorder.add(rid, "frontend.submit", encrypted_at, submitted_at,
                             parent=root)
                recorder.add(rid, "frontend.wait", submitted_at, done, parent=root)

        threads = [threading.Thread(target=client, args=(t,), name=f"client-{t}")
                   for t in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ctx.sample = Reservoir(ORACLE_SAMPLE, self.rng(inputs.seed, 4))
        ctx.sample.items = [item for sample in samples for item in sample.items]
        return outcomes

    def verify(self, ctx, inputs, outcomes):
        checked, mismatches = self._oracle_single(ctx.server, ctx.sample.items)
        return checked, mismatches, self._recall_of_reads(inputs, outcomes)

    def layers(self, ctx, inputs, outcomes, recorder) -> LayerReport:
        """Stage timings by replay; counts from the loop's own results.

        The scheduler's batch execution is not visible from outside the
        frontend, so sampled queries are re-run in batches of the
        scheduler's mean size straight through ``execute_batch_settled``
        — the call the scheduler makes — which times the pipeline a
        request waits for and exposes the fan-out's wall clock.
        """
        reads = outcomes.of_kind("read")
        snapshot = ctx.frontend.metrics.snapshot()
        size = max(1, min(ctx.frontend.max_batch_size,
                          round(snapshot.mean_batch_size)))
        queries = [query for query, _ in ctx.sample.items]
        walls, fanout_walls, replayed = [], [], []
        for lo in range(0, len(queries) - size + 1, size):
            batch = EncryptedQueryBatch.from_queries(queries[lo:lo + size])
            with recorder.span(f"replay-{lo}", "search.execute_batch") as span:
                settled, fanout_wall, _ = execute_batch_settled(
                    ctx.index, batch,
                    default_ratio_k=ctx.server.default_ratio_for("full"),
                )
            walls.append(span.seconds)
            fanout_walls.append(fanout_wall)
            replayed.extend(_result_attrs(item.unwrap()) for item in settled)
        batch_wall = _mean(walls)
        layers = stage_layers(replayed, sum(walls), sum(fanout_walls))
        # The exact counts come from every request of the loop itself.
        counts = stage_layers([row.attrs for row in reads])
        for name in ("filter.distance_computations_per_query",
                     "filter.hops_per_query", "refine.comparisons_per_query",
                     "sharding.candidates_merged_per_query"):
            layers[name] = counts[name]
        latency = _mean(row.done_at for row in reads) - _mean(
            s["start"] for s in recorder.spans if s["name"] == "frontend.submit")
        layers.update({
            "user.encrypt_us": _mean(_span_seconds(recorder, "user.encrypt")) * 1e6,
            "user.upload_bytes": queries[0].upload_bytes(),
            "frontend.submit_us":
                _mean(_span_seconds(recorder, "frontend.submit")) * 1e6,
            "frontend.rejected": snapshot.rejected,
            "frontend.cache_hits": snapshot.cache_hits,
            "scheduler.wait_ms": (latency - batch_wall) * 1e3,
            "scheduler.mean_batch_size": snapshot.mean_batch_size,
            "scheduler.batches": snapshot.batches,
            "scheduler.max_queue_depth": snapshot.max_queue_depth,
        })
        return LayerReport(layers)


# -- mixed_nsg_journal ------------------------------------------------------------


@dataclass
class _MixedContext:
    scheme: PPANNS
    tmpdir: str
    build: dict
    live: list
    vectors: dict
    deleted: set
    next_holdout: int = 0
    mutations: int = 0


class MixedNsgJournal(Workload):
    """Closed loop, 1 client thread: 8 single-query reads, then 1 mutation."""

    name = "mixed_nsg_journal"
    index = 3
    profile = "deep"
    beta = 1.2
    n = 3000
    smoke_n = 300
    holdout = 2048
    reads_per_cycle = 8
    warmup_requests = 16
    trace_count = 1800   # operations: 200 cycles of 8 reads + 1 mutation

    def setup(self, inputs):
        scheme = PPANNS(inputs.database.shape[1], beta=self.beta, backend="nsg",
                        rng=self.rng(inputs.seed, 1))
        scheme.fit(inputs.database)
        start = time.perf_counter()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR)
        try:
            scheme.enable_journal(os.path.join(tmpdir, "index"))
        except BaseException:
            shutil.rmtree(tmpdir, ignore_errors=True)
            raise
        return _MixedContext(
            scheme, tmpdir,
            _build_report(scheme.server.index, time.perf_counter() - start),
            live=list(range(len(inputs.database))), vectors={}, deleted=set(),
        )

    def teardown(self, ctx) -> None:
        ctx.scheme.close()
        shutil.rmtree(ctx.tmpdir, ignore_errors=True)

    def warm_up(self, ctx, inputs) -> None:
        """Reads only: warming up must not touch the journal."""
        for query in inputs.queries[: self.warmup_requests]:
            ctx.scheme.query(query, K)

    def _mutate(self, ctx, inputs, rng, recorder, rid) -> str:
        """Alternate an insert of a fresh vector and a delete of a live id."""
        ctx.mutations += 1
        if ctx.mutations % 2:
            vector = inputs.holdout[ctx.next_holdout % len(inputs.holdout)]
            ctx.next_holdout += 1
            with recorder.span(rid, "maintenance.insert"):
                new_id = ctx.scheme.insert(vector)
            ctx.live.append(new_id)
            ctx.vectors[new_id] = vector
            return "insert"
        slot = int(rng.integers(len(ctx.live)))
        ctx.live[slot], ctx.live[-1] = ctx.live[-1], ctx.live[slot]
        victim = ctx.live.pop()
        with recorder.span(rid, "maintenance.delete"):
            ctx.scheme.delete(victim)
        ctx.deleted.add(victim)
        return "delete"

    def measure(self, ctx, inputs, budget, recorder) -> Outcomes:
        rng = self.rng(inputs.seed, 3)
        outcomes = Outcomes()
        scheme, user = ctx.scheme, ctx.scheme.user
        outcomes.started_at = start = time.perf_counter()
        deadline, issued = budget.deadline(start), 0
        while issued < budget.limit() and time.perf_counter() < deadline:
            position = issued % (self.reads_per_cycle + 1)
            began = time.perf_counter()
            try:
                if position == self.reads_per_cycle:
                    kind = self._mutate(ctx, inputs, rng, recorder, issued)
                    done = time.perf_counter()
                    outcomes.add(Outcome(kind, done - began, done, queries=0))
                else:
                    pick = int(rng.integers(len(inputs.queries)))
                    with recorder.span(issued, "request") as root:
                        with recorder.span(issued, "user.encrypt", root):
                            query = user.encrypt_query(inputs.queries[pick], K)
                        with recorder.span(issued, "search.answer", root):
                            result = scheme.server.answer(query)
                    done = time.perf_counter()
                    stale = ctx.deleted.intersection(result.ids.tolist())
                    attrs = None
                    if recorder.enabled:
                        attrs = _result_attrs(result)
                        attrs["cycle_position"] = position
                    outcomes.add(Outcome(
                        "read", done - began, done, pick, result.ids,
                        comm_bytes=query.upload_bytes() + result.download_bytes(),
                        error="DeletedIdReturned" if stale else None, attrs=attrs,
                    ))
            except Exception as exc:
                outcomes.add(Outcome("read", 0.0, time.perf_counter(),
                                     error=type(exc).__name__))
            issued += 1
        return outcomes

    def verify(self, ctx, inputs, outcomes):
        """Read sweep over the final live set: oracle check and recall.

        The index keeps changing during the loop, so both are taken once
        it has stopped: every pool query is answered with the default
        engines and with the heap engines, against the exact neighbours
        of the vectors that are live at the end.
        """
        live_ids = np.array(sorted(ctx.live), dtype=np.int64)
        n = len(inputs.database)
        vectors = np.stack([
            inputs.database[i] if i < n else ctx.vectors[i] for i in live_ids
        ])
        truth = live_ids[compute_ground_truth(vectors, inputs.queries, K).ids]
        server, user = ctx.scheme.server, ctx.scheme.user
        mismatches, hits = 0, []
        for row, vector in enumerate(inputs.queries):
            query = user.encrypt_query(vector, K)
            result = server.answer(query)
            oracle = server.answer(query, filter_engine="heap", refine_engine="heap")
            mismatches += not np.array_equal(result.ids, oracle.ids)
            hits.append(recall_at_k(result.ids, truth[row]))
        return len(inputs.queries), mismatches, _mean(hits)

    def layers(self, ctx, inputs, outcomes, recorder) -> LayerReport:
        layers = self._read_layers(outcomes, recorder)
        reads = outcomes.of_kind("read")
        first = [r.attrs["filter_s"] for r in reads if r.attrs["cycle_position"] == 0]
        steady = [r.attrs["filter_s"] for r in reads if r.attrs["cycle_position"] > 0]
        # The very first read of the pass follows no write.
        first = first[1:]
        mutations = [r.latency for r in outcomes.rows if r.kind in ("insert", "delete")]
        stats = ctx.scheme.journal.stats()
        layers.update({
            "user.upload_bytes":
                ctx.scheme.user.encrypt_query(inputs.queries[0], K).upload_bytes(),
            "filter.first_read_after_write_ms": float(np.median(first)) * 1e3,
            "filter.steady_read_ms": float(np.median(steady)) * 1e3,
            "maintenance.insert_ms":
                float(np.median(_span_seconds(recorder, "maintenance.insert"))) * 1e3,
            "maintenance.delete_ms":
                float(np.median(_span_seconds(recorder, "maintenance.delete"))) * 1e3,
            "maintenance.mutation_p50_ms": float(np.median(mutations)) * 1e3,
            "journal.bytes_per_mutation": stats.journal_bytes / stats.num_segments,
            "journal.segments": stats.num_segments,
        })
        return LayerReport(layers)


WORKLOADS = {
    workload.name: workload
    for workload in (
        OnlineHnswNet(),
        BatchBruteforceInproc(),
        SaturationIvfShardedInproc(),
        MixedNsgJournal(),
    )
}
