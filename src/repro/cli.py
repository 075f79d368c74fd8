"""Command-line interface: ``python -m repro <command>``.

A deployable front-end over the library for the three lifecycle stages:

* ``build``  — data-owner side: read a database (``.fvecs`` or ``.npy``),
  encrypt it, build the privacy-preserving index over the chosen filter
  backend (``--backend hnsw|nsg|ivf|bruteforce``), optionally partition
  it (``--shards N --shard-strategy round_robin|hash``), write the index
  and the key bundle to separate files.  ``--build-mode
  sequential|bulk`` is recorded in the build report (both build the same
  HNSW graph), and ``--json``
  emits the machine-readable build report (the encrypt/build cost
  split plus per-shard timings).
* ``query``  — user+server side: load index + keys, batch-encrypt the
  queries from a file, answer them in one pipelined pass, print neighbor
  ids (or a JSON report with ``--json``).  ``--filter-only`` runs the
  filter phase alone; ``--refine-engine heap|vectorized`` selects the
  refine-stage engine and ``--filter-engine heap|vectorized`` the
  filter-stage k'-ANNS engine (bit-identical results either way).
* ``demo``   — one-command end-to-end demo on a synthetic dataset with a
  recall report.
* ``info``   — inspect an index without keys: backend kind, shard
  layout, tombstones, storage accounting, and the persisted v2/v3 build
  metadata (``build_mode``, the encrypt/build seconds split); for a
  v4 journaled store it adds the journal ledger
  (generation, segment count, byte split); ``--json`` for the
  machine-readable form.
* ``compact`` — maintenance: drop every tombstone from an index on
  disk by rebuilding its filter structures (per shard when sharded).
  Works on both ``.npz`` files (rewritten in place) and v4 journaled
  stores (delta segments folded into a fresh base generation).
* ``serve``  — the online path: replay a query file through a
  :class:`~repro.serve.frontend.ServingFrontend` one query at a time
  (optionally at a Poisson ``--rate``); the server batches whatever is
  queued, up to ``--max-batch``, and the command
  reports throughput, latency percentiles, and the batch-size
  histogram (``--json`` emits the full metrics snapshot).
* ``listen`` — the network server: load an index, wrap its serving
  frontend in the ``repro.net`` TCP server, and accept wire-protocol
  clients until interrupted.  ``--tenant KEYID[:TOKEN[:QUOTA[:RATE]]]``
  (repeatable) registers the admitted tenants — in-flight quota plus an
  optional token-bucket rate in queries/second; with no ``--tenant``
  the index's own DCE ``key_id`` is admitted without credentials.
  ``--max-connections`` caps concurrent connections server-wide.
* ``serve --connect HOST:PORT`` — remote mode: encrypt the query file
  locally (keys never leave this side), replay it through a
  :class:`~repro.net.client.NetClient` against a ``listen`` server,
  and report the same serving statistics plus the server's tenancy
  view.

The index file contains no key material; the key file must be kept by
the owner/user only (see ``repro.core.persistence``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.backends import available_backends
from repro.core.errors import ParameterError
from repro.core.build import BUILD_MODES
from repro.core.journal import IndexJournal
from repro.core.maintenance import compact_index
from repro.core.persistence import load_index, load_keys, save_index, save_keys
from repro.core.filterengine import available_filter_engines
from repro.core.refine import available_refine_engines
from repro.core.sharding import SHARD_STRATEGIES
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.datasets import compute_ground_truth, make_dataset
from repro.datasets.loaders import read_fvecs
from repro.eval.metrics import recall_at_k
from repro.hnsw.graph import HNSWParams
from repro.net import (
    DEFAULT_MAX_BODY_BYTES,
    NetClient,
    NetServer,
    TenantAdmission,
    TenantConfig,
    TenantRegistry,
)
from repro.net.server import DEFAULT_FRAME_TIMEOUT
from repro.serve import replay_open_loop

__all__ = ["main", "build_parser"]


def _load_vectors(path: str) -> np.ndarray:
    """Read a database file by extension (.fvecs or .npy)."""
    if path.endswith(".fvecs"):
        return read_fvecs(path)
    if path.endswith(".npy"):
        return np.load(path)
    raise SystemExit(f"unsupported database format: {path} (use .fvecs or .npy)")


def _parse_tenant_spec(spec: str) -> TenantConfig:
    """Parse a ``--tenant KEYID[:TOKEN[:QUOTA[:RATE]]]`` specification."""
    parts = spec.split(":", 3)
    try:
        key_id = int(parts[0])
    except ValueError:
        raise SystemExit(
            f"invalid --tenant spec {spec!r}: key_id must be an integer"
        ) from None
    token = parts[1] if len(parts) > 1 and parts[1] else None
    quota = None
    if len(parts) > 2 and parts[2]:
        try:
            quota = int(parts[2])
        except ValueError:
            raise SystemExit(
                f"invalid --tenant spec {spec!r}: quota must be an integer"
            ) from None
    rate = None
    if len(parts) > 3 and parts[3]:
        try:
            rate = float(parts[3])
        except ValueError:
            raise SystemExit(
                f"invalid --tenant spec {spec!r}: rate must be a number"
            ) from None
    try:
        return TenantConfig(key_id, token=token, max_in_flight=quota, rate=rate)
    except Exception as exc:
        raise SystemExit(f"invalid --tenant spec {spec!r}: {exc}") from None


def _validate_resilience_args(args: argparse.Namespace) -> None:
    """Reject bad ``--deadline-ms`` / ``--retries`` before any work runs."""
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        raise ParameterError(
            f"--deadline-ms must be a positive integer, got {args.deadline_ms}"
        )
    if args.retries < 0:
        raise ParameterError(f"--retries must be >= 0, got {args.retries}")


def _parse_hostport(spec: str) -> "tuple[str, int]":
    """Parse a ``HOST:PORT`` address specification."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"invalid address {spec!r} (expected HOST:PORT)")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"invalid port in address {spec!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving k-ANN search (ICDE 2025 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="encrypt a database and build the index")
    build.add_argument("database", help="input vectors (.fvecs or .npy)")
    build.add_argument(
        "--index",
        required=True,
        help="output index: an .npz file, or a directory with "
        "--format journal",
    )
    build.add_argument(
        "--format",
        choices=("npz", "journal"),
        default="npz",
        help="index store layout: a single .npz snapshot, or a v4 "
        "journaled directory whose later inserts/deletes append delta "
        "segments instead of rewriting the base",
    )
    build.add_argument("--keys", required=True, help="output secret key file (.npz)")
    build.add_argument("--beta", type=float, required=True, help="DCPE noise budget")
    build.add_argument("--scale", type=float, default=1024.0, help="DCPE scale")
    build.add_argument(
        "--backend",
        choices=available_backends(),
        default="hnsw",
        help="filter-phase backend over the DCPE ciphertexts",
    )
    build.add_argument("--m", type=int, default=16, help="HNSW degree")
    build.add_argument("--ef-construction", type=int, default=200)
    build.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the filter structures into N shards "
        "(>= 2 enables scatter-gather answering)",
    )
    build.add_argument(
        "--shard-strategy",
        choices=SHARD_STRATEGIES,
        default="round_robin",
        help="how vector ids map to shards",
    )
    build.add_argument(
        "--build-mode",
        choices=BUILD_MODES,
        default="sequential",
        help="HNSW build mode, recorded in the build report (both "
        "values run the same insert loop and build the same graph)",
    )
    build.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON build report (encrypt/build cost split, "
        "per-shard build timings, storage accounting)",
    )
    build.add_argument("--seed", type=int, default=None)

    query = commands.add_parser("query", help="answer k-ANN queries over an index")
    query.add_argument("--index", required=True, help="index file from 'build'")
    query.add_argument("--keys", required=True, help="key file from 'build'")
    query.add_argument("--queries", required=True, help="query vectors (.fvecs or .npy)")
    query.add_argument("-k", type=int, default=10)
    query.add_argument(
        "--ratio-k",
        type=int,
        default=None,
        help="k'/k multiplier (default: 8 for full search, 1 for --filter-only)",
    )
    query.add_argument("--ef-search", type=int, default=None)
    query.add_argument(
        "--refine-engine",
        choices=available_refine_engines(),
        default=None,
        help="refine-stage engine (default: the server's vectorized engine)",
    )
    query.add_argument(
        "--filter-engine",
        choices=available_filter_engines(),
        default=None,
        help="filter-stage k'-ANNS engine (default: the server's "
        "vectorized engine; bit-identical results either way)",
    )
    query.add_argument(
        "--filter-only",
        action="store_true",
        help="run the filter phase only (skip DCE refinement)",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON report (ids, timings, byte accounting)",
    )
    query.add_argument("--seed", type=int, default=None)

    demo = commands.add_parser("demo", help="end-to-end demo on synthetic data")
    demo.add_argument("--profile", default="deep", help="dataset profile")
    demo.add_argument("-n", type=int, default=2000, help="database size")
    demo.add_argument("--queries", type=int, default=10)
    demo.add_argument("--beta", type=float, default=1.0)
    demo.add_argument("-k", type=int, default=10)
    demo.add_argument(
        "--backend",
        choices=available_backends(),
        default="hnsw",
        help="filter-phase backend",
    )
    demo.add_argument("--shards", type=int, default=1, help="filter shard count")
    demo.add_argument(
        "--refine-engine",
        choices=available_refine_engines(),
        default=None,
        help="refine-stage engine (default: vectorized)",
    )
    demo.add_argument(
        "--filter-engine",
        choices=available_filter_engines(),
        default=None,
        help="filter-stage engine (default: vectorized)",
    )
    demo.add_argument("--seed", type=int, default=0)

    info = commands.add_parser("info", help="inspect an index (no keys needed)")
    info.add_argument(
        "--index", required=True, help="index file or journaled store from 'build'"
    )
    info.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable index report",
    )

    compact = commands.add_parser(
        "compact", help="drop tombstones from an on-disk index (no keys needed)"
    )
    compact.add_argument(
        "--index",
        required=True,
        help="index to compact: an .npz file (rewritten in place) or a "
        "v4 journaled store (folded into a fresh base generation)",
    )
    compact.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON compaction report",
    )
    compact.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for the rebuild RNG (graph backends draw levels)",
    )

    serve = commands.add_parser(
        "serve", help="answer queries through the online micro-batching frontend"
    )
    serve.add_argument(
        "--index",
        default=None,
        help="index file from 'build' (required unless --connect)",
    )
    serve.add_argument("--keys", required=True, help="key file from 'build'")
    serve.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="remote mode: replay against a running 'listen' server "
        "instead of an in-process frontend",
    )
    serve.add_argument(
        "--token",
        default=None,
        help="tenant auth token for --connect (the key file's DCE "
        "key_id is the tenant identity)",
    )
    serve.add_argument(
        "--queries", required=True, help="query vectors (.fvecs or .npy)"
    )
    serve.add_argument("-k", type=int, default=10)
    serve.add_argument("--ratio-k", type=int, default=None)
    serve.add_argument("--ef-search", type=int, default=None)
    serve.add_argument(
        "--refine-engine",
        choices=available_refine_engines(),
        default=None,
        help="refine-stage engine (default: the server's vectorized engine)",
    )
    serve.add_argument(
        "--filter-engine",
        choices=available_filter_engines(),
        default=None,
        help="filter-stage k'-ANNS engine (default: the server's "
        "vectorized engine)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batch size cap (the most queued queries one "
        "dispatch takes up)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="admission-queue bound (default: max(1024, #queries)); "
        "beyond it submissions are rejected with QueueFullError",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop Poisson arrival rate in queries/second "
        "(default: submit back-to-back, the heavy-traffic limit)",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit ids plus the full serving-metrics snapshot",
    )
    serve.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        help="per-query latency budget carried on every submission; "
        "expired queries are shed with DeadlineExceededError",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=0,
        help="client retry budget for transient refusals "
        "(--connect mode only)",
    )
    serve.add_argument("--seed", type=int, default=None)

    listen = commands.add_parser(
        "listen", help="serve wire-protocol clients over TCP (repro.net)"
    )
    listen.add_argument("--index", required=True, help="index file from 'build'")
    listen.add_argument("--host", default="127.0.0.1", help="bind address")
    listen.add_argument(
        "--port", type=int, default=7379, help="bind port (0 = ephemeral)"
    )
    listen.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="KEYID[:TOKEN[:QUOTA[:RATE]]]",
        help="admit a tenant: DCE key_id, optional auth token, optional "
        "in-flight quota, optional sustained rate in queries/second "
        "(token-bucket; repeatable; default: the index's own key_id, "
        "no token, no quota, no rate cap)",
    )
    listen.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="server-wide concurrent-connection cap; connections over "
        "it are refused with a BUSY + retry-after error",
    )
    listen.add_argument(
        "--refine-engine",
        choices=available_refine_engines(),
        default=None,
        help="refine-stage engine (default: the server's vectorized engine)",
    )
    listen.add_argument(
        "--filter-engine",
        choices=available_filter_engines(),
        default=None,
        help="filter-stage k'-ANNS engine (default: the server's "
        "vectorized engine)",
    )
    listen.add_argument("--max-batch", type=int, default=32)
    listen.add_argument(
        "--queue-depth", type=int, default=1024, help="admission-queue bound"
    )
    listen.add_argument(
        "--max-body-bytes",
        type=int,
        default=DEFAULT_MAX_BODY_BYTES,
        help="frame-body cap; larger length prefixes are refused unread",
    )
    listen.add_argument(
        "--frame-timeout",
        type=float,
        default=DEFAULT_FRAME_TIMEOUT,
        help="per-frame read deadline in seconds (slow-loris budget)",
    )
    return parser


def _cmd_build(args: argparse.Namespace) -> int:
    vectors = _load_vectors(args.database)
    rng = np.random.default_rng(args.seed)
    owner = DataOwner(
        vectors.shape[1],
        beta=args.beta,
        scale=args.scale,
        hnsw_params=HNSWParams(m=args.m, ef_construction=args.ef_construction),
        backend=args.backend,
        shards=args.shards,
        shard_strategy=args.shard_strategy,
        build_mode=args.build_mode,
        rng=rng,
    )
    start = time.perf_counter()
    index = owner.build_index(vectors)
    elapsed = time.perf_counter() - start
    if args.format == "journal":
        IndexJournal.create(args.index, index)
    else:
        save_index(args.index, index)
    save_keys(args.keys, owner.authorize_user())
    report = index.size_report()
    build_report = index.build_report
    if args.json:
        payload = build_report.as_dict()
        payload.update(
            {
                "shard_strategy": getattr(index, "strategy", None),
                "storage_floats": report.total_floats,
                "dce_overhead_ratio": report.dce_overhead_ratio,
                "index_path": args.index,
                "keys_path": args.keys,
            }
        )
        print(json.dumps(payload, indent=2))
        return 0
    sharding = (
        f"shards={index.num_shards} ({index.strategy}) "
        if hasattr(index, "num_shards")
        else ""
    )
    print(
        f"built index over n={len(index)} d={index.dim} "
        f"backend={index.backend_kind} {sharding}in {elapsed:.1f}s "
        f"(encrypt {build_report.encrypt_seconds:.1f}s + "
        f"build {build_report.build_seconds:.1f}s, "
        f"mode={build_report.build_mode}); "
        f"storage {report.total_floats} floats "
        f"({report.dce_overhead_ratio:.2f}x plaintext for C_DCE)"
    )
    print(f"index -> {args.index}  (server-side, no keys)")
    print(f"keys  -> {args.keys}  (owner/user only)")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.filter_only and args.refine_engine:
        raise SystemExit(
            "--refine-engine has no effect with --filter-only "
            "(the refine phase is skipped entirely)"
        )
    index = load_index(args.index)
    keys = load_keys(args.keys)
    user = QueryUser(keys, rng=np.random.default_rng(args.seed))
    server = CloudServer(
        index,
        refine_engine=args.refine_engine,
        filter_engine=args.filter_engine,
    )
    queries = _load_vectors(args.queries)

    encrypt_start = time.perf_counter()
    batch = user.encrypt_queries(
        queries,
        args.k,
        ratio_k=args.ratio_k,
        ef_search=args.ef_search,
        mode="filter_only" if args.filter_only else "full",
    )
    encrypt_seconds = time.perf_counter() - encrypt_start
    results = server.answer(batch)

    if args.json:
        payload = {
            "backend": index.backend_kind,
            "shards": getattr(index, "num_shards", 1),
            "k": args.k,
            "mode": batch.request.mode,
            "num_queries": len(batch),
            "ids": [result.ids.tolist() for result in results],
            "encrypt_seconds": encrypt_seconds,
            "server_seconds": results.total_seconds,
            "wall_seconds": results.wall_seconds,
            "filter_seconds": results.filter_seconds,
            "mask_seconds": results.mask_seconds,
            "refine_seconds": results.refine_seconds,
            "qps": results.qps,
            "upload_bytes": batch.upload_bytes(),
            "download_bytes": results.download_bytes(),
            "refine_comparisons": results.refine_comparisons,
            # The filter phase runs in every mode, so these are
            # unconditional (unlike the refine fields below).
            "filter_engine": server.filter_engine,
            "filter_kernel_seconds": results.filter_kernel_seconds,
        }
        if batch.request.mode == "full":
            payload["refine_engine"] = server.refine_engine
            payload["refine_kernel_seconds"] = results.refine_kernel_seconds
        shard_seconds = results.shard_seconds()
        if shard_seconds:
            payload["shard_seconds"] = {
                str(shard): seconds for shard, seconds in shard_seconds.items()
            }
            payload["gather_bytes"] = results.gather_bytes()
        print(json.dumps(payload, indent=2))
        return 0

    for i, result in enumerate(results):
        print(f"query {i}: {' '.join(str(x) for x in result.ids.tolist())}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    dataset = make_dataset(args.profile, num_vectors=args.n,
                           num_queries=args.queries, rng=rng)
    owner = DataOwner(
        dataset.dim, beta=args.beta, backend=args.backend,
        shards=args.shards, rng=rng,
    )
    index = owner.build_index(dataset.database)
    server = CloudServer(
        index,
        refine_engine=args.refine_engine,
        filter_engine=args.filter_engine,
    )
    user = QueryUser(owner.authorize_user(), rng=rng)
    truth = compute_ground_truth(dataset.database, dataset.queries, args.k)
    batch = user.encrypt_queries(dataset.queries, args.k, ef_search=120)
    results = server.answer(batch)
    recalls = [
        recall_at_k(result.ids, truth.for_query(i), args.k)
        for i, result in enumerate(results)
    ]
    print(
        f"profile={args.profile} n={args.n} d={dataset.dim} beta={args.beta} "
        f"backend={index.backend_kind} refine={server.refine_engine}: "
        f"Recall@{args.k} = {np.mean(recalls):.3f}, "
        f"{results.qps:.0f} QPS (server-side)"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    journal_stats = (
        IndexJournal.open(args.index).stats() if os.path.isdir(args.index) else None
    )
    index = load_index(args.index)
    report = index.size_report()
    sharded = hasattr(index, "num_shards")
    payload = {
        "index_path": args.index,
        "backend": index.backend_kind,
        "num_vectors": int(index.sap_vectors.shape[0]),
        "live_vectors": len(index),
        "tombstones": len(index.tombstones),
        "dim": index.dim,
        "shards": index.num_shards if sharded else 1,
        "shard_strategy": index.strategy if sharded else None,
        "shard_sizes": [len(shard) for shard in index.shards] if sharded else None,
        "storage_floats": report.total_floats,
        "dce_overhead_ratio": report.dce_overhead_ratio,
        "build_report": (
            index.build_report.as_dict() if index.build_report is not None else None
        ),
        "dce_key_id": int(index.dce_database.key_id),
        # The admission state a default `listen` on this index would
        # expose: the index's own DCE key_id is the one known tenant.
        "tenancy": {
            "key_ids": [int(index.dce_database.key_id)],
            "default_tenant": {
                "key_id": int(index.dce_database.key_id),
                "authenticated": False,
                "max_in_flight": None,
            },
        },
        "journal": (
            None
            if journal_stats is None
            else {
                "generation": journal_stats.generation,
                "num_segments": journal_stats.num_segments,
                "base_bytes": journal_stats.base_bytes,
                "journal_bytes": journal_stats.journal_bytes,
                "total_bytes": journal_stats.total_bytes,
            }
        ),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    sharding = (
        f"shards={payload['shards']} ({payload['shard_strategy']}, "
        f"sizes {payload['shard_sizes']})"
        if sharded
        else "monolithic"
    )
    print(
        f"index {args.index}: backend={payload['backend']} "
        f"n={payload['num_vectors']} ({payload['live_vectors']} live, "
        f"{payload['tombstones']} tombstoned) d={payload['dim']} {sharding}"
    )
    print(
        f"storage {report.total_floats} floats "
        f"({report.dce_overhead_ratio:.2f}x plaintext for C_DCE)"
    )
    print(f"tenancy: default tenant key_id={payload['dce_key_id']}")
    if journal_stats is not None:
        print(
            f"journal: generation {journal_stats.generation}, "
            f"{journal_stats.num_segments} delta segments "
            f"({journal_stats.base_bytes} base + "
            f"{journal_stats.journal_bytes} journal bytes)"
        )
    build = index.build_report
    if build is None:
        print("build metadata: none recorded (pre-build-pipeline file)")
    else:
        print(
            f"build metadata: mode={build.build_mode} "
            f"(encrypt {build.encrypt_seconds:.2f}s + build {build.build_seconds:.2f}s)"
        )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    journal = IndexJournal.open(args.index) if os.path.isdir(args.index) else None
    index = journal.load() if journal is not None else load_index(args.index)
    pending = len(index.tombstones)
    report = compact_index(index, rng=rng, journal=journal)
    if journal is None:
        # Plain snapshot: persist the compacted index over the old file.
        save_index(args.index, index)
    payload = {
        "index_path": args.index,
        "tombstones_before": pending,
        "tombstones_dropped": report.tombstones_dropped,
        "shards_compacted": report.shards_compacted,
        "seconds": report.seconds,
        "live_vectors": len(index),
        "retired_total": len(index.retired),
        "journal": (
            None
            if journal is None
            else {
                "generation": journal.generation,
                "num_segments": journal.num_segments,
            }
        ),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    if report.tombstones_dropped == 0:
        print(f"index {args.index}: no tombstones, nothing to compact")
        return 0
    folded = (
        f"; journal folded into generation {journal.generation}"
        if journal is not None
        else ""
    )
    print(
        f"compacted {args.index}: dropped {report.tombstones_dropped} "
        f"tombstones across {report.shards_compacted} shard(s) in "
        f"{report.seconds:.2f}s ({len(index)} live vectors){folded}"
    )
    return 0


def _serve_remote(args: argparse.Namespace, encrypted, key_id: int):
    """Replay through a ``listen`` server over the wire protocol."""
    host, port = _parse_hostport(args.connect)
    with NetClient(
        host, port, key_id, token=args.token, retries=args.retries
    ) as client:
        results, elapsed = replay_open_loop(
            client, encrypted, args.rate, args.seed,
            deadline_ms=args.deadline_ms,
        )
        tenancy = client.stats()
        tenancy["client_retries"] = client.retry_count
    return results, elapsed, tenancy


def _serve_local(args: argparse.Namespace, encrypted, key_id: int, index):
    """Replay through an in-process frontend, via the admission layer."""
    server = CloudServer(
        index,
        refine_engine=args.refine_engine,
        filter_engine=args.filter_engine,
    )
    queue_depth = (
        args.queue_depth
        if args.queue_depth is not None
        else max(1024, len(encrypted))
    )
    frontend = server.serving_frontend(
        max_batch_size=args.max_batch,
        max_queue_depth=queue_depth,
    )
    # The same admission path the network server uses, so the reported
    # tenancy view is the real thing, not a reconstruction.
    admission = TenantAdmission(frontend, TenantRegistry([TenantConfig(key_id)]))
    with frontend:
        channel = admission.channel(key_id)
        results, elapsed = replay_open_loop(
            channel, encrypted, args.rate, args.seed,
            deadline_ms=args.deadline_ms,
        )
        tenancy = admission.stats()
        tenancy["frontend"] = frontend.metrics.snapshot().as_dict()
    return results, elapsed, tenancy


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.connect is None and args.index is None:
        raise SystemExit("serve needs --index (local) or --connect (remote)")
    _validate_resilience_args(args)
    if args.connect is None and args.retries:
        raise SystemExit("--retries applies to --connect mode only")
    keys = load_keys(args.keys)
    user = QueryUser(keys, rng=np.random.default_rng(args.seed))
    queries = _load_vectors(args.queries)
    encrypted = [
        user.encrypt_query(query, args.k, ratio_k=args.ratio_k,
                           ef_search=args.ef_search)
        for query in queries
    ]
    key_id = int(keys.dce_key.key_id)
    if args.connect is not None:
        results, elapsed, tenancy = _serve_remote(args, encrypted, key_id)
        index = None
    else:
        index = load_index(args.index)
        results, elapsed, tenancy = _serve_local(args, encrypted, key_id, index)
    snapshot = tenancy["frontend"]
    served_qps = len(results) / elapsed if elapsed > 0 else float("inf")

    if args.json:
        payload = {
            "backend": index.backend_kind if index is not None else None,
            "shards": getattr(index, "num_shards", 1) if index is not None else None,
            "remote": args.connect,
            "k": args.k,
            "num_queries": len(results),
            "max_batch_size": args.max_batch,
            "rate": args.rate,
            "deadline_ms": args.deadline_ms,
            "client_retries": tenancy.get("client_retries", 0),
            "served_qps": served_qps,
            "ids": [result.ids.tolist() for result in results],
            "metrics": snapshot,
            "tenancy": {
                "key_ids": tenancy["key_ids"],
                "queue_depth": tenancy["queue_depth"],
                "tenants": tenancy["tenants"],
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    where = f"via {args.connect}" if args.connect else "in-process"
    print(
        f"served {len(results)} queries (k={args.k}) at {served_qps:.0f} QPS "
        f"{where} [cap={args.max_batch}]"
    )
    print(
        f"latency p50/p95/p99 = {snapshot['latency_p50'] * 1e3:.2f}/"
        f"{snapshot['latency_p95'] * 1e3:.2f}/{snapshot['latency_p99'] * 1e3:.2f} ms; "
        f"{snapshot['batches']} micro-batches, mean size "
        f"{snapshot['mean_batch_size']:.1f}, max queue depth "
        f"{snapshot['max_queue_depth']}"
    )
    tenant = tenancy["tenants"].get(str(key_id), {})
    print(
        f"tenant {key_id}: {tenant.get('completed', 0)} completed, "
        f"{tenant.get('rejected', 0)} rejected, quota "
        f"{tenant.get('max_in_flight') or 'unbounded'}"
    )
    return 0


def _cmd_listen(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    server = CloudServer(
        index,
        refine_engine=args.refine_engine,
        filter_engine=args.filter_engine,
    )
    tenants = [_parse_tenant_spec(spec) for spec in args.tenant] or [
        TenantConfig(int(index.dce_database.key_id))
    ]
    frontend = server.serving_frontend(
        max_batch_size=args.max_batch,
        max_queue_depth=args.queue_depth,
    )
    with frontend:
        net = NetServer(
            frontend,
            tenants,
            host=args.host,
            port=args.port,
            max_body_bytes=args.max_body_bytes,
            frame_timeout=args.frame_timeout,
            max_connections=args.max_connections,
        )
        host, port = net.address
        print(
            f"listening on {host}:{port} "
            f"(backend={index.backend_kind}, "
            f"tenants={net.registry.key_ids()}); Ctrl-C to stop",
            flush=True,
        )
        net.serve_until_interrupt()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "query": _cmd_query,
        "demo": _cmd_demo,
        "info": _cmd_info,
        "compact": _cmd_compact,
        "serve": _cmd_serve,
        "listen": _cmd_listen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
