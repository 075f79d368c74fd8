"""Incremental persistence: journal append vs full rewrite, live compaction.

The v4 journaled store's claim (``repro.core.journal``) is that a
mutation persists in time proportional to the *mutation*, not the
index: an insert/delete appends one checksummed delta segment where the
v2/v3 snapshot formats rewrite the whole base archive.  This bench
measures both persistence paths over the same mutations at the
reference grid point (``n=4096, d=64``) and asserts the append is
**>=5x cheaper** than the full rewrite — an intentionally loose bar
(the measured gap is orders of magnitude; the assertion catches a
journal that silently degenerates into rewriting the base).

The second half exercises the *online* maintenance claim: a
:class:`~repro.serve.frontend.ServingFrontend` keeps answering while
``compact_index`` rebuilds the shard backends behind atomic swaps.  An
open-loop workload replays through the frontend with the compactor
running concurrently; every answer must match the sequential
pre-compaction answer set (the exact brute-force backend makes answer
sets a pure function of the live data, whichever side of the swap a
micro-batch lands on), and the reported p95 is the latency *under*
compaction.  No latency bar — shard rebuild cost is real work sharing
the CPU with serving and CI runners vary wildly — the acceptance is
zero dropped or incorrect answers.

Writes the machine-readable ``BENCH_persistence.json`` next to the
repo root.
"""

import json
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from benchmarks.grading import bench_environment
from repro.core.dce import DCECiphertext
from repro.core.journal import IndexJournal
from repro.core.maintenance import compact_index, delete_vector, insert_vector
from repro.core.persistence import save_index
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.serve import replay_open_loop

N = 4096
DIM = 64
K = 10
RATIO_K = 8

#: Mutations timed per persistence path.
N_MUTATIONS = 8

#: The append-vs-rewrite acceptance bar (deliberately loose; the
#: measured gap at n=4096 is orders of magnitude).
MIN_SPEEDUP = 5.0

#: Serving-under-compaction workload shape.
N_QUERIES = 32
N_DELETED = 200
SHARDS = 2

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_persistence.json"


def _fitted(seed: int = 70, shards: "int | None" = None):
    rng = np.random.default_rng(seed)
    database = rng.standard_normal((N, DIM)) * 2.0
    owner = DataOwner(DIM, beta=1.0, backend="bruteforce", shards=shards, rng=rng)
    return owner, owner.build_index(database), database


def _persistence_grid():
    """Per-mutation seconds: journal segment append vs full npz rewrite."""
    owner, index, _ = _fitted()
    mutation_rng = np.random.default_rng(71)
    with tempfile.TemporaryDirectory() as tmp:
        journal = IndexJournal.create(Path(tmp) / "store", index)
        snapshot = Path(tmp) / "snapshot.npz"

        append_seconds, rewrite_seconds = [], []
        for _ in range(N_MUTATIONS):
            # Mutate the live index first, then time each way of
            # persisting exactly that mutation.
            new_id = insert_vector(
                owner, index, mutation_rng.standard_normal(DIM)
            )
            ciphertext = DCECiphertext(
                index.dce_database.components[new_id], index.dce_database.key_id
            )
            start = time.perf_counter()
            journal.append_insert(
                index.sap_vectors[new_id],
                ciphertext,
                new_id,
                index.replay_level(new_id),
            )
            append_seconds.append(time.perf_counter() - start)

            start = time.perf_counter()
            save_index(snapshot, index)
            rewrite_seconds.append(time.perf_counter() - start)

        stats = journal.stats()
        return {
            "mutations": N_MUTATIONS,
            "append_seconds_mean": float(np.mean(append_seconds)),
            "rewrite_seconds_mean": float(np.mean(rewrite_seconds)),
            "speedup": float(np.mean(rewrite_seconds) / np.mean(append_seconds)),
            "segment_bytes_mean": stats.journal_bytes / stats.num_segments,
            "base_bytes": stats.base_bytes,
        }


def _serving_under_compaction():
    """Replay an open-loop workload while the shards compact live."""
    owner, index, database = _fitted(seed=72, shards=SHARDS)
    delete_rng = np.random.default_rng(73)
    victims = {
        int(v) for v in delete_rng.choice(N, size=N_DELETED, replace=False)
    }
    for victim in sorted(victims):
        delete_vector(index, victim)

    server = CloudServer(index, default_ratio_k=RATIO_K)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(74))
    queries = [
        database[i] + 0.01 for i in range(N_QUERIES) if i not in victims
    ][:N_QUERIES]
    encrypted = [user.encrypt_query(query, K) for query in queries]
    expected = [set(map(int, server.answer(q).ids)) for q in encrypted]

    compaction = {"seconds": None, "report": None}

    def compact_now():
        start = time.perf_counter()
        compaction["report"] = compact_index(
            index, rng=np.random.default_rng(75)
        )
        compaction["seconds"] = time.perf_counter() - start

    frontend = server.serving_frontend(
        max_batch_size=8,
        max_queue_depth=max(1024, len(encrypted)),
    )
    with frontend:
        compactor = threading.Thread(target=compact_now)
        compactor.start()
        results, elapsed = replay_open_loop(frontend, encrypted, rate=None, seed=76)
        compactor.join()
        snapshot = frontend.metrics.snapshot()

    wrong = sum(
        set(map(int, result.ids)) != want
        for result, want in zip(results, expected)
    )
    dead = sum(bool(set(map(int, result.ids)) & victims) for result in results)
    report = compaction["report"]
    return {
        "queries": len(encrypted),
        "answered": len(results),
        "wrong_answers": wrong,
        "answers_with_dead_ids": dead,
        "deleted": N_DELETED,
        "shards": SHARDS,
        "tombstones_dropped": report.tombstones_dropped,
        "shards_compacted": report.shards_compacted,
        "compaction_seconds": compaction["seconds"],
        "served_qps": len(encrypted) / elapsed,
        "latency_p50": snapshot.latency_p50,
        "latency_p95": snapshot.latency_p95,
    }


def test_persistence_grid():
    """Append-vs-rewrite grid + live-compaction serving + JSON artifact."""
    persistence = _persistence_grid()
    serving = _serving_under_compaction()

    _RESULT_PATH.write_text(
        json.dumps(
            {
                "n": N,
                "dim": DIM,
                "k": K,
                "ratio_k": RATIO_K,
                **bench_environment(executor="threads"),
                "persistence": persistence,
                "serving_under_compaction": serving,
            },
            indent=2,
        )
        + "\n"
    )

    print()
    print(
        f"journal append {persistence['append_seconds_mean'] * 1e3:.2f}ms vs "
        f"full rewrite {persistence['rewrite_seconds_mean'] * 1e3:.1f}ms per "
        f"mutation ({persistence['speedup']:.0f}x, n={N}, d={DIM})"
    )
    print(
        f"serving under compaction: {serving['answered']}/{serving['queries']} "
        f"answered, {serving['wrong_answers']} wrong, p95 "
        f"{serving['latency_p95'] * 1e3:.1f}ms while dropping "
        f"{serving['tombstones_dropped']} tombstones in "
        f"{serving['compaction_seconds'] * 1e3:.1f}ms"
    )
    print(f"wrote {_RESULT_PATH.name}")

    assert persistence["speedup"] >= MIN_SPEEDUP, (
        f"journal append only {persistence['speedup']:.1f}x cheaper than a "
        f"full rewrite at n={N}, d={DIM} — below the {MIN_SPEEDUP}x bar"
    )
    assert serving["answered"] == serving["queries"]
    assert serving["wrong_answers"] == 0
    assert serving["answers_with_dead_ids"] == 0
    assert serving["tombstones_dropped"] == N_DELETED
