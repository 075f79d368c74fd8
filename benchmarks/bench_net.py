"""Loopback network serving: socket parity + per-tenant quota isolation.

Two claims of the ``repro.net`` layer (PR 6), each phase one claim:

**Phase 1 — wire parity.**  An open-loop Poisson workload replayed
through the real socket path (codec -> TCP -> tenancy -> frontend) must
return ids **bit-identical** to replaying the same ciphertexts through
the in-process :class:`~repro.serve.frontend.ServingFrontend`.  The
queries are canonicalized through one codec round trip first (DCPE
ciphertexts travel as float32; encode∘decode is idempotent after the
first pass), so both paths serve exactly the same float values and the
assertion is equality, not tolerance.

**Phase 2 — quota isolation.**  Two tenants share one scheduler:
tenant A floods under a tiny in-flight quota and must be throttled
(observable :class:`~repro.net.tenancy.QuotaExceededError` rejections),
while tenant B's served p95 latency in the mixed run must stay within
2x of its solo run — a noisy tenant sheds its own load instead of
starving its neighbors.  Tenant B holds its *own* DCE key and submits
``filter_only`` traffic (answerable under a foreign DCE key: the refine
phase — where the key is checked — is skipped), which is what makes a
genuinely two-key bench possible over a single index.

The p95 bar is CPU/CI-graded like every bench in this repo: the 2x
bound applies on ≥4-core hosts; shared CI runners and 1-2 core hosts
get a sanity factor instead (one core serializes A's and B's work, so
B pays A's compute tax regardless of admission policy).

Writes ``BENCH_net.json`` next to the repo root.
"""

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from benchmarks.grading import bench_environment, is_graded
from repro.core.protocol import EncryptedQueryBatch
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.net import NetClient, NetServer, QuotaExceededError, TenantConfig
from repro.net import codec
from repro.serve import replay_open_loop

N = 2048
DIM = 32
K = 10
N_QUERIES = 48
RATE = 400.0  # Poisson arrivals (queries/second) for both phases
FLOOD_SUBMISSIONS = 150
FLOOD_QUOTA = 2

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_net.json"


def _workload(seed: int = 70):
    rng = np.random.default_rng(seed)
    database = rng.standard_normal((N, DIM)) * 2.0
    queries = rng.standard_normal((N_QUERIES, DIM)) * 2.0
    owner = DataOwner(DIM, beta=1.0, backend="bruteforce", rng=rng)
    index = owner.build_index(database)
    server = CloudServer(index)
    user = QueryUser(owner.authorize_user(), rng=rng)
    return server, user, queries, int(index.dce_database.key_id)


def _canonical(queries):
    """One codec round trip per query: both serving paths see the same
    float32-quantized ciphertexts, making id parity exact by construction."""
    canonical = []
    for query in queries:
        batch = EncryptedQueryBatch.from_queries([query])
        decoded = codec.decode_query_batch(codec.encode_query_batch(batch))
        canonical.append(decoded[0])
    return canonical


def test_socket_parity_and_quota_isolation():
    server, user, plain_queries, key_a = _workload()
    encrypted = _canonical(
        [user.encrypt_query(query, K) for query in plain_queries]
    )

    # ---- Phase 1: socket path vs in-process path, bit-identical ids ----
    with server.serving_frontend(max_batch_size=16) as frontend:
        inproc_results, inproc_elapsed = replay_open_loop(
            frontend, encrypted, rate=RATE, seed=71
        )
    with server.serving_frontend(max_batch_size=16) as frontend:
        with NetServer(frontend, [TenantConfig(key_a)]) as net:
            host, port = net.address
            with NetClient(host, port, key_a) as client:
                socket_results, socket_elapsed = replay_open_loop(
                    client, encrypted, rate=RATE, seed=71
                )
    assert len(socket_results) == len(inproc_results) == N_QUERIES
    for inproc, socked in zip(inproc_results, socket_results):
        assert np.array_equal(inproc.ids, socked.ids), (
            "socket-served ids diverged from in-process serving"
        )
    parity = {
        "queries": N_QUERIES,
        "rate": RATE,
        "inprocess_qps": N_QUERIES / inproc_elapsed,
        "socket_qps": N_QUERIES / socket_elapsed,
        "ids_bit_identical": True,
    }

    # ---- Phase 2: tenant A throttled, tenant B's p95 within bounds ----
    owner_b = DataOwner(DIM, beta=1.0, rng=np.random.default_rng(81))
    user_b = QueryUser(owner_b.authorize_user(), rng=np.random.default_rng(82))
    key_b = int(owner_b.authorize_user().dce_key.key_id)
    queries_b = [
        user_b.encrypt_query(query, K, mode="filter_only")
        for query in plain_queries
    ]
    tenants = [
        TenantConfig(key_a, max_in_flight=FLOOD_QUOTA),
        TenantConfig(key_b),
    ]

    def _run_b(net, rate_seed):
        host, port = net.address
        with NetClient(host, port, key_b) as client:
            results, elapsed = replay_open_loop(
                client, queries_b, rate=RATE, seed=rate_seed
            )
        assert len(results) == N_QUERIES
        return net.registry.get(key_b).stats()

    # Solo run: tenant B alone on a fresh frontend + registry.
    with server.serving_frontend(max_batch_size=16) as frontend:
        with NetServer(frontend, tenants) as net:
            solo = _run_b(net, rate_seed=91)

    # Mixed run: tenant A floods its 2-slot quota from another thread
    # while tenant B replays the identical workload.
    rejections = 0
    completions_a = 0
    with server.serving_frontend(max_batch_size=16) as frontend:
        with NetServer(frontend, tenants) as net:
            host, port = net.address
            stop_flood = threading.Event()

            def flood():
                nonlocal rejections, completions_a
                with NetClient(host, port, key_a) as client:
                    futures = []
                    for i in range(FLOOD_SUBMISSIONS):
                        if stop_flood.is_set():
                            break
                        futures.append(client.submit(encrypted[i % N_QUERIES]))
                        # Bursts of twice the quota: the server answers
                        # a lone query within a paced gap, so only a
                        # burst is sure to find the quota full.
                        if (i + 1) % (2 * FLOOD_QUOTA) == 0:
                            time.sleep(0.004)
                    for future in futures:
                        try:
                            future.result(timeout=60)
                            completions_a += 1
                        except QuotaExceededError:
                            rejections += 1

            flooder = threading.Thread(target=flood, daemon=True)
            flooder.start()
            try:
                mixed = _run_b(net, rate_seed=91)
            finally:
                stop_flood.set()
                flooder.join(timeout=120)
            tenant_a = net.registry.get(key_a).stats()

    p95_ratio = (
        mixed["latency_p95"] / solo["latency_p95"]
        if solo["latency_p95"] > 0
        else float("inf")
    )

    _RESULT_PATH.write_text(
        json.dumps(
            {
                "n": N,
                "dim": DIM,
                "k": K,
                **bench_environment(executor="threads"),
                "parity": parity,
                "quota": {
                    "flood_quota": FLOOD_QUOTA,
                    "flood_submissions": FLOOD_SUBMISSIONS,
                    "tenant_a_rejected": rejections,
                    "tenant_a_completed": completions_a,
                    "tenant_b_solo_p95": solo["latency_p95"],
                    "tenant_b_mixed_p95": mixed["latency_p95"],
                    "p95_ratio": p95_ratio,
                },
            },
            indent=2,
        )
        + "\n"
    )

    print()
    print(
        f"parity: {parity['socket_qps']:.0f} QPS over the socket vs "
        f"{parity['inprocess_qps']:.0f} QPS in-process, ids bit-identical"
    )
    print(
        f"quota: tenant A {rejections} rejected / {completions_a} completed "
        f"under quota {FLOOD_QUOTA}; tenant B p95 "
        f"{solo['latency_p95'] * 1e3:.2f}ms solo -> "
        f"{mixed['latency_p95'] * 1e3:.2f}ms mixed ({p95_ratio:.2f}x)"
    )
    print(f"wrote {_RESULT_PATH.name}")

    # The noisy tenant was actually throttled...
    assert rejections > 0, (
        f"tenant A was never throttled under quota {FLOOD_QUOTA} "
        f"({completions_a} completions)"
    )
    assert tenant_a["rejected"] == rejections
    # ...and its neighbor kept its latency.  CPU-graded: the 2x bound
    # needs cores for A's admitted work to run on; a core-starved host
    # serializes both tenants and only gets a sanity factor.
    cores = os.cpu_count() or 1
    bound = 2.0 if is_graded() else 10.0
    assert p95_ratio <= bound, (
        f"tenant B's mixed p95 is {p95_ratio:.2f}x its solo run "
        f"(bound {bound}x on {cores} cores)"
    )
