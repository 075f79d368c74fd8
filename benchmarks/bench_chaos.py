"""Chaos bench: goodput and recovery under an injected fault schedule.

The resilience claim, end to end: with the *whole* stack assembled —
batch scheduler, tenancy, TCP serving, retrying client — two faults
land mid-run:

* a **connection drop** (the healthy tenant's socket is torn mid-query
  by a :class:`~repro.testing.faults.FaultySocket`; the client
  reconnects and retries), and
* a **tenant flood** (a second tenant hammers past its token-bucket
  rate and must be shed with typed refusals).

The bars are correctness bars, not speed bars, so they are *not*
CPU-graded: every healthy query is eventually answered with ids
**bit-identical** to the fault-free oracle (zero wrong results), every
faulted attempt fails **typed** within the call budget (no hangs), the
dropped connection is retried and the flood is shed.  Goodput and the
fault counters are recorded in ``BENCH_chaos.json``; the environment
stamp still says whether the host was core-starved.
"""

import json
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from benchmarks.grading import bench_environment
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.net import (
    NetClient,
    NetServer,
    QuotaExceededError,
    RemoteError,
    TenantConfig,
)
from repro.serve import DeadlineExceededError
from repro.testing import CallTrigger, FaultySocket
import socket as socket_module

N = 1024
DIM = 16
K = 10
N_QUERIES = 32
DEADLINE_MS = 30_000
PER_QUERY_BUDGET = 60.0  # hard wall for answer-or-typed-failure, seconds
FLOOD_RATE = 20.0  # tokens/second for the flooding tenant
FLOOD_BURST = 4.0

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"


def _workload(seed: int = 75):
    rng = np.random.default_rng(seed)
    database = rng.standard_normal((N, DIM)) * 2.0
    queries = rng.standard_normal((N_QUERIES, DIM)) * 2.0
    owner = DataOwner(DIM, beta=1.0, backend="bruteforce", rng=rng)
    index = owner.build_index(database)
    user = QueryUser(owner.authorize_user(), rng=rng)
    return index, user, queries


def test_chaos_goodput_and_recovery():
    index, user, plain_queries = _workload()
    key_a = int(index.dce_database.key_id)
    encrypted = [user.encrypt_query(query, K) for query in plain_queries]

    # Fault-free oracle: the same ciphertexts through in-process serving.
    oracle = CloudServer(index)
    expected = [oracle.answer(query).ids for query in encrypted]

    # The flooding tenant holds its own DCE key and sends filter_only
    # traffic (answerable under a foreign key), rate-limited hard.
    owner_b = DataOwner(DIM, beta=1.0, rng=np.random.default_rng(85))
    user_b = QueryUser(owner_b.authorize_user(), rng=np.random.default_rng(86))
    key_b = int(owner_b.authorize_user().dce_key.key_id)
    flood_queries = [
        user_b.encrypt_query(query, K, mode="filter_only")
        for query in plain_queries
    ]
    tenants = [
        TenantConfig(key_a),
        TenantConfig(key_b, rate=FLOOD_RATE, burst=FLOOD_BURST),
    ]

    faults = ["connection_drop", "tenant_flood"]
    server = CloudServer(index)

    typed_failures: Counter = Counter()
    flood_refusals = 0
    flood_completed = 0
    wrong = 0

    with server.serving_frontend(max_batch_size=8) as frontend:
        with NetServer(frontend, tenants) as net:
            host, port = net.address

            # ---- fault 1: tenant flood from a background thread ----
            stop_flood = threading.Event()

            def flood():
                nonlocal flood_refusals, flood_completed
                with NetClient(host, port, key_b) as client:
                    i = 0
                    while not stop_flood.is_set():
                        try:
                            client.answer(
                                flood_queries[i % N_QUERIES], timeout=30
                            )
                            flood_completed += 1
                        except QuotaExceededError:
                            flood_refusals += 1
                            time.sleep(0.01)
                        except RemoteError:
                            time.sleep(0.01)
                        i += 1

            flooder = threading.Thread(target=flood, daemon=True)
            flooder.start()

            # ---- fault 2: the healthy tenant's first connection is
            # torn at its 4th query frame; the client must reconnect
            # and retry.  Only this one dial gets the faulty wrapper.
            real_create = socket_module.create_connection

            def faulty_dial(address, timeout=None):
                sock = real_create(address, timeout=timeout)
                socket_module.create_connection = real_create
                return FaultySocket(sock, CallTrigger(5), action="close")

            socket_module.create_connection = faulty_dial
            try:
                client = NetClient(
                    host,
                    port,
                    key_a,
                    retries=5,
                    backoff_base=0.05,
                    backoff_cap=0.5,
                )
            finally:
                socket_module.create_connection = real_create

            try:
                start = time.perf_counter()
                answered = 0
                for i, query in enumerate(encrypted):
                    query_start = time.monotonic()
                    while True:
                        attempt_start = time.monotonic()
                        try:
                            result = client.answer(
                                query,
                                timeout=30,
                                deadline_ms=DEADLINE_MS,
                            )
                        except (
                            RemoteError,
                            DeadlineExceededError,
                            QuotaExceededError,
                        ) as exc:
                            # Typed, and within the call budget —
                            # never a hang.
                            assert (
                                time.monotonic() - attempt_start < 35
                            ), f"query {i} attempt hung: {exc}"
                            typed_failures[type(exc).__name__] += 1
                            assert (
                                time.monotonic() - query_start
                                < PER_QUERY_BUDGET
                            ), f"query {i} never recovered: {exc}"
                            time.sleep(0.05)
                            continue
                        break
                    answered += 1
                    if not np.array_equal(result.ids, expected[i]):
                        wrong += 1
                elapsed = time.perf_counter() - start
            finally:
                stop_flood.set()
                flooder.join(timeout=60)
                client.close()

            metrics = frontend.metrics.snapshot()

    goodput = answered / elapsed if elapsed > 0 else 0.0
    payload = {
        "n": N,
        "dim": DIM,
        "k": K,
        "queries": N_QUERIES,
        **bench_environment(),
        "faults": faults,
        "goodput_qps": goodput,
        "answered": answered,
        "wrong_results": wrong,
        "typed_failures": dict(typed_failures),
        "client_retries": client.retry_count,
        "flood": {
            "rate": FLOOD_RATE,
            "burst": FLOOD_BURST,
            "refused": flood_refusals,
            "completed": flood_completed,
        },
        "server": {
            "rate_limited": metrics.rate_limited,
            "deadline_sheds": metrics.deadline_sheds,
        },
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(
        f"chaos: {answered}/{N_QUERIES} healthy queries answered "
        f"({goodput:.1f} QPS goodput), {wrong} wrong, "
        f"typed failures {dict(typed_failures) or '{}'}"
    )
    print(
        f"client retried {client.retry_count}x; flood refused "
        f"{flood_refusals} / completed {flood_completed}; "
        f"faults: {', '.join(faults)}"
    )
    print(f"wrote {_RESULT_PATH.name}")

    # Zero wrong results: every healthy answer bit-identical to the
    # fault-free oracle.
    assert wrong == 0, f"{wrong} healthy queries returned wrong ids"
    assert answered == N_QUERIES
    # The connection drop really happened and was really retried.
    assert client.retry_count >= 1, "the dropped connection was never retried"
    # The flood was really shed by the token bucket.
    assert flood_refusals > 0, "the flooding tenant was never rate-limited"
    assert metrics.rate_limited >= flood_refusals
