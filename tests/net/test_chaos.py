"""Chaos tests: hostile or broken clients must fail alone.

Three failure injections, one invariant: the misbehaving *connection*
dies, while the shared ``BatchScheduler`` keeps draining a well-behaved
tenant's traffic on another connection.

* **Slow loris** — a client trickles a frame slower than the per-frame
  deadline; the server cuts the connection when the budget expires.
* **Oversized body** — a length prefix over ``max_body_bytes`` is
  refused from the header alone (the body is never buffered).
* **Mid-stream disconnect** — a client vanishes with a half-sent frame
  and with replies still in flight; quota returns via completion
  callbacks, so nothing leaks and nothing stalls.
"""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest

from repro.core.plane import process_plane_available
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.net import NetClient, NetServer, RemoteError, TenantConfig
from repro.net import codec
from repro.net.codec import MessageType
from repro.testing import CallTrigger, arm_plane_worker_kill
from tests.conftest import FAST_HNSW

_TIMEOUT = 30


@pytest.fixture(scope="module")
def actors():
    rng = np.random.default_rng(61)
    owner = DataOwner(
        8, beta=0.3, hnsw_params=FAST_HNSW, backend="bruteforce", rng=rng
    )
    database = rng.standard_normal((80, 8)) * 2.0
    index = owner.build_index(database)
    server = CloudServer(index)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(62))
    return server, user, database, int(index.dce_database.key_id)


def _assert_still_serving(net, server, user, database, key_id):
    """The invariant every chaos test ends on: a good client on a fresh
    connection gets correct answers — the scheduler never stalled."""
    query = user.encrypt_query(database[0] + 0.01, 4)
    expected = server.answer(query)
    host, port = net.address
    with NetClient(host, port, key_id) as client:
        got = client.answer(query, timeout=_TIMEOUT)
    assert np.array_equal(got.ids, expected.ids)


def _raw_connection(net) -> socket.socket:
    sock = socket.create_connection(net.address, timeout=_TIMEOUT)
    sock.settimeout(_TIMEOUT)
    return sock


class TestSlowLoris:
    def test_trickling_client_is_cut_off_and_others_serve(self, actors):
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(
                frontend, [TenantConfig(key_id)], frame_timeout=0.5
            ) as net:
                loris = _raw_connection(net)
                try:
                    hello = codec.encode_frame(
                        MessageType.HELLO, codec.encode_hello(key_id)
                    )
                    # Trickle one byte, then stall past the frame budget.
                    loris.sendall(hello[:1])
                    start = time.monotonic()
                    # The server must close the connection (recv -> b"")
                    # once the 0.5 s frame deadline expires — trickling
                    # cannot extend it.
                    loris.settimeout(10)
                    closed = loris.recv(1) == b""
                    elapsed = time.monotonic() - start
                    assert closed, "slow-loris connection was never cut"
                    assert elapsed < 10
                finally:
                    loris.close()
                _assert_still_serving(net, server, user, database, key_id)

    def test_slow_body_after_valid_header_is_cut_off(self, actors):
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(
                frontend, [TenantConfig(key_id)], frame_timeout=0.5
            ) as net:
                loris = _raw_connection(net)
                try:
                    hello = codec.encode_frame(
                        MessageType.HELLO, codec.encode_hello(key_id)
                    )
                    # Full header, then starve the declared body: the
                    # per-frame deadline covers header + body together.
                    loris.sendall(hello[: codec.HEADER_SIZE])
                    loris.settimeout(10)
                    assert loris.recv(1) == b"", "slow body never cut off"
                finally:
                    loris.close()
                _assert_still_serving(net, server, user, database, key_id)


class TestOversizedBody:
    def test_over_limit_length_prefix_refused_unread(self, actors):
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(
                frontend,
                [TenantConfig(key_id)],
                max_body_bytes=4096,
                frame_timeout=_TIMEOUT,
            ) as net:
                attacker = _raw_connection(net)
                try:
                    codec.send_frame(
                        attacker, MessageType.HELLO, codec.encode_hello(key_id)
                    )
                    reply = codec.read_frame_from(attacker, timeout=_TIMEOUT)
                    assert reply is not None and reply[0] is MessageType.HELLO_OK
                    # Declare a 100 MiB QUERY body; send only the header.
                    # The refusal must come back immediately — the server
                    # never waits for (or buffers) the declared payload.
                    attacker.sendall(
                        struct.pack(
                            "<4sBBHI",
                            codec.MAGIC,
                            codec.PROTOCOL_VERSION,
                            int(MessageType.QUERY),
                            0,
                            100 * 1024 * 1024,
                        )
                    )
                    reply = codec.read_frame_from(attacker, timeout=_TIMEOUT)
                    assert reply is not None and reply[0] is MessageType.ERROR
                    code, message = codec.decode_error(reply[1])
                    assert code is codec.ErrorCode.FORMAT
                    assert "exceeds" in message
                    # The framing error closed the connection.
                    assert codec.read_frame_from(attacker, timeout=_TIMEOUT) is None
                finally:
                    attacker.close()
                _assert_still_serving(net, server, user, database, key_id)


class TestMidStreamDisconnect:
    def test_half_sent_frame_then_close_fails_alone(self, actors):
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(
                frontend, [TenantConfig(key_id)], frame_timeout=_TIMEOUT
            ) as net:
                flaky = _raw_connection(net)
                try:
                    codec.send_frame(
                        flaky, MessageType.HELLO, codec.encode_hello(key_id)
                    )
                    reply = codec.read_frame_from(flaky, timeout=_TIMEOUT)
                    assert reply is not None and reply[0] is MessageType.HELLO_OK
                    batch = user.encrypt_queries(database[:3] + 0.01, 4)
                    frame = codec.encode_frame(
                        MessageType.QUERY, codec.encode_query_batch(batch)
                    )
                    flaky.sendall(frame[: len(frame) // 2])  # half a frame...
                finally:
                    flaky.close()  # ...and vanish
                _assert_still_serving(net, server, user, database, key_id)

    def test_disconnect_with_replies_in_flight_releases_quota(self, actors):
        """A client that dies before reading its answers must not pin
        its quota: completions release positions via done-callbacks even
        with nobody left to write to."""
        server, user, database, key_id = actors
        with server.serving_frontend(max_batch_size=4) as frontend:
            with NetServer(
                frontend,
                [TenantConfig(key_id, max_in_flight=4)],
                frame_timeout=_TIMEOUT,
            ) as net:
                host, port = net.address
                batch = user.encrypt_queries(database[:4] + 0.01, 4)
                ghost = _raw_connection(net)
                try:
                    codec.send_frame(
                        ghost, MessageType.HELLO, codec.encode_hello(key_id)
                    )
                    assert codec.read_frame_from(ghost, timeout=_TIMEOUT)[0] is (
                        MessageType.HELLO_OK
                    )
                    codec.send_frame(
                        ghost, MessageType.QUERY, codec.encode_query_batch(batch)
                    )
                finally:
                    ghost.close()  # gone before any RESULT frame
                # The quota (4, fully taken by the ghost's batch) must
                # drain as the scheduler completes the orphaned queries.
                deadline = time.monotonic() + _TIMEOUT
                with NetClient(host, port, key_id) as client:
                    while True:
                        stats = client.stats(timeout=_TIMEOUT)
                        tenant = stats["tenants"][str(key_id)]
                        if tenant["in_flight"] == 0 and tenant["completed"] >= 4:
                            break
                        assert time.monotonic() < deadline, (
                            f"ghost quota never drained: {tenant}"
                        )
                        time.sleep(0.05)
                    # Full quota available again on a live connection.
                    results = client.answer_batch(batch, timeout=_TIMEOUT)
                    assert len(results) == 4
                _assert_still_serving(net, server, user, database, key_id)


@pytest.mark.skipif(
    not process_plane_available(),
    reason="process data plane unavailable on this host",
)
class TestWorkerDeathOverTcp:
    """The full resilience stack at once: TCP serving over the process
    data plane, with a worker killed right before a batch.

    The contract: the faulted batch fails *typed* within the call
    timeout (never a hang), the connection and scheduler survive, and
    the plane respawns the worker in place — the same client gets
    bit-identical answers again within the restart backoff."""

    def test_worker_killed_mid_batch_fails_typed_then_heals(self):
        rng = np.random.default_rng(63)
        owner = DataOwner(
            8, beta=0.3, hnsw_params=FAST_HNSW, backend="bruteforce", rng=rng
        )
        database = rng.standard_normal((80, 8)) * 2.0
        index = owner.build_index(database)
        user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(64))
        key_id = int(index.dce_database.key_id)
        query = user.encrypt_query(database[0] + 0.01, 4)
        expected = CloudServer(index).answer(query)
        with CloudServer(index, executor="processes", workers=1) as server:
            with server.serving_frontend() as frontend:
                with NetServer(frontend, [TenantConfig(key_id)]) as net:
                    host, port = net.address
                    with NetClient(host, port, key_id) as client:
                        # Healthy first: the plane is up and correct.
                        got = client.answer(query, timeout=_TIMEOUT)
                        assert np.array_equal(got.ids, expected.ids)
                        plane = server.data_plane()
                        # Kill the only worker right before the next
                        # filter batch: its restart backoff (100 ms)
                        # cannot have elapsed, so this batch must fail
                        # typed — all workers down, nothing to run on.
                        arm_plane_worker_kill(plane, 0, CallTrigger(1))
                        with pytest.raises(
                            RemoteError, match="down|died|unreachable"
                        ):
                            client.answer(query, timeout=_TIMEOUT)
                        # The connection survived the typed failure and
                        # the plane heals in place: keep asking until
                        # the respawned worker answers, bit-identical.
                        deadline = time.monotonic() + _TIMEOUT
                        while True:
                            try:
                                got = client.answer(query, timeout=_TIMEOUT)
                                break
                            except RemoteError:
                                assert time.monotonic() < deadline, (
                                    "plane never self-healed"
                                )
                                time.sleep(0.05)
                        assert np.array_equal(got.ids, expected.ids)
                        health = plane.health()
                        assert health["workers"][0]["restarts"] >= 1
                        assert not health["workers"][0]["dead"]
                        assert not plane.broken
                    _assert_still_serving(net, server, user, database, key_id)
