"""End-to-end resilience: negotiation, deadlines, limits, retries.

The contract this file pins down:

* **Negotiation** — a v2 client against a v2 server speaks v2 (deadline
  budgets travel); a v1 peer on either side falls back to the v1
  stream, byte for byte, and still round-trips.
* **Deadlines over the wire** — an expired budget comes back as a typed
  :class:`DeadlineExceededError` (the DEADLINE wire code), never a hang.
* **Overload refusals** — the server-wide connection cap and per-tenant
  token-bucket rate both refuse typed, with retry-after hints on v2.
* **Client retries** — deterministic under an injected RNG and sleep;
  a torn connection is retried and the retried ciphertexts dedup
  against the server's result cache instead of double-running.
* **Caller timeouts** — ``answer(timeout=...)`` failure aborts the
  connection (no orphaned future can desync FIFO matching) and the
  next call reconnects.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.errors import ParameterError
from repro.core.protocol import EncryptedQueryBatch
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.net import (
    NetClient,
    NetServer,
    QuotaExceededError,
    RequestTimeoutError,
    TenantConfig,
    codec,
)
from repro.net.client import ConnectionClosedError
from repro.net.codec import MessageType
from repro.serve import DeadlineExceededError, QueueFullError
from repro.testing import CallTrigger, FaultySocket
from tests.conftest import FAST_HNSW

_TIMEOUT = 30


@pytest.fixture(scope="module")
def actors():
    rng = np.random.default_rng(71)
    owner = DataOwner(
        8, beta=0.3, hnsw_params=FAST_HNSW, backend="bruteforce", rng=rng
    )
    database = rng.standard_normal((80, 8)) * 2.0
    index = owner.build_index(database)
    server = CloudServer(index)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(72))
    return server, user, database, int(index.dce_database.key_id)


def _held_frontend(server, seconds):
    """A frontend whose first batch runs ``seconds`` late.

    Queries admitted while the scheduler holds that batch wait behind
    it; ``holding`` is set once the scheduler is inside it.
    """
    frontend = server.serving_frontend()
    holding = threading.Event()
    inner_execute = frontend._execute

    def execute(batch):
        if not holding.is_set():
            holding.set()
            time.sleep(seconds)
        return inner_execute(batch)

    frontend._execute = execute
    return frontend, holding


class TestNegotiation:
    def test_v2_client_v2_server_negotiates_v2(self, actors):
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                with NetClient(host, port, key_id) as client:
                    assert client.protocol_version == codec.PROTOCOL_VERSION_MAX
                    query = user.encrypt_query(database[0] + 0.01, 4)
                    expected = server.answer(query)
                    got = client.answer(
                        query, timeout=_TIMEOUT, deadline_ms=60_000
                    )
                    assert np.array_equal(got.ids, expected.ids)

    def test_v1_client_round_trips_against_v2_server(self, actors):
        """An old client ignores the HELLO_OK body and speaks plain v1
        QUERY frames; the server must answer it unchanged."""
        server, user, database, key_id = actors
        query = user.encrypt_query(database[1] + 0.01, 4)
        expected = server.answer(query)
        with server.serving_frontend() as frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                sock = socket.create_connection(net.address, timeout=_TIMEOUT)
                try:
                    codec.send_frame(
                        sock, MessageType.HELLO, codec.encode_hello(key_id)
                    )
                    reply = codec.read_frame_from(sock, timeout=_TIMEOUT)
                    assert reply[0] is MessageType.HELLO_OK
                    # A v1-era client never looks inside HELLO_OK.
                    batch = EncryptedQueryBatch.from_queries([query])
                    codec.send_frame(
                        sock,
                        MessageType.QUERY,
                        codec.encode_query_batch(batch),
                    )
                    msg_type, body = codec.read_frame_from(
                        sock, timeout=_TIMEOUT
                    )
                    assert msg_type is MessageType.RESULT
                    results = codec.decode_result_batch(body)
                    assert np.array_equal(results[0].ids, expected.ids)
                finally:
                    sock.close()

    def test_v1_capped_client_refuses_deadline_and_still_serves(
        self, actors, monkeypatch
    ):
        """Force the client's max down to 1: it must send v1 frames,
        answer correctly, and refuse a deadline_ms it cannot carry."""
        server, user, database, key_id = actors
        monkeypatch.setattr(codec, "PROTOCOL_VERSION_MAX", 1)
        with server.serving_frontend() as frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                with NetClient(host, port, key_id) as client:
                    assert client.protocol_version == 1
                    query = user.encrypt_query(database[2] + 0.01, 4)
                    expected = server.answer(query)
                    got = client.answer(query, timeout=_TIMEOUT)
                    assert np.array_equal(got.ids, expected.ids)
                    with pytest.raises(ParameterError, match="protocol v2"):
                        client.submit(query, deadline_ms=100)


class TestDeadlineOverWire:
    def test_expired_deadline_fails_typed_not_hangs(self, actors):
        """A 1 ms budget queued behind a 300 ms batch must be shed by
        the scheduler and surface as DeadlineExceededError."""
        server, user, database, key_id = actors
        frontend, holding = _held_frontend(server, 0.3)
        with frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                with NetClient(host, port, key_id) as client:
                    frontend.submit(user.encrypt_query(database[0] + 0.01, 4))
                    assert holding.wait(_TIMEOUT)
                    query = user.encrypt_query(database[3] + 0.01, 4)
                    with pytest.raises(DeadlineExceededError):
                        client.answer(query, timeout=_TIMEOUT, deadline_ms=1)
            assert frontend.metrics.snapshot().deadline_sheds >= 1

    def test_deadline_shed_does_not_poison_the_connection(self, actors):
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                with NetClient(host, port, key_id) as client:
                    query = user.encrypt_query(database[4] + 0.01, 4)
                    expected = server.answer(query)
                    try:
                        client.answer(query, timeout=_TIMEOUT, deadline_ms=1)
                    except DeadlineExceededError:
                        pass
                    # The same connection keeps serving afterwards.
                    got = client.answer(query, timeout=_TIMEOUT)
                    assert np.array_equal(got.ids, expected.ids)


class TestConnectionLimit:
    def test_over_limit_connection_refused_typed(self, actors):
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(
                frontend, [TenantConfig(key_id)], max_connections=1
            ) as net:
                host, port = net.address
                with NetClient(host, port, key_id) as first:
                    assert net.connections == 1
                    with pytest.raises(QueueFullError, match="connection"):
                        NetClient(host, port, key_id)
                    assert frontend.metrics.snapshot().connection_refusals == 1
                    # The admitted connection is unaffected.
                    query = user.encrypt_query(database[5] + 0.01, 4)
                    first.answer(query, timeout=_TIMEOUT)
                # Slot released on close: the next connection is admitted.
                deadline = time.monotonic() + _TIMEOUT
                while net.connections > 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with NetClient(host, port, key_id) as second:
                    second.answer(query, timeout=_TIMEOUT)

    def test_invalid_max_connections_rejected(self, actors):
        server, _, _, key_id = actors
        with server.serving_frontend() as frontend:
            with pytest.raises(ParameterError, match="max_connections"):
                NetServer(frontend, [TenantConfig(key_id)], max_connections=0)


class TestRateLimitOverWire:
    def test_over_rate_query_refused_with_retry_after(self, actors):
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(
                frontend,
                [TenantConfig(key_id, rate=0.001, burst=1.0)],
            ) as net:
                host, port = net.address
                with NetClient(host, port, key_id) as client:
                    query = user.encrypt_query(database[6] + 0.01, 4)
                    client.answer(query, timeout=_TIMEOUT)  # spends the burst
                    with pytest.raises(QuotaExceededError) as excinfo:
                        client.answer(query, timeout=_TIMEOUT)
                    # The v2 ERROR frame carried the bucket's hint.
                    assert excinfo.value.retry_after is not None
                    assert excinfo.value.retry_after > 0
            assert frontend.metrics.snapshot().rate_limited >= 1


class TestClientRetries:
    def test_backoff_schedule_is_deterministic(self, actors):
        server, _, _, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                with NetClient(
                    host,
                    port,
                    key_id,
                    retries=3,
                    backoff_base=0.1,
                    backoff_cap=0.3,
                    rng=random.Random(7),
                ) as client:
                    reference = random.Random(7)
                    for attempt, cap in enumerate([0.1, 0.2, 0.3, 0.3]):
                        want = reference.uniform(0.0, cap)
                        assert client._backoff_delay(attempt, None) == want
                    # A server hint floors the jittered draw.
                    assert client._backoff_delay(0, 5.0) == 5.0

    def test_torn_connection_is_retried(self, actors, monkeypatch):
        """Tear the connection at the first QUERY frame: the client must
        reconnect, re-send byte-identical ciphertexts, and succeed —
        with the recorded sleep schedule, not a real wait."""
        server, user, database, key_id = actors
        trigger = CallTrigger(2)  # frame 1 is HELLO; fault the first QUERY
        real_create = socket.create_connection
        dialed = []

        def faulty_first_connection(address, timeout=None):
            sock = real_create(address, timeout=timeout)
            dialed.append(address)
            if len(dialed) == 1:
                return FaultySocket(sock, trigger, action="close")
            return sock

        monkeypatch.setattr(
            socket, "create_connection", faulty_first_connection
        )
        slept = []

        def recorded_sleep(delay):
            slept.append(delay)
            time.sleep(0.05)  # yield so the reader notices the teardown
        with server.serving_frontend() as frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                with NetClient(
                    host,
                    port,
                    key_id,
                    retries=5,
                    rng=random.Random(3),
                    sleep=recorded_sleep,
                ) as client:
                    query = user.encrypt_query(database[7] + 0.01, 4)
                    expected = server.answer(query)
                    got = client.answer(query, timeout=_TIMEOUT)
                    assert np.array_equal(got.ids, expected.ids)
                    assert client.retry_count >= 1
                    assert len(slept) == client.retry_count
                    assert len(dialed) >= 2  # reconnected
                    # Re-sending the same ciphertext is safe: a query is
                    # a read, so it runs again to the same answer.
                    again = client.answer(query, timeout=_TIMEOUT)
                    assert np.array_equal(again.ids, expected.ids)

    def test_deadline_error_is_not_retried(self, actors):
        server, user, database, key_id = actors
        hooks = []
        frontend, holding = _held_frontend(server, 0.3)
        with frontend:
            frontend.submit(user.encrypt_query(database[0] + 0.01, 4))
            assert holding.wait(_TIMEOUT)
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                with NetClient(
                    host,
                    port,
                    key_id,
                    retries=2,
                    rng=random.Random(1),
                    sleep=lambda _: None,
                    on_retry=lambda: hooks.append(1),
                ) as client:
                    query = user.encrypt_query(database[8] + 0.01, 4)
                    # DeadlineExceededError is NOT retryable: it would
                    # fail identically, so it must surface at once.
                    with pytest.raises(DeadlineExceededError):
                        client.answer(query, timeout=_TIMEOUT, deadline_ms=1)
                    assert client.retry_count == 0
                    assert hooks == []

    def test_invalid_retry_parameters_rejected(self, actors):
        server, _, _, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                with pytest.raises(ParameterError, match="retries"):
                    NetClient(host, port, key_id, retries=-1)
                with pytest.raises(ParameterError, match="backoff"):
                    NetClient(host, port, key_id, backoff_base=0.0)


class _StallServer:
    """Accepts, handshakes (v2), then swallows every later frame."""

    def __init__(self) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.address = self._listener.getsockname()
        self._closing = False
        self._conns: "list[socket.socket]" = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._conns.append(conn)
            threading.Thread(
                target=self._stall, args=(conn,), daemon=True
            ).start()

    def _stall(self, conn: socket.socket) -> None:
        try:
            frame = codec.read_frame_from(conn, timeout=_TIMEOUT)
            if frame is None:
                return
            codec.send_frame(
                conn, MessageType.HELLO_OK, codec.encode_hello_ok()
            )
            while conn.recv(65536):
                pass  # drain and never answer
        except OSError:
            pass

    def close(self) -> None:
        self._closing = True
        self._listener.close()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass


class TestCallerTimeoutRegression:
    def test_stalled_server_times_out_typed_and_clean(self, actors):
        _, user, database, key_id = actors
        stall = _StallServer()
        try:
            host, port = stall.address
            client = NetClient(host, port, key_id, timeout=_TIMEOUT)
            try:
                query = user.encrypt_query(database[9] + 0.01, 4)
                start = time.monotonic()
                with pytest.raises(RequestTimeoutError):
                    client.answer(query, timeout=0.3)
                assert time.monotonic() - start < _TIMEOUT
                # The connection was aborted: no orphaned pending entry
                # is left to desync FIFO matching, and the socket is
                # down until the next blocking call redials.
                assert len(client._pending) == 0
                assert client._sock is None
                # The next call reconnects (and times out typed again —
                # the server is still stalled — rather than desyncing).
                with pytest.raises(RequestTimeoutError):
                    client.answer(query, timeout=0.3)
                assert len(client._pending) == 0
            finally:
                client.close()
        finally:
            stall.close()

    def test_timeout_then_healthy_server_recovers(self, actors):
        """After a caller timeout against a live server, the next call
        reconnects and answers — the orphaned reply cannot be matched
        to the wrong request because the old socket is gone."""
        server, user, database, key_id = actors
        frontend, _ = _held_frontend(server, 0.2)
        with frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                with NetClient(host, port, key_id) as client:
                    query = user.encrypt_query(database[10] + 0.01, 4)
                    expected = server.answer(query)
                    # A timeout far below the held first batch trips
                    # mid-flight, deterministically...
                    with pytest.raises(RequestTimeoutError):
                        client.answer(query, timeout=0.02)
                    # ...yet the next call reconnects and the answer is
                    # matched to the *new* request, bit-identical.
                    got = client.answer(query, timeout=_TIMEOUT)
                    assert np.array_equal(got.ids, expected.ids)

    def test_server_close_triggers_client_reconnect(self, actors):
        """A server-side disconnect clears the client's socket so the
        next blocking call redials instead of writing into the void."""
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                client = NetClient(host, port, key_id, retries=3,
                                   rng=random.Random(5),
                                   sleep=lambda _: None)
        # First NetServer is gone; its socket closed under the client.
        try:
            deadline = time.monotonic() + _TIMEOUT
            while client._sock is not None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with server.serving_frontend() as frontend:
                with NetServer(
                    frontend, [TenantConfig(key_id)], port=port
                ) as net:
                    query = user.encrypt_query(database[11] + 0.01, 4)
                    expected = server.answer(query)
                    got = client.answer(query, timeout=_TIMEOUT)
                    assert np.array_equal(got.ids, expected.ids)
        finally:
            client.close()

    def test_submit_after_close_raises_typed(self, actors):
        server, user, database, key_id = actors
        with server.serving_frontend() as frontend:
            with NetServer(frontend, [TenantConfig(key_id)]) as net:
                host, port = net.address
                client = NetClient(host, port, key_id)
                client.close()
                query = user.encrypt_query(database[12] + 0.01, 4)
                with pytest.raises(ConnectionClosedError, match="closed"):
                    client.submit(query)
                with pytest.raises(ConnectionClosedError, match="closed"):
                    client.answer(query, timeout=1.0)
