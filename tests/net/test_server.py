"""Loopback end-to-end tests of the TCP server + client pair.

The network layer's contract: it changes *transport only*.  Every id a
socket client receives must be bit-identical to the in-process
``ServingFrontend`` answer for the same (canonical) ciphertexts, typed
errors must survive the wire as the same exception types, and the
tenancy view must be reachable through the ``stats`` message.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro.core.errors import ParameterError
from repro.core.protocol import EncryptedQueryBatch
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.net import (
    AuthError,
    NetClient,
    NetServer,
    QuotaExceededError,
    TenantConfig,
)
from repro.net.client import ConnectionClosedError
from repro.serve.frontend import replay_open_loop
from tests.conftest import FAST_HNSW

_TIMEOUT = 30


@pytest.fixture(scope="module")
def actors():
    rng = np.random.default_rng(51)
    owner = DataOwner(
        8, beta=0.3, hnsw_params=FAST_HNSW, backend="bruteforce", rng=rng
    )
    database = rng.standard_normal((100, 8)) * 2.0
    index = owner.build_index(database)
    server = CloudServer(index)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(52))
    return server, user, database, int(index.dce_database.key_id)


@pytest.fixture()
def loopback(actors):
    """A running frontend + NetServer over an ephemeral loopback port."""
    server, user, database, key_id = actors
    with server.serving_frontend(max_batch_size=4) as frontend:
        with NetServer(
            frontend,
            [TenantConfig(key_id, token="s3cret")],
            frame_timeout=_TIMEOUT,
        ) as net:
            yield net, server, user, database, key_id


class TestParity:
    def test_single_queries_match_offline_answers(self, loopback):
        net, server, user, database, key_id = loopback
        host, port = net.address
        queries = [user.encrypt_query(database[i] + 0.01, 5) for i in range(5)]
        expected = [server.answer(q) for q in queries]
        with NetClient(host, port, key_id, token="s3cret") as client:
            for query, want in zip(queries, expected):
                got = client.answer(query, timeout=_TIMEOUT)
                assert np.array_equal(got.ids, want.ids)

    def test_batch_message_matches_offline_answers(self, loopback):
        net, server, user, database, key_id = loopback
        host, port = net.address
        batch = user.encrypt_queries(database[:6] + 0.01, 5)
        expected = server.answer(batch)
        with NetClient(net.address[0], net.address[1], key_id, token="s3cret") as client:
            got = client.answer_batch(batch, timeout=_TIMEOUT)
        assert len(got) == len(expected)
        for want, row in zip(expected, got):
            assert np.array_equal(want.ids, row.ids)

    def test_filter_only_batch_over_the_wire(self, loopback):
        """The zero-trapdoor envelope: filter_only traffic serves over
        the socket with its key_id intact (the satellite fix)."""
        net, server, user, database, key_id = loopback
        host, port = net.address
        queries = [
            user.encrypt_query(database[i] + 0.01, 5, mode="filter_only")
            for i in range(4)
        ]
        expected = [server.answer(q) for q in queries]
        with NetClient(host, port, key_id, token="s3cret") as client:
            got = client.answer_many(queries, timeout=_TIMEOUT)
        for want, row in zip(expected, got):
            assert np.array_equal(want.ids, row.ids)

    def test_pipelined_futures_resolve_in_order(self, loopback):
        net, server, user, database, key_id = loopback
        host, port = net.address
        queries = [user.encrypt_query(database[i] + 0.01, 4) for i in range(8)]
        expected = [server.answer(q) for q in queries]
        with NetClient(host, port, key_id, token="s3cret") as client:
            futures = [client.submit(q) for q in queries]  # all in flight
            for future, want in zip(futures, expected):
                assert np.array_equal(future.result(timeout=_TIMEOUT).ids, want.ids)

    def test_open_loop_replayer_drives_the_client(self, loopback):
        """NetClient.submit satisfies replay_open_loop's contract, so
        the Poisson replayer serves over the socket unchanged."""
        net, server, user, database, key_id = loopback
        host, port = net.address
        queries = [user.encrypt_query(database[i] + 0.01, 4) for i in range(6)]
        expected = [server.answer(q) for q in queries]
        with NetClient(host, port, key_id, token="s3cret") as client:
            results, elapsed = replay_open_loop(client, queries, rate=None, seed=0)
        assert elapsed > 0
        for want, got in zip(expected, results):
            assert np.array_equal(want.ids, got.ids)


class TestWireErrors:
    def test_wrong_token_raises_auth_error(self, loopback):
        net, _, _, _, key_id = loopback
        host, port = net.address
        with pytest.raises(AuthError):
            NetClient(host, port, key_id, token="wrong")

    def test_unknown_tenant_raises_auth_error(self, loopback):
        net, _, _, _, _ = loopback
        host, port = net.address
        with pytest.raises(AuthError):
            NetClient(host, port, 424242, token="s3cret")

    def test_dimension_mismatch_comes_back_as_parameter_error(self, loopback):
        net, server, user, database, key_id = loopback
        host, port = net.address
        wrong_user = QueryUser(
            DataOwner(5, beta=0.3, rng=np.random.default_rng(5)).authorize_user(),
            rng=np.random.default_rng(6),
        )
        query = wrong_user.encrypt_query(np.zeros(5), 3)
        # Re-tag the batch with the authenticated key_id so it passes
        # the tenancy boundary and fails at the frontend's dim check.
        batch = EncryptedQueryBatch(
            np.zeros((1, 5)), query.trapdoor.vector[None, :], key_id, query.request
        )
        with NetClient(host, port, key_id, token="s3cret") as client:
            futures = client.submit_batch(batch)
            with pytest.raises(ParameterError):
                futures[0].result(timeout=_TIMEOUT)

    def test_close_fails_inflight_futures_typed(self, loopback):
        net, server, user, database, key_id = loopback
        host, port = net.address
        client = NetClient(host, port, key_id, token="s3cret")
        client.close()
        with pytest.raises(ConnectionClosedError):
            client.submit(user.encrypt_query(database[0] + 0.01, 3))


class TestClose:
    @pytest.mark.parametrize("clients", [1, 8])
    def test_close_ends_live_connections_within_a_second(self, actors, clients):
        """``close()`` disconnects every established client at once, not
        after the idle frame timeout, and joins their handlers (the
        accept slots are released before ``close()`` returns).  Eight
        clients on a short switch interval race handler registration
        against ``close()`` on more threads than cores."""
        server, user, database, key_id = actors
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server.serving_frontend() as frontend:
                net = NetServer(
                    frontend, [TenantConfig(key_id)], frame_timeout=_TIMEOUT
                ).start()
                host, port = net.address
                connected = [NetClient(host, port, key_id) for _ in range(clients)]
                try:
                    query = user.encrypt_query(database[0] + 0.01, 4)
                    for client in connected:
                        client.answer(query, timeout=_TIMEOUT)
                    assert net.connections == clients
                    start = time.monotonic()
                    net.close()
                    assert net.connections == 0
                    while any(client._sock is not None for client in connected):
                        assert time.monotonic() - start < 1.0, (
                            "a client never saw the server close"
                        )
                        time.sleep(0.01)
                finally:
                    for client in connected:
                        client.close()
        finally:
            sys.setswitchinterval(interval)


class TestQuotaOverTheWire:
    def test_over_quota_batch_refused_with_typed_error(self, actors):
        server, user, database, key_id = actors
        batch = user.encrypt_queries(database[:5] + 0.01, 3)
        with server.serving_frontend() as frontend:
            with NetServer(
                frontend, [TenantConfig(key_id, max_in_flight=2)]
            ) as net:
                host, port = net.address
                with NetClient(host, port, key_id) as client:
                    futures = client.submit_batch(batch)
                    for future in futures:
                        with pytest.raises(QuotaExceededError):
                            future.result(timeout=_TIMEOUT)
                    # The connection survives a quota refusal: a fitting
                    # batch on the same socket still serves.
                    small = user.encrypt_queries(database[:2] + 0.01, 3)
                    results = client.answer_batch(small, timeout=_TIMEOUT)
                    assert len(results) == 2


class TestStatsMessage:
    def test_stats_exposes_tenancy_and_frontend_views(self, loopback):
        net, server, user, database, key_id = loopback
        host, port = net.address
        queries = [user.encrypt_query(database[i] + 0.01, 3) for i in range(3)]
        with NetClient(host, port, key_id, token="s3cret") as client:
            for query in queries:
                client.answer(query, timeout=_TIMEOUT)
            stats = client.stats(timeout=_TIMEOUT)
        assert stats["key_ids"] == [key_id]
        tenant = stats["tenants"][str(key_id)]
        assert tenant["completed"] >= 3
        assert tenant["authenticated"] is True
        assert "queue_depth" in stats
        assert stats["frontend"]["completed"] >= 3

    def test_stats_cache_hits_is_a_constant_zero(self, loopback):
        """The end-to-end benchmark reads ``frontend.cache_hits`` from
        STATS: the field stays on the wire and reads 0, even for a
        repeated ciphertext."""
        net, server, user, database, key_id = loopback
        host, port = net.address
        query = user.encrypt_query(database[4] + 0.01, 3)
        with NetClient(host, port, key_id, token="s3cret") as client:
            client.answer(query, timeout=_TIMEOUT)
            client.answer(query, timeout=_TIMEOUT)
            stats = client.stats(timeout=_TIMEOUT)
        assert stats["frontend"]["cache_hits"] == 0
        assert stats["frontend"]["completed"] >= 2


class TestMultiTenant:
    def test_two_tenants_serve_concurrently(self, actors):
        """Tenant A (full mode, the index's key) and tenant B (its own
        DCE key, filter_only — answerable because filter_only skips the
        DCE key check) share one scheduler, each under its own quota."""
        server, user, database, key_a = actors
        owner_b = DataOwner(8, beta=0.3, rng=np.random.default_rng(77))
        user_b = QueryUser(owner_b.authorize_user(), rng=np.random.default_rng(78))
        key_b = int(owner_b.authorize_user().dce_key.key_id)
        assert key_a != key_b
        q_a = [user.encrypt_query(database[i] + 0.01, 4) for i in range(4)]
        q_b = [
            user_b.encrypt_query(database[i] + 0.01, 4, mode="filter_only")
            for i in range(4)
        ]
        expected_a = [server.answer(q) for q in q_a]
        with server.serving_frontend(max_batch_size=4) as frontend:
            with NetServer(
                frontend,
                [TenantConfig(key_a, token="a"), TenantConfig(key_b, token="b")],
            ) as net:
                host, port = net.address
                with NetClient(host, port, key_a, token="a") as ca, NetClient(
                    host, port, key_b, token="b"
                ) as cb:
                    futs_a = [ca.submit(q) for q in q_a]
                    futs_b = [cb.submit(q) for q in q_b]
                    for future, want in zip(futs_a, expected_a):
                        assert np.array_equal(
                            future.result(timeout=_TIMEOUT).ids, want.ids
                        )
                    for future in futs_b:
                        assert future.result(timeout=_TIMEOUT).ids.shape[0] == 4
                    stats = ca.stats(timeout=_TIMEOUT)
        assert stats["tenants"][str(key_a)]["completed"] == 4
        assert stats["tenants"][str(key_b)]["completed"] == 4

    def test_tenant_cannot_submit_under_anothers_key(self, actors):
        """Isolation: a connection authenticated as tenant B is refused
        when it replays a batch tagged with tenant A's key_id."""
        server, user, database, key_a = actors
        owner_b = DataOwner(8, beta=0.3, rng=np.random.default_rng(87))
        key_b = int(owner_b.authorize_user().dce_key.key_id)
        batch = user.encrypt_queries(database[:2] + 0.01, 3)  # tagged key_a
        with server.serving_frontend() as frontend:
            with NetServer(
                frontend,
                [TenantConfig(key_a, token="a"), TenantConfig(key_b, token="b")],
            ) as net:
                host, port = net.address
                with NetClient(host, port, key_b, token="b") as impostor:
                    futures = impostor.submit_batch(batch)
                    for future in futures:
                        with pytest.raises(AuthError):
                            future.result(timeout=_TIMEOUT)
