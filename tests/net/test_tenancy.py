"""Tenancy-layer tests: auth at the boundary, quotas, leak-free release.

The admission layer's promises:

* authentication runs before anything touches the serving path, in
  constant time, with one indistinguishable error shape for
  unknown-tenant and wrong-token;
* quotas bound *in-flight* queries all-or-nothing per batch, and quota
  positions return via future-completion callbacks — no leak on
  failure, cancellation, or a vanished client;
* a channel only admits queries encrypted under its own tenant's key.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import PPANNSError
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.net.tenancy import (
    AuthError,
    QuotaExceededError,
    RateLimitError,
    Tenant,
    TenantAdmission,
    TenantConfig,
    TenantRegistry,
    TokenBucket,
)
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def actors():
    rng = np.random.default_rng(41)
    owner = DataOwner(
        8, beta=0.3, hnsw_params=FAST_HNSW, backend="bruteforce", rng=rng
    )
    database = rng.standard_normal((80, 8)) * 2.0
    index = owner.build_index(database)
    server = CloudServer(index)
    user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(42))
    return server, user, database, int(index.dce_database.key_id)


class TestRegistryAuth:
    def test_token_tenant_authenticates(self):
        registry = TenantRegistry([TenantConfig(7, token="hunter2")])
        assert registry.authenticate(7, "hunter2").key_id == 7

    def test_wrong_token_refused(self):
        registry = TenantRegistry([TenantConfig(7, token="hunter2")])
        with pytest.raises(AuthError):
            registry.authenticate(7, "wrong")
        with pytest.raises(AuthError):
            registry.authenticate(7, None)

    def test_unknown_tenant_refused_with_same_shape(self):
        """Unknown-tenant and wrong-token produce the same message shape,
        so the boundary does not reveal which half failed."""
        registry = TenantRegistry([TenantConfig(7, token="hunter2")])
        with pytest.raises(AuthError) as unknown:
            registry.authenticate(99, "hunter2")
        with pytest.raises(AuthError) as wrong:
            registry.authenticate(7, "nope")
        assert str(unknown.value).replace("99", "X") == str(
            wrong.value
        ).replace("7", "X")

    def test_tokenless_tenant_admits_any_credential(self):
        registry = TenantRegistry([TenantConfig(3)])
        assert registry.authenticate(3, None).key_id == 3
        assert registry.authenticate(3, "anything").key_id == 3

    def test_key_ids_sorted(self):
        registry = TenantRegistry([TenantConfig(9), TenantConfig(-2), TenantConfig(4)])
        assert registry.key_ids() == [-2, 4, 9]

    def test_errors_are_ppanns_errors(self):
        assert issubclass(AuthError, PPANNSError)
        assert issubclass(QuotaExceededError, PPANNSError)

    def test_invalid_quota_rejected(self):
        with pytest.raises(PPANNSError):
            TenantConfig(1, max_in_flight=0)


class TestQuotaCounter:
    def test_acquire_release_cycle(self):
        tenant = Tenant(TenantConfig(1, max_in_flight=2))
        assert tenant.try_acquire()
        assert tenant.try_acquire()
        assert not tenant.try_acquire()
        tenant.release()
        assert tenant.try_acquire()
        assert tenant.in_flight == 2

    def test_batch_acquire_is_all_or_nothing(self):
        tenant = Tenant(TenantConfig(1, max_in_flight=3))
        assert tenant.try_acquire(2)
        assert not tenant.try_acquire(2)  # only 1 position left
        assert tenant.in_flight == 2  # the refused batch took nothing
        assert tenant.try_acquire(1)

    def test_unbounded_tenant_never_refuses(self):
        tenant = Tenant(TenantConfig(1))
        assert tenant.try_acquire(10_000)

    def test_release_floors_at_zero(self):
        tenant = Tenant(TenantConfig(1, max_in_flight=2))
        tenant.release(5)
        assert tenant.in_flight == 0


class TestChannel:
    def test_quota_enforced_and_released_by_completion(self, actors):
        server, user, database, key_id = actors
        queries = [user.encrypt_query(database[i] + 0.01, 3) for i in range(4)]
        registry = TenantRegistry([TenantConfig(key_id, max_in_flight=2)])
        with server.serving_frontend() as frontend:
            channel = TenantAdmission(frontend, registry).channel(key_id)
            # Serially, quota 2 never blocks: completions release slots.
            for query in queries:
                assert channel.answer(query, timeout=30).ids.shape[0] == 3
            tenant = registry.get(key_id)
            assert tenant.in_flight == 0
            assert tenant.metrics.snapshot().completed == 4

    def test_over_quota_batch_refused_atomically(self, actors):
        server, user, database, key_id = actors
        queries = [user.encrypt_query(database[i] + 0.01, 3) for i in range(3)]
        registry = TenantRegistry([TenantConfig(key_id, max_in_flight=2)])
        with server.serving_frontend() as frontend:
            channel = TenantAdmission(frontend, registry).channel(key_id)
            with pytest.raises(QuotaExceededError):
                channel.submit_batch(queries)
            tenant = registry.get(key_id)
            assert tenant.in_flight == 0  # nothing was admitted
            assert tenant.metrics.snapshot().rejected == 3
            # The tenant is not wedged: a fitting batch still serves.
            futures = channel.submit_batch(queries[:2])
            assert all(f.result(timeout=30).ids.shape[0] == 3 for f in futures)

    def test_foreign_key_refused_by_channel(self, actors):
        server, user, database, key_id = actors
        stranger = QueryUser(
            DataOwner(8, beta=0.3, rng=np.random.default_rng(99)).authorize_user(),
            rng=np.random.default_rng(100),
        )
        foreign = stranger.encrypt_query(database[0] + 0.01, 3)
        registry = TenantRegistry([TenantConfig(key_id)])
        with server.serving_frontend() as frontend:
            channel = TenantAdmission(frontend, registry).channel(key_id)
            with pytest.raises(AuthError, match="authenticated for"):
                channel.submit(foreign)
            assert registry.get(key_id).in_flight == 0

    def test_failed_query_still_releases_quota(self, actors):
        from repro.serve.frontend import ServingFrontend

        class _AlwaysFailEngine:
            name = "always-fail"

            def refine(self, dce, trapdoor, candidate_ids, k):
                raise RuntimeError("refine blew up")

        server, user, database, key_id = actors
        query = user.encrypt_query(database[0] + 0.01, 3)
        registry = TenantRegistry([TenantConfig(key_id, max_in_flight=1)])
        frontend = ServingFrontend(
            CloudServer(server.index, refine_engine=_AlwaysFailEngine())
        )
        with frontend:
            channel = TenantAdmission(frontend, registry).channel(key_id)
            future = channel.submit(query)
            with pytest.raises(RuntimeError, match="refine blew up"):
                future.result(timeout=30)
            tenant = registry.get(key_id)
            assert tenant.in_flight == 0  # released by the done-callback
            assert tenant.metrics.snapshot().failed == 1
            # Quota 1 is free again: the next submit is admitted (its
            # fate is the engine's problem, not the quota's).
            second = channel.submit(query)
            with pytest.raises(RuntimeError):
                second.result(timeout=30)

    def test_stats_view_shape(self, actors):
        server, user, database, key_id = actors
        query = user.encrypt_query(database[0] + 0.01, 3)
        registry = TenantRegistry(
            [TenantConfig(key_id, token="t", max_in_flight=5), TenantConfig(12345)]
        )
        with server.serving_frontend() as frontend:
            admission = TenantAdmission(frontend, registry)
            channel = admission.channel(key_id, "t")
            channel.answer(query, timeout=30)
            view = admission.stats()
        assert view["key_ids"] == sorted([key_id, 12345])
        mine = view["tenants"][str(key_id)]
        assert mine["authenticated"] is True
        assert mine["max_in_flight"] == 5
        assert mine["completed"] == 1
        other = view["tenants"]["12345"]
        assert other["submitted"] == 0
        assert "queue_depth" in view

    def test_empty_batch_is_a_noop(self, actors):
        server, user, database, key_id = actors
        registry = TenantRegistry([TenantConfig(key_id, max_in_flight=1)])
        with server.serving_frontend() as frontend:
            channel = TenantAdmission(frontend, registry).channel(key_id)
            assert channel.submit_batch([]) == []
            assert registry.get(key_id).in_flight == 0


class _FakeClock:
    """A hand-cranked monotonic clock for deterministic bucket refills."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refusal_with_hint(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        for _ in range(3):
            assert bucket.try_acquire() is None
        hint = bucket.try_acquire()
        # Empty bucket at 10 tokens/s: one token is 0.1 s away.
        assert hint == pytest.approx(0.1)

    def test_refill_is_continuous_and_capped(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_acquire() is None
        clock.advance(0.5)  # one token back
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is not None
        clock.advance(1000.0)  # refill far past burst; cap holds
        for _ in range(4):
            assert bucket.try_acquire() is None
        assert bucket.try_acquire() is not None

    def test_batch_acquire_is_all_or_nothing(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=1.0, burst=5.0, clock=clock)
        hint = bucket.try_acquire(8)  # can never fit? burst is 5
        assert hint == pytest.approx(3.0)  # 8 - 5 tokens at 1/s
        # The refusal spent nothing: 5 singles still fit.
        for _ in range(5):
            assert bucket.try_acquire() is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(PPANNSError, match="rate"):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(PPANNSError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)
        with pytest.raises(PPANNSError):
            TenantConfig(1, burst=4.0)  # burst requires rate
        with pytest.raises(PPANNSError):
            TenantConfig(1, rate=-1.0)


class TestRateLimitedTenant:
    def test_check_rate_raises_typed_with_hint(self):
        clock = _FakeClock()
        tenant = Tenant(TenantConfig(5, rate=2.0, burst=2.0), clock=clock)
        tenant.check_rate()
        tenant.check_rate()
        with pytest.raises(RateLimitError) as excinfo:
            tenant.check_rate()
        assert isinstance(excinfo.value, QuotaExceededError)
        assert excinfo.value.retry_after == pytest.approx(0.5)
        clock.advance(0.5)
        tenant.check_rate()  # token accrued; admitted again

    def test_unmetered_tenant_never_rate_limits(self):
        tenant = Tenant(TenantConfig(5))
        for _ in range(1000):
            tenant.check_rate()

    def test_channel_refuses_over_rate_and_counts_it(self, actors):
        server, user, database, key_id = actors
        clock = _FakeClock()
        registry = TenantRegistry()
        registry.register(TenantConfig(key_id, rate=1.0, burst=2.0), clock=clock)
        query = user.encrypt_query(database[0] + 0.01, 3)
        with server.serving_frontend() as frontend:
            channel = TenantAdmission(frontend, registry).channel(key_id)
            channel.answer(query, timeout=30)
            channel.answer(query, timeout=30)
            with pytest.raises(RateLimitError):
                channel.submit(query)
            stats = registry.get(key_id).stats()
            assert stats["rate"] == 1.0
            assert stats["rate_limited"] == 1
            assert stats["rejected"] == 1
            # The refusal spent no in-flight quota and the frontend
            # counted the shed for the metrics view.
            assert registry.get(key_id).in_flight == 0
            assert frontend.metrics.snapshot().rate_limited == 1

    def test_rate_refusal_checked_before_quota(self, actors):
        """A rate-refused batch must not consume in-flight positions."""
        server, user, database, key_id = actors
        clock = _FakeClock()
        registry = TenantRegistry()
        registry.register(
            TenantConfig(key_id, max_in_flight=8, rate=1.0, burst=1.0),
            clock=clock,
        )
        queries = [user.encrypt_query(database[i] + 0.01, 3) for i in range(3)]
        with server.serving_frontend() as frontend:
            channel = TenantAdmission(frontend, registry).channel(key_id)
            with pytest.raises(RateLimitError):
                channel.submit_batch(queries)
            assert registry.get(key_id).in_flight == 0
