"""The frontend keeps answering while shards compact.

Compaction swaps rebuilt backends behind atomic view/shard swaps, so an
online :class:`~repro.serve.frontend.ServingFrontend` never has to stop
admitting.  These tests stream queries through a frontend while
``scheme.compact()`` runs (concurrently, or between two answers) and
assert the two halves of the claim:

* **No dropped or incorrect answers** — every future resolves, and for
  the exact brute-force backend every answer *set* matches the
  sequential pre-compaction answer (a linear scan's top-k over the live
  set is a pure function of the data, whichever side of the swap a
  micro-batch lands on).
* **No dead ids** — an approximate backend may change which neighbors
  it returns, but never an id that compaction retired.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from tests.persistence.conftest import make_fitted_scheme


def _expected_sets(scheme, queries, k):
    return [
        set(int(i) for i in scheme.query(q, k=k, ratio_k=4)) for q in queries
    ]


def test_streamed_answers_survive_concurrent_compaction():
    n, dim, k = 24, 6, 4
    scheme, database = make_fitted_scheme("bruteforce", shards=2, seed=31, n=n, dim=dim)
    victims = {0, 5, 11, 17, 22}
    for victim in sorted(victims):
        scheme.delete(victim)
    queries = [database[i] + 0.01 for i in range(4)]
    expected = _expected_sets(scheme, queries, k)

    compacted = threading.Event()

    def compact_now():
        report = scheme.compact()
        compacted.report = report
        compacted.set()

    with scheme.serve(max_batch_size=4) as frontend:
        # Keep the queue busy: many in-flight futures drain through
        # micro-batches of up to 4 while the compactor swaps shards.
        futures, want = [], []
        threading.Thread(target=compact_now, daemon=True).start()
        for round_id in range(10):
            for query, expect in zip(queries, expected):
                futures.append(
                    frontend.submit(scheme.user.encrypt_query(query, k=k, ratio_k=4))
                )
                want.append(expect)
        results = [future.result(timeout=30) for future in futures]

    assert compacted.wait(timeout=30)
    assert compacted.report.tombstones_dropped == len(victims)
    index = scheme.server.index
    assert index.tombstones == frozenset() and index.retired == frozenset(victims)
    for result, expect in zip(results, want):
        got = set(int(i) for i in result.ids)
        assert got == expect
        assert not (got & victims)
    # Every admitted query was answered — nothing dropped at the swap.
    assert len(results) == 40


def test_same_query_answers_the_same_across_compaction():
    scheme, database = make_fitted_scheme("bruteforce", shards=2, seed=33)
    scheme.delete(2)
    with scheme.serve() as frontend:
        encrypted = scheme.user.encrypt_query(database[1] + 0.01, k=3)
        before = frontend.answer(encrypted, timeout=30)

        report = scheme.compact()
        assert report.tombstones_dropped == 1

        # The exact backend's top-k over the live set is the same on
        # both sides of the swap.
        after = frontend.answer(encrypted, timeout=30)
        assert set(int(i) for i in after.ids) == set(int(i) for i in before.ids)
        assert 2 not in set(int(i) for i in after.ids)


def test_approximate_backend_serves_no_dead_ids_across_compaction():
    """HNSW shards: rebuilt graphs may legally change answer composition,
    but a dead id surfacing mid-swap would mean a torn view."""
    scheme, database = make_fitted_scheme("hnsw", shards=2, seed=37, n=20, dim=8)
    victims = {1, 4, 9}
    for victim in sorted(victims):
        scheme.delete(victim)
    with scheme.serve(max_batch_size=4) as frontend:
        futures = []
        compactor = threading.Thread(target=scheme.compact, daemon=True)
        compactor.start()
        for round_id in range(8):
            futures.append(
                frontend.submit(
                    scheme.user.encrypt_query(database[round_id % 4] + 0.01, k=3)
                )
            )
        results = [future.result(timeout=30) for future in futures]
        compactor.join(timeout=30)
    assert not compactor.is_alive()
    for result in results:
        assert not (set(int(i) for i in result.ids) & victims)
