"""Unit tests for the index-construction pipeline."""

import numpy as np
import pytest

from repro.core.build import (
    BUILD_MODES,
    BuildReport,
    ShardBuildTiming,
    spawn_shard_rngs,
)
from repro.core.errors import ParameterError
from repro.core.persistence import _index_arrays, load_index, save_index
from repro.core.roles import DataOwner
from repro.core.scheme import PPANNS
from repro.core.sharding import build_sharded_index
from repro.eval.costmodel import SetupCost
from tests.conftest import FAST_HNSW


def _database(n=60, dim=8, seed=0):
    return np.random.default_rng(seed).standard_normal((n, dim)) * 2.0


class TestKnobValidation:
    def test_owner_rejects_bad_knobs(self):
        with pytest.raises(ParameterError):
            DataOwner(4, beta=0.3, build_mode="turbo")

    def test_build_index_override_validation(self):
        owner = DataOwner(8, beta=0.3, backend="bruteforce")
        with pytest.raises(ParameterError):
            owner.build_index(_database(), build_mode="turbo")

    def test_modes_registry(self):
        assert BUILD_MODES == ("sequential", "bulk")


class TestSpawnShardRngs:
    def test_same_parent_seed_same_children(self):
        first = spawn_shard_rngs(np.random.default_rng(5), 3)
        second = spawn_shard_rngs(np.random.default_rng(5), 3)
        for a, b in zip(first, second):
            assert np.array_equal(a.integers(0, 100, 8), b.integers(0, 100, 8))

    def test_children_are_independent(self):
        children = spawn_shard_rngs(np.random.default_rng(5), 3)
        draws = [tuple(child.integers(0, 2**31, 8).tolist()) for child in children]
        assert len(set(draws)) == 3

    def test_successive_spawns_differ(self):
        parent = np.random.default_rng(5)
        first = spawn_shard_rngs(parent, 2)
        second = spawn_shard_rngs(parent, 2)
        assert not np.array_equal(
            first[0].integers(0, 2**31, 8), second[0].integers(0, 2**31, 8)
        )

    def test_parent_stream_not_advanced(self):
        parent = np.random.default_rng(5)
        spawn_shard_rngs(parent, 4)
        assert np.array_equal(
            parent.integers(0, 100, 8),
            np.random.default_rng(5).integers(0, 100, 8),
        )

    def test_none_parent_allowed(self):
        assert len(spawn_shard_rngs(None, 2)) == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            spawn_shard_rngs(np.random.default_rng(0), -1)


class TestBuildReport:
    def test_owner_records_split_monolithic(self):
        owner = DataOwner(8, beta=0.3, backend="bruteforce")
        index = owner.build_index(_database())
        report = index.build_report
        assert report is not None
        assert report.backend == "bruteforce"
        assert report.shards == 1
        assert report.encrypt_seconds > 0
        assert report.build_seconds >= 0
        assert report.total_seconds == pytest.approx(
            report.encrypt_seconds + report.build_seconds
        )
        assert report.shard_timings == ()

    def test_owner_records_shard_timings(self):
        owner = DataOwner(8, beta=0.3, backend="bruteforce", shards=3)
        index = owner.build_index(_database(n=30))
        report = index.build_report
        assert report.shards == 3
        assert [timing.shard_id for timing in report.shard_timings] == [0, 1, 2]
        assert sum(t.num_vectors for t in report.shard_timings) == 30
        assert all(t.seconds >= 0.0 for t in report.shard_timings)

    def test_empty_shard_timing_is_zero(self):
        # 7 shards over 5 vectors: the tail shards never build a backend.
        owner = DataOwner(8, beta=0.3, backend="bruteforce", shards=7)
        report = owner.build_index(_database(n=5)).build_report
        empty = [t for t in report.shard_timings if t.num_vectors == 0]
        assert empty and all(t.seconds == 0.0 for t in empty)

    def test_as_dict_is_json_ready(self):
        report = BuildReport(
            backend="hnsw",
            num_vectors=10,
            dim=4,
            shards=2,
            build_mode="bulk",
            encrypt_seconds=0.5,
            build_seconds=1.5,
            shard_timings=(ShardBuildTiming(0, 1.0, 5), ShardBuildTiming(1, 0.5, 5)),
        )
        payload = report.as_dict()
        assert payload["total_seconds"] == 2.0
        assert "build_workers" not in payload
        assert payload["shard_timings"][1] == {
            "shard_id": 1,
            "seconds": 0.5,
            "num_vectors": 5,
        }

    def test_build_mode_threads_to_graph(self):
        owner = DataOwner(
            8, beta=0.3, hnsw_params=FAST_HNSW, shards=2, build_mode="bulk"
        )
        report = owner.build_index(_database()).build_report
        assert report.build_mode == "bulk"

    def test_ppanns_passes_knobs(self):
        scheme = PPANNS(
            dim=8, beta=0.3, backend="bruteforce", shards=2, build_mode="bulk",
        ).fit(_database())
        assert scheme.server.index.build_report.build_mode == "bulk"


class TestPersistedBuildMetadata:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_roundtrip(self, shards, tmp_path):
        owner = DataOwner(8, beta=0.3, backend="bruteforce", shards=shards)
        index = owner.build_index(_database(n=30))
        path = tmp_path / "index.npz"
        save_index(path, index)
        loaded = load_index(path)
        original = index.build_report
        restored = loaded.build_report
        assert restored is not None
        assert restored.encrypt_seconds == original.encrypt_seconds
        assert restored.build_seconds == original.build_seconds
        assert restored.build_mode == original.build_mode
        assert restored.shards == (shards if shards > 1 else 1)
        assert [
            (t.shard_id, t.seconds, t.num_vectors) for t in restored.shard_timings
        ] == [
            (t.shard_id, t.seconds, t.num_vectors) for t in original.shard_timings
        ]

    def test_files_without_metadata_load_report_free(self, tmp_path):
        index = DataOwner(8, beta=0.3, backend="bruteforce").build_index(_database())
        index.build_report = None
        path = tmp_path / "index.npz"
        save_index(path, index)
        assert load_index(path).build_report is None

    @pytest.mark.parametrize("shards", [1, 2])
    def test_legacy_build_workers_key_is_ignored(self, shards, tmp_path):
        """Files written before the sequential-build change still load.

        They carry a ``build_workers`` array beside the other build
        metadata (``-1`` encoded "the full pool"); it is neither
        required nor read.
        """
        index = DataOwner(
            8, beta=0.3, backend="bruteforce", shards=shards
        ).build_index(_database())
        arrays = _index_arrays(index)
        assert "build_workers" not in arrays
        arrays["build_workers"] = np.array([-1], dtype=np.int64)
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, **arrays)
        restored = load_index(path).build_report
        assert restored.build_seconds == index.build_report.build_seconds
        assert restored.build_mode == index.build_report.build_mode
        assert not hasattr(restored, "build_workers")


class TestBuildShardedIndex:
    def test_report_attached_and_encrypt_half_zero(self):
        data = _database(n=40)
        owner = DataOwner(8, beta=0.3, backend="bruteforce")
        full = owner.build_index(data)
        index = build_sharded_index(
            full.sap_vectors, full.dce_database, backend="bruteforce",
            num_shards=2,
        )
        report = index.build_report
        assert report.encrypt_seconds == 0.0
        assert report.shards == 2
        assert len(report.shard_timings) == 2


class TestSetupCost:
    def test_from_build_report(self):
        report = BuildReport(
            backend="hnsw", num_vectors=10, dim=4,
            encrypt_seconds=2.0, build_seconds=6.0,
        )
        setup = SetupCost.from_build_report(report)
        assert setup.encrypt_seconds == 2.0
        assert setup.build_seconds == 6.0
        assert setup.total_seconds == 8.0
        assert setup.amortized_seconds(4) == 2.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            SetupCost(encrypt_seconds=-1.0)
        with pytest.raises(ParameterError):
            SetupCost().amortized_seconds(0)
