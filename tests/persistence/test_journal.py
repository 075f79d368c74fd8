"""Unit tests for the v4 journaled store and its failure modes."""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np
import pytest

from repro.core.errors import CiphertextFormatError, ParameterError
from repro.core.journal import IndexJournal, JOURNAL_FORMAT_VERSION, _checksum
from repro.core.maintenance import compact_index, delete_vector, insert_vector
from repro.core.persistence import load_index, save_index

from tests.persistence.conftest import ALL_KINDS, make_fitted_scheme, state_digest


def _journaled_scheme(tmp_path, kind="hnsw", shards=None, seed=42):
    scheme, database = make_fitted_scheme(kind, shards, seed=seed)
    store = tmp_path / "store"
    scheme.enable_journal(store)
    return scheme, database, store


class TestJournalRoundtrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_journal_loads_base(self, tmp_path, kind):
        scheme, _, store = _journaled_scheme(tmp_path, kind)
        assert state_digest(load_index(store)) == state_digest(scheme.server.index)

    def test_segments_replay_in_order(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        mutation_rng = np.random.default_rng(5)
        inserted = [
            scheme.insert(mutation_rng.normal(size=scheme.owner.dim))
            for _ in range(4)
        ]
        scheme.delete(inserted[1])
        scheme.delete(2)
        assert scheme.journal.num_segments == 6
        loaded = load_index(store)
        assert state_digest(loaded) == state_digest(scheme.server.index)
        assert loaded.tombstones == {inserted[1], 2}

    def test_compaction_folds_journal_into_new_generation(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        scheme.insert(np.zeros(scheme.owner.dim))
        scheme.delete(0)
        assert scheme.journal.generation == 0
        scheme.compact()
        assert scheme.journal.generation == 1
        assert scheme.journal.num_segments == 0
        # Only the new generation's files remain.
        assert sorted(p.name for p in store.iterdir() if p.is_file()) == [
            "MANIFEST.json",
            "base-1.npz",
        ]
        assert not list((store / "journal").iterdir())
        assert state_digest(load_index(store)) == state_digest(scheme.server.index)

    def test_mutations_after_compaction_journal_onward(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        scheme.delete(1)
        scheme.compact()
        scheme.insert(np.ones(scheme.owner.dim))
        scheme.delete(3)
        assert scheme.journal.num_segments == 2
        assert state_digest(load_index(store)) == state_digest(scheme.server.index)

    def test_deflated_store_still_replays(self, tmp_path):
        """A store whose base and segments are deflated npz archives (the
        encoding of older writers) replays to the live index's state."""
        scheme, _, store = _journaled_scheme(tmp_path, "nsg")
        mutation_rng = np.random.default_rng(7)
        inserted = scheme.insert(mutation_rng.normal(size=scheme.owner.dim))
        scheme.delete(inserted)
        scheme.insert(mutation_rng.normal(size=scheme.owner.dim))
        manifest = json.loads((store / "MANIFEST.json").read_bytes())
        entries = [(manifest, "base", "base_checksum")] + [
            (entry, "name", "checksum") for entry in manifest["segments"]
        ]
        for holder, name_field, checksum_field in entries:
            path = store / holder[name_field]
            with np.load(path) as npz:
                arrays = {key: npz[key] for key in npz.files}
            buf = io.BytesIO()
            np.savez_compressed(buf, **arrays)
            path.write_bytes(buf.getvalue())
            holder[checksum_field] = _checksum(buf.getvalue())
            with zipfile.ZipFile(path) as archive:
                assert {m.compress_type for m in archive.infolist()} == {
                    zipfile.ZIP_DEFLATED
                }
        (store / "MANIFEST.json").write_text(json.dumps(manifest))
        loaded = IndexJournal.open(store).load()
        assert state_digest(loaded) == state_digest(scheme.server.index)


class TestJournalFailureModes:
    def test_open_requires_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CiphertextFormatError, match="MANIFEST"):
            IndexJournal.open(tmp_path / "empty")

    def test_open_rejects_unknown_format_version(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        manifest = json.loads((store / "MANIFEST.json").read_bytes())
        manifest["format_version"] = JOURNAL_FORMAT_VERSION + 1
        (store / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CiphertextFormatError, match="version"):
            IndexJournal.open(store)

    def test_open_rejects_garbled_manifest(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        (store / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CiphertextFormatError, match="corrupt manifest"):
            IndexJournal.open(store)

    def test_corrupted_segment_is_detected(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        scheme.insert(np.zeros(scheme.owner.dim))
        segment = next((store / "journal").glob("seg-*.npz"))
        blob = bytearray(segment.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        segment.write_bytes(bytes(blob))
        with pytest.raises(CiphertextFormatError, match="checksum"):
            load_index(store)

    def test_corrupted_base_is_detected(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        base = store / "base-0.npz"
        blob = bytearray(base.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        base.write_bytes(bytes(blob))
        with pytest.raises(CiphertextFormatError, match="checksum"):
            load_index(store)

    def test_missing_segment_file_is_detected(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        scheme.insert(np.zeros(scheme.owner.dim))
        next((store / "journal").glob("seg-*.npz")).unlink()
        with pytest.raises(CiphertextFormatError, match="missing file"):
            load_index(store)

    def test_orphan_segment_is_ignored(self, tmp_path):
        """A segment written but never committed to the manifest (the
        crash window) must not affect loading."""
        scheme, _, store = _journaled_scheme(tmp_path)
        scheme.insert(np.zeros(scheme.owner.dim))
        orphan = store / "journal" / "seg-0-999.npz"
        orphan.write_bytes(b"leftover from a crashed append")
        assert state_digest(load_index(store)) == state_digest(scheme.server.index)


class TestJournalStats:
    def test_stats_accounting(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        empty = scheme.journal.stats()
        assert empty.generation == 0
        assert empty.num_segments == 0
        assert empty.journal_bytes == 0
        assert empty.base_bytes == (store / "base-0.npz").stat().st_size
        scheme.insert(np.zeros(scheme.owner.dim))
        scheme.delete(0)
        stats = scheme.journal.stats()
        assert stats.num_segments == 2
        assert stats.journal_bytes > 0
        assert stats.total_bytes == stats.base_bytes + stats.journal_bytes
        assert stats.path == str(store)


class TestCompactedNpzRoundtrip:
    """The v2/v3 npz formats must carry a compacted index faithfully."""

    @pytest.mark.parametrize("shards", [None, 2])
    def test_save_load_after_compaction(self, tmp_path, shards):
        scheme, _ = make_fitted_scheme("hnsw", shards=shards, seed=9)
        scheme.delete(0)
        scheme.delete(5)
        scheme.compact()
        scheme.delete(7)  # a fresh, uncompacted tombstone rides along
        path = tmp_path / "compacted.npz"
        save_index(path, scheme.server.index)
        loaded = load_index(path)
        assert state_digest(loaded) == state_digest(scheme.server.index)
        assert loaded.retired == {0, 5}
        assert loaded.tombstones == {7}
        assert len(loaded) == len(scheme.server.index)

    def test_monolithic_cannot_compact_to_empty(self):
        scheme, _ = make_fitted_scheme("hnsw", seed=9, n=3)
        for vector_id in range(3):
            scheme.delete(vector_id)
        with pytest.raises(ParameterError, match="zero live"):
            scheme.compact()


class TestMaintenanceWithoutJournal:
    def test_journal_parameter_is_optional(self, tmp_path):
        """insert/delete/compact still work with no journal attached."""
        scheme, _ = make_fitted_scheme("hnsw", seed=13)
        new_id = insert_vector(
            scheme.owner, scheme.server.index, np.zeros(scheme.owner.dim)
        )
        delete_vector(scheme.server.index, new_id)
        report = compact_index(scheme.server.index, rng=np.random.default_rng(0))
        assert report.tombstones_dropped == 1
        assert report.shards_compacted == 1
        assert report.seconds >= 0.0

    def test_server_compact_entry_point(self):
        scheme, _ = make_fitted_scheme("bruteforce", shards=2, seed=13)
        scheme.delete(1)
        report = scheme.server.compact()
        assert report.tombstones_dropped == 1
        assert scheme.server.index.retired == {1}

    def test_noop_compaction_keeps_generation(self, tmp_path):
        scheme, _, store = _journaled_scheme(tmp_path)
        before = sorted(p.name for p in store.iterdir() if p.is_file())
        report = compact_index(scheme.server.index, journal=scheme.journal)
        assert report.tombstones_dropped == 0
        assert scheme.journal.generation == 0
        assert sorted(p.name for p in store.iterdir() if p.is_file()) == before
