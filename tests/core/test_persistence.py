"""Persistence tests: index and key round-trips through disk."""

import io
import zipfile

import numpy as np
import pytest

from repro.core.dce import DCEScheme, distance_comp
from repro.core.errors import CiphertextFormatError
from repro.core.journal import _npz_bytes
from repro.core.persistence import load_index, load_keys, save_index, save_keys
from repro.core.roles import CloudServer, DataOwner, QueryUser
from repro.core.maintenance import delete_vector
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def deployed(tmp_path_factory):
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((150, 12)) * 3.0
    owner = DataOwner(12, beta=0.2, hnsw_params=FAST_HNSW, rng=rng)
    index = owner.build_index(vectors)
    return owner, index, vectors


class TestIndexRoundtrip:
    def test_search_results_identical(self, deployed, tmp_path):
        owner, index, vectors = deployed
        path = tmp_path / "index.npz"
        save_index(path, index)
        loaded = load_index(path)

        user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(1))
        query = vectors[5] + 0.01
        encrypted = user.encrypt_query(query, 10)
        original = CloudServer(index).answer(encrypted, ef_search=100)
        restored = CloudServer(loaded).answer(encrypted, ef_search=100)
        assert set(original.ids.tolist()) == set(restored.ids.tolist())

    def test_graph_structure_preserved(self, deployed, tmp_path):
        _, index, _ = deployed
        path = tmp_path / "index.npz"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.backend.entry_point == index.backend.entry_point
        assert loaded.backend.max_level == index.backend.max_level
        for node in range(0, 150, 17):
            assert loaded.backend.neighbors(node, 0) == index.backend.neighbors(node, 0)

    def test_tombstones_preserved(self, deployed, tmp_path):
        owner, _, vectors = deployed
        index = owner.build_index(vectors)
        delete_vector(index, 3)
        path = tmp_path / "index.npz"
        save_index(path, index)
        loaded = load_index(path)
        assert not loaded.is_live(3)
        assert len(loaded) == len(index)

    def test_v1_files_still_load(self, deployed, tmp_path):
        """A synthesized seed-era (v1, HNSW-only) file loads transparently.

        v1 had no ``backend_kind`` and duplicated the vectors under
        ``graph_vectors``; see docs/FORMATS.md.
        """
        owner, index, vectors = deployed
        path = tmp_path / "index_v1.npz"
        save_index(path, index)
        data = dict(np.load(path))
        data["format_version"] = np.array([1], dtype=np.int64)
        del data["backend_kind"]
        data["graph_vectors"] = index.sap_vectors
        np.savez_compressed(path, **data)

        loaded = load_index(path)
        assert loaded.backend_kind == "hnsw"
        user = QueryUser(owner.authorize_user(), rng=np.random.default_rng(4))
        encrypted = user.encrypt_query(vectors[9] + 0.01, 10)
        original = CloudServer(index).answer(encrypted, ef_search=100)
        restored = CloudServer(loaded).answer(encrypted, ef_search=100)
        assert set(original.ids.tolist()) == set(restored.ids.tolist())

    def test_v2_is_still_the_monolithic_write_format(self, deployed, tmp_path):
        _, index, _ = deployed
        path = tmp_path / "index_v2.npz"
        save_index(path, index)
        with np.load(path) as data:
            assert int(data["format_version"][0]) == 2
            assert "num_shards" not in data.files

    def test_version_check(self, deployed, tmp_path):
        _, index, _ = deployed
        path = tmp_path / "index.npz"
        save_index(path, index)
        data = dict(np.load(path))
        data["format_version"] = np.array([99], dtype=np.int64)
        np.savez_compressed(path, **data)
        with pytest.raises(CiphertextFormatError):
            load_index(path)


class TestKeyRoundtrip:
    def test_loaded_keys_interoperate(self, deployed, tmp_path):
        owner, index, vectors = deployed
        path = tmp_path / "keys.npz"
        save_keys(path, owner.authorize_user())
        keys = load_keys(path)
        assert keys.dim == 12
        user = QueryUser(keys, rng=np.random.default_rng(2))
        encrypted = user.encrypt_query(vectors[7] + 0.01, 5)
        report = CloudServer(index).answer(encrypted, ef_search=100)
        assert 7 in report.ids

    def test_dce_key_exact(self, deployed, tmp_path):
        owner, _, vectors = deployed
        path = tmp_path / "keys.npz"
        save_keys(path, owner.authorize_user())
        keys = load_keys(path)
        # A fresh DCE scheme from loaded keys must produce ciphertexts
        # compatible with the owner's trapdoors and vice versa.
        loaded_scheme = DCEScheme(12, rng=np.random.default_rng(3), key=keys.dce_key)
        db = loaded_scheme.encrypt_database(vectors[:4])
        trapdoor = owner.dce_scheme.trapdoor(vectors[0])
        dists = ((vectors[:4] - vectors[0]) ** 2).sum(axis=1)
        z = distance_comp(db[1], db[2], trapdoor)
        assert (z < 0) == (dists[1] < dists[2])

    def test_key_version_check(self, deployed, tmp_path):
        owner, _, _ = deployed
        path = tmp_path / "keys.npz"
        save_keys(path, owner.authorize_user())
        data = dict(np.load(path))
        data["format_version"] = np.array([99], dtype=np.int64)
        np.savez_compressed(path, **data)
        with pytest.raises(CiphertextFormatError):
            load_keys(path)


def _member_compression(source) -> set[int]:
    """The zip compression types used by an npz archive's members."""
    with zipfile.ZipFile(source) as archive:
        return {info.compress_type for info in archive.infolist()}


class TestArchiveEncoding:
    """Archives are written stored, not deflated: the DCPE/DCE ciphertexts
    are high-entropy floats that zlib barely shrinks at many times the
    write cost.  The deflated files of older writers keep loading (the
    ``savez_compressed`` fixtures above; journal stores in
    ``tests/persistence/test_journal.py``)."""

    def test_save_index_and_save_keys_write_stored_members(self, deployed, tmp_path):
        owner, index, _ = deployed
        save_index(tmp_path / "index.npz", index)
        save_keys(tmp_path / "keys.npz", owner.authorize_user())
        for name in ("index.npz", "keys.npz"):
            assert _member_compression(tmp_path / name) == {zipfile.ZIP_STORED}

    def test_journal_payload_bytes_are_stored(self, deployed):
        _, index, _ = deployed
        data = _npz_bytes({"op": np.array(["insert"]), "sap_row": index.sap_vectors[0]})
        assert _member_compression(io.BytesIO(data)) == {zipfile.ZIP_STORED}
