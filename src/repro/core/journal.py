"""Incremental persistence: the journaled v4 directory store.

Formats v1-v3 (:mod:`repro.core.persistence`) rewrite the whole index
file on every save, so a single insert into an n-vector index costs
O(n·d) disk work.  The v4 store makes mutations O(d): the index is a
**directory** holding an immutable *base* snapshot plus an append-only
*journal* of delta segments, one mutation per segment::

    index.d/
        MANIFEST.json           <- the atomic commit point
        base-<gen>.npz          <- a full v2/v3 payload (persistence)
        journal/
            seg-<gen>-<seq>.npz <- one insert/delete delta each

Loading applies the base and then replays the journal forward; the
result is **bit-identical** to saving and reloading the live index (the
only randomness on the mutation path — the HNSW level draw — is
recorded in the insert segment and forced on replay).

Durability protocol (the fstransactions idiom):

* every file — base, segment, manifest — is published by
  *write-new-then-rename*: the bytes go to a ``.tmp`` sibling, are
  fsynced, and ``os.replace`` moves them into place (followed by a
  directory fsync);
* a mutation first publishes its segment, then publishes a manifest
  listing it.  A crash between the two leaves an *orphan* segment the
  manifest never names — ignored on load;
* compaction / base rewrite first publishes the new base, then a
  manifest pointing at it with an empty segment list, then unlinks the
  superseded generation's files.  A crash before the manifest lands
  keeps the old generation fully intact.

Consequently a crash at *any* write, rename or fsync leaves the store
loadable at either the pre-mutation or post-mutation state — never a
torn one.  The crash-injection suite (``tests/persistence``) sweeps
every fault point to enforce exactly that.

Every manifest entry carries a BLAKE2b checksum of the named file's
bytes; a mismatch on load raises
:class:`~repro.core.errors.CiphertextFormatError` instead of
resurrecting silently corrupted state.

All OS-level primitives go through a :class:`FileOps` instance — the
seam ``tests/persistence/faultfs.py`` subclasses to inject failures at
the Nth write/rename/fsync.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.dce import DCECiphertext
from repro.core.errors import CiphertextFormatError, KeyMismatchError
from repro.core.persistence import _index_arrays, _index_from_mapping

__all__ = [
    "FileOps",
    "IndexJournal",
    "JournalStats",
    "JOURNAL_FORMAT_VERSION",
    "segment_payload_floats",
]

#: The directory-store format version recorded in MANIFEST.json.
JOURNAL_FORMAT_VERSION = 4


def segment_payload_floats(dim: int) -> int:
    """Float64 count of one *insert* segment's ciphertext payload.

    The segment carries the inserted vector's DCPE ciphertext
    (``sap_row``, ``d`` floats) and its DCE ciphertext
    (``dce_components``, ``4 x (2d+16)`` floats): ``d + 4*(2d+16) =
    9d + 64`` — the O(d) disk cost per mutation that replaces the
    O(n*d) full-rewrite cost of the v1-v3 snapshot formats.  Delete
    segments carry no ciphertexts at all.  Normative formula; see
    ``docs/FORMATS.md``.
    """
    return dim + 4 * (2 * dim + 16)

_MANIFEST_NAME = "MANIFEST.json"
_JOURNAL_DIR = "journal"
#: BLAKE2b digest size (bytes) for file checksums in the manifest.
_DIGEST_SIZE = 16


class FileOps:
    """The OS-primitive seam every journal write goes through.

    The default implementation is the real thing; the crash-injection
    harness substitutes a subclass that raises after N primitive calls,
    simulating power loss at that exact point.  Keeping the vocabulary
    this small (write / fsync / replace / fsync_dir / unlink) is what
    makes "sweep every fault point" a finite, exhaustive loop.
    """

    def write(self, fh, data: bytes) -> None:
        """Write ``data`` to an open binary file handle."""
        fh.write(data)

    def fsync(self, fh) -> None:
        """Flush ``fh``'s bytes to stable storage."""
        fh.flush()
        os.fsync(fh.fileno())

    def replace(self, src: Path, dst: Path) -> None:
        """Atomically rename ``src`` over ``dst`` (POSIX rename)."""
        os.replace(src, dst)

    def fsync_dir(self, directory: Path) -> None:
        """Persist a directory entry (the rename itself)."""
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def unlink(self, path: Path) -> None:
        """Remove a superseded file."""
        os.unlink(path)

    # -- composed operation ----------------------------------------------------

    def write_atomic(self, path: Path, data: bytes) -> None:
        """Publish ``data`` at ``path`` via write-new-then-rename.

        The commit point is the rename: readers either see the old file
        (or none) or the complete new bytes, never a prefix.
        """
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            self.write(fh, data)
            self.fsync(fh)
        self.replace(tmp, path)
        self.fsync_dir(path.parent)


def _checksum(data: bytes) -> str:
    """BLAKE2b-128 hex digest of a file's full byte content."""
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).hexdigest()


def _npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize an array payload to stored (uncompressed) npz bytes."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _npz_mapping(data: bytes) -> dict[str, np.ndarray]:
    """Decode npz bytes (stored or deflated) into a plain array mapping."""
    try:
        with np.load(io.BytesIO(data)) as npz:
            return {key: npz[key] for key in npz.files}
    except (ValueError, OSError) as exc:  # zip/npy framing damage
        raise CiphertextFormatError(f"unreadable npz payload: {exc}") from exc


@dataclass(frozen=True)
class JournalStats:
    """Size/shape accounting for ``info``-style reporting."""

    path: str
    generation: int
    num_segments: int
    base_bytes: int
    journal_bytes: int

    @property
    def total_bytes(self) -> int:
        """Base plus journal footprint on disk."""
        return self.base_bytes + self.journal_bytes


class IndexJournal:
    """A v4 journaled index store rooted at one directory.

    Create one over a live index with :meth:`create`, reattach to an
    existing store with :meth:`open`, materialize the current state with
    :meth:`load`.  Mutations are recorded with :meth:`append_insert` /
    :meth:`append_delete` (normally via the ``journal=`` parameter of
    :mod:`repro.core.maintenance`); :meth:`rewrite_base` folds the
    journal into a fresh base after a compaction.
    """

    def __init__(self, root: Path, manifest: dict, ops: FileOps) -> None:
        self._root = Path(root)
        self._manifest = manifest
        self._ops = ops

    # -- constructors ----------------------------------------------------------

    @classmethod
    def create(
        cls, root: str | os.PathLike, index, ops: FileOps | None = None
    ) -> "IndexJournal":
        """Initialize a store at ``root`` from a live index (generation 0)."""
        ops = ops if ops is not None else FileOps()
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        (root / _JOURNAL_DIR).mkdir(exist_ok=True)
        journal = cls(root, {}, ops)
        journal._publish_generation(0, index)
        return journal

    @classmethod
    def open(
        cls, root: str | os.PathLike, ops: FileOps | None = None
    ) -> "IndexJournal":
        """Reattach to an existing store (reads the manifest only)."""
        ops = ops if ops is not None else FileOps()
        root = Path(root)
        manifest_path = root / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise CiphertextFormatError(f"no {_MANIFEST_NAME} in {root}")
        try:
            manifest = json.loads(manifest_path.read_bytes())
        except json.JSONDecodeError as exc:
            raise CiphertextFormatError(f"corrupt manifest: {exc}") from exc
        version = manifest.get("format_version")
        if version != JOURNAL_FORMAT_VERSION:
            raise CiphertextFormatError(
                f"unsupported journal format version {version}"
            )
        return cls(root, manifest, ops)

    # -- accessors -------------------------------------------------------------

    @property
    def root(self) -> Path:
        """The store's directory."""
        return self._root

    @property
    def generation(self) -> int:
        """Base generation — bumped by every :meth:`rewrite_base`."""
        return int(self._manifest["generation"])

    @property
    def num_segments(self) -> int:
        """Journal segments recorded on top of the current base."""
        return len(self._manifest["segments"])

    def stats(self) -> JournalStats:
        """On-disk accounting (used by ``repro-cli info``)."""
        base_bytes = (self._root / self._manifest["base"]).stat().st_size
        journal_bytes = sum(
            (self._root / entry["name"]).stat().st_size
            for entry in self._manifest["segments"]
        )
        return JournalStats(
            path=str(self._root),
            generation=self.generation,
            num_segments=self.num_segments,
            base_bytes=int(base_bytes),
            journal_bytes=int(journal_bytes),
        )

    # -- reading ---------------------------------------------------------------

    def _read_checked(self, name: str, expected_checksum: str) -> bytes:
        path = self._root / name
        try:
            data = path.read_bytes()
        except FileNotFoundError as exc:
            raise CiphertextFormatError(
                f"manifest names missing file {name!r}"
            ) from exc
        if _checksum(data) != expected_checksum:
            raise CiphertextFormatError(
                f"checksum mismatch for {name!r} — file is corrupt"
            )
        return data

    def load(self):
        """Materialize the store: load the base, replay every segment.

        The result is bit-identical (persisted-array-for-array) to the
        live index the mutations were applied to.
        """
        manifest = self._manifest
        base = _npz_mapping(
            self._read_checked(manifest["base"], manifest["base_checksum"])
        )
        index = _index_from_mapping(base)
        for entry in manifest["segments"]:
            segment = _npz_mapping(
                self._read_checked(entry["name"], entry["checksum"])
            )
            self._replay_segment(index, segment, entry["name"])
        return index

    @staticmethod
    def _replay_segment(index, segment: dict, name: str) -> None:
        op = str(segment["op"][0])
        if op == "insert":
            sap_row = np.asarray(segment["sap_row"], dtype=np.float64)
            key_id = int(segment["dce_key_id"][0])
            if key_id != index.dce_database.key_id:
                raise KeyMismatchError(
                    f"segment {name!r} was encrypted under a different key"
                )
            ciphertext = DCECiphertext(
                np.asarray(segment["dce_components"]), key_id
            )
            level = int(segment["level"][0])
            new_id = index.backend_insert(
                sap_row, level=None if level < 0 else level
            )
            index._append(sap_row, index.dce_database.append(ciphertext))
            recorded = int(segment["global_id"][0])
            if new_id != recorded:
                raise CiphertextFormatError(
                    f"segment {name!r} expected global id {recorded}, "
                    f"replay assigned {new_id}"
                )
        elif op == "delete":
            vector_id = int(segment["vector_id"][0])
            if not index.is_live(vector_id):
                raise CiphertextFormatError(
                    f"segment {name!r} deletes id {vector_id}, "
                    f"which is not live at this point of the journal"
                )
            index.backend_mark_deleted(vector_id)
            index._mark_deleted(vector_id)
        else:
            raise CiphertextFormatError(
                f"segment {name!r} has unknown op {op!r}"
            )

    # -- writing ---------------------------------------------------------------

    def _write_manifest(self, manifest: dict) -> None:
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        self._ops.write_atomic(self._root / _MANIFEST_NAME, data)
        self._manifest = manifest

    def _append_segment(self, arrays: dict[str, np.ndarray]) -> None:
        manifest = self._manifest
        seq = int(manifest["next_seq"])
        name = f"{_JOURNAL_DIR}/seg-{self.generation}-{seq}.npz"
        data = _npz_bytes(arrays)
        # Segment first, manifest second: a crash in between leaves an
        # orphan segment the (old) manifest never names.
        self._ops.write_atomic(self._root / name, data)
        updated = dict(manifest)
        updated["segments"] = list(manifest["segments"]) + [
            {"name": name, "checksum": _checksum(data)}
        ]
        updated["next_seq"] = seq + 1
        self._write_manifest(updated)

    def append_insert(
        self,
        sap_row: np.ndarray,
        ciphertext: DCECiphertext,
        global_id: int,
        level: int,
    ) -> None:
        """Record one insertion (already applied to the live index).

        ``level`` is the HNSW level the insert drew (``-1`` for
        non-HNSW backends), forced on replay for bit-identity.
        """
        self._append_segment(
            {
                "op": np.array(["insert"]),
                "sap_row": np.asarray(sap_row, dtype=np.float64),
                "dce_components": ciphertext.components,
                "dce_key_id": np.array([ciphertext.key_id], dtype=np.int64),
                "global_id": np.array([global_id], dtype=np.int64),
                "level": np.array([level], dtype=np.int64),
            }
        )

    def append_delete(self, vector_id: int) -> None:
        """Record one deletion (already applied to the live index)."""
        self._append_segment(
            {
                "op": np.array(["delete"]),
                "vector_id": np.array([vector_id], dtype=np.int64),
            }
        )

    def _publish_generation(self, generation: int, index) -> None:
        """Write a fresh base + empty-journal manifest for ``generation``."""
        base_name = f"base-{generation}.npz"
        data = _npz_bytes(_index_arrays(index))
        self._ops.write_atomic(self._root / base_name, data)
        self._write_manifest(
            {
                "format_version": JOURNAL_FORMAT_VERSION,
                "generation": generation,
                "base": base_name,
                "base_checksum": _checksum(data),
                "segments": [],
                "next_seq": 0,
            }
        )

    def rewrite_base(self, index) -> None:
        """Fold the journal into a new base generation.

        Called after a compaction (or whenever the journal has grown
        past taste): publishes ``base-<gen+1>`` capturing the live
        index, commits a manifest with an empty segment list, then
        unlinks the superseded generation's files.  A crash before the
        manifest commit leaves the previous generation fully intact; a
        crash during cleanup leaves harmless orphans.
        """
        old = self._manifest
        self._publish_generation(self.generation + 1, index)
        self._ops.unlink(self._root / old["base"])
        for entry in old["segments"]:
            self._ops.unlink(self._root / entry["name"])
