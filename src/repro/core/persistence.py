"""Persistence: saving and loading the encrypted index and key bundles.

A deployed PP-ANNS system builds the index once (encryption + HNSW
construction dominate setup cost) and serves it for a long time, so both
sides of the trust boundary need durable state:

* the **server** persists the :class:`EncryptedIndex` — ciphertexts plus
  the filter backend's structure, no key material (`save_index` /
  `load_index`);
* the **owner/user** persist the :class:`SecretKeyBundle`
  (`save_keys` / `load_keys`), which must be stored separately from the
  index (the whole point of the scheme).

Everything goes through ``numpy.savez`` (stored, not deflated: the
ciphertexts are high-entropy floats) with a manifest of scalar metadata;
deflated archives written before still load, under the same versions.
The index format versions (normative specification: ``docs/FORMATS.md``):

* **v1** — seed era, HNSW-only (``graph_*`` keys, vectors duplicated);
* **v2** — pluggable backends: records the backend kind and its state
  arrays (via :meth:`FilterBackend.state_arrays`).  Still what
  :func:`save_index` writes for a monolithic index;
* **v3** — sharded: a shard manifest (count, strategy, assignment) plus
  per-shard backend payloads under ``shard{i}_`` prefixes.  Written for
  a :class:`~repro.core.sharding.ShardedEncryptedIndex`;
* **v4** — a journaled *directory* store (``MANIFEST.json`` + a base
  npz + checksummed delta segments) handled by
  :mod:`repro.core.journal`; :func:`load_index` routes directory paths
  there.  v2/v3 payloads additionally carry the optional ``live_ids`` /
  ``retired`` arrays a compaction introduces (the backend then indexes
  only the surviving rows).

:func:`load_index` reads all of them.  Both npz write formats additionally
carry optional **build metadata** (``build_seconds`` = the
encrypt/build wall-clock split, ``build_mode``,
``shard_build_seconds`` / ``shard_build_sizes``) whenever the index
still holds the construction pipeline's
:class:`~repro.core.build.BuildReport`; readers reattach it and
tolerate its absence.  Older files also carry a legacy
``build_workers`` key, which is no longer written and is ignored on
load.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.backends import backend_from_state
from repro.core.build import BuildReport, ShardBuildTiming
from repro.core.dce import DCEEncryptedDatabase
from repro.core.errors import CiphertextFormatError
from repro.core.index import EncryptedIndex
from repro.core.keys import DCEKey, DCPEKey
from repro.core.roles import SecretKeyBundle
from repro.core.sharding import Shard, ShardedEncryptedIndex
from repro.crypto.permutation import Permutation

__all__ = ["save_index", "load_index", "save_keys", "load_keys"]

_FORMAT_VERSION = 2
_SHARDED_FORMAT_VERSION = 3

#: Versions load_index understands; v1 predates pluggable backends and
#: implies an HNSW graph serialized under the same ``graph_*`` keys; v3
#: adds the shard manifest and per-shard payloads.
_READABLE_VERSIONS = (1, 2, 3)


def _common_arrays(
    index: "EncryptedIndex | ShardedEncryptedIndex", version: int
) -> dict[str, np.ndarray]:
    """The array manifest shared by format v2 and v3."""
    arrays = {
        "format_version": np.array([version], dtype=np.int64),
        "backend_kind": np.array([index.backend_kind]),
        "sap_vectors": index.sap_vectors,
        "dce_components": index.dce_database.components,
        "dce_key_id": np.array([index.dce_database.key_id], dtype=np.int64),
        "tombstones": np.array(sorted(index.tombstones), dtype=np.int64),
    }
    retired = getattr(index, "retired", frozenset())
    if retired:
        arrays["retired"] = np.array(sorted(retired), dtype=np.int64)
    # Optional build metadata (docs/FORMATS.md): present only when the
    # index still carries the construction pipeline's BuildReport.
    report = getattr(index, "build_report", None)
    if report is not None:
        arrays["build_seconds"] = np.array(
            [report.encrypt_seconds, report.build_seconds]
        )
        arrays["build_mode"] = np.array([report.build_mode])
        arrays["shard_build_seconds"] = np.array(
            [timing.seconds for timing in report.shard_timings]
        )
        arrays["shard_build_sizes"] = np.array(
            [timing.num_vectors for timing in report.shard_timings],
            dtype=np.int64,
        )
    return arrays


def _load_build_report(
    data, kind: str, index: "EncryptedIndex | ShardedEncryptedIndex"
) -> None:
    """Reattach the persisted :class:`BuildReport`, if the file has one."""
    if "build_seconds" not in data:
        return
    encrypt_seconds, build_seconds = (float(x) for x in data["build_seconds"])
    shard_seconds = data["shard_build_seconds"]
    shard_sizes = data["shard_build_sizes"]
    index.build_report = BuildReport(
        backend=kind,
        num_vectors=int(index.sap_vectors.shape[0]),
        dim=index.dim,
        shards=getattr(index, "num_shards", 1),
        build_mode=str(data["build_mode"][0]),
        encrypt_seconds=encrypt_seconds,
        build_seconds=build_seconds,
        shard_timings=tuple(
            ShardBuildTiming(
                shard_id=shard_id,
                seconds=float(seconds),
                num_vectors=int(size),
            )
            for shard_id, (seconds, size) in enumerate(
                zip(shard_seconds, shard_sizes)
            )
        ),
    )


def _index_arrays(
    index: "EncryptedIndex | ShardedEncryptedIndex",
) -> dict[str, np.ndarray]:
    """The complete array payload :func:`save_index` writes.

    Factored out so :mod:`repro.core.journal` can serialize the same
    payload into a v4 base file, and so tests can digest an index's
    persisted state without touching disk.
    """
    if isinstance(index, ShardedEncryptedIndex):
        arrays = _common_arrays(index, _SHARDED_FORMAT_VERSION)
        arrays["num_shards"] = np.array([index.num_shards], dtype=np.int64)
        arrays["shard_strategy"] = np.array([index.strategy])
        arrays["shard_assignment"] = index.shard_assignment()
        for shard in index.shards:
            prefix = f"shard{shard.shard_id}_"
            arrays[prefix + "ids"] = shard.global_ids
            if shard.backend is not None:
                for key, value in shard.backend.state_arrays().items():
                    arrays[prefix + key] = value
        return arrays
    arrays = _common_arrays(index, _FORMAT_VERSION)
    if index.live_ids is not None:
        arrays["live_ids"] = index.live_ids
    arrays.update(index.backend.state_arrays())
    return arrays


def save_index(
    path: str | os.PathLike, index: "EncryptedIndex | ShardedEncryptedIndex"
) -> None:
    """Persist an index (server-side state, no keys).

    Monolithic indexes are written as format v2, sharded indexes as
    format v3 (shard manifest + per-shard backend payloads); see
    ``docs/FORMATS.md``.  For the journaled directory format (v4) use
    :class:`repro.core.journal.IndexJournal` instead.
    """
    np.savez(path, **_index_arrays(index))


def _load_sharded(
    data, kind: str, sap_vectors: np.ndarray, dce: DCEEncryptedDatabase
) -> ShardedEncryptedIndex:
    """Reassemble a :class:`ShardedEncryptedIndex` from a v3 payload."""
    num_shards = int(data["num_shards"][0])
    strategy = str(data["shard_strategy"][0])
    retired = frozenset(int(i) for i in data.get("retired", ()))
    shards = []
    for shard_id in range(num_shards):
        prefix = f"shard{shard_id}_"
        global_ids = np.asarray(data[prefix + "ids"], dtype=np.int64)
        if global_ids.size == 0:
            shards.append(Shard(shard_id, None, global_ids))
            continue
        state = {
            key[len(prefix):]: data[key]
            for key in data
            if key.startswith(prefix) and key != prefix + "ids"
        }
        backend = backend_from_state(kind, sap_vectors[global_ids], state)
        shards.append(Shard(shard_id, backend, global_ids))
    index = ShardedEncryptedIndex(
        sap_vectors, shards, dce, strategy=strategy, retired=retired,
        kind_hint=kind,
    )
    # The manifest's global assignment must agree with the per-shard id
    # maps the routing tables were rebuilt from — a mismatch means the
    # file was corrupted or hand-edited.
    if not np.array_equal(index.shard_assignment(), data["shard_assignment"]):
        raise CiphertextFormatError(
            "v3 shard_assignment disagrees with the per-shard id maps"
        )
    return index


def _index_from_mapping(
    data: "dict[str, np.ndarray]",
) -> "EncryptedIndex | ShardedEncryptedIndex":
    """Reassemble an index from a loaded v1/v2/v3 array payload.

    ``data`` is a plain mapping of the npz keys — the inverse of
    :func:`_index_arrays`; :mod:`repro.core.journal` uses it to decode
    v4 base files.
    """
    version = int(data["format_version"][0])
    if version not in _READABLE_VERSIONS:
        raise CiphertextFormatError(
            f"unsupported index format version {version}"
        )
    kind = str(data["backend_kind"][0]) if version >= 2 else "hnsw"
    dce = DCEEncryptedDatabase(
        data["dce_components"], int(data["dce_key_id"][0])
    )
    sap_vectors = data["sap_vectors"]
    if version >= 3:
        index = _load_sharded(data, kind, sap_vectors, dce)
    else:
        live_ids = (
            np.asarray(data["live_ids"], dtype=np.int64)
            if "live_ids" in data
            else None
        )
        retired = frozenset(int(i) for i in data.get("retired", ()))
        backend_vectors = (
            sap_vectors if live_ids is None else sap_vectors[live_ids]
        )
        backend = backend_from_state(kind, backend_vectors, data)
        index = EncryptedIndex(
            sap_vectors, backend, dce, live_ids=live_ids, retired=retired
        )
    for tombstone in data["tombstones"]:
        index._mark_deleted(int(tombstone))
    _load_build_report(data, kind, index)
    return index


def load_index(
    path: str | os.PathLike,
) -> "EncryptedIndex | ShardedEncryptedIndex":
    """Load an index saved by :func:`save_index` (format v1-v3) or a
    journaled v4 directory store (base + delta segments replayed)."""
    if os.path.isdir(path):
        # v4: a journal directory — delegate to the journal subsystem
        # (imported lazily; journal imports this module at top level).
        from repro.core.journal import IndexJournal

        return IndexJournal.open(path).load()
    with np.load(path) as data:
        return _index_from_mapping({key: data[key] for key in data.files})


def save_keys(path: str | os.PathLike, keys: SecretKeyBundle) -> None:
    """Persist a :class:`SecretKeyBundle` (owner/user-side secret state)."""
    dce = keys.dce_key
    np.savez(
        path,
        format_version=np.array([_FORMAT_VERSION], dtype=np.int64),
        dim=np.array([keys.dim], dtype=np.int64),
        dce_dim=np.array([dce.dim], dtype=np.int64),
        m1=dce.m1,
        m1_inv=dce.m1_inv,
        m2=dce.m2,
        m2_inv=dce.m2_inv,
        m_up=dce.m_up,
        m_down=dce.m_down,
        m3_inv=dce.m3_inv,
        pi1=dce.pi1.indices,
        pi2=dce.pi2.indices,
        r_values=np.array([dce.r1, dce.r2, dce.r3, dce.r4]),
        kv=np.stack([dce.kv1, dce.kv2, dce.kv3, dce.kv4]),
        dce_key_id=np.array([dce.key_id], dtype=np.int64),
        dcpe=np.array([keys.dcpe_key.scale, keys.dcpe_key.beta]),
        dcpe_key_id=np.array([keys.dcpe_key.key_id], dtype=np.int64),
    )


def load_keys(path: str | os.PathLike) -> SecretKeyBundle:
    """Load a :class:`SecretKeyBundle` saved by :func:`save_keys`."""
    with np.load(path) as data:
        version = int(data["format_version"][0])
        if version != _FORMAT_VERSION:
            raise CiphertextFormatError(f"unsupported key format version {version}")
        r_values = data["r_values"]
        kv = data["kv"]
        dce_key = DCEKey(
            dim=int(data["dce_dim"][0]),
            m1=data["m1"],
            m1_inv=data["m1_inv"],
            m2=data["m2"],
            m2_inv=data["m2_inv"],
            m_up=data["m_up"],
            m_down=data["m_down"],
            m3_inv=data["m3_inv"],
            pi1=Permutation(data["pi1"]),
            pi2=Permutation(data["pi2"]),
            r1=float(r_values[0]),
            r2=float(r_values[1]),
            r3=float(r_values[2]),
            r4=float(r_values[3]),
            kv1=kv[0],
            kv2=kv[1],
            kv3=kv[2],
            kv4=kv[3],
            key_id=int(data["dce_key_id"][0]),
        )
        dcpe_key = DCPEKey(
            scale=float(data["dcpe"][0]),
            beta=float(data["dcpe"][1]),
            key_id=int(data["dcpe_key_id"][0]),
        )
        return SecretKeyBundle(
            dim=int(data["dim"][0]), dce_key=dce_key, dcpe_key=dcpe_key
        )
