"""The index-construction pipeline: reproducible and instrumented.

Three pieces:

* **Per-shard builds** — :func:`build_shard_backends` constructs one
  filter backend per shard, one after another on the calling thread.
  Sequential on purpose: graph construction is GIL-bound Python, so
  shard builds overlapped on threads run 2-3x *slower* than this loop,
  and the kernel-bound IVF build gains under 1.1x (measured; see the
  defaults table in README).
* **Reproducibility by construction** — each shard builds from its own
  child generator derived via ``np.random.SeedSequence.spawn``
  (:func:`spawn_shard_rngs`), never from a generator shared across
  shards.  A shard's build is then a pure function of its slice and its
  child seed, independent of what the other shards draw (the
  brute-force backend is additionally bit-identical regardless of seed,
  having no randomness at all).
* **Instrumentation** — :class:`BuildReport` records the owner-side cost
  split (``encrypt_seconds`` vs ``build_seconds``) plus per-shard
  :class:`ShardBuildTiming` rows; it rides on the index object, is
  persisted with it (optional metadata keys, ``docs/FORMATS.md``), and
  surfaces through ``repro build --json``.

The ``build_mode`` knob (:data:`BUILD_MODES`, from
:mod:`repro.hnsw.graph`) stops at :class:`~repro.core.roles.DataOwner`,
which validates it and records it in the build report: both values
would run the same HNSW insert loop on the empty graph a build starts
from, so nothing below the owner takes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.backends import build_backend
from repro.core.errors import ParameterError
from repro.hnsw.graph import BUILD_MODES

__all__ = [
    "BUILD_MODES",
    "ShardBuildTiming",
    "BuildReport",
    "spawn_shard_rngs",
    "build_shard_backends",
]


@dataclass(frozen=True)
class ShardBuildTiming:
    """Wall-clock accounting of one shard's backend construction.

    Attributes
    ----------
    shard_id:
        Position of the shard in the index's shard list.
    seconds:
        Wall clock of the shard's backend build (0.0 for empty shards,
        whose backend is built lazily on first insert).
    num_vectors:
        Vectors the shard owns.
    """

    shard_id: int
    seconds: float
    num_vectors: int


@dataclass
class BuildReport:
    """The owner-side cost split of one index build.

    ``encrypt_seconds`` (DCPE + DCE database encryption) and
    ``build_seconds`` (filter-structure construction) are kept separate
    so cost attributions in the style of the paper's Figure 9 can charge
    encryption and indexing to the right column — the seed lumped both
    into one number.  Mutable because the encryption split is filled in
    by :meth:`repro.core.roles.DataOwner.build_index` after the shard
    builder produced the construction half.

    Attributes
    ----------
    backend:
        Filter-backend kind that was built.
    num_vectors / dim:
        Shape of the indexed database.
    shards:
        Shard count (1 for a monolithic index).
    build_mode:
        The build mode the owner was configured with (one of
        :data:`BUILD_MODES`); recorded, not a construction path.
    encrypt_seconds:
        Wall clock of database encryption (0.0 when the index was built
        directly from ciphertexts).
    build_seconds:
        Wall clock of filter-structure construction.
    shard_timings:
        Per-shard :class:`ShardBuildTiming` rows (empty for monolithic).
    """

    backend: str
    num_vectors: int
    dim: int
    shards: int = 1
    build_mode: str = "sequential"
    encrypt_seconds: float = 0.0
    build_seconds: float = 0.0
    shard_timings: tuple[ShardBuildTiming, ...] = field(default_factory=tuple)

    @property
    def total_seconds(self) -> float:
        """End-to-end owner-side build wall clock."""
        return self.encrypt_seconds + self.build_seconds

    def as_dict(self) -> dict:
        """JSON-ready form (used by ``repro build --json``)."""
        return {
            "backend": self.backend,
            "num_vectors": self.num_vectors,
            "dim": self.dim,
            "shards": self.shards,
            "build_mode": self.build_mode,
            "encrypt_seconds": self.encrypt_seconds,
            "build_seconds": self.build_seconds,
            "total_seconds": self.total_seconds,
            "shard_timings": [
                {
                    "shard_id": timing.shard_id,
                    "seconds": timing.seconds,
                    "num_vectors": timing.num_vectors,
                }
                for timing in self.shard_timings
            ],
        }


def spawn_shard_rngs(
    rng: np.random.Generator | None, count: int
) -> list[np.random.Generator]:
    """``count`` independent child generators via ``SeedSequence.spawn``.

    The children are a deterministic function of the parent's seed
    sequence and its spawn counter: the same freshly seeded parent
    always yields the same children (so builds are reproducible), while
    successive calls on one parent yield fresh, non-overlapping streams
    (so two builds from one owner differ, as they did when shards
    consumed the shared generator sequentially).  The parent's own
    random stream is never advanced.
    """
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    if rng is None:
        rng = np.random.default_rng()
    try:
        return list(rng.spawn(count))
    except AttributeError:  # numpy < 1.25: spawn via the seed sequence
        seed_seq = rng.bit_generator.seed_seq
        return [np.random.default_rng(child) for child in seed_seq.spawn(count)]


def build_shard_backends(
    kind: str,
    sap_vectors: np.ndarray,
    owned: "list[np.ndarray]",
    rng: np.random.Generator | None = None,
    params=None,
):
    """Build one filter backend per shard, reproducibly.

    Parameters
    ----------
    kind:
        Filter-backend kind to build inside every shard.
    sap_vectors:
        The global ``(n, d)`` DCPE ciphertext matrix.
    owned:
        One int64 id array per shard: the global ids it owns, in local
        id order.  Empty arrays produce ``None`` backends (built lazily
        on first insert, as before).
    rng:
        Parent randomness; every shard receives its own child generator
        (:func:`spawn_shard_rngs`).
    params:
        Backend construction parameters, shared by every shard.

    Returns ``(backends, timings)``: the per-shard backend list (``None``
    entries for empty shards) and a tuple of :class:`ShardBuildTiming`.
    """
    backends = []
    timings = []
    for shard_id, (ids, child) in enumerate(
        zip(owned, spawn_shard_rngs(rng, len(owned)))
    ):
        if not ids.size:
            # Empty shards build lazily on first insert — no work here.
            backends.append(None)
            timings.append(ShardBuildTiming(shard_id, 0.0, 0))
            continue
        start = time.perf_counter()
        backends.append(build_backend(kind, sap_vectors[ids], rng=child, params=params))
        timings.append(
            ShardBuildTiming(
                shard_id=shard_id,
                seconds=time.perf_counter() - start,
                num_vectors=int(ids.size),
            )
        )
    return backends, tuple(timings)
