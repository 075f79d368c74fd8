"""Cost accounting: network model and per-query cost reports.

The paper's headline result — up to 3 orders of magnitude speedup over
RS-SANN / PACM-ANN / PRI-ANN — comes mostly from *where* work happens:
our scheme answers queries entirely server-side with two tiny messages,
while the baselines ship candidate sets or run multi-round PIR walks
through the client.  To reproduce those comparisons honestly on a single
machine we measure all compute for real and convert communication into
latency with an explicit, configurable network model.

``NetworkModel(rtt_seconds, bandwidth_bytes_per_second)`` charges
``rounds * rtt + bytes / bandwidth`` — the standard first-order WAN model.
The defaults (20 ms RTT, 100 Mbit/s) describe the paper's cloud-to-user
setting; benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ParameterError

__all__ = ["NetworkModel", "CostReport", "SetupCost"]


@dataclass(frozen=True)
class SetupCost:
    """One-time owner-side setup cost, split the way Figure 9 needs it.

    ``DataOwner.build_index`` both encrypts the database and constructs
    the filter structures; a Fig-9-style cost attribution must charge
    the two to different columns (encryption is cryptographic work the
    owner always pays; construction depends on the filter backend and
    shard count).  The split comes straight from the index's
    :class:`~repro.core.build.BuildReport` (:meth:`from_build_report`).

    Attributes
    ----------
    encrypt_seconds:
        DCPE + DCE database-encryption wall clock.
    build_seconds:
        Filter-structure construction wall clock.
    """

    encrypt_seconds: float = 0.0
    build_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.encrypt_seconds < 0 or self.build_seconds < 0:
            raise ParameterError("setup seconds must be non-negative")

    @classmethod
    def from_build_report(cls, report) -> "SetupCost":
        """The split recorded by the construction pipeline."""
        return cls(
            encrypt_seconds=report.encrypt_seconds,
            build_seconds=report.build_seconds,
        )

    @property
    def total_seconds(self) -> float:
        """End-to-end setup wall clock."""
        return self.encrypt_seconds + self.build_seconds

    def amortized_seconds(self, num_queries: int) -> float:
        """Per-query setup share over a workload of ``num_queries``."""
        if num_queries < 1:
            raise ParameterError(f"num_queries must be >= 1, got {num_queries}")
        return self.total_seconds / num_queries


@dataclass(frozen=True)
class NetworkModel:
    """First-order latency model for user<->server communication.

    Attributes
    ----------
    rtt_seconds:
        Round-trip time charged per protocol round.
    bandwidth_bytes_per_second:
        Link bandwidth for payload transfer (both directions pooled).
    """

    rtt_seconds: float = 0.020
    bandwidth_bytes_per_second: float = 12_500_000.0  # 100 Mbit/s

    def __post_init__(self) -> None:
        if self.rtt_seconds < 0:
            raise ParameterError(f"rtt must be non-negative, got {self.rtt_seconds}")
        if self.bandwidth_bytes_per_second <= 0:
            raise ParameterError(
                f"bandwidth must be positive, got {self.bandwidth_bytes_per_second}"
            )

    def latency(self, total_bytes: int, rounds: int) -> float:
        """Seconds of network latency for a transfer."""
        if total_bytes < 0 or rounds < 0:
            raise ParameterError("bytes and rounds must be non-negative")
        return rounds * self.rtt_seconds + total_bytes / self.bandwidth_bytes_per_second

    @classmethod
    def localhost(cls) -> "NetworkModel":
        """A near-zero-cost network, for ablating communication effects."""
        return cls(rtt_seconds=1e-6, bandwidth_bytes_per_second=1e12)


@dataclass
class CostReport:
    """Full per-query cost split for any PP-ANNS method.

    Mirrors the three components of Section V-C: server-side compute,
    user-side compute and communication.  The evaluation harness fills
    compute fields from wall-clock measurement and communication from the
    protocol's byte/round counts via a :class:`NetworkModel`.
    """

    method: str
    server_seconds: float = 0.0
    user_seconds: float = 0.0
    upload_bytes: int = 0
    download_bytes: int = 0
    rounds: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    def network_seconds(self, model: NetworkModel) -> float:
        """Modelled network latency for this query."""
        return model.latency(self.upload_bytes + self.download_bytes, self.rounds)

    def total_seconds(self, model: NetworkModel) -> float:
        """End-to-end latency: server + user + network."""
        return self.server_seconds + self.user_seconds + self.network_seconds(model)

    def merge(self, other: "CostReport") -> None:
        """Accumulate another query's costs (for averaging)."""
        self.server_seconds += other.server_seconds
        self.user_seconds += other.user_seconds
        self.upload_bytes += other.upload_bytes
        self.download_bytes += other.download_bytes
        self.rounds += other.rounds
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value

    def scaled(self, factor: float) -> "CostReport":
        """A copy with every additive field multiplied by ``factor``."""
        return CostReport(
            method=self.method,
            server_seconds=self.server_seconds * factor,
            user_seconds=self.user_seconds * factor,
            upload_bytes=int(self.upload_bytes * factor),
            download_bytes=int(self.download_bytes * factor),
            rounds=int(self.rounds * factor),
            extra={key: value * factor for key, value in self.extra.items()},
        )
