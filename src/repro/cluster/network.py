"""Interconnect performance model.

A Hockney (latency/bandwidth, "alpha-beta") model of the FDR10 InfiniBand
fabric of Marenostrum III.  The redistribution planner produces per-rank
send/receive byte counts; this model converts them into elapsed time under
the assumption that distinct node pairs transfer concurrently and each
node's NIC is the serialization point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

# FDR10 InfiniBand: ~40 Gb/s signalling, ~4.6 GB/s usable point-to-point.
FDR10_BANDWIDTH = 4.6e9  # bytes/second
FDR10_LATENCY = 1.9e-6  # seconds, MPI-level small-message latency

GiB = 1024.0**3
MiB = 1024.0**2


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta cost model of the cluster interconnect."""

    latency: float = FDR10_LATENCY
    bandwidth: float = FDR10_BANDWIDTH
    #: Fabric-level aggregate ceiling (bisection bandwidth); caps the sum of
    #: concurrent flows during an all-to-all-style redistribution.
    bisection_bandwidth: float = 64 * FDR10_BANDWIDTH

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0 or self.bisection_bandwidth <= 0:
            raise ValueError("latency must be >= 0 and bandwidths positive")

    def redistribution_time(
        self,
        bytes_out: Mapping[int, float],
        bytes_in: Mapping[int, float],
        messages: int = 1,
    ) -> float:
        """Elapsed time of a data redistribution.

        ``bytes_out[r]`` / ``bytes_in[r]`` give the bytes rank ``r`` sends /
        receives.  Per-rank NIC serialization makes the slowest rank the
        critical path; the fabric's bisection bandwidth bounds the total.
        """
        if not bytes_out and not bytes_in:
            return 0.0
        per_rank = {}
        for rank, nbytes in bytes_out.items():
            per_rank[rank] = per_rank.get(rank, 0.0) + float(nbytes)
        for rank, nbytes in bytes_in.items():
            per_rank[rank] = per_rank.get(rank, 0.0) + float(nbytes)
        slowest = max(per_rank.values(), default=0.0)
        total = sum(bytes_out.values())
        nic_time = slowest / self.bandwidth
        fabric_time = total / self.bisection_bandwidth
        return self.latency * messages + max(nic_time, fabric_time)


@dataclass(frozen=True)
class SpawnModel:
    """Cost model for ``MPI_Comm_spawn`` process creation.

    The DMR measurements in the paper show spawn cost growing with the
    number of created processes (launch + PMI wire-up); the C/R baseline's
    much larger "spawning" bar additionally pays the disk round-trip, which
    lives in :mod:`repro.checkpoint`.
    """

    base: float = 0.6  # daemon handshake, communicator setup
    per_process: float = 0.008  # per-rank launch cost

    def spawn_time(self, nprocs: int) -> float:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        return self.base + self.per_process * nprocs
