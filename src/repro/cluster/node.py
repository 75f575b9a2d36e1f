"""Compute-node model.

Nodes mirror the Marenostrum III configuration used in the paper: two
8-core Intel Xeon E5-2670 sockets (16 cores) and 128 GB of RAM per node.
The simulator allocates whole nodes to jobs (the paper's malleability is
expressed in nodes, one MPI rank per node, intra-node parallelism handled
by OpenMP/OmpSs inside the rank).

Besides the allocation lifecycle, nodes carry a *health* dimension (the
Slurm ``UP``/``DRAIN``/``DOWN`` vocabulary): a failed node drops out of
the allocatable pool, a draining node finishes its current work but takes
no new jobs, and a degraded node runs slower than its peers
(``perf_factor``).  The fault-injection subsystem (:mod:`repro.faults`)
drives these transitions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ClusterError


class NodeState(enum.Enum):
    """Slurm-like node lifecycle states."""

    IDLE = "idle"
    ALLOCATED = "allocated"
    DRAINING = "draining"  # marked for release during a shrink, or admin drain
    DOWN = "down"


#: Coarse Slurm-style health buckets derived from :class:`NodeState`
#: (mirrors the DOWN/DRAIN vocabulary of operational Slurm tooling).
class NodeHealth(enum.Enum):
    UP = "up"
    DRAIN = "drain"
    DOWN = "down"


@dataclass
class Node:
    """A single compute node."""

    index: int
    cores: int = 16
    memory_gb: float = 128.0
    state: NodeState = NodeState.IDLE
    #: Identifier of the owning job, when allocated.
    job_id: Optional[int] = None
    #: Host name, Marenostrum-style.
    hostname: str = field(default="")
    #: Performance multiplier on work executed on this node (1.0 = nominal,
    #: 2.0 = everything takes twice as long).  Transient slowdown faults
    #: raise it; a bulk-synchronous job runs at the pace of its slowest node.
    perf_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"node index must be >= 0, got {self.index}")
        if self.cores <= 0:
            raise ValueError(f"cores must be positive, got {self.cores}")
        if not self.hostname:
            self.hostname = f"mn{self.index:04d}"

    @property
    def health(self) -> NodeHealth:
        """The node's Slurm-style health bucket."""
        if self.state is NodeState.DOWN:
            return NodeHealth.DOWN
        if self.state is NodeState.DRAINING:
            return NodeHealth.DRAIN
        return NodeHealth.UP

    def assign(self, job_id: int) -> None:
        if self.state is not NodeState.IDLE:
            raise ValueError(f"{self.hostname} is {self.state.value}, cannot assign")
        self.state = NodeState.ALLOCATED
        self.job_id = job_id

    def drain(self) -> None:
        if self.state is not NodeState.ALLOCATED:
            raise ValueError(f"{self.hostname} is {self.state.value}, cannot drain")
        self.state = NodeState.DRAINING

    def free(self) -> None:
        if self.state is NodeState.DOWN:
            raise ValueError(f"{self.hostname} is down")
        self.state = NodeState.IDLE
        self.job_id = None

    # -- health transitions (driven by the fault layer) -------------------
    def fail(self) -> None:
        """Hard failure: the node goes DOWN in place.

        An allocated node keeps its ``job_id`` — the owning job still
        *holds* the dying node until the controller reacts (requeue for
        rigid jobs, forced shrink for flexible ones); the machine's
        release path knows not to return a DOWN node to the free pool.
        """
        if self.state is NodeState.DOWN:
            raise ClusterError(f"{self.hostname} is already down")
        self.state = NodeState.DOWN
        self.perf_factor = 1.0

    def recover(self) -> None:
        """Repair a DOWN node back to IDLE (it must not be job-held)."""
        if self.state is not NodeState.DOWN:
            raise ClusterError(f"{self.hostname} is {self.state.value}, not down")
        if self.job_id is not None:
            raise ClusterError(
                f"{self.hostname} is still held by job {self.job_id}"
            )
        self.state = NodeState.IDLE
