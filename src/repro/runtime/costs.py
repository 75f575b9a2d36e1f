"""What each phase of one reconfiguration costs, in virtual seconds.

:class:`~repro.runtime.nanos.NanosRuntime` yields these times in every
simulation, and :mod:`repro.checkpoint.cr` tabulates the same formulas
for Fig. 1, so the comparison prices exactly what the runtime charges.
``MPI_Comm_spawn`` and checkpoint I/O have their own owners,
:class:`~repro.cluster.network.SpawnModel` and
:class:`~repro.cluster.storage.SharedFilesystem`.
"""

from __future__ import annotations

from repro.cluster.network import NetworkModel
from repro.runtime.redistribution import RedistributionPlan

#: Full-job relaunch (srun/prolog/daemon setup, far heavier than an
#: in-job ``MPI_Comm_spawn``): a fixed part plus one per process.
RELAUNCH_BASE = 2.0
RELAUNCH_PER_PROCESS = 0.5
#: Gathering shrink ACKs at the management node (the synchronized
#: workflow of Section V-B2): a fixed part plus one per released node.
ACK_BASE = 0.05
ACK_PER_NODE = 0.01


def relaunch_time(nprocs: int) -> float:
    """Relaunching a job of ``nprocs`` processes from scratch."""
    return RELAUNCH_BASE + RELAUNCH_PER_PROCESS * nprocs


def shrink_ack_time(released: int) -> float:
    """Collecting the ACKs of ``released`` outgoing nodes."""
    return ACK_BASE + ACK_PER_NODE * released


def redistribution_time(network: NetworkModel, plan: RedistributionPlan) -> float:
    """The network stage of a Listing 3 plan on an undegraded fabric."""
    return network.redistribution_time(
        plan.bytes_out, plan.bytes_in, messages=max(1, plan.message_count)
    )
