"""The checkpoint/restart (C/R) reconfiguration baseline (Fig. 1).

The paper motivates the DMR API by comparing it against reconfiguring a
job through checkpointing: save the application state to the shared
filesystem, terminate, resubmit at the new size, reload the state.  The
"spawning" phase of C/R is 30-80x more expensive than DMR's runtime data
redistribution because of the disk round-trip and the full job relaunch.

Both cost models below share the cluster's performance models and the
runtime's reconfiguration costs (:mod:`repro.runtime.costs`), so the
comparison isolates exactly the mechanism difference:

* :class:`CheckpointRestart` — write(all ranks) + cancel/requeue +
  job relaunch + read(new ranks), the relaunch and read being what a
  requeued job pays in the runtime;
* :class:`DMRReconfiguration` — resize protocol RPC + ``MPI_Comm_spawn``
  + network redistribution (Listing 3 plans) + shrink ACKs, the last
  three being what the runtime charges at a resize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cluster.configs import ClusterConfig
from repro.errors import CheckpointError
from repro.runtime.costs import redistribution_time, relaunch_time, shrink_ack_time
from repro.runtime.redistribution import plan_for_resize

#: Cancel + resubmit + scheduler dispatch of the restarted job.  Slurm
#: requeue and re-dispatch is tens of seconds even on an idle system.
REQUEUE_LATENCY = 25.0
#: The resize RPC round trip between the runtime and the RMS.
RMS_NEGOTIATION = 0.1


@dataclass(frozen=True)
class ReconfigurationCost:
    """Per-phase breakdown of one reconfiguration."""

    mechanism: str
    old_procs: int
    new_procs: int
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def __getitem__(self, phase: str) -> float:
        return self.phases[phase]


def _check(state_bytes: float, old: int, new: int) -> None:
    if old < 1 or new < 1:
        raise CheckpointError(f"process counts must be >= 1: {old} -> {new}")
    if state_bytes < 0:
        raise CheckpointError(f"negative state size {state_bytes}")


class CheckpointRestart:
    """Cost model of checkpoint-reconfigure-restart."""

    def __init__(self, cluster: ClusterConfig) -> None:
        self.cluster = cluster

    def reconfigure(self, state_bytes: float, old: int, new: int) -> ReconfigurationCost:
        """Cost of resizing ``old`` -> ``new`` processes via C/R."""
        _check(state_bytes, old, new)
        fs = self.cluster.storage
        phases = {
            "checkpoint_write": fs.write_time(state_bytes, nclients=old),
            "requeue": REQUEUE_LATENCY,
            "relaunch": relaunch_time(new),
            "checkpoint_read": fs.read_time(state_bytes, nclients=new),
        }
        return ReconfigurationCost("checkpoint-restart", old, new, phases)


class DMRReconfiguration:
    """Cost model of the DMR API's runtime reconfiguration.

    The spawn, redistribution and ACK phases are what a
    :class:`~repro.runtime.nanos.NanosRuntime` resize charges on an
    undegraded network; the RMS negotiation is Fig. 1's own.
    """

    def __init__(self, cluster: ClusterConfig) -> None:
        self.cluster = cluster

    def reconfigure(self, state_bytes: float, old: int, new: int) -> ReconfigurationCost:
        """Cost of resizing ``old`` -> ``new`` processes via the DMR API."""
        _check(state_bytes, old, new)
        plan = plan_for_resize(old, new, state_bytes)
        phases = {
            "rms_negotiation": RMS_NEGOTIATION,
            "spawn": self.cluster.spawn.spawn_time(new),
            "redistribution": redistribution_time(self.cluster.network, plan),
        }
        if new < old:
            # Synchronized shrink: releasing nodes ACK to the management
            # node before Slurm reclaims them (Section V-B2).
            phases["shrink_acks"] = shrink_ack_time(old - new)
        return ReconfigurationCost("dmr", old, new, phases)


def spawning_factor(
    cr: ReconfigurationCost, dmr: ReconfigurationCost
) -> float:
    """The Fig. 1 bar label: how much costlier C/R spawning is vs DMR."""
    if dmr.total <= 0:
        raise CheckpointError("DMR cost must be positive")
    return cr.total / dmr.total
