"""Slurm workload-manager substrate.

Implements the pieces of Slurm the paper relies on: the pending queue with
multifactor priorities, EASY backfill, job lifecycle management, the
node-resize protocol (Section III) and the reconfiguration policy plug-in
(Section IV, Algorithm 1).
"""

from repro.slurm.backfill import (
    BF_MAX_JOB_TEST,
    Reservation,
    compute_shadow,
    freed_at_end,
    plan_backfill,
)
from repro.slurm.controller import SlurmConfig, SlurmController
from repro.slurm.job import (
    Job,
    JobClass,
    JobState,
    TERMINAL_STATES,
    make_resizer,
)
from repro.slurm.priority import MultifactorConfig, MultifactorPriority
from repro.slurm.queue import PendingQueue, SchedStats
from repro.slurm.reconfig import PolicyConfig, PolicyView, ReconfigurationPolicy
from repro.slurm.resize import expand_protocol, shrink_protocol

__all__ = [
    "BF_MAX_JOB_TEST",
    "Job",
    "JobClass",
    "JobState",
    "MultifactorConfig",
    "MultifactorPriority",
    "PendingQueue",
    "PolicyConfig",
    "PolicyView",
    "ReconfigurationPolicy",
    "Reservation",
    "SchedStats",
    "SlurmConfig",
    "SlurmController",
    "TERMINAL_STATES",
    "compute_shadow",
    "expand_protocol",
    "freed_at_end",
    "make_resizer",
    "plan_backfill",
    "shrink_protocol",
]
