"""Job descriptor and lifecycle state machine.

Follows the classification of Feitelson & Rudolph used by the paper
(Section II): *rigid*, *moldable*, *malleable* and *evolving*, collapsed
into *fixed* (constant process count) and *flexible* (reconfigurable
on-the-fly) categories.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.actions import ResizeRequest
from repro.errors import JobStateError


class JobState(enum.Enum):
    """Slurm-like job lifecycle states.

    Covers both the states the simulator reaches today and the states only
    a real Slurm can produce (preemption, suspension, QOS deadlines, node
    boot failures) so that the subprocess backend can map ``sacct`` output
    onto first-class members instead of collapsing them into FAILED.
    """

    PENDING = "pending"
    RUNNING = "running"
    COMPLETING = "completing"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"
    TIMEOUT = "timeout"
    #: Evicted by a higher-priority job or QOS preemption.
    PREEMPTED = "preempted"
    #: Paused by ``scontrol suspend``; resumable.
    SUSPENDED = "suspended"
    #: Killed because the QOS/reservation deadline passed.
    DEADLINE = "deadline"
    #: Allocated nodes failed to boot; the job never ran.
    BOOT_FAIL = "boot_fail"
    #: An allocated node died mid-run and the job was not requeued.
    NODE_FAIL = "node_fail"

    @classmethod
    def from_slurm(cls, text: str) -> "JobState":
        """Parse a Slurm state string (``squeue``/``sacct`` output).

        Handles the suffixed forms real Slurm emits ("CANCELLED by 1234"),
        and maps transient scheduler states onto the nearest lifecycle
        member (RESIZING is a running job mid-reconfiguration; REQUEUED
        jobs are back in the queue).
        """
        token = text.strip().split()[0].upper() if text.strip() else ""
        mapped = _SLURM_STATE_ALIASES.get(token)
        if mapped is not None:
            return mapped
        try:
            return cls[token]
        except KeyError:
            raise JobStateError(f"unknown Slurm job state {text!r}") from None


#: Slurm state strings that do not match a member name directly.
_SLURM_STATE_ALIASES = {
    "RESIZING": JobState.RUNNING,
    "REQUEUED": JobState.PENDING,
    "REQUEUE_FED": JobState.PENDING,
    "REQUEUE_HOLD": JobState.PENDING,
    "CONFIGURING": JobState.PENDING,
    "STAGE_OUT": JobState.COMPLETING,
    "SIGNALING": JobState.COMPLETING,
    "CANCELLED+": JobState.CANCELLED,
    "OUT_OF_MEMORY": JobState.FAILED,
    "REVOKED": JobState.CANCELLED,
}

#: Legal state transitions.
_TRANSITIONS = {
    JobState.PENDING: {
        JobState.RUNNING,
        JobState.CANCELLED,
        # Allocation never materialised / deadline hit while queued.
        JobState.BOOT_FAIL,
        JobState.DEADLINE,
    },
    JobState.RUNNING: {
        JobState.COMPLETING,
        JobState.COMPLETED,
        JobState.CANCELLED,
        JobState.FAILED,
        JobState.TIMEOUT,
        # Requeue-on-node-failure: back to the pending queue.
        JobState.PENDING,
        JobState.SUSPENDED,
        JobState.PREEMPTED,
        JobState.DEADLINE,
        JobState.NODE_FAIL,
    },
    JobState.SUSPENDED: {
        JobState.RUNNING,
        JobState.CANCELLED,
        JobState.FAILED,
        JobState.TIMEOUT,
        JobState.PREEMPTED,
        JobState.DEADLINE,
        JobState.NODE_FAIL,
    },
    JobState.COMPLETING: {JobState.COMPLETED},
    JobState.COMPLETED: set(),
    JobState.CANCELLED: set(),
    JobState.FAILED: set(),
    JobState.TIMEOUT: set(),
    JobState.PREEMPTED: set(),
    JobState.DEADLINE: set(),
    JobState.BOOT_FAIL: set(),
    JobState.NODE_FAIL: set(),
}

#: States from which a job will never run (again).
TERMINAL_STATES = frozenset(
    {
        JobState.COMPLETED,
        JobState.CANCELLED,
        JobState.FAILED,
        JobState.TIMEOUT,
        JobState.PREEMPTED,
        JobState.DEADLINE,
        JobState.BOOT_FAIL,
        JobState.NODE_FAIL,
    }
)


class JobClass(enum.Enum):
    """Feitelson & Rudolph job classification."""

    RIGID = "rigid"
    MOLDABLE = "moldable"
    MALLEABLE = "malleable"
    EVOLVING = "evolving"

    @property
    def is_flexible(self) -> bool:
        """Flexible = process count reconfigurable during execution."""
        return self in (JobClass.MALLEABLE, JobClass.EVOLVING)


@dataclass(slots=True)
class Job:
    """A schedulable (and possibly malleable) job."""

    name: str
    num_nodes: int
    time_limit: float
    job_class: JobClass = JobClass.RIGID
    #: DMR reconfiguration parameters; required for flexible jobs.
    resize_request: Optional[ResizeRequest] = None
    #: Opaque application payload (an AppModel for simulated executions).
    payload: Any = None
    #: Identifier; assigned by the controller at submission.
    job_id: int = -1
    state: JobState = JobState.PENDING
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: Static priority boost (resizer jobs and shrink beneficiaries get a
    #: very large one, per the paper's "maximum priority").
    priority_boost: float = 0.0
    #: True for the transient resizer jobs of the expand protocol.
    is_resizer: bool = False
    #: Flexible submission (the paper's future work): allow the scheduler
    #: to start this job below its submitted size, down to
    #: ``resize_request.min_procs``.  Combines with MALLEABLE for jobs
    #: that are both moldable at start and reconfigurable at runtime.
    moldable_start: bool = False
    #: Parent job (for resizer jobs: the job being expanded).
    parent_id: Optional[int] = None
    #: Dependency: job_id that must be running/complete before this starts.
    dependency: Optional[int] = None
    #: Nodes currently assigned (maintained by the controller).
    nodes: Tuple[int, ...] = ()
    #: Resize history: (time, old_size, new_size) triples.
    resizes: List[Tuple[float, int, int]] = field(default_factory=list)
    #: Node count the job was originally submitted with.
    submitted_nodes: int = field(default=-1)
    #: Walltime limit the job was submitted with.  Resizes rescale
    #: ``time_limit``; a requeue restores this original value so the
    #: fresh full-width incarnation is not scheduled against a limit
    #: anchored to a dead incarnation's elapsed time.
    submitted_time_limit: float = field(default=-1.0)
    #: How many times the job was requeued (node failures).
    requeues: int = 0
    #: Application progress captured by the job's last checkpoint write;
    #: a requeued job restarts from here when checkpointing is enabled.
    checkpoint_steps: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise JobStateError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.time_limit <= 0:
            raise JobStateError(f"time_limit must be positive, got {self.time_limit}")
        if self.submitted_nodes < 0:
            self.submitted_nodes = self.num_nodes
        if self.submitted_time_limit < 0:
            self.submitted_time_limit = self.time_limit
        if self.is_flexible and self.resize_request is None:
            raise JobStateError(f"flexible job {self.name!r} needs a resize_request")

    # -- classification -----------------------------------------------------
    @property
    def is_flexible(self) -> bool:
        return self.job_class.is_flexible

    # -- state machine --------------------------------------------------------
    def transition(self, new_state: JobState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.job_id} ({self.name}): illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def is_pending(self) -> bool:
        return self.state is JobState.PENDING

    @property
    def is_running(self) -> bool:
        return self.state in (JobState.RUNNING, JobState.COMPLETING)

    # -- bookkeeping ------------------------------------------------------------
    def record_resize(self, time: float, new_size: int) -> None:
        self.resizes.append((time, self.num_nodes, new_size))
        self.num_nodes = new_size

    @property
    def expected_end(self) -> float:
        """Backfill planning horizon: start + walltime limit."""
        if self.start_time is None:
            raise JobStateError(f"job {self.job_id} has not started")
        return self.start_time + self.time_limit

    # -- paper metrics ----------------------------------------------------------
    @property
    def wait_time(self) -> float:
        """Queue time: submission to start."""
        if self.submit_time is None or self.start_time is None:
            raise JobStateError(f"job {self.job_id} missing submit/start time")
        return self.start_time - self.submit_time

    @property
    def execution_time(self) -> float:
        """Run time: start to end."""
        if self.start_time is None or self.end_time is None:
            raise JobStateError(f"job {self.job_id} missing start/end time")
        return self.end_time - self.start_time

    def __repr__(self) -> str:
        return (
            f"<Job {self.job_id} {self.name!r} {self.state.value} "
            f"nodes={self.num_nodes}>"
        )


def make_resizer(parent: Job, extra_nodes: int, time_limit: float = 3600.0) -> Job:
    """Build the transient resizer job used by the expand protocol.

    Per Section V-B: it requests the node difference, depends on the
    original job, and carries maximum priority so the RMS decision is
    honoured quickly.
    """
    if extra_nodes < 1:
        raise JobStateError(f"resizer needs >= 1 extra node, got {extra_nodes}")
    return Job(
        name=f"{parent.name}-resizer",
        num_nodes=extra_nodes,
        time_limit=time_limit,
        job_class=JobClass.RIGID,
        is_resizer=True,
        parent_id=parent.job_id,
        dependency=parent.job_id,
        priority_boost=float("inf"),
    )
