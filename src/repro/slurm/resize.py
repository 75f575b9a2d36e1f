"""The job-resize protocol built from Slurm primitives (Section III).

Expanding job A by N_B nodes:

1. submit a *resizer job* B requesting N_B nodes, dependent on A, with
   maximum priority;
2. once B runs, update B to 0 nodes — its allocation detaches;
3. cancel B;
4. update A to N_A + N_B nodes, attaching the detached set.

If B does not start within a threshold, it is cancelled and the expansion
aborts (the RMS may have given the nodes to another job meanwhile — more
likely under asynchronous scheduling).

Shrinking job A is a single update; the *synchronized* part (waiting for
per-node ACKs so Slurm does not kill live processes) is modeled by the
runtime layer before it calls :func:`shrink_protocol`.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.metrics.trace import EventKind
from repro.sim.events import Event
from repro.slurm.controller import SlurmController
from repro.slurm.job import Job, make_resizer


def expand_protocol(
    controller: SlurmController,
    job: Job,
    target_nodes: int,
    timeout: Optional[float] = None,
) -> Generator[Event, object, Optional[Tuple[int, ...]]]:
    """Expand ``job`` to ``target_nodes``; returns the new node ids, or
    None when the action had to be aborted.

    This is a simulation-process generator: drive it with ``yield from``
    inside a process (the Nanos++ runtime model does).
    """
    env = controller.env
    extra = target_nodes - job.num_nodes
    if extra < 1:
        raise ValueError(
            f"expand target {target_nodes} does not exceed current {job.num_nodes}"
        )
    if timeout is None:
        timeout = controller.config.resizer_timeout

    resizer = make_resizer(job, extra)
    controller.submit(resizer)
    started = controller.started_event(resizer)
    deadline = env.timeout(timeout)
    yield env.any_of([started, deadline])

    if started.triggered and resizer.job_id in controller.running:
        detached = controller.detach_all_nodes(resizer)
        controller.cancel_job(resizer)
        if controller.machine.all_free(detached):
            controller.grow_job(job, detached)
            return controller.machine.nodes_of(job.job_id)
        # An operator drained one of the resizer's nodes, so the release
        # parked it instead of freeing it: abort.
    elif not resizer.is_terminal:
        # The scheduler gave the nodes to someone else — or a node failure
        # killed the resizer between its start and this resumption: abort.
        controller.cancel_job(resizer)
    controller.trace.record(
        env.now,
        EventKind.RESIZE_ABORT,
        job.job_id,
        wanted=target_nodes,
        resizer=resizer.job_id,
    )
    return None


def shrink_protocol(
    controller: SlurmController,
    job: Job,
    target_nodes: int,
    victims: Optional[Tuple[int, ...]] = None,
) -> Tuple[int, ...]:
    """Shrink ``job`` to ``target_nodes``; returns the released node ids.

    Callers must have quiesced the outgoing ranks first (offload tasks
    complete, ACKs gathered) — the runtime layer does this.  ``victims``
    pins the released nodes (forced shrinks evacuate the DOWN ones).
    """
    return controller.shrink_job(job, target_nodes, victims=victims)
