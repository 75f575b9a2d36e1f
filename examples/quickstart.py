#!/usr/bin/env python
"""Quickstart: a malleable job on a simulated Slurm cluster.

Runs a two-job workload on a 16-node cluster through a ``Session``: one
malleable Flexible-Sleep job and a rigid competitor that arrives 15 s
later.  It shows the DMR machinery in action: the malleable job expands
into idle nodes, then shrinks when the rigid job queues up.

Run:  python examples/quickstart.py
"""

from repro.api import Session
from repro.apps import flexible_sleep
from repro.cluster import ClusterConfig
from repro.metrics import EventKind
from repro.workload import JobSpec, WorkloadSpec


def main() -> None:
    # 1. The workload.  A malleable application: 6 steps of 30 s at 4
    #    nodes, perfectly scalable between 1 and 16 nodes (factor 2),
    #    1 GB of state.  A rigid job that needs half the machine arrives
    #    at 15 s.
    spec = WorkloadSpec(
        name="quickstart",
        jobs=[
            JobSpec(
                name="malleable-sim",
                submit_nodes=4,
                arrival_time=0.0,
                app_factory=lambda: flexible_sleep(
                    step_time=30.0, at_procs=4, steps=6, max_procs=16
                ),
                time_limit=400.0,
            ),
            JobSpec(
                name="rigid",
                submit_nodes=8,
                arrival_time=15.0,
                app_factory=lambda: flexible_sleep(
                    step_time=20.0, at_procs=8, steps=2
                ),
                flexible=False,
                time_limit=100.0,
            ),
        ],
    )

    # 2. Stand up the simulated system (machine + Slurm + Nanos++) and
    #    run the workload to completion.
    session = Session(cluster=ClusterConfig(num_nodes=16, name="quickstart"))
    result = session.run(spec)

    print("=== event trace ===")
    for event in result.trace.of_kind(
        EventKind.JOB_SUBMIT,
        EventKind.JOB_START,
        EventKind.RESIZE_EXPAND,
        EventKind.RESIZE_SHRINK,
        EventKind.JOB_END,
    ):
        details = ", ".join(f"{k}={v}" for k, v in event.data.items())
        print(f"t={event.time:8.1f}s  job {event.job_id}  {event.kind.value:15s} {details}")

    print("\n=== outcome ===")
    for job in result.jobs:
        print(
            f"{job.name}: waited {job.wait_time:.1f}s, ran {job.execution_time:.1f}s, "
            f"resizes: {[(round(t), a, b) for t, a, b in job.resizes]}"
        )

    # The malleable job grows into the idle nodes, then gives nodes back
    # once the rigid job has queued.
    malleable, rigid = result.jobs
    assert malleable.resizes and malleable.resizes[0][2] > 4, "no expansion"
    assert any(
        new < old and 15.0 <= t <= rigid.start_time
        for t, old, new in malleable.resizes
    ), "the malleable job did not shrink for the queued rigid job"


if __name__ == "__main__":
    main()
