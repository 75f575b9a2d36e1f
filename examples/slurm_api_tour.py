#!/usr/bin/env python
"""Tour of the Slurm resize protocol, one controller call at a time.

Walks through Section III of the paper literally, making the same
``SlurmController`` calls that ``repro.slurm.expand_protocol`` makes:
expanding job A by submitting a dependent resizer job B, updating B to
zero nodes, cancelling it, and updating A with the detached node set —
then shrinking A back with a single update.  Each step asserts its
effect.  Ends with an sacct-style accounting listing of the jobs.

Run:  python examples/slurm_api_tour.py
"""

from repro.cluster import Machine
from repro.core import ResizeAction, ResizeRequest
from repro.metrics import format_table
from repro.sim import Environment
from repro.slurm import Job, JobClass, JobState, SlurmController, make_resizer


def main() -> None:
    env = Environment()
    machine = Machine(16)
    controller = SlurmController(env, machine)

    job_a = controller.submit(
        Job(
            name="job-A",
            num_nodes=4,
            time_limit=1000.0,
            job_class=JobClass.MALLEABLE,
            resize_request=ResizeRequest(min_procs=1, max_procs=16),
        )
    )
    env.run(until=0.1)
    assert job_a.is_running
    print(f"job A running on nodes {machine.nodes_of(job_a.job_id)}")

    print("\n-- expanding A by 4 nodes (Section III, steps 1-4) --")
    job_b = controller.submit(make_resizer(job_a, 4))    # step 1
    env.run(until=0.2)
    assert job_b.is_running and job_b.dependency == job_a.job_id
    print(f"1. resizer B submitted and allocated: {machine.nodes_of(job_b.job_id)}")

    detached = controller.detach_all_nodes(job_b)        # step 2
    assert len(detached) == 4 and machine.all_free(detached)
    print(f"2. B updated to 0 nodes; detached node set: {detached}")

    controller.cancel_job(job_b)                         # step 3
    assert job_b.state is JobState.CANCELLED
    print(f"3. B cancelled (state: {job_b.state.value})")

    controller.grow_job(job_a, detached)                 # step 4
    assert machine.nodes_of(job_a.job_id) == tuple(range(8))
    print(f"4. A updated to {job_a.num_nodes} nodes: "
          f"{machine.nodes_of(job_a.job_id)}")

    print("\n-- shrinking A back to 2 nodes (single update) --")
    released = controller.shrink_job(job_a, 2)
    assert job_a.num_nodes == 2 and machine.free_count == 14
    print(f"A now on {machine.nodes_of(job_a.job_id)}, released {released}; "
          f"resize history: {[(round(t, 1), o, n) for t, o, n in job_a.resizes]}")

    print("\n-- asking the reconfiguration plug-in (Algorithm 1) --")
    decision = controller.check_status(job_a, job_a.resize_request)
    assert decision.action is ResizeAction.EXPAND and decision.target_procs == 16
    print(f"empty queue, 14 free nodes -> {decision.action.value} "
          f"to {decision.target_procs} ({decision.reason.value})")

    controller.finish_job(job_a)
    env.run()
    print()
    print(format_table(
        ["jobid", "name", "class", "state", "submit", "start", "end",
         "nodes", "resizes"],
        [
            [job.job_id, job.name, job.job_class.value, job.state.value,
             job.submit_time, job.start_time, job.end_time,
             f"{job.submitted_nodes}->{job.num_nodes}", len(job.resizes)]
            for job in (job_a, job_b)
        ],
        title="sacct",
    ))


if __name__ == "__main__":
    main()
