"""Section III step by step, through the controller calls the runtime makes.

:func:`repro.slurm.resize.expand_protocol` builds an expansion from four
stock Slurm operations (``sbatch`` a dependent resizer, ``scontrol
update`` it to 0 nodes, ``scancel`` it, ``scontrol update`` the parent),
and a shrink is one ``scontrol update``.  These tests make the same
:class:`SlurmController` calls one at a time and check each step's effect.
"""

import pytest

from repro.cluster import Machine
from repro.core import ResizeRequest
from repro.errors import SchedulerError
from repro.sim import Environment
from repro.slurm import Job, JobClass, JobState, SlurmController, make_resizer


def make_controller(nodes=16):
    env = Environment()
    machine = Machine(nodes)
    return env, machine, SlurmController(env, machine)


def malleable(nodes):
    return Job(
        name="flex",
        num_nodes=nodes,
        time_limit=1000.0,
        job_class=JobClass.MALLEABLE,
        resize_request=ResizeRequest(min_procs=1, max_procs=16),
    )


def test_expand_protocol_step_by_step():
    """Drive the Section III expansion steps one controller call at a time."""
    env, machine, ctl = make_controller()
    job_a = ctl.submit(malleable(4))
    env.run(until=0.1)
    assert job_a.is_running and job_a.num_nodes == 4

    # Step 1: submit job B with a dependency on A, requesting N_B nodes.
    job_b = ctl.submit(make_resizer(job_a, 4))
    env.run(until=0.2)
    assert job_b.is_running
    assert job_b.dependency == job_a.job_id
    assert job_b.priority_boost == float("inf")
    assert machine.used_count == 8

    # Step 2: update B to 0 nodes -> detached allocated set.
    detached = ctl.detach_all_nodes(job_b)
    assert len(detached) == 4
    assert all(machine.owner_of(i) is None for i in detached)

    # Step 3: cancel B.
    ctl.cancel_job(job_b)
    assert job_b.state is JobState.CANCELLED

    # Step 4: update A to N_A + N_B, attaching the detached set.
    ctl.grow_job(job_a, detached)
    assert job_a.num_nodes == 8
    assert set(detached) <= set(machine.nodes_of(job_a.job_id))
    assert machine.used_count == 8


def test_shrink_is_single_update():
    env, machine, ctl = make_controller()
    job = ctl.submit(malleable(8))
    env.run(until=0.1)
    released = ctl.shrink_job(job, 2)
    assert job.num_nodes == 2
    assert len(released) == 6
    assert len(machine.nodes_of(job.job_id)) == 2
    assert machine.free_count == 14


def test_update_time_limit():
    env, machine, ctl = make_controller()
    job = ctl.submit(malleable(4))
    ctl.update_time_limit(job, 123.0)
    assert job.time_limit == 123.0
    with pytest.raises(SchedulerError):
        ctl.update_time_limit(job, 0.0)


def test_squeue_and_running_views():
    env, machine, ctl = make_controller(nodes=4)
    a = ctl.submit(malleable(4))
    b = ctl.submit(malleable(4))
    env.run(until=0.1)
    assert a in ctl.running_jobs()
    assert b in ctl.pending_jobs()


def test_check_status_passthrough():
    env, machine, ctl = make_controller()
    job = ctl.submit(malleable(4))
    env.run(until=0.1)
    decision = ctl.check_status(job, job.resize_request)
    assert decision.target_procs == 16  # idle machine -> expand to max


class TestErrorPaths:
    """check_status / update_time_limit failure modes (not just happy paths)."""

    def test_check_status_unknown_job(self):
        env, machine, ctl = make_controller()
        stranger = malleable(4)
        stranger.job_id = 999  # never submitted here
        with pytest.raises(SchedulerError, match="not running"):
            ctl.check_status(stranger, stranger.resize_request)

    def test_check_status_pending_job_rejected(self):
        env, machine, ctl = make_controller(nodes=4)
        ctl.submit(malleable(4))
        queued = ctl.submit(malleable(4))
        env.run(until=0.1)
        assert queued.is_pending
        with pytest.raises(SchedulerError, match="not running"):
            ctl.check_status(queued, queued.resize_request)

    def test_check_status_finished_job_rejected(self):
        env, machine, ctl = make_controller()
        job = ctl.submit(malleable(4))
        env.run(until=0.1)
        ctl.finish_job(job, JobState.COMPLETED)
        with pytest.raises(SchedulerError, match="not running"):
            ctl.check_status(job, job.resize_request)

    def test_update_time_limit_nonpositive(self):
        env, machine, ctl = make_controller()
        job = ctl.submit(malleable(4))
        for bad in (0.0, -5.0):
            with pytest.raises(SchedulerError, match="positive"):
                ctl.update_time_limit(job, bad)

    def test_update_time_limit_terminal_job_rejected(self):
        env, machine, ctl = make_controller()
        job = ctl.submit(malleable(4))
        env.run(until=0.1)
        ctl.finish_job(job, JobState.COMPLETED)
        before = job.time_limit
        with pytest.raises(SchedulerError, match="completed"):
            ctl.update_time_limit(job, 777.0)
        assert job.time_limit == before

    def test_update_time_limit_cancelled_job_rejected(self):
        env, machine, ctl = make_controller()
        job = ctl.submit(malleable(4))
        ctl.cancel_job(job)
        with pytest.raises(SchedulerError, match="cancelled"):
            ctl.update_time_limit(job, 777.0)
