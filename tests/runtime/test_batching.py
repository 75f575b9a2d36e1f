"""Iteration batching must be an exact optimization.

The runtime coalesces iterations between reconfiguring points into one
timeout (essential for 10000-iteration CG jobs).  These tests prove the
coalescing is timing-transparent: a run with batching disabled produces
identical completion times, resize histories and decisions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import flexible_sleep
from repro.cluster import ClusterConfig
from repro.metrics import EventKind
from repro.runtime import RuntimeConfig, install_runtime_launcher
from repro.runtime.nanos import NanosRuntime
from repro.sim import Environment
from repro.slurm import Job, JobClass, SlurmController


def run_workload(n_jobs, sched_period, steps, step_time, batching, seed_sizes):
    env = Environment()
    cluster = ClusterConfig(num_nodes=20)
    machine = cluster.build_machine()
    ctl = SlurmController(env, machine)
    install_runtime_launcher(ctl, cluster)

    if not batching:
        # Force one-iteration batches (the semantically obvious loop).
        original = NanosRuntime._batch_steps
        NanosRuntime._batch_steps = lambda self, slowdown: (
            1 if (self.job.is_flexible and self.app.resize is not None)
            else self.app.remaining_steps
        )
    try:
        jobs = []
        for i, size in enumerate(seed_sizes[:n_jobs]):
            app = flexible_sleep(
                step_time=step_time,
                at_procs=size,
                steps=steps,
                sched_period=sched_period,
            )
            jobs.append(
                ctl.submit(
                    Job(
                        name=f"j{i}",
                        num_nodes=size,
                        time_limit=1e9,
                        job_class=JobClass.MALLEABLE,
                        resize_request=app.resize,
                        payload=app,
                    )
                )
            )
        env.run()
    finally:
        if not batching:
            NanosRuntime._batch_steps = original
    return jobs, ctl.trace


SIZES = (4, 7, 2, 10, 3, 5)


@pytest.mark.parametrize("sched_period", [0.0, 5.0, 12.0, 60.0])
def test_batched_and_stepwise_runs_identical(sched_period):
    a_jobs, a_trace = run_workload(4, sched_period, steps=20, step_time=3.0,
                                   batching=True, seed_sizes=SIZES)
    b_jobs, b_trace = run_workload(4, sched_period, steps=20, step_time=3.0,
                                   batching=False, seed_sizes=SIZES)
    for ja, jb in zip(a_jobs, b_jobs):
        assert ja.end_time == pytest.approx(jb.end_time, abs=1e-9)
        assert ja.resizes == pytest.approx(jb.resizes)
    # Same resize decisions in the same order.
    ka = [(e.time, e["action"]) for e in a_trace.of_kind(EventKind.RESIZE_DECISION)]
    kb = [(e.time, e["action"]) for e in b_trace.of_kind(EventKind.RESIZE_DECISION)]
    assert ka == pytest.approx(kb)


def test_batching_reduces_event_count():
    """With an armed inhibitor, batching must skip per-step DMR checks."""
    _, batched = run_workload(2, 30.0, steps=50, step_time=1.0,
                              batching=True, seed_sizes=SIZES)
    _, stepwise = run_workload(2, 30.0, steps=50, step_time=1.0,
                               batching=False, seed_sizes=SIZES)
    # Identical *serviced* checks...
    assert len(batched.of_kind(EventKind.DMR_CHECK)) == len(
        stepwise.of_kind(EventKind.DMR_CHECK)
    )


@given(
    period=st.sampled_from([0.0, 2.0, 7.5, 33.0]),
    steps=st.integers(min_value=2, max_value=15),
    step_time=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=12, deadline=None)
def test_property_batching_transparent(period, steps, step_time):
    a_jobs, _ = run_workload(3, period, steps, step_time, True, SIZES)
    b_jobs, _ = run_workload(3, period, steps, step_time, False, SIZES)
    for ja, jb in zip(a_jobs, b_jobs):
        assert ja.end_time == pytest.approx(jb.end_time, rel=1e-12)
        assert [r[1:] for r in ja.resizes] == [r[1:] for r in jb.resizes]
