"""Race and failure-injection tests for the resize machinery."""

import pytest

from repro.apps import flexible_sleep
from repro.cluster import ClusterConfig
from repro.metrics import EventKind
from repro.runtime import RuntimeConfig, install_runtime_launcher
from repro.sim import Environment
from repro.slurm import (
    Job,
    JobClass,
    JobState,
    SlurmConfig,
    SlurmController,
    expand_protocol,
)


def setup(nodes=16, config=None):
    env = Environment()
    cluster = ClusterConfig(num_nodes=nodes)
    machine = cluster.build_machine()
    ctl = SlurmController(env, machine, config)
    return env, cluster, machine, ctl


def malleable(nodes, steps=4, step_time=20.0, **req):
    app = flexible_sleep(step_time=step_time, at_procs=nodes, steps=steps, **req)
    return Job(
        name=f"flex{nodes}",
        num_nodes=nodes,
        time_limit=100_000.0,
        job_class=JobClass.MALLEABLE,
        resize_request=app.resize,
        payload=app,
    )


def test_concurrent_expansions_conflict_one_aborts():
    """Two jobs race to expand into the same 4 free nodes."""
    env, cluster, machine, ctl = setup(nodes=12)
    a = ctl.submit(malleable(4, max_procs=8))
    b = ctl.submit(malleable(4, max_procs=8))
    env.run(until=0.1)
    outcomes = []

    def expander(job):
        result = yield from expand_protocol(ctl, job, 8, timeout=5.0)
        outcomes.append((job.name, result is not None))

    # Both fire at the same instant, targeting the same free nodes.
    env.process(expander(a))
    env.process(expander(b))
    env.run(until=30.0)

    wins = [name for name, ok in outcomes if ok]
    losses = [name for name, ok in outcomes if not ok]
    assert len(wins) == 1 and len(losses) == 1
    # The winner owns 8 nodes; the loser still owns its original 4.
    winner = a if wins[0] == a.name else b
    loser = b if winner is a else a
    assert winner.num_nodes == 8
    assert loser.num_nodes == 4
    # Exactly one abort was recorded and no nodes leaked.
    assert len(ctl.trace.of_kind(EventKind.RESIZE_ABORT)) == 1
    assert machine.used_count == 12


def test_expansion_aborts_when_nodes_already_taken():
    """A rigid job that won the nodes first forces the expansion abort.

    (A *pending* rigid job would lose to the resizer — resizer jobs carry
    maximum priority per Section V-B — so the race is only lost once the
    nodes are actually allocated.)
    """
    env, cluster, machine, ctl = setup(nodes=8)
    flex = ctl.submit(malleable(4, max_procs=8))
    rigid = ctl.submit(Job(name="rigid", num_nodes=4, time_limit=1000.0))
    env.run(until=0.1)
    assert rigid.is_running  # holds the other 4 nodes
    results = []

    def expander():
        out = yield from expand_protocol(ctl, flex, 8, timeout=3.0)
        results.append(out)

    env.process(expander())
    env.run(until=10.0)
    assert results == [None]
    assert flex.num_nodes == 4


def test_runtime_survives_aborted_expansion():
    """A stale async expansion aborts; the job continues and completes.

    At its first reconfiguring point (t=0, empty queue, 4 idle nodes) the
    asynchronous check books an expansion for the next step.  Before that
    step boundary a rigid hog takes the idle nodes, so the applied
    decision is stale: the resizer job cannot start, the action aborts,
    and the malleable job must carry on unharmed.
    """
    env, cluster, machine, ctl = setup(
        nodes=8, config=SlurmConfig(resizer_timeout=2.0)
    )
    install_runtime_launcher(ctl, cluster, RuntimeConfig(async_mode=True))
    flex = ctl.submit(malleable(4, steps=3, step_time=30.0, max_procs=8))

    def hog_arrives():
        yield env.timeout(5.0)
        ctl.submit(
            Job(
                name="hog",
                num_nodes=4,
                time_limit=10_000.0,
                payload=flexible_sleep(step_time=1000.0, at_procs=4, steps=1),
            )
        )

    env.process(hog_arrives())
    env.run(until=500.0)
    assert flex.state is JobState.COMPLETED
    # The stale expansion was attempted and aborted.
    aborts = ctl.trace.of_kind(EventKind.RESIZE_ABORT)
    assert len(aborts) == 1
    assert flex.resizes == []


def test_shrink_then_immediate_completion_is_clean():
    """A job that shrinks on its last reconfiguring point still ends."""
    env, cluster, machine, ctl = setup(nodes=8)
    install_runtime_launcher(ctl, cluster)
    flex = ctl.submit(malleable(8, steps=2, step_time=10.0, max_procs=8, min_procs=1))
    env.run(until=1.0)
    # Make the queue non-empty so the last check shrinks the job.
    ctl.submit(Job(name="q", num_nodes=8, time_limit=100.0,
                   payload=flexible_sleep(step_time=1.0, at_procs=8, steps=1)))
    env.run()
    assert flex.state is JobState.COMPLETED
    assert machine.used_count == 0
    assert ctl.all_done()


def test_impossible_expansion_aborts_cleanly():
    """Expanding beyond the whole machine times out and cancels the RJ."""
    env, cluster, machine, ctl = setup(nodes=8)
    flex = ctl.submit(malleable(8, max_procs=8))
    env.run(until=0.1)
    results = []

    def expander():
        out = yield from expand_protocol(ctl, flex, 16, timeout=1.0)
        results.append(out)

    env.process(expander())
    env.run(until=10.0)
    assert results == [None]
    assert flex.num_nodes == 8
    assert machine.used_count == 8
    resizers = [j for j in ctl.finished if j.is_resizer]
    assert len(resizers) == 1
    assert resizers[0].state is JobState.CANCELLED
