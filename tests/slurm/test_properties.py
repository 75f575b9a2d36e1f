"""Property-based tests on the scheduling and policy components."""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResizeAction, ResizeRequest
from repro.slurm import Job, PolicyConfig, PolicyView, ReconfigurationPolicy, plan_backfill


def pend(nodes, limit, jid, submit=0.0):
    job = Job(name=f"p{jid}", num_nodes=nodes, time_limit=limit)
    job.job_id = jid
    job.submit_time = submit
    return job


def run(nodes, start, limit, jid):
    job = Job(name=f"r{jid}", num_nodes=nodes, time_limit=limit)
    job.job_id = jid
    job.start_time = start
    # Running jobs hold their nodes; the planner counts the held set.
    job.nodes = tuple(range(1000 * jid, 1000 * jid + nodes))
    return job


queue_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=16),  # nodes
        st.floats(min_value=1.0, max_value=500.0),  # limit
    ),
    min_size=0,
    max_size=20,
)

running_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=1.0, max_value=200.0),
    ),
    min_size=0,
    max_size=8,
)


class TestBackfillProperties:
    @given(queue=queue_strategy, running=running_strategy, total=st.integers(8, 32))
    @settings(max_examples=150, deadline=None)
    def test_never_overallocates(self, queue, running, total):
        running_jobs = [run(n, 0.0, l, 100 + i) for i, (n, l) in enumerate(running)]
        used = sum(j.num_nodes for j in running_jobs)
        free = max(0, total - used)
        pending = [pend(n, l, i) for i, (n, l) in enumerate(queue)]
        starts, _ = plan_backfill(pending, running_jobs, free, now=0.0)
        assert sum(j.num_nodes for j in starts) <= free
        # No job started twice.
        assert len({j.job_id for j in starts}) == len(starts)

    @given(queue=queue_strategy, running=running_strategy, total=st.integers(8, 32))
    @settings(max_examples=150, deadline=None)
    def test_backfill_does_not_delay_reservation(self, queue, running, total):
        """Backfilled jobs fit before the shadow or beside the reservation."""
        running_jobs = [run(n, 0.0, l, 100 + i) for i, (n, l) in enumerate(running)]
        used = sum(j.num_nodes for j in running_jobs)
        free = max(0, total - used)
        pending = [pend(n, l, i) for i, (n, l) in enumerate(queue)]
        starts, reservation = plan_backfill(pending, running_jobs, free, now=0.0)
        if reservation is None:
            return
        started = {j.job_id for j in starts}
        blocked_idx = pending.index(reservation.job)
        # Phase-1 starts (before the blocked job) are unconstrained; the
        # backfilled ones (after it) must respect the reservation.
        extra = reservation.extra_nodes
        for job in pending[blocked_idx + 1 :]:
            if job.job_id in started:
                fits_before = job.time_limit <= reservation.shadow_time
                fits_beside = job.num_nodes <= extra
                assert fits_before or fits_beside
                if not fits_before:
                    extra -= job.num_nodes

    @given(queue=queue_strategy)
    @settings(max_examples=100, deadline=None)
    def test_empty_machine_priority_prefix_starts(self, queue):
        """On an idle machine the highest-priority fitting prefix starts."""
        pending = [pend(n, l, i) for i, (n, l) in enumerate(queue)]
        starts, _ = plan_backfill(pending, [], 16, now=0.0)
        if pending and pending[0].num_nodes <= 16:
            assert pending[0] in starts


class TestPolicyProperties:
    requests = st.builds(
        lambda lo, span, pref_frac: ResizeRequest(
            min_procs=lo,
            max_procs=lo + span,
            factor=2,
            preferred=None if pref_frac is None else min(lo + span, max(lo, pref_frac)),
        ),
        lo=st.integers(1, 4),
        span=st.integers(0, 28),
        pref_frac=st.one_of(st.none(), st.integers(1, 32)),
    )

    @given(
        request=requests,
        current=st.integers(1, 32),
        free=st.integers(0, 64),
        pending_sizes=st.lists(st.integers(1, 32), max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_decisions_always_legal(self, request, current, free, pending_sizes):
        """Whatever the inputs, decisions stay within physical limits."""
        job = Job(name="x", num_nodes=current, time_limit=10.0)
        job.job_id = 1
        view = PolicyView(
            free_nodes=free,
            pending=tuple(pend(n, 10.0, 10 + i) for i, n in enumerate(pending_sizes)),
        )
        for cfg in (
            PolicyConfig(),
            PolicyConfig(shrink_mode="deepest"),
            PolicyConfig(expand_with_pending=True, shrink_beneficiary="any"),
        ):
            decision = ReconfigurationPolicy(cfg).decide(job, request, view)
            if decision.action is ResizeAction.EXPAND:
                assert decision.target_procs > current
                assert decision.target_procs <= request.max_procs
                # An expansion never claims more nodes than are free.
                assert decision.target_procs - current <= free
            elif decision.action is ResizeAction.SHRINK:
                assert decision.target_procs < current
                assert decision.target_procs >= request.min_procs
                # Factor-2 reachability.
                assert decision.target_procs in request.shrink_sizes(current)
            else:
                assert decision.target_procs == current


# -- differential legacy-vs-incremental scheduler fuzzing ----------------------
#
# PR 4 proved the incremental O(k log n) scheduler byte-identical to the
# legacy resort-per-pass one on three pinned golden traces.  The suite
# below fuzzes that equivalence proof: random job traces — sizes, limits,
# moldable flags, mid-run cancels, node failures with repairs — are
# replayed through the controller and through the resort-per-pass oracle
# (``repro.testing.oracle.ResortController``), and the *entire canonical
# trace* (every start, backfill pick, requeue, resize decision and
# allocation change, in order) must match exactly.  Every replay also runs under the
# InvariantObserver, so the fuzz doubles as an invariant hunt.
#
# Flexible jobs put Algorithm 1 in the loop: their replay calls
# ``check_status`` at fuzzed intervals, so shrink-for-pending boosts
# re-key their beneficiaries, and grants run through ``expand_protocol``,
# so dependent resizers sit in the queue.  A fuzzed small
# ``PriorityMaxAge`` makes the saturated-queue re-sort run too.

import random

from repro.cluster import Machine
from repro.core import DecisionReason
from repro.metrics.trace import EventKind, canonical_lines
from repro.sim import Environment
from repro.sim.process import Interrupt
from repro.slurm import MultifactorConfig, SlurmConfig, SlurmController
from repro.slurm.job import JobClass
from repro.slurm.resize import expand_protocol
from repro.testing import InvariantObserver, run_bounded
from repro.testing.oracle import ResortController

DIFF_NODES = 12
DIFF_HORIZON = 100_000.0


@dataclass(frozen=True)
class TraceJob:
    nodes: int
    runtime: float
    limit_factor: float
    gap: float  # arrival gap after the previous submission
    moldable: bool
    cancel_after: Optional[float]  # seconds after submission, or None
    flexible: bool = False
    check_every: float = 10.0  # seconds between reconfiguring points
    #: Apply each decision one reconfiguring point late, as
    #: ``dmr_icheck_status`` does: an expansion's nodes may be gone by
    #: then, so its resizer waits in the queue.
    stale: bool = False
    #: Depend on the previously submitted job (held while it is pending).
    after_previous: bool = False


@dataclass(frozen=True)
class TraceFault:
    time: float
    node: int
    repair_after: Optional[float]


job_strategy = st.builds(
    TraceJob,
    nodes=st.integers(1, 8),
    runtime=st.floats(1.0, 300.0),
    limit_factor=st.floats(1.05, 3.0),
    gap=st.floats(0.0, 40.0),
    moldable=st.booleans(),
    cancel_after=st.one_of(st.none(), st.floats(0.0, 200.0)),
    flexible=st.booleans(),
    check_every=st.floats(1.0, 60.0),
    stale=st.booleans(),
    after_previous=st.booleans(),
)

fault_strategy = st.builds(
    TraceFault,
    time=st.floats(0.0, 500.0),
    node=st.integers(0, DIFF_NODES - 1),
    repair_after=st.one_of(st.none(), st.floats(1.0, 300.0)),
)

#: None keeps Slurm's 7-day PriorityMaxAge; the short ones saturate
#: jobs that wait a few minutes.
max_age_strategy = st.one_of(st.none(), st.floats(20.0, 600.0))


def _replay_differential(jobs: List[TraceJob], faults: List[TraceFault],
                         incremental: bool,
                         max_age: Optional[float] = None) -> SlurmController:
    """Replay a fuzzed trace through the controller or, with
    ``incremental=False``, through the resort-per-pass oracle."""
    env = Environment()
    machine = Machine(DIFF_NODES)
    priority = (
        MultifactorConfig() if max_age is None
        else MultifactorConfig(max_age=max_age)
    )
    controller_class = SlurmController if incremental else ResortController
    ctl = controller_class(env, machine, SlurmConfig(priority=priority))
    observer = InvariantObserver(controller=ctl)
    ctl.trace.subscribe(observer.on_event)
    specs = {}

    def execute(job):
        try:
            yield env.timeout(specs[job.job_id].runtime)
            ctl.finish_job(job)
        except Interrupt:
            return  # cancelled or requeued; the controller settled it

    def apply(job, decision):
        if decision.action is ResizeAction.EXPAND:
            if decision.target_procs > job.num_nodes:
                yield from expand_protocol(ctl, job, decision.target_procs)
        elif decision.action is ResizeAction.SHRINK:
            if decision.target_procs < job.num_nodes:
                ctl.shrink_job(job, decision.target_procs)

    def execute_flexible(job):
        """Work through node-seconds, deciding at every reconfiguring point."""
        spec = specs[job.job_id]
        work = spec.runtime * job.num_nodes
        late = None  # the decision a stale job applies next
        try:
            while True:
                step = min(spec.check_every, work / job.num_nodes)
                yield env.timeout(step)
                work -= step * job.num_nodes
                if work <= 1e-9 * spec.runtime:
                    break
                forced = ctl.take_forced(job)
                if forced is not None:
                    if forced.target_procs < 1:
                        ctl.requeue_job(job, reason="node_failure")
                        return
                    released = job.num_nodes - forced.target_procs
                    dead = machine.down_nodes_of(job.job_id)[:released]
                    ctl.shrink_job(job, forced.target_procs, victims=dead)
                    continue
                decision = ctl.check_status(job, job.resize_request)
                if spec.stale:
                    decision, late = late, decision
                if decision is not None:
                    yield from apply(job, decision)
            ctl.finish_job(job)
        except Interrupt:
            # Cancelled mid-expansion: withdraw the resizer left behind.
            for other in list(ctl.pending.values()) + list(ctl.running.values()):
                if other.is_resizer and other.parent_id == job.job_id:
                    ctl.cancel_job(other)

    def launcher(job):
        run = execute_flexible if job.is_flexible else execute
        proc = env.process(run(job), name=f"run-{job.job_id}")
        ctl.register_job_process(job, proc)

    ctl.launcher = launcher

    def canceller(job, delay):
        yield env.timeout(delay)
        if not job.is_terminal:
            ctl.cancel_job(job)

    def submitter():
        previous = None
        for spec in jobs:
            if spec.gap > 0:
                yield env.timeout(spec.gap)
            kwargs = {}
            if spec.after_previous and previous is not None:
                kwargs["dependency"] = previous.job_id
            if spec.flexible:
                kwargs.update(
                    job_class=JobClass.MALLEABLE,
                    moldable_start=spec.moldable,
                    resize_request=ResizeRequest(
                        min_procs=1, max_procs=DIFF_NODES, factor=1
                    ),
                )
            elif spec.moldable:
                kwargs.update(
                    job_class=JobClass.MOLDABLE,
                    resize_request=ResizeRequest(
                        min_procs=1, max_procs=spec.nodes
                    ),
                )
            job = ctl.submit(
                Job(
                    name=f"fz-{spec.nodes}n",
                    num_nodes=spec.nodes,
                    time_limit=spec.runtime * spec.limit_factor,
                    **kwargs,
                )
            )
            specs[job.job_id] = spec
            previous = job
            if spec.cancel_after is not None:
                env.process(canceller(job, spec.cancel_after))

    def fault_driver():
        for fault in sorted(faults, key=lambda f: f.time):
            if fault.time > env.now:
                yield env.timeout(fault.time - env.now)
            node = machine.nodes[fault.node]
            from repro.cluster.node import NodeState

            if node.state is not NodeState.DOWN:
                ctl.fail_node(fault.node)
                if fault.repair_after is not None:
                    env.process(repairer(fault.node, fault.repair_after))

    def repairer(idx, delay):
        yield env.timeout(delay)
        from repro.cluster.node import NodeState

        if machine.nodes[idx].state is NodeState.DOWN:
            ctl.recover_node(idx)

    env.process(submitter(), name="submitter")
    env.process(fault_driver(), name="faults")
    run_bounded(env, until=DIFF_HORIZON, max_events=500_000)
    assert observer.verify_final() > 0
    return ctl


def _assert_modes_agree(jobs, faults, max_age=None) -> SlurmController:
    """The controller and the oracle emit the same canonical trace;
    returns the controller."""
    legacy = _replay_differential(jobs, faults, False, max_age)
    incremental = _replay_differential(jobs, faults, True, max_age)
    # An oracle that is really the controller would compare it with
    # itself; only the controller writes a pending index.
    assert type(legacy) is ResortController
    assert type(incremental) is SlurmController
    assert legacy.stats.heap_pushes == 0 < incremental.stats.heap_pushes
    assert canonical_lines(legacy.trace) == canonical_lines(incremental.trace)
    return incremental


class TestDifferentialSchedulerEquivalence:
    @given(
        jobs=st.lists(job_strategy, min_size=1, max_size=18),
        max_age=max_age_strategy,
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_traces_without_faults(self, jobs, max_age):
        _assert_modes_agree(jobs, [], max_age)

    @given(
        jobs=st.lists(job_strategy, min_size=1, max_size=14),
        faults=st.lists(fault_strategy, max_size=4),
        max_age=max_age_strategy,
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_traces_with_faults(self, jobs, faults, max_age):
        _assert_modes_agree(jobs, faults, max_age)

    def test_fuzz_reaches_algorithm_1(self):
        """The generator reaches what the fuzz exists for: shrinks that
        boost a queued beneficiary, resizers left waiting in the queue,
        and the saturated-queue re-sort."""
        rng = random.Random(11)
        jobs = [
            TraceJob(
                nodes=rng.randint(1, 8),
                runtime=rng.uniform(20.0, 300.0),
                limit_factor=1.5,
                gap=rng.uniform(0.0, 15.0),
                moldable=False,
                cancel_after=None,
                flexible=rng.random() < 0.6,
                check_every=rng.uniform(2.0, 20.0),
                stale=rng.random() < 0.5,
                after_previous=rng.random() < 0.2,
            )
            for _ in range(24)
        ]
        ctl = _assert_modes_agree(jobs, [], max_age=120.0)
        kinds = {event.kind for event in ctl.trace}
        reasons = {
            event.data["reason"]
            for event in ctl.trace
            if event.kind is EventKind.RESIZE_DECISION
        }
        assert DecisionReason.SHRINK_FOR_PENDING.value in reasons
        assert EventKind.RESIZE_EXPAND in kinds
        # A resizer that timed out had sat in the queue.
        assert EventKind.RESIZE_ABORT in kinds
        assert ctl.stats.queue_rebuilds > 0
