"""Integration tests for the Slurm controller and the resize protocol."""

import pytest

from repro.cluster import Machine, NodeState
from repro.core import ResizeAction, ResizeRequest
from repro.errors import SchedulerError
from repro.metrics import EventKind, Trace, canonical_line, canonical_lines
from repro.sim import Environment, Interrupt
from repro.slurm import (
    Job,
    JobClass,
    JobState,
    MultifactorConfig,
    PolicyConfig,
    SlurmConfig,
    SlurmController,
    expand_protocol,
    shrink_protocol,
)
from repro.testing import InvariantObserver, run_bounded


def make_setup(nodes=16):
    env = Environment()
    machine = Machine(nodes)
    ctl = SlurmController(env, machine)
    return env, machine, ctl


def rigid(nodes, limit=100.0, name="job"):
    return Job(name=name, num_nodes=nodes, time_limit=limit)


def malleable(nodes, limit=100.0, name="flex", **req):
    defaults = dict(min_procs=1, max_procs=16)
    defaults.update(req)
    return Job(
        name=name,
        num_nodes=nodes,
        time_limit=limit,
        job_class=JobClass.MALLEABLE,
        resize_request=ResizeRequest(**defaults),
    )


class TestSubmissionAndDispatch:
    def test_submit_assigns_id_and_time(self):
        env, _, ctl = make_setup()
        env.run(until=5.0)
        job = ctl.submit(rigid(4))
        assert job.job_id == 1
        assert job.submit_time == 5.0
        assert job.state is JobState.PENDING

    def test_double_submit_rejected(self):
        env, _, ctl = make_setup()
        job = ctl.submit(rigid(4))
        with pytest.raises(SchedulerError):
            ctl.submit(job)

    def test_job_starts_when_nodes_available(self):
        env, machine, ctl = make_setup()
        job = ctl.submit(rigid(4))
        env.run(until=0.1)
        assert job.state is JobState.RUNNING
        assert job.nodes == (0, 1, 2, 3)
        assert machine.used_count == 4

    def test_job_waits_when_cluster_full(self):
        env, _, ctl = make_setup(nodes=8)
        first = ctl.submit(rigid(8, limit=50.0))
        second = ctl.submit(rigid(4))
        env.run(until=1.0)
        assert first.is_running
        assert second.is_pending

    def test_finish_releases_and_starts_next(self):
        env, machine, ctl = make_setup(nodes=8)
        first = ctl.submit(rigid(8, limit=50.0))
        second = ctl.submit(rigid(4))

        def finisher():
            yield env.timeout(10.0)
            ctl.finish_job(first)

        env.process(finisher())
        env.run(until=20.0)
        assert first.state is JobState.COMPLETED
        assert first.end_time == 10.0
        assert second.is_running
        assert second.start_time == 10.0
        assert machine.used_count == 4

    def test_launcher_hook_called_for_normal_jobs(self):
        env, _, ctl = make_setup()
        launched = []
        ctl.launcher = lambda job: launched.append(job.name)
        ctl.submit(rigid(2, name="a"))
        ctl.submit(rigid(2, name="b"))
        env.run(until=0.1)
        assert launched == ["a", "b"]

    def test_started_event_fires(self):
        env, _, ctl = make_setup()
        job = ctl.submit(rigid(2))
        got = []

        def waiter():
            j = yield ctl.started_event(job)
            got.append((env.now, j.job_id))

        env.process(waiter())
        env.run(until=1.0)
        assert got == [(0.0, job.job_id)]

    def test_finish_unstarted_job_rejected(self):
        env, _, ctl = make_setup(nodes=2)
        blocker = ctl.submit(rigid(2, limit=100.0))
        waiting = ctl.submit(rigid(2))
        env.run(until=0.1)
        with pytest.raises(SchedulerError):
            ctl.finish_job(waiting)

    def test_cancel_pending_job(self):
        env, _, ctl = make_setup(nodes=2)
        ctl.submit(rigid(2, limit=100.0))
        waiting = ctl.submit(rigid(2))
        env.run(until=0.1)
        ctl.cancel_job(waiting)
        assert waiting.state is JobState.CANCELLED
        assert waiting not in ctl.pending_jobs()

    def test_cancel_running_job_releases_nodes(self):
        env, machine, ctl = make_setup()
        job = ctl.submit(rigid(4))
        env.run(until=0.1)
        ctl.cancel_job(job)
        assert machine.used_count == 0
        assert job.state is JobState.CANCELLED

    def test_cancel_running_job_releases_its_process(self):
        env, _, ctl = make_setup()
        job = ctl.submit(rigid(4))
        env.run(until=0.1)
        causes = []

        def body():
            try:
                yield env.timeout(100.0)
            except Interrupt as exc:
                causes.append(exc.cause)

        ctl.register_job_process(job, env.process(body(), name="sleeper"))
        env.run(until=0.2)
        ctl.cancel_job(job)
        assert ctl.job_processes == {}
        env.run(until=0.3)
        assert causes == ["scancel"]

    def test_finished_job_releases_its_process(self):
        env, _, ctl = make_setup()
        job = ctl.submit(rigid(4))
        env.run(until=0.1)
        ctl.register_job_process(job, object())
        ctl.finish_job(job)
        assert ctl.job_processes == {}

    def test_lean_controller_keeps_no_trace_history(self):
        lean = SlurmController(
            Environment(), Machine(4), SlurmConfig(retain_finished=False)
        )
        assert lean.trace.retain is False
        assert SlurmController(Environment(), Machine(4)).trace.retain is True

    def test_all_done(self):
        env, _, ctl = make_setup()
        job = ctl.submit(rigid(4))
        assert not ctl.all_done()
        env.run(until=0.1)
        ctl.finish_job(job)
        assert ctl.all_done()

    def test_get_job_lookup(self):
        env, _, ctl = make_setup()
        job = ctl.submit(rigid(4))
        assert ctl.get_job(job.job_id) is job
        with pytest.raises(SchedulerError):
            ctl.get_job(999)

    def test_trace_records_lifecycle(self):
        env, _, ctl = make_setup()
        job = ctl.submit(rigid(4))
        env.run(until=0.1)
        ctl.finish_job(job)
        kinds = [e.kind for e in ctl.trace.of_job(job.job_id)]
        assert EventKind.JOB_SUBMIT in kinds
        assert EventKind.JOB_START in kinds
        assert EventKind.JOB_END in kinds


class TestDependencies:
    def test_dependent_job_waits_for_parent_start(self):
        env, _, ctl = make_setup(nodes=8)
        parent = ctl.submit(rigid(9, limit=50.0))  # cannot start: too big
        child = rigid(2)
        child.dependency = parent.job_id
        ctl.submit(child)
        env.run(until=1.0)
        # Parent pending -> child must not start even though nodes are free.
        assert child.is_pending


class TestExpandProtocol:
    def test_expand_success_transfers_nodes(self):
        env, machine, ctl = make_setup(nodes=16)
        job = ctl.submit(malleable(4))
        env.run(until=0.1)
        results = []

        def run_expand():
            new_nodes = yield from expand_protocol(ctl, job, target_nodes=8)
            results.append(new_nodes)

        env.process(run_expand())
        env.run(until=5.0)
        assert results == [(0, 1, 2, 3, 4, 5, 6, 7)]
        assert job.num_nodes == 8
        assert machine.nodes_of(job.job_id) == (0, 1, 2, 3, 4, 5, 6, 7)
        # The resizer job came and went.
        resizers = [j for j in ctl.finished if j.is_resizer]
        assert len(resizers) == 1
        assert resizers[0].state is JobState.CANCELLED

    def test_expand_reuses_original_nodes(self):
        """Expanding must keep the original allocation (Section III)."""
        env, machine, ctl = make_setup(nodes=16)
        job = ctl.submit(malleable(4))
        env.run(until=0.1)
        original = set(job.nodes)

        def run_expand():
            yield from expand_protocol(ctl, job, target_nodes=8)

        env.process(run_expand())
        env.run(until=5.0)
        assert original <= set(job.nodes)

    def test_expand_times_out_when_nodes_busy(self):
        env, machine, ctl = make_setup(nodes=8)
        job = ctl.submit(malleable(4))
        blocker = ctl.submit(rigid(4, limit=1000.0))
        env.run(until=0.1)
        results = []

        def run_expand():
            out = yield from expand_protocol(ctl, job, target_nodes=8, timeout=10.0)
            results.append(out)

        env.process(run_expand())
        env.run(until=30.0)
        assert results == [None]
        assert job.num_nodes == 4
        aborts = ctl.trace.of_kind(EventKind.RESIZE_ABORT)
        assert len(aborts) == 1
        # The resizer was cancelled and no stray allocation remains.
        assert machine.used_count == 8

    def test_drain_of_a_started_resizer_aborts_the_expansion(self):
        """An operator drains a node of the resizer as it starts: the
        release parks that node, so the expansion aborts instead of
        attaching a node that is no longer free."""
        env, machine, ctl = make_setup(nodes=8)
        observer = InvariantObserver(controller=ctl)
        ctl.trace.subscribe(observer.on_event)
        job = ctl.submit(malleable(2))
        env.run(until=0.1)
        original = job.nodes
        results, drained = [], []

        def run_expand():
            results.append((yield from expand_protocol(ctl, job, 4)))
            results.append(job.nodes)
            yield env.timeout(10.0)
            ctl.finish_job(job)

        def operator():
            resizer = next(j for j in ctl.pending.values() if j.is_resizer)
            yield ctl.started_event(resizer)
            drained.append(resizer.nodes[0])
            ctl.drain_node(drained[0])

        env.process(run_expand())
        env.process(operator())
        env.run()
        assert results == [None, original]
        assert job.state is JobState.COMPLETED
        (abort,) = ctl.trace.of_kind(EventKind.RESIZE_ABORT)
        resizer = next(j for j in ctl.finished if j.is_resizer)
        assert abort.data == {"wanted": 4, "resizer": resizer.job_id}
        assert resizer.state is JobState.CANCELLED
        # The drained node stays out of the pool; the rest is free.
        assert machine.nodes[drained[0]].state is NodeState.DRAINING
        assert machine.unavailable_count == 1
        assert machine.free_count == 7
        assert observer.checks > 0

    def test_expand_invalid_target_rejected(self):
        env, _, ctl = make_setup()
        job = ctl.submit(malleable(4))
        env.run(until=0.1)
        with pytest.raises(ValueError):
            list(expand_protocol(ctl, job, target_nodes=4))

    def test_expand_records_resize_history(self):
        env, _, ctl = make_setup()
        job = ctl.submit(malleable(4))
        env.run(until=0.1)

        def run_expand():
            yield from expand_protocol(ctl, job, target_nodes=16)

        env.process(run_expand())
        env.run(until=5.0)
        assert job.resizes == [(pytest.approx(0.1, abs=0.2), 4, 16)]


class TestShrink:
    def test_shrink_releases_highest_nodes(self):
        env, machine, ctl = make_setup()
        job = ctl.submit(malleable(8))
        env.run(until=0.1)
        released = shrink_protocol(ctl, job, target_nodes=2)
        assert released == (2, 3, 4, 5, 6, 7)
        assert job.num_nodes == 2
        assert job.nodes == (0, 1)

    def test_shrink_triggers_waiting_job_start(self):
        env, machine, ctl = make_setup(nodes=8)
        flex = ctl.submit(malleable(8))
        queued = ctl.submit(rigid(4))
        env.run(until=0.1)
        assert queued.is_pending
        shrink_protocol(ctl, flex, target_nodes=4)
        env.run(until=0.2)
        assert queued.is_running

    def test_shrink_validation(self):
        env, _, ctl = make_setup()
        job = ctl.submit(malleable(8))
        env.run(until=0.1)
        with pytest.raises(SchedulerError):
            ctl.shrink_job(job, 8)
        with pytest.raises(SchedulerError):
            ctl.shrink_job(job, 0)


class TestCheckStatus:
    def test_check_status_requires_running_job(self):
        env, _, ctl = make_setup()
        job = malleable(4)
        ctl.submit(job)
        with pytest.raises(SchedulerError):
            ctl.check_status(job, job.resize_request)

    def test_check_status_expand_on_idle_cluster(self):
        env, _, ctl = make_setup(nodes=16)
        job = ctl.submit(malleable(4))
        env.run(until=0.1)
        d = ctl.check_status(job, job.resize_request)
        assert d.action is ResizeAction.EXPAND
        assert d.target_procs == 16

    def test_check_status_shrink_boosts_beneficiary(self):
        env, _, ctl = make_setup(nodes=8)
        flex = ctl.submit(malleable(8))
        queued = ctl.submit(rigid(6))
        env.run(until=0.1)
        d = ctl.check_status(flex, flex.resize_request)
        assert d.action is ResizeAction.SHRINK
        assert d.beneficiary_job_id == queued.job_id
        assert queued.priority_boost == float("inf")

    def test_check_status_records_decision(self):
        env, _, ctl = make_setup()
        job = ctl.submit(malleable(4))
        env.run(until=0.1)
        ctl.check_status(job, job.resize_request)
        decisions = ctl.trace.of_kind(EventKind.RESIZE_DECISION)
        assert len(decisions) == 1
        assert decisions[0]["action"] == "expand"

    def test_policy_view_excludes_resizers(self):
        env, _, ctl = make_setup(nodes=8)
        flex = ctl.submit(malleable(2))
        env.run(until=0.1)

        def run_expand():
            yield from expand_protocol(ctl, flex, target_nodes=4)

        env.process(run_expand())
        # Snapshot during the same timestamp window would show the resizer
        # in pending; policy views must filter it.
        view = ctl.policy_view()
        assert all(not p.is_resizer for p in view.pending)


def quiet_setup(hog=None, max_age=None):
    """A 4-node machine whose backfill pass starts nothing.

    ``hog`` (default: a rigid 3-node job) runs, a 2-node job waits for
    it, one node is idle, and one backfill pass has run (the periodic
    thread is off, so the tests drive every pass).  Returns
    ``(env, machine, ctl, hog, blocked)``.
    """
    env = Environment()
    machine = Machine(4)
    priority = (MultifactorConfig() if max_age is None
                else MultifactorConfig(max_age=max_age))
    ctl = SlurmController(
        env, machine, SlurmConfig(priority=priority, backfill_interval=0)
    )
    hog = ctl.submit(hog or rigid(3, limit=100.0, name="hog"))
    env.run(until=1.0)
    blocked = ctl.submit(rigid(2, limit=10.0, name="blocked"))
    env.run(until=2.0)
    assert hog.is_running and blocked.is_pending
    assert not skipped(ctl)  # the first pass after the submit runs
    assert skipped(ctl)      # ... and nothing changed since
    return env, machine, ctl, hog, blocked


def skipped(ctl):
    """Run one backfill pass; True when it returned at once."""
    before = ctl.stats.backfill_skips
    ctl._backfill_pass()
    return ctl.stats.backfill_skips > before


class TestStateEpoch:
    """A backfill pass that would otherwise be quiet is not skipped after
    any change the scheduler state epoch covers."""

    def test_skipped_pass_still_counts_as_a_pass(self):
        env, _, ctl, _, _ = quiet_setup()
        before = ctl.stats.snapshot()
        env.run(until=500.0)
        assert skipped(ctl)
        after = ctl.stats.snapshot()
        assert after["backfill_passes"] == before["backfill_passes"] + 1
        assert after["jobs_examined"] == before["jobs_examined"]

    def test_pass_that_started_a_job_is_not_quiet(self):
        env = Environment()
        ctl = SlurmController(env, Machine(4), SlurmConfig(backfill_interval=0))
        ctl.submit(rigid(3, limit=100.0, name="hog"))
        env.run(until=1.0)
        head = ctl.submit(rigid(2, limit=100.0, name="head"))
        short = ctl.submit(rigid(1, limit=10.0, name="short"))
        # The FIFO pass stops at the blocked head; backfill starts the
        # short job around its reservation.
        ctl._scheduling_pass(None)
        assert head.is_pending and short.is_pending
        assert not skipped(ctl)
        assert short.is_running
        assert not skipped(ctl)  # the start moved the epoch

    def test_queue_writes(self):
        env, _, ctl, _, _ = quiet_setup()
        extra = ctl.submit(rigid(2, limit=10.0, name="extra"))
        assert not skipped(ctl)
        assert skipped(ctl)
        ctl.cancel_job(extra)
        assert not skipped(ctl)

    def test_boost(self):
        env, _, ctl, _, _ = quiet_setup()
        extra = ctl.submit(rigid(2, limit=10.0, name="extra"))
        assert not skipped(ctl)
        assert skipped(ctl)
        extra.priority_boost = float("inf")
        ctl.queue.reprioritize(extra, env.now)
        assert not skipped(ctl)

    def test_saturation_resort_that_keeps_the_order(self):
        env, _, ctl, _, _ = quiet_setup(max_age=100.0)
        env.run(until=50.0)
        assert skipped(ctl)
        env.run(until=150.0)  # the blocked job's age factor saturates
        rebuilds = ctl.stats.queue_rebuilds
        assert skipped(ctl)  # a queue of one re-sorts to the same order
        assert ctl.stats.queue_rebuilds == rebuilds + 1

    def test_saturation_resort(self):
        """A saturation re-sort that changes the order moves the epoch."""
        env, _, ctl, _, blocked = quiet_setup(max_age=100.0)
        env.run(until=40.0)
        # Larger and younger: behind the blocked job until that one's
        # age factor saturates (t=101), ahead of it from t=115 on.
        big = ctl.submit(rigid(3, limit=10.0, name="big"))
        assert not skipped(ctl)
        env.run(until=110.0)
        rebuilds = ctl.stats.queue_rebuilds
        assert skipped(ctl)
        assert ctl.stats.queue_rebuilds == rebuilds + 1
        env.run(until=120.0)
        assert not skipped(ctl)
        assert ctl.queue.ordered(env.now) == [big, blocked]

    def test_allocation(self):
        env, machine, ctl, hog, blocked = quiet_setup()
        ctl.shrink_job(hog, 2)
        assert not skipped(ctl)
        assert blocked.is_running

    def test_node_failure_of_an_idle_node(self):
        env, machine, ctl, _, _ = quiet_setup()
        ctl.fail_node(3)
        assert not skipped(ctl)

    def test_deferred_repair(self):
        flex = malleable(3, limit=100.0, name="hog", max_procs=3)
        env, machine, ctl, hog, _ = quiet_setup(hog=flex)
        ctl.fail_node(hog.nodes[0])  # held: a forced shrink is parked
        assert not skipped(ctl)
        assert skipped(ctl)
        ctl.recover_node(hog.nodes[0])  # deferred until the hog lets go
        assert hog.nodes[0] in machine.nodes_of(hog.job_id)
        assert not skipped(ctl)

    def test_drain_and_resume(self):
        env, machine, ctl, hog, _ = quiet_setup()
        ctl.drain_node(hog.nodes[0])  # held: parked when released
        assert not skipped(ctl)
        assert skipped(ctl)
        ctl.resume_node(hog.nodes[0])
        assert not skipped(ctl)
        assert skipped(ctl)
        ctl.drain_node(3)  # idle: leaves the free pool at once
        assert not skipped(ctl)
        assert skipped(ctl)
        ctl.resume_node(3)
        assert not skipped(ctl)

    def test_time_limit_updates(self):
        env, _, ctl, hog, blocked = quiet_setup()
        ctl.update_time_limit(blocked, 5.0)  # pending: backfill's shadow test
        assert not skipped(ctl)
        assert skipped(ctl)
        ctl.update_time_limit(hog, 50.0)  # running: its expected end
        assert not skipped(ctl)

    def test_running_index_writes_move_the_epoch_by_themselves(self):
        # Each write to the expected-end index moves the epoch without
        # the allocation change that usually comes with it.
        env, machine, ctl, hog, _ = quiet_setup()
        for write in (ctl._running_reposition, ctl._running_remove,
                      ctl._running_insert):
            epoch, pool = ctl.epoch(), machine.version
            write(hog)
            assert ctl.epoch() != epoch and machine.version == pool


class TestDecisionReuse:
    def test_repeated_no_action_decision_is_reused(self):
        env, _, ctl = make_setup(nodes=4)
        job = ctl.submit(malleable(4, max_procs=4))
        env.run(until=0.1)
        first = ctl.check_status(job, job.resize_request)
        assert first.action is ResizeAction.NO_ACTION
        assert ctl.check_status(job, job.resize_request) == first
        assert ctl.stats.decisions_reused == 1
        # Both calls are recorded: the trace does not show the reuse.
        decisions = ctl.trace.of_kind(EventKind.RESIZE_DECISION)
        assert len(decisions) == 2 and decisions[0].data == decisions[1].data

    def test_reused_decision_records_the_line_of_a_fresh_one(self):
        env, _, ctl = make_setup(nodes=4)
        job = ctl.submit(malleable(4, max_procs=4))
        env.run(until=0.1)
        first = ctl.check_status(job, job.resize_request)
        ctl.check_status(job, job.resize_request)
        assert ctl.stats.decisions_reused == 1
        fresh, reused = ctl.trace.of_kind(EventKind.RESIZE_DECISION)
        expected = Trace()
        expected.record(
            env.now, EventKind.RESIZE_DECISION, job.job_id,
            action=first.action.value, target=first.target_procs,
            reason=first.reason.value, beneficiary=first.beneficiary_job_id,
        )
        assert canonical_line(reused) == canonical_line(fresh)
        assert [canonical_line(reused)] == canonical_lines(expected)

    def test_reuse_is_keyed_on_epoch_size_and_request(self):
        env, _, ctl = make_setup(nodes=4)
        job = ctl.submit(malleable(4, max_procs=4))
        env.run(until=0.1)
        ctl.check_status(job, job.resize_request)
        ctl.check_status(job, ResizeRequest(min_procs=1, max_procs=4,
                                            preferred=4))
        assert ctl.stats.decisions_reused == 0
        ctl.submit(rigid(2))  # the queue changed
        ctl.check_status(job, job.resize_request)
        assert ctl.stats.decisions_reused == 0
        ctl.shrink_job(job, 2)  # the size changed (and the free pool)
        job.resize_request = ResizeRequest(min_procs=1, max_procs=2)
        ctl.check_status(job, job.resize_request)
        assert ctl.stats.decisions_reused == 0

    def test_only_no_action_decisions_are_kept(self):
        env, _, ctl = make_setup(nodes=8)
        job = ctl.submit(malleable(4, max_procs=8))
        env.run(until=0.1)
        for _ in range(2):
            decision = ctl.check_status(job, job.resize_request)
            assert decision.action is ResizeAction.EXPAND
        assert ctl.stats.decisions_reused == 0

    def test_finished_job_forgets_its_decision(self):
        env, _, ctl = make_setup(nodes=4)
        job = ctl.submit(malleable(4, max_procs=4))
        env.run(until=0.1)
        ctl.check_status(job, job.resize_request)
        ctl.finish_job(job)
        assert ctl._no_action == {}


class TestPolicyView:
    def test_head_rule_sees_only_the_queue_head(self):
        env, _, ctl = make_setup(nodes=4)
        ctl.submit(rigid(4, name="hog"))
        env.run(until=0.1)
        for n in (3, 1, 2):
            ctl.submit(rigid(n))
        view = ctl.policy_view()
        assert view.pending == (ctl.pending_jobs()[0],)
        assert view.min_pending_nodes == 1

    def test_any_rule_sees_the_whole_queue(self):
        env = Environment()
        ctl = SlurmController(env, Machine(4), SlurmConfig(
            policy=PolicyConfig(shrink_beneficiary="any")))
        ctl.submit(rigid(4, name="hog"))
        env.run(until=0.1)
        for n in (3, 1, 2):
            ctl.submit(rigid(n))
        pending = ctl.policy_view().pending
        assert len(pending) == 3
        assert list(pending) == ctl.pending_jobs(include_resizers=False)


class TestBackfillThreadRestart:
    """The sched/backfill thread must survive idle-then-burst workloads:
    it parks itself when the system drains and submit() restarts it.

    These tests drive the clock with :func:`repro.testing.run_bounded`
    instead of ``env.run``: the scenario exists precisely because the
    thread's park/restart logic once risked wedging, and a deterministic
    event budget turns any future regression into a crisp
    ``WedgedSimulation`` failure instead of a hung CI job.
    """

    #: Far above what these small scenarios need (a few hundred events),
    #: far below anything that would make a hang slow to report.
    EVENT_BUDGET = 20_000

    def _run(self, env, until):
        run_bounded(env, until=until, max_events=self.EVENT_BUDGET)

    def test_burst_during_sleep_window_reuses_thread(self):
        env, _, ctl = make_setup(nodes=8)
        first = ctl.submit(rigid(2, limit=50.0))
        self._run(env, until=5.0)
        ctl.finish_job(first)
        # The system is drained but the thread sleeps until t=30.  A
        # burst lands inside that window.
        blocker = ctl.submit(rigid(6, limit=100.0, name="blocker"))
        self._run(env, until=6.0)
        head = ctl.submit(rigid(8, limit=100.0, name="wide-head"))
        shorty = ctl.submit(rigid(2, limit=50.0, name="shorty"))
        self._run(env, until=31.0)
        # The event-driven FIFO pass stops at the wide head; only the
        # (still-alive) backfill thread's t=30 pass can start shorty.
        assert blocker.is_running
        assert head.is_pending
        assert shorty.is_running
        assert shorty.start_time == pytest.approx(30.0)

    def test_idle_then_burst_restarts_thread(self):
        env, _, ctl = make_setup(nodes=8)
        first = ctl.submit(rigid(2, limit=50.0))
        self._run(env, until=10.0)
        ctl.finish_job(first)
        # Drain well past several backfill intervals: the thread exits.
        self._run(env, until=200.0)
        assert ctl.all_done()
        assert ctl._backfill_thread_alive is False
        # Burst: blocker + wide head + a job only backfill can start.
        blocker = ctl.submit(rigid(6, limit=100.0, name="blocker"))
        assert ctl._backfill_thread_alive is True
        self._run(env, until=201.0)
        head = ctl.submit(rigid(8, limit=100.0, name="wide-head"))
        shorty = ctl.submit(rigid(2, limit=50.0, name="shorty"))
        self._run(env, until=231.0)
        assert blocker.is_running
        assert head.is_pending
        assert shorty.is_running
        # The restarted thread passed at t=200 and again at t=230.
        assert shorty.start_time == pytest.approx(230.0)
