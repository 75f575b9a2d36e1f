"""Tests for observer dispatch."""

from repro.api import Session, SessionObserver
from repro.cluster import marenostrum_preliminary
from repro.metrics import EventKind
from repro.workload import FSWorkloadConfig, fs_workload

SMALL_FS = FSWorkloadConfig(steps=4)


class Recorder(SessionObserver):
    """Sorts the event stream by kind, skipping resizer helper jobs."""

    def __init__(self):
        self.resizer_ids = set()
        self.submits = []
        self.starts = []
        self.resizes = []
        self.completes = []
        self.raw = []

    def on_event(self, event):
        self.raw.append(event)
        kind = event.kind
        if kind is EventKind.JOB_SUBMIT and event.data.get("resizer"):
            self.resizer_ids.add(event.job_id)
        if event.job_id in self.resizer_ids:
            return
        if kind is EventKind.JOB_SUBMIT:
            self.submits.append(event)
        elif kind is EventKind.JOB_START:
            self.starts.append(event)
        elif kind in (EventKind.RESIZE_EXPAND, EventKind.RESIZE_SHRINK):
            self.resizes.append(event)
        elif kind in (EventKind.JOB_END, EventKind.JOB_CANCEL):
            self.completes.append(event)


def run_with(observer, num_jobs=6, flexible=True, seed=3):
    session = Session(cluster=marenostrum_preliminary()).observe(observer)
    spec = fs_workload(num_jobs, seed=seed, config=SMALL_FS)
    return session.run(spec, flexible=flexible)


class TestDispatch:
    def test_typed_callbacks_cover_every_workload_job(self):
        rec = Recorder()
        result = run_with(rec, num_jobs=6)
        assert len(rec.submits) == 6
        assert len(rec.starts) == 6
        assert len(rec.completes) == 6
        workload_ids = {job.job_id for job in result.jobs}
        assert {e.job_id for e in rec.submits} == workload_ids
        # The stream carries the full trace, resizer jobs included.
        assert rec.resizer_ids
        assert len(rec.raw) == len(result.trace)

    def test_resize_callback_matches_trace(self):
        rec = Recorder()
        result = run_with(rec, num_jobs=6, flexible=True)
        resize_events = result.trace.of_kind(
            EventKind.RESIZE_EXPAND, EventKind.RESIZE_SHRINK
        )
        assert len(rec.resizes) == len(resize_events)
        assert len(resize_events) > 0  # this workload does reconfigure

    def test_fixed_run_never_resizes(self):
        rec = Recorder()
        run_with(rec, num_jobs=4, flexible=False)
        assert rec.resizes == []

    def test_callback_observer_adapter(self):
        # One hook: any callable set as on_event turns the base class
        # into an observer, no subclass needed.
        seen = []
        obs = SessionObserver()
        obs.on_event = seen.append
        result = run_with(obs, num_jobs=4)
        assert seen == list(result.trace)
        assert len(result.trace.of_kind(EventKind.JOB_END)) == 4

    def test_cancelled_jobs_reach_on_complete(self):
        from repro.slurm import Job, JobClass

        rec = Recorder()
        session = Session(cluster=marenostrum_preliminary()).observe(rec)
        sim = session.build()
        job = Job(name="doomed", num_nodes=2, time_limit=10.0,
                  job_class=JobClass.RIGID)
        sim.controller.submit(job)
        sim.controller.cancel_job(job)
        assert [(e.kind, e.job_id) for e in rec.completes] == [
            (EventKind.JOB_CANCEL, job.job_id)
        ]

    def test_dispatch_detached_after_execution(self):
        # The returned result keeps the trace; the live hook must not pin
        # the controller/machine/environment behind it.
        result = run_with(Recorder(), num_jobs=3)
        assert result.trace._subscribers == []

    def test_observer_sees_both_renditions_of_a_pair(self):
        rec = Recorder()
        session = Session(cluster=marenostrum_preliminary()).observe(rec)
        session.run_paired(fs_workload(3, seed=1, config=SMALL_FS))
        assert len(rec.completes) == 6  # 3 fixed + 3 flexible


class FaultyObserver(SessionObserver):
    """Raises from every event after attach; the SSE-subscriber stand-in."""

    def __init__(self):
        self.seen = 0

    def on_event(self, event):
        self.seen += 1
        raise RuntimeError("subscriber went away")


class TestDispatchHardening:
    def test_raising_observer_does_not_abort_the_run(self):
        faulty = FaultyObserver()
        rec = Recorder()
        session = Session(cluster=marenostrum_preliminary()).observe(faulty, rec)
        run = session.submit(fs_workload(4, seed=3, config=SMALL_FS))
        result = run.execute()
        # The run completed, the faulty observer was called throughout,
        # and the healthy sibling still saw every callback.
        assert faulty.seen == len(result.trace)
        assert len(rec.completes) == 4
        dispatch = run.sim.dispatch
        assert dispatch.observer_errors["FaultyObserver"] == faulty.seen
        assert dispatch.suppressed_errors >= faulty.seen

    def test_strict_observer_still_propagates(self):
        import pytest

        class StrictFaulty(SessionObserver):
            strict = True

            def on_event(self, event):
                if event.kind is EventKind.JOB_SUBMIT:
                    raise RuntimeError("strict observers abort the run")

        session = Session(cluster=marenostrum_preliminary()).observe(StrictFaulty())
        with pytest.raises(RuntimeError, match="strict observers abort"):
            session.run(fs_workload(2, seed=1, config=SMALL_FS))

    def test_invariant_observer_is_strict(self):
        from repro.testing import InvariantObserver

        assert InvariantObserver.strict is True
        assert SessionObserver.strict is False
