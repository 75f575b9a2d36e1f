"""End-to-end telemetry: sessions, engine spans, observer-error metrics."""

from repro.api import Session, SessionObserver, Telemetry, TelemetryConfig
from repro.cluster import marenostrum_preliminary
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.metrics.trace import EventKind
from repro.obs.registry import default_registry
from repro.obs.spans import CLOCK_SIM
from repro.workload import FSWorkloadConfig, fs_workload

SMALL_FS = FSWorkloadConfig(steps=4)


def small_spec(num_jobs=4, seed=3):
    return fs_workload(num_jobs, seed=seed, config=SMALL_FS)


class TestSessionTelemetry:
    def test_off_by_default(self):
        session = Session(cluster=marenostrum_preliminary())
        result = session.run(small_spec())
        assert result.telemetry is None

    def test_with_telemetry_records_scheduler_passes(self):
        session = Session(cluster=marenostrum_preliminary()).with_telemetry(
            correlation_id="t-1"
        )
        result = session.run(small_spec())
        telemetry = result.telemetry
        assert isinstance(telemetry, Telemetry)
        assert telemetry.correlation_id == "t-1"
        passes = [s for s in telemetry.spans if s.name == "sched.pass"]
        assert passes
        assert {s.clock for s in passes} == {CLOCK_SIM}
        assert {s.track for s in passes} == {"scheduler"}
        # Sim start/end coincide for a pass; the wall cost is an attr.
        assert all(s.attrs["wall_us"] >= 0 for s in passes)

    def test_each_pass_reaches_append_with_its_wall_cost(self, monkeypatch):
        # An outside-in tracer wraps Telemetry.append and reads each
        # pass's name and wall cost as the pass ends.
        seen = []
        append = Telemetry.append

        def spy(telemetry, span):
            append(telemetry, span)
            if span.name == "sched.pass":
                seen.append(span.attrs["wall_us"])

        monkeypatch.setattr(Telemetry, "append", spy)
        result = (
            Session(cluster=marenostrum_preliminary())
            .with_telemetry()
            .run(small_spec())
        )
        assert seen
        assert len(seen) == result.telemetry.counts_by_name()["sched.pass"]
        assert all(wall_us >= 0 for wall_us in seen)

    def test_flexible_run_records_reconfigurations(self):
        session = Session(cluster=marenostrum_preliminary()).with_telemetry()
        result = session.run(small_spec(num_jobs=8), flexible=True)
        reconfigs = [
            s for s in result.telemetry.spans if s.name == "runtime.reconfig"
        ]
        assert reconfigs
        assert {s.attrs["action"] for s in reconfigs} <= {"expand", "shrink"}
        assert all(s.end >= s.start for s in reconfigs)

    def test_faulty_run_records_injections(self):
        plan = FaultPlan.scripted([
            FaultEvent(time=5.0, kind=FaultKind.NODE_FAIL, node=1),
            FaultEvent(time=50.0, kind=FaultKind.NODE_RECOVER, node=1),
        ])
        session = (
            Session(cluster=marenostrum_preliminary())
            .with_faults(plan)
            .with_telemetry(correlation_id="faulty")
        )
        result = session.run(small_spec(num_jobs=6), flexible=True)
        injections = [
            s for s in result.telemetry.spans if s.name == "fault.inject"
        ]
        assert len(injections) == 2
        assert all(s.instant for s in injections)
        assert {s.attrs["kind"] for s in injections} == {
            "node_fail", "node_recover"
        }

    def test_paired_runs_get_their_own_recorders(self):
        session = Session(cluster=marenostrum_preliminary()).with_telemetry(
            correlation_id="pair"
        )
        pair = session.run_paired(small_spec())
        assert pair.fixed.telemetry is not pair.flexible.telemetry
        assert pair.fixed.telemetry.correlation_id == "pair"
        assert pair.fixed.telemetry.counts_by_name()["sched.pass"] > 0
        assert pair.flexible.telemetry.counts_by_name()["sched.pass"] > 0

    def test_span_buffer_bound_applies(self):
        session = Session(cluster=marenostrum_preliminary()).with_telemetry(
            max_spans=3
        )
        result = session.run(small_spec(num_jobs=8), flexible=True)
        assert len(result.telemetry.spans) == 3
        assert result.telemetry.dropped > 0

    def test_telemetry_config_travels_on_the_spec(self):
        import pickle

        session = Session(cluster=marenostrum_preliminary()).with_telemetry(
            correlation_id="spec"
        )
        assert session.telemetry == TelemetryConfig(correlation_id="spec")
        clone = pickle.loads(pickle.dumps(session))
        assert clone.telemetry == session.telemetry
        result = clone.run(small_spec(num_jobs=3), flexible=True)
        assert result.telemetry.correlation_id == "spec"


class TestObserverErrorMetrics:
    def test_observer_errors_reach_the_default_registry(self):
        class Faulty(SessionObserver):
            def on_event(self, event):
                if event.kind is EventKind.JOB_END:
                    raise RuntimeError("subscriber went away")

        family = default_registry().counter(
            "repro_observer_errors_total", labels=("observer",)
        )
        before = family.labels(observer="Faulty").value
        session = Session(cluster=marenostrum_preliminary()).observe(Faulty())
        session.run(small_spec(num_jobs=3))
        after = family.labels(observer="Faulty").value
        assert after - before == 3.0
