"""Tests for spans, telemetry recorders and correlation configs."""

import pickle

import pytest

from repro.obs.spans import (
    CLOCK_SIM,
    DEFAULT_MAX_SPANS,
    PassSpan,
    Span,
    Telemetry,
    TelemetryConfig,
)


class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.correlation_id is None
        assert config.max_spans == DEFAULT_MAX_SPANS

    def test_rejects_non_positive_buffer(self):
        with pytest.raises(ValueError):
            TelemetryConfig(max_spans=0)

    def test_child_scopes_the_id(self):
        parent = TelemetryConfig(correlation_id="sweep")
        assert parent.child(3).correlation_id == "sweep/3"
        assert parent.child(3).child("fixed").correlation_id == "sweep/3/fixed"

    def test_child_of_anonymous_config(self):
        assert TelemetryConfig().child(7).correlation_id == "7"

    def test_child_keeps_buffer_bound(self):
        assert TelemetryConfig(max_spans=5).child(0).max_spans == 5

    def test_picklable(self):
        # The config must cross ProcessPoolExecutor boundaries intact.
        config = TelemetryConfig(correlation_id="pool/2", max_spans=99)
        assert pickle.loads(pickle.dumps(config)) == config


class TestSpan:
    def test_duration_and_instant(self):
        assert Span("a", 1.0, 3.5).duration == pytest.approx(2.5)
        assert not Span("a", 1.0, 3.5).instant
        assert Span("b", 2.0, None).instant
        assert Span("b", 2.0, None).duration == 0.0

    def test_dict_round_trip(self):
        span = Span("sched.pass", 10.0, 12.0, CLOCK_SIM, "scheduler",
                    {"jobs": 4})
        back = Span.from_dict(span.as_dict())
        assert back.as_dict() == span.as_dict()

    def test_as_dict_omits_empty_attrs(self):
        assert "attrs" not in Span("a", 0.0, 1.0).as_dict()
        assert Span("a", 0.0, 1.0, attrs={"k": 1}).as_dict()["attrs"] == {
            "k": 1
        }

    def test_from_dict_defaults(self):
        span = Span.from_dict({"name": "x", "start": 1.0, "end": None})
        assert span.clock == CLOCK_SIM
        assert span.track == "main"
        assert span.instant


class TestTelemetry:
    def test_record_and_counts(self):
        telemetry = Telemetry()
        telemetry.record("sched.pass", 0.0, 1.0, track="scheduler")
        telemetry.record("sched.pass", 1.0, 2.0, track="scheduler")
        telemetry.instant("fault.inject", 5.0, track="faults", node=3)
        assert telemetry.counts_by_name() == {
            "sched.pass": 2, "fault.inject": 1
        }
        assert telemetry.spans[2].attrs == {"node": 3}

    def test_bounded_buffer_counts_drops(self):
        telemetry = Telemetry(TelemetryConfig(max_spans=2))
        for i in range(5):
            telemetry.record("s", float(i), float(i) + 1)
        assert len(telemetry.spans) == 2
        assert telemetry.dropped == 3

    def test_as_dicts_tags_correlation_id(self):
        telemetry = Telemetry(TelemetryConfig(correlation_id="job-1"))
        telemetry.record("a", 0.0, 1.0)
        assert telemetry.as_dicts()[0]["cid"] == "job-1"
        anonymous = Telemetry()
        anonymous.record("a", 0.0, 1.0)
        assert "cid" not in anonymous.as_dicts()[0]


class TestPassSpan:
    def test_reads_as_a_sched_pass_span(self):
        span = PassSpan((12.0, "backfill", 3, 1, 7.5))
        assert span.name == "sched.pass"
        assert span.attrs == {
            "kind": "backfill", "examined": 3, "started": 1, "wall_us": 7.5
        }
        assert span.unpack().as_dict() == Span(
            "sched.pass", 12.0, 12.0, CLOCK_SIM, "scheduler", span.attrs
        ).as_dict()

    def test_spans_unpacks_in_recording_order(self):
        telemetry = Telemetry()
        telemetry.record("a", 0.0, 1.0)
        telemetry.append(PassSpan((1.0, "fifo", 2, 0, 3.0)))
        telemetry.instant("b", 2.0)
        spans = telemetry.spans
        assert [s.name for s in spans] == ["a", "sched.pass", "b"]
        assert all(type(s) is Span for s in spans)
        assert telemetry.counts_by_name() == {"a": 1, "sched.pass": 1, "b": 1}
        assert telemetry.as_dicts()[1]["attrs"]["examined"] == 2

    def test_each_pass_span_is_unpacked_once(self):
        telemetry = Telemetry()
        telemetry.append(PassSpan((1.0, "fifo", 2, 0, 3.0)))
        first = telemetry.spans[0]
        telemetry.append(PassSpan((2.0, "backfill", 0, 0, 1.0)))
        spans = telemetry.spans
        assert spans[0] is first
        assert spans[1].start == spans[1].end == 2.0
        assert telemetry.spans is spans

    def test_replay_counts_pass_spans_without_unpacking_them(self):
        from repro.sweep.bench import replay_sched_trace
        from repro.workload.generator import sched_trace

        telemetry = Telemetry()
        stats = replay_sched_trace(
            sched_trace(200, seed=2017), incremental=True, telemetry=telemetry
        )
        assert stats["spans_recorded"] == stats["passes"] == len(telemetry)
        assert telemetry.counts_by_name() == {"sched.pass": stats["passes"]}
        assert all(type(span) is PassSpan for span in telemetry._spans)

    def test_append_respects_bound(self):
        telemetry = Telemetry(TelemetryConfig(max_spans=2))
        for i in range(5):
            telemetry.append(PassSpan((float(i), "fifo", 0, 0, 0.0)))
        assert [s.start for s in telemetry.spans] == [0.0, 1.0]
        assert telemetry.dropped == 3

    def test_recorder_with_pass_spans_pickles(self):
        telemetry = Telemetry(TelemetryConfig(correlation_id="c"))
        telemetry.append(PassSpan((4.0, "fifo", 1, 1, 2.0)))
        back = pickle.loads(pickle.dumps(telemetry))
        assert back.as_dicts() == telemetry.as_dicts()
