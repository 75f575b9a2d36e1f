"""Spill-to-disk trace streaming: round trips and crash-mid-spill."""

from __future__ import annotations

import pytest

from repro.errors import TraceError, TraceStreamError
from repro.metrics.stream import (
    FOOTER_PREFIX,
    StreamingTraceWriter,
    read_trace_lines,
    stream_digest,
)
from repro.metrics.trace import (
    EventKind,
    Trace,
    canonical_line,
    canonical_lines,
    trace_digest,
)


def _sample_trace(retain: bool = True, writer=None) -> Trace:
    trace = Trace(retain=retain)
    if writer is not None:
        writer.attach(trace)
    trace.record(0.0, EventKind.JOB_SUBMIT, 1, name="j1", nodes=4)
    trace.record(0.0, EventKind.JOB_START, 1, nodes=4, node_ids=(0, 1, 2, 3))
    trace.record(12.5, EventKind.RESIZE_SHRINK, 1, from_nodes=4, to_nodes=2)
    trace.record(99.0, EventKind.JOB_END, 1, state="completed")
    return trace


def test_round_trip_preserves_lines_and_digest(tmp_path):
    path = tmp_path / "trace.log"
    with StreamingTraceWriter(path) as writer:
        trace = _sample_trace(writer=writer)
    assert read_trace_lines(path) == canonical_lines(trace)
    assert stream_digest(path) == trace_digest(trace)


def test_streaming_digest_matches_retained_digest_incrementally(tmp_path):
    """The writer's running digest equals trace_digest at every prefix."""
    trace = Trace()
    writer = StreamingTraceWriter(tmp_path / "t.log")
    for i in range(5):
        trace.record(float(i), EventKind.JOB_SUBMIT, i, name=f"j{i}")
        writer(trace.events[-1])
        assert writer.digest == trace_digest(trace)
    writer.close()


def test_non_retaining_trace_spills_but_keeps_no_events(tmp_path):
    path = tmp_path / "lean.log"
    with StreamingTraceWriter(path) as writer:
        trace = _sample_trace(retain=False, writer=writer)
    assert trace.events == []
    assert len(trace) == 4
    assert trace.last_time() == 99.0
    with pytest.raises(TraceError):
        list(trace)
    with pytest.raises(TraceError):
        trace.of_kind(EventKind.JOB_END)
    # The spill carries everything the retained trace would have.
    retained = _sample_trace(retain=True)
    assert read_trace_lines(path) == canonical_lines(retained)
    assert stream_digest(path) == trace_digest(retained)


def test_comments_are_digested_like_golden_headers(tmp_path):
    path = tmp_path / "sections.log"
    with StreamingTraceWriter(path) as writer:
        writer.write_comment("fig3 n=10 rigid")
        trace = _sample_trace(writer=writer)
    lines = read_trace_lines(path)
    assert lines[0] == "# fig3 n=10 rigid"
    assert lines[1:] == canonical_lines(trace)


def test_missing_footer_raises(tmp_path):
    """Crash mid-spill: the writer never closed, so there is no footer."""
    path = tmp_path / "crashed.log"
    writer = StreamingTraceWriter(path)
    trace = _sample_trace(writer=writer)
    writer._fh.flush()  # simulate dying before close()
    del trace
    with pytest.raises(TraceStreamError, match="footer"):
        read_trace_lines(path)
    with pytest.raises(TraceStreamError):
        stream_digest(path)
    writer.close()


def test_truncated_body_raises(tmp_path):
    path = tmp_path / "truncated.log"
    with StreamingTraceWriter(path) as writer:
        _sample_trace(writer=writer)
    text = path.read_text(encoding="utf-8")
    body, footer = text.splitlines()[:-1], text.splitlines()[-1]
    path.write_text("\n".join(body[1:] + [footer]) + "\n", encoding="utf-8")
    with pytest.raises(TraceStreamError, match="truncated"):
        read_trace_lines(path)


def test_corrupted_line_raises(tmp_path):
    path = tmp_path / "corrupt.log"
    with StreamingTraceWriter(path) as writer:
        _sample_trace(writer=writer)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("nodes=4", "nodes=8", 1), encoding="utf-8")
    with pytest.raises(TraceStreamError, match="digest mismatch"):
        read_trace_lines(path)


def test_partial_final_line_raises(tmp_path):
    path = tmp_path / "partial.log"
    with StreamingTraceWriter(path) as writer:
        _sample_trace(writer=writer)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-10], encoding="utf-8")  # mid-footer cut
    with pytest.raises(TraceStreamError):
        read_trace_lines(path)


def test_malformed_footer_raises(tmp_path):
    path = tmp_path / "badfooter.log"
    with StreamingTraceWriter(path) as writer:
        _sample_trace(writer=writer)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = FOOTER_PREFIX + "events=oops"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceStreamError, match="malformed footer"):
        read_trace_lines(path)


def test_write_after_close_raises(tmp_path):
    writer = StreamingTraceWriter(tmp_path / "closed.log")
    writer.close()
    with pytest.raises(TraceStreamError, match="closed"):
        writer.write_line("late")
    writer.close()  # idempotent


def test_empty_stream_round_trips(tmp_path):
    path = tmp_path / "empty.log"
    StreamingTraceWriter(path).close()
    assert read_trace_lines(path) == []
    assert stream_digest(path) == trace_digest(Trace())


def test_unsubscribe_stops_the_spill(tmp_path):
    path = tmp_path / "detached.log"
    trace = Trace()
    writer = StreamingTraceWriter(path)
    writer.attach(trace)
    trace.record(0.0, EventKind.JOB_SUBMIT, 1, name="j1")
    trace.unsubscribe(writer)
    trace.record(1.0, EventKind.JOB_END, 1, state="completed")
    writer.close()
    assert read_trace_lines(path) == [canonical_line(trace.events[0])]
