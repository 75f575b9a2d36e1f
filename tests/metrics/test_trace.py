"""Tests for the trace event log."""

import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import EventKind, Trace
from repro.metrics.trace import (
    JOB_END,
    _canonical_value,
    canonical_line,
    canonical_lines,
    shape,
    text_digest,
    trace_digest,
)


def test_record_and_len():
    tr = Trace()
    tr.record(1.0, EventKind.JOB_SUBMIT, 1, nodes=4)
    tr.record(2.0, EventKind.JOB_START, 1, nodes=4)
    assert len(tr) == 2


def test_of_kind_filters():
    tr = Trace()
    tr.record(1.0, EventKind.JOB_SUBMIT, 1)
    tr.record(2.0, EventKind.JOB_START, 1)
    tr.record(3.0, EventKind.JOB_SUBMIT, 2)
    subs = tr.of_kind(EventKind.JOB_SUBMIT)
    assert [e.job_id for e in subs] == [1, 2]


def test_of_kind_multiple():
    tr = Trace()
    tr.record(1.0, EventKind.JOB_SUBMIT, 1)
    tr.record(2.0, EventKind.JOB_END, 1)
    both = tr.of_kind(EventKind.JOB_SUBMIT, EventKind.JOB_END)
    assert len(both) == 2


def test_of_job():
    tr = Trace()
    tr.record(1.0, EventKind.JOB_SUBMIT, 1)
    tr.record(2.0, EventKind.JOB_SUBMIT, 2)
    assert len(tr.of_job(2)) == 1


def test_series_extraction():
    tr = Trace()
    tr.record(1.0, EventKind.ALLOC_CHANGE, nodes_used=4)
    tr.record(5.0, EventKind.ALLOC_CHANGE, nodes_used=8)
    assert tr.series(EventKind.ALLOC_CHANGE, "nodes_used") == [(1.0, 4), (5.0, 8)]


def test_event_getitem():
    tr = Trace()
    tr.record(1.0, EventKind.JOB_START, 1, nodes=16)
    (e,) = tr
    assert e["nodes"] == 16


def test_last_time():
    tr = Trace()
    assert tr.last_time() == 0.0
    tr.record(9.0, EventKind.JOB_END, 1)
    assert tr.last_time() == 9.0


def test_iteration():
    tr = Trace()
    tr.record(1.0, EventKind.JOB_SUBMIT, 1)
    assert [e.time for e in tr] == [1.0]


# -- rows, shapes and the canonical rendering ---------------------------------

#: Names ``record`` binds itself, so they cannot be data keys.
_RESERVED = {"self", "time", "kind", "job_id"}


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    """A str subclass whose ``str`` and ``format`` differ."""

    def __str__(self):
        return f"<{str.__str__(self)}>"


# Any text: braces, quotes, spaces and ``=`` included.
_keys = st.lists(
    st.text(max_size=6).filter(lambda key: key not in _RESERVED),
    unique=True,
    max_size=5,
)
_atoms = st.one_of(
    st.floats(),
    st.integers(),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(), st.integers()),
    st.lists(st.integers(min_value=0), max_size=4).map(tuple),
    # Subclasses of the direct types render through _canonical_value.
    st.floats().map(np.float64),
    st.just(Level.LOW),
    st.text(max_size=4).map(Tag),
)
_records = st.tuples(
    st.floats(min_value=0, allow_nan=False),
    # True: reuse the previous record's time object.
    st.booleans(),
    st.sampled_from(EventKind),
    st.one_of(st.none(), st.integers(min_value=1)),
    _keys.flatmap(
        lambda keys: st.fixed_dictionaries({key: _atoms for key in keys})
    ),
)


def _reference_line(time, kind, job_id, data):
    """The canonical line as rendered from a keyword dict."""
    body = " ".join(f"{key}={_canonical_value(data[key])}" for key in sorted(data))
    job = "-" if job_id is None else str(job_id)
    return f"{time!r} {kind.value} {job} {body}".rstrip()


@settings(max_examples=200, deadline=None)
@given(st.lists(_records, max_size=6))
def test_rows_render_digest_and_match_across_forms(drawn):
    records, time = [], None
    for fresh, shared, kind, job_id, data in drawn:
        time = time if shared and time is not None else fresh
        records.append((time, kind, job_id, data))
    by_keyword, by_shape = Trace(), Trace()
    for time, kind, job_id, data in records:
        by_keyword.record(time, kind, job_id, **data)
        by_shape.record(time, shape(kind, *data), job_id, *data.values())

    rows = list(by_keyword.rows())
    assert rows == list(by_shape.rows())
    assert all(a[1] is b[1] for a, b in zip(rows, by_shape.rows()))
    assert canonical_lines(by_keyword) == [
        _reference_line(*record) for record in records
    ]
    assert [canonical_line(event) for event in by_shape] == canonical_lines(
        by_keyword
    )
    assert trace_digest(by_keyword) == text_digest(
        "\n".join(canonical_lines(by_keyword))
    )


def test_view_reads_like_a_record():
    tr = Trace()
    tr.record(2.5, EventKind.JOB_START, 7, nodes=2, node_ids=(4, 5))
    (event,) = tr
    assert (event.time, event.kind, event.job_id) == (2.5, EventKind.JOB_START, 7)
    assert event.data == {"nodes": 2, "node_ids": (4, 5)}
    assert list(event.data) == ["nodes", "node_ids"]  # recording order
    assert event["node_ids"] == (4, 5)
    with pytest.raises(KeyError):
        event["missing"]
    assert event == tr.of_job(7)[0]
    assert repr(event) == (
        "TraceEvent(time=2.5, kind=<EventKind.JOB_START: 'job_start'>, "
        "job_id=7, data={'nodes': 2, 'node_ids': (4, 5)})"
    )


def test_record_returns_nothing_and_builds_one_view_per_subscribed_record():
    tr = Trace()
    seen = []
    tr.subscribe(seen.append)
    tr.subscribe(seen.append)
    assert tr.record(1.0, JOB_END, 3, "completed") is None
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0].data == {"state": "completed"}


def test_keyword_form_takes_no_positional_values():
    with pytest.raises(TypeError):
        Trace().record(1.0, EventKind.JOB_END, 3, "completed")
