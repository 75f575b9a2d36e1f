"""Typed event tracing.

Every interesting scheduler/runtime occurrence is recorded into a
:class:`Trace`; all paper metrics (utilization series, waiting times,
throughput curves) are pure functions of the trace, which keeps the
simulation and its measurement decoupled.

A trace stores each record as one flat *row* tuple,
``(time, shape, job_id, *values)``.  The *shape* is an interned tuple of
strings, ``(kind.value, key, ...)``, shared by every row of the same
form, and each value is an atom (float, int, str, bool, None) or a tuple
of ints.  A row therefore holds no object the cyclic garbage collector
has to follow, so CPython stops tracking it at its first young-generation
pass, and it costs about 100 bytes.  :class:`TraceEvent` is a read-side
view of one row, built only when something reads the trace or a live
subscriber exists.

A trace has two consumption modes:

* **retained** (the default): rows accumulate for post-hoc queries —
  what every experiment driver uses;
* **streaming** (``Trace(retain=False)``): events are dispatched to the
  live subscribers and dropped, so memory stays flat no matter how long
  the simulation runs.  Million-job benches and the spill-to-disk writer
  (:mod:`repro.metrics.stream`) run in this mode; post-hoc queries on a
  non-retaining trace raise :class:`~repro.errors.TraceError`.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import TraceError


class EventKind(enum.Enum):
    """Trace event vocabulary."""

    JOB_SUBMIT = "job_submit"
    JOB_START = "job_start"
    JOB_END = "job_end"
    JOB_CANCEL = "job_cancel"
    RESIZE_DECISION = "resize_decision"
    RESIZE_EXPAND = "resize_expand"
    RESIZE_SHRINK = "resize_shrink"
    RESIZE_ABORT = "resize_abort"
    DMR_CHECK = "dmr_check"
    CHECKPOINT_WRITE = "checkpoint_write"
    CHECKPOINT_READ = "checkpoint_read"
    ALLOC_CHANGE = "alloc_change"
    # Fault-injection vocabulary (:mod:`repro.faults`).
    NODE_FAIL = "node_fail"
    NODE_RECOVER = "node_recover"
    NODE_DRAIN = "node_drain"
    NODE_RESUME = "node_resume"
    NODE_SLOWDOWN = "node_slowdown"
    NET_DEGRADE = "net_degrade"
    JOB_REQUEUE = "job_requeue"


#: Row = ``(time, shape, job_id, *values)``; the first value's index.
_VALUES = 3

_KIND_OF: Dict[str, EventKind] = {kind.value: kind for kind in EventKind}
#: Every shape ever made, keyed by itself, so equal shapes are one object.
_SHAPES: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


def shape(kind: EventKind, *keys: str) -> Tuple[str, ...]:
    """The interned row shape ``(kind.value, *keys)``.

    Hot record sites build theirs once at import and pass positional
    values in ``keys`` order: ``trace.record(t, SHAPE, job_id, *values)``.
    """
    key = (kind.value, *keys)
    return _SHAPES.setdefault(key, key)


# The shapes of the high-volume records.
JOB_SUBMIT = shape(EventKind.JOB_SUBMIT, "name", "nodes", "flexible", "resizer")
JOB_START = shape(EventKind.JOB_START, "nodes", "node_ids", "resizer")
JOB_END = shape(EventKind.JOB_END, "state")
ALLOC_CHANGE = shape(EventKind.ALLOC_CHANGE, "nodes_used", "nodes_total")
RESIZE_DECISION = shape(
    EventKind.RESIZE_DECISION, "action", "target", "reason", "beneficiary"
)
DMR_CHECK = shape(EventKind.DMR_CHECK, "blocking", "applied")


def _escape(text: str) -> str:
    """``text`` as literal ``str.format`` template text."""
    return text.replace("{", "{{").replace("}", "}}")


class _Layout:
    """What readers need to know about one shape, computed once."""

    __slots__ = ("position", "line")

    def __init__(self, shape: Tuple[str, ...]) -> None:
        #: Row index of each key's value.
        self.position = {key: i for i, key in enumerate(shape[1:], _VALUES)}
        fields = " ".join(
            f"{_escape(key)}={{{index - 1}}}"
            for key, index in sorted(self.position.items())
        )
        #: The canonical line before its rstrip: time text, kind, job
        #: text, then ``key=value`` in sorted key order.  Called as
        #: ``line(time_text, job_text, *row[_VALUES:])``, so the value at
        #: row index i is argument i - 1.
        self.line = f"{{0}} {_escape(shape[0])} {{1}} {fields}".format


_LAYOUTS: Dict[Tuple[str, ...], _Layout] = {}


def _layout(shape: Tuple[str, ...]) -> _Layout:
    layout = _LAYOUTS.get(shape)
    if layout is None:
        layout = _LAYOUTS.setdefault(shape, _Layout(shape))
    return layout


def row_kind(row: tuple) -> EventKind:
    """The :class:`EventKind` of a row."""
    return _KIND_OF[row[1][0]]


def row_get(row: tuple, key: str, default: Any = None) -> Any:
    """A row's value for ``key`` (``default`` when the row has none)."""
    index = _layout(row[1]).position.get(key)
    return default if index is None else row[index]


def row_data(row: tuple) -> Dict[str, Any]:
    """A row's values as a ``{key: value}`` dict, in recording order."""
    return dict(zip(row[1][1:], row[_VALUES:]))


class TraceEvent:
    """A read-side view of one trace row.

    Reads like a record: ``time``, ``kind``, ``job_id``, ``data`` (a
    dict built on first access) and ``event[key]``.  The trace builds a
    view once per record for its live subscribers, and on demand for
    post-hoc readers; the row it wraps is immutable.
    """

    __slots__ = ("row", "_data")

    def __init__(self, row: tuple) -> None:
        self.row = row
        self._data: Optional[Dict[str, Any]] = None

    @property
    def time(self) -> float:
        return self.row[0]

    @property
    def kind(self) -> EventKind:
        return _KIND_OF[self.row[1][0]]

    @property
    def job_id(self) -> Optional[int]:
        return self.row[2]

    @property
    def data(self) -> Dict[str, Any]:
        data = self._data
        if data is None:
            data = self._data = row_data(self.row)
        return data

    def __getitem__(self, key: str) -> Any:
        index = _layout(self.row[1]).position.get(key)
        if index is None:
            raise KeyError(key)
        return self.row[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.time == other.time
            and self.kind == other.kind
            and self.job_id == other.job_id
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return (
            f"TraceEvent(time={self.time!r}, kind={self.kind!r}, "
            f"job_id={self.job_id!r}, data={self.data!r})"
        )


class Trace:
    """Event log with small query helpers and live subscription.

    Besides the post-hoc queries, a trace supports *live* consumption:
    :meth:`subscribe` registers a callback invoked with a
    :class:`TraceEvent` for every record the moment it is recorded.  The
    :class:`repro.api.Session` observer machinery and the spill-to-disk
    writer are built on this hook.

    ``retain=False`` turns off in-memory accumulation: no rows are kept,
    ``len``/:meth:`last_time` keep working from counters, and the
    post-hoc query helpers raise :class:`~repro.errors.TraceError`
    instead of silently answering from an empty log.
    """

    __slots__ = ("retain", "_rows", "_subscribers", "_count", "_last_time")

    def __init__(self, retain: bool = True) -> None:
        self.retain = retain
        self._rows: List[tuple] = []
        self._subscribers: List[Any] = []
        self._count = 0
        self._last_time = 0.0

    def subscribe(self, callback) -> None:
        """Call ``callback(event)`` for every subsequently recorded event."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        """Remove a previously registered live callback."""
        self._subscribers.remove(callback)

    def record(
        self,
        time: float,
        kind,
        job_id: Optional[int] = None,
        *values: Any,
        **data: Any,
    ) -> None:
        """Add one record; the only way into a trace.

        Hot sites pass a prebuilt :func:`shape` and positional values
        (``record(t, JOB_END, job_id, "completed")``); any other site
        passes an :class:`EventKind` and keywords
        (``record(t, EventKind.JOB_END, job_id, state="completed")``).
        Both forms of the same record make the same row.  Values must be
        atoms or tuples of ints, so the row stays untracked by the cyclic
        collector.
        """
        if kind.__class__ is tuple:
            row = (time, kind, job_id, *values)
        elif values:
            raise TypeError(
                "record(): pass values by keyword with an EventKind, "
                "or positionally with a shape"
            )
        else:
            # The table is keyed on the kind's value string, not on the
            # member, whose hash runs in Python.
            key = (kind._value_, *data)
            row = (time, _SHAPES.setdefault(key, key), job_id, *data.values())
        self._count += 1
        self._last_time = time
        if self.retain:
            self._rows.append(row)
        if self._subscribers:
            event = TraceEvent(row)
            for callback in self._subscribers:
                callback(event)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(TraceEvent, self.rows())

    @property
    def events(self) -> List[TraceEvent]:
        """Every retained record as a new list of views (empty when the
        trace keeps none); iterate the trace or use a query to avoid
        building the whole list."""
        return list(map(TraceEvent, self._rows))

    def rows(self, *kinds: EventKind) -> Iterator[tuple]:
        """The raw rows of the given kind(s) (all rows without any), in
        recording order; every post-hoc read goes through here."""
        if not self.retain and self._count:
            raise TraceError(
                "cannot read a non-retaining trace: events were "
                "dispatched to live subscribers and dropped "
                "(construct the Trace with retain=True for post-hoc queries)"
            )
        if not kinds:
            return iter(self._rows)
        wanted = {kind.value for kind in kinds}
        return (row for row in self._rows if row[1][0] in wanted)

    def of_kind(self, *kinds: EventKind) -> List[TraceEvent]:
        """All events of the given kind(s), in time order."""
        return list(map(TraceEvent, self.rows(*kinds)))

    def of_job(self, job_id: int) -> List[TraceEvent]:
        return [TraceEvent(row) for row in self.rows() if row[2] == job_id]

    def iter_series(self, kind: EventKind, key: str) -> Iterator[Tuple[float, Any]]:
        """Lazy :meth:`series`."""
        shape, index = None, 0
        for row in self.rows(kind):
            if row[1] is not shape:
                shape = row[1]
                index = _layout(shape).position.get(key)
                if index is None:
                    raise KeyError(key)
            yield row[0], row[index]

    def series(self, kind: EventKind, key: str) -> List[Tuple[float, Any]]:
        """(time, data[key]) pairs for every event of ``kind``."""
        return list(self.iter_series(kind, key))

    def last_time(self) -> float:
        """Timestamp of the latest event (0.0 for an empty trace)."""
        return self._last_time


#: Value types whose ``format(value, "")`` equals :func:`_canonical_value`;
#: exact types only, since a subclass (``np.float64``, an ``IntEnum``)
#: may format differently from its ``repr`` or ``str``.
_DIRECT = frozenset((float, int, bool, str, type(None)))
_UNSET = object()


class LineRenderer:
    """Renders rows as canonical lines (see :func:`canonical_line`).

    Each row goes through its shape's line template.  Consecutive rows
    often carry the very same time object (a decision and its DMR check
    share ``env.now``), so the renderer keeps the last time it rendered
    and reuses that text when ``row[0] is`` that time.  That state is
    the only reason to hold one: each consumer (a stream, a spill, one
    :func:`canonical_lines` call) owns its own and calls its bound
    :meth:`line`.
    """

    __slots__ = ("_time", "_time_text")

    def __init__(self) -> None:
        self._time: Any = _UNSET
        self._time_text = ""

    def line(self, row: tuple) -> str:
        """The canonical line of ``row``."""
        time = row[0]
        if time is not self._time:
            self._time = time
            self._time_text = repr(time)
        layout = _LAYOUTS.get(row[1]) or _layout(row[1])
        values = row[_VALUES:]
        if not _DIRECT.issuperset(map(type, values)):
            values = [
                value if type(value) in _DIRECT else _canonical_value(value)
                for value in values
            ]
        job = row[2]
        return layout.line(
            self._time_text, "-" if job is None else str(job), *values
        ).rstrip()


def canonical_line(event: TraceEvent) -> str:
    """Render one trace event as a canonical, diffable text line.

    The format is deliberately lossless and deterministic — floats use
    ``repr`` (shortest round-trip form), data keys are sorted — so two
    traces are byte-identical iff every scheduling decision was identical.
    The golden-trace suite (tests/slurm/test_golden_traces.py) pins the
    scheduler's behaviour on these lines.
    """
    return LineRenderer().line(event.row)


def _canonical_value(value: Any) -> str:
    """The reference rendering of one value (floats by ``repr``,
    sequences as ``[a,b]``, anything else by ``str``)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_canonical_value(v) for v in value) + "]"
    return str(value)


def canonical_lines(trace: Trace) -> List[str]:
    """All trace events as canonical lines, in recording order."""
    return list(map(LineRenderer().line, trace.rows()))


def trace_digest(trace: Trace) -> str:
    """SHA-256 over the canonical rendering of a trace.

    Equals ``text_digest("\\n".join(canonical_lines(trace)))``; the lines
    are hashed one at a time, so no list of lines or joined text is built.
    """
    sha = hashlib.sha256()
    render = LineRenderer().line
    separator = ""
    for row in trace.rows():
        sha.update((separator + render(row)).encode("utf-8"))
        separator = "\n"
    return sha.hexdigest()


def text_digest(text: str) -> str:
    """SHA-256 of a text artifact (golden-file helper)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
