"""Chrome trace-event export: spans + per-job timeline → Perfetto.

The exporter turns what the repo already has — a simulation
:class:`~repro.metrics.trace.Trace` and/or recorded :class:`~repro.obs.
spans.Span` buffers — into the Chrome trace-event JSON array format
that ``ui.perfetto.dev`` and ``chrome://tracing`` load directly:

* every job becomes its own track (``job 7``) carrying an ``X``
  (complete) slice per incarnation, with instants for submits,
  checkpoints, DMR checks and resize acks;
* resize decision→ack intervals are derived as slices on the job's
  track, fault injections as instants on a dedicated ``faults`` track;
* recorded spans land on their own tracks (``scheduler``, ``runtime``,
  ``sweep``, ...), sim-clock and wall-clock spans on *separate process
  tracks* so each timeline stays internally coherent (sim seconds and
  Unix epochs must never share an axis).

Output is streamed through :class:`PerfettoTraceWriter` — one JSON
event at a time behind a file handle, following the
``StreamingTraceWriter`` spill pattern — so a million-job export never
materializes the event list in memory (the bounded span buffer is the
only RAM cost, and it reports its own drops).

:func:`validate_trace_file` is the schema check the CI ``obs-smoke``
step runs: well-formed JSON array, required keys per phase, and
non-decreasing timestamps within every track.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TelemetryError
from repro.obs.spans import CLOCK_SIM, CLOCK_WALL, Span

#: Process ids for the two clock domains (Perfetto groups tracks by pid).
SIM_PID = 1
WALL_PID = 2

#: Simulated seconds → trace microseconds.
_US = 1_000_000.0


class PerfettoTraceWriter:
    """Streams a Chrome trace-event JSON array to disk, one event at a time."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.events_written = 0
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write("[")
        self._closed = False

    def write(self, event: Dict[str, object]) -> None:
        if self._closed:
            raise TelemetryError(f"trace writer for {self.path} is closed")
        prefix = ",\n" if self.events_written else "\n"
        self._fh.write(prefix + json.dumps(event, sort_keys=True))
        self.events_written += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fh.write("\n]\n" if self.events_written else "]\n")
        self._fh.close()

    def __enter__(self) -> "PerfettoTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- deriving spans from a simulation trace -----------------------------------

def spans_from_trace(trace) -> List[Span]:
    """Derive the per-job timeline spans from a retained trace.

    This is the zero-overhead half of telemetry: job run windows,
    resize decision→ack intervals, checkpoint/fault/requeue instants
    are all *already in the canonical trace*, so nothing extra is
    recorded during simulation (golden digests stay byte-identical) and
    the intervals are reconstructed here at export time.
    """
    from repro.metrics.trace import EventKind, row_data, row_kind

    instants_on_job_track = {
        EventKind.JOB_SUBMIT: "job.submit",
        EventKind.DMR_CHECK: "dmr.check",
        EventKind.CHECKPOINT_WRITE: "checkpoint.write",
        EventKind.CHECKPOINT_READ: "checkpoint.read",
        EventKind.JOB_REQUEUE: "job.requeue",
        EventKind.RESIZE_EXPAND: "resize.expand",
        EventKind.RESIZE_SHRINK: "resize.shrink",
        EventKind.RESIZE_ABORT: "resize.abort",
    }
    fault_kinds = {
        EventKind.NODE_FAIL: "fault.node_fail",
        EventKind.NODE_RECOVER: "fault.node_recover",
        EventKind.NODE_DRAIN: "fault.node_drain",
        EventKind.NODE_RESUME: "fault.node_resume",
        EventKind.NODE_SLOWDOWN: "fault.node_slowdown",
        EventKind.NET_DEGRADE: "fault.net_degrade",
    }
    decision_acks = {
        EventKind.RESIZE_EXPAND, EventKind.RESIZE_SHRINK,
        EventKind.RESIZE_ABORT,
    }

    spans: List[Span] = []
    running_since: Dict[int, float] = {}
    pending_decision: Dict[int, Tuple[float, Dict[str, object]]] = {}
    for row in trace.rows():
        time, kind, job_id = row[0], row_kind(row), row[2]
        track = f"job {job_id}" if job_id is not None else "faults"
        if kind is EventKind.JOB_START:
            running_since[job_id] = time
        elif kind in (EventKind.JOB_END, EventKind.JOB_CANCEL,
                      EventKind.JOB_REQUEUE):
            start = running_since.pop(job_id, None)
            if start is not None:
                spans.append(Span(
                    "job.run", start, time, CLOCK_SIM, track,
                    {"job_id": job_id, "outcome": kind.value},
                ))
        if kind is EventKind.RESIZE_DECISION:
            data = row_data(row)
            pending_decision[job_id] = (time, data)
            spans.append(Span(
                "resize.decision", time, None, CLOCK_SIM, track,
                {"job_id": job_id, **data},
            ))
        elif kind in decision_acks and job_id in pending_decision:
            decided_at, data = pending_decision.pop(job_id)
            spans.append(Span(
                "resize.decision_to_ack", decided_at, time,
                CLOCK_SIM, track,
                {"job_id": job_id, "ack": kind.value, **data},
            ))
        name = instants_on_job_track.get(kind)
        if name is not None:
            spans.append(Span(
                name, time, None, CLOCK_SIM, track,
                {"job_id": job_id, **row_data(row)},
            ))
        name = fault_kinds.get(kind)
        if name is not None:
            spans.append(Span(
                name, time, None, CLOCK_SIM, "faults", row_data(row),
            ))
    # Anything still running when the trace ends stays open-ended; emit
    # it as an instant so the track is not silently empty.
    for job_id, start in sorted(running_since.items()):
        spans.append(Span(
            "job.running_at_end", start, None, CLOCK_SIM, f"job {job_id}",
            {"job_id": job_id},
        ))
    return spans


# -- export -------------------------------------------------------------------

def _track_key(span: Span) -> Tuple[int, str]:
    pid = SIM_PID if span.clock == CLOCK_SIM else WALL_PID
    return pid, span.track


def export_perfetto(
    path: str,
    spans: Sequence[Span] = (),
    trace=None,
    correlation_id: Optional[str] = None,
    dropped: int = 0,
) -> Dict[str, object]:
    """Write spans (plus a trace's derived timeline) as trace-event JSON.

    Returns a summary dict (event/track counts and the carried-through
    drop counter) that CLI surfaces print after writing the file.
    """
    all_spans: List[Span] = list(spans)
    if trace is not None:
        all_spans.extend(spans_from_trace(trace))
    if not all_spans:
        raise TelemetryError(
            "nothing to export: no spans recorded and no trace events"
        )

    # Wall timestamps are Unix epochs; rebase them so the wall tracks
    # start near zero like the sim tracks do.
    wall_starts = [s.start for s in all_spans if s.clock == CLOCK_WALL]
    wall_t0 = min(wall_starts) if wall_starts else 0.0

    # Group per track and sort by start so every track's ts column is
    # non-decreasing (the validator's per-track monotonicity check).
    tracks: Dict[Tuple[int, str], List[Span]] = {}
    for span in all_spans:
        tracks.setdefault(_track_key(span), []).append(span)

    def track_order(key: Tuple[int, str]) -> Tuple[int, int, object]:
        pid, name = key
        if name.startswith("job "):
            try:
                return (pid, 1, int(name[4:]))
            except ValueError:
                return (pid, 1, name)
        return (pid, 0, name)

    with PerfettoTraceWriter(path) as writer:
        writer.write({
            "ph": "M", "name": "process_name", "pid": SIM_PID, "tid": 0,
            "args": {"name": "simulated time"},
        })
        writer.write({
            "ph": "M", "name": "process_name", "pid": WALL_PID, "tid": 0,
            "args": {"name": "wall clock"},
        })
        span_events = 0
        for tid, key in enumerate(sorted(tracks, key=track_order), start=1):
            pid, track_name = key
            writer.write({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track_name},
            })
            for span in sorted(tracks[key], key=lambda s: s.start):
                base = span.start - (wall_t0 if pid == WALL_PID else 0.0)
                event: Dict[str, object] = {
                    "name": span.name,
                    "pid": pid,
                    "tid": tid,
                    "ts": base * _US,
                    "cat": span.clock,
                }
                args = dict(span.attrs)
                if correlation_id is not None:
                    args.setdefault("cid", correlation_id)
                if args:
                    event["args"] = args
                if span.instant:
                    event["ph"] = "i"
                    event["s"] = "t"
                else:
                    event["ph"] = "X"
                    event["dur"] = max(span.duration, 0.0) * _US
                writer.write(event)
                span_events += 1
        total = writer.events_written
    return {
        "path": path,
        "events": total,
        "spans": span_events,
        "tracks": len(tracks),
        "dropped_spans": dropped,
    }


# -- validation (CI smoke + tests) --------------------------------------------

def validate_trace_file(path: str) -> Dict[str, object]:
    """Check a trace-event file is loadable, non-empty and well-ordered.

    Raises :class:`~repro.errors.TelemetryError` on the first problem;
    returns a summary (event count, tracks, span-name histogram) that
    the CI step prints and asserts against.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise TelemetryError(f"cannot load trace {path}: {exc}") from exc
    if not isinstance(data, list):
        raise TelemetryError(f"{path}: trace-event JSON must be an array")
    if not data:
        raise TelemetryError(f"{path}: trace is empty")

    last_ts: Dict[Tuple[object, object], float] = {}
    names: Dict[str, int] = {}
    by_phase: Dict[str, int] = {}
    track_names: Dict[Tuple[object, object], str] = {}
    for index, event in enumerate(data):
        if not isinstance(event, dict):
            raise TelemetryError(f"{path}: event {index} is not an object")
        phase = event.get("ph")
        name = event.get("name")
        if not isinstance(phase, str) or not isinstance(name, str):
            raise TelemetryError(
                f"{path}: event {index} lacks 'ph'/'name' strings"
            )
        by_phase[phase] = by_phase.get(phase, 0) + 1
        if phase == "M":
            if name == "thread_name":
                key = (event.get("pid"), event.get("tid"))
                track_names[key] = event["args"]["name"]
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            raise TelemetryError(
                f"{path}: event {index} ({name!r}) has no numeric 'ts'"
            )
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TelemetryError(
                    f"{path}: complete event {index} ({name!r}) needs "
                    f"'dur' >= 0"
                )
        key = (event.get("pid"), event.get("tid"))
        previous = last_ts.get(key)
        if previous is not None and ts < previous:
            raise TelemetryError(
                f"{path}: ts went backwards on track {key} at event "
                f"{index} ({name!r}): {ts} < {previous}"
            )
        last_ts[key] = float(ts)
        names[name] = names.get(name, 0) + 1
    return {
        "events": len(data),
        "tracks": len(last_ts),
        "track_names": sorted(track_names.values()),
        "names": names,
        "by_phase": by_phase,
    }
