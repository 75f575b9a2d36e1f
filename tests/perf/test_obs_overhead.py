"""Telemetry cost pin: spans must stay out of the scheduler's way.

The scheduler records one ``sched.pass`` span per pass through the
:meth:`~repro.obs.spans.Telemetry.append` fast path, as a packed
:class:`~repro.obs.spans.PassSpan` tuple; this test keeps that call site
honest.  It replays the 20k-job bench trace with telemetry off and on and
requires the same schedule.  Then it pins the span path's cost by count,
not by wall clock:

* exactly one ``Telemetry.append`` call per pass;
* the memory each span keeps, measured with :mod:`tracemalloc` over a
  slice of the run (before the spans are read and unpacked): the live
  blocks and bytes whose allocation traceback runs through
  ``SlurmController._note_pass``, per span of the slice.

A wall-clock ratio of two replays cannot carry this pin on a shared
host: the replay's speed moves with the host and with every engine
change, while a span's cost does not.
"""

from __future__ import annotations

import inspect
import tracemalloc

from repro.obs.spans import Telemetry, TelemetryConfig
from repro.slurm.controller import SlurmController
from repro.sweep.bench import replay_sched_trace
from repro.workload.generator import sched_trace

SIZE = 20_000
SEED = 2017
#: The traced slice: spans ``TRACE_FROM + 1`` to ``TRACE_FROM +
#: TRACED_SPANS`` (tracing the whole replay would take a minute).
TRACE_FROM = 1_000
TRACED_SPANS = 2_000
#: Traceback depth: enough to see ``_note_pass`` under whatever it calls
#: (``Telemetry.append``, a ``Span`` constructor, an attrs property).
FRAMES = 8
#: What a span may keep: its PassSpan tuple (80 B) and wall-time float
#: (24 B), an int for a count above 256 now and then, and one slot of the
#: buffer list.  An eagerly built ``Span`` with its attrs dict keeps
#: about three blocks and 300 B.
MAX_BLOCKS_PER_SPAN = 2.1
MAX_BYTES_PER_SPAN = 136.0


class MeasuredTelemetry(Telemetry):
    """Counts appends, and traces the heap over a slice of the run: a
    snapshot after span ``TRACE_FROM + TRACED_SPANS`` holds what the
    slice's spans keep."""

    __slots__ = ("appends", "snapshot")

    def __init__(self, config: TelemetryConfig) -> None:
        super().__init__(config)
        self.appends = 0
        self.snapshot = None

    def append(self, span) -> None:
        self.appends += 1
        if self.appends == TRACE_FROM:
            tracemalloc.start(FRAMES)
        super().append(span)
        if self.appends == TRACE_FROM + TRACED_SPANS:
            self.snapshot = tracemalloc.take_snapshot()
            tracemalloc.stop()


def _span_path_cost(snapshot: tracemalloc.Snapshot) -> tuple:
    """Blocks and bytes still held whose traceback runs through the
    scheduler's span call site."""
    lines, first = inspect.getsourcelines(SlurmController._note_pass)
    last = first + len(lines) - 1
    path = inspect.getsourcefile(SlurmController)
    blocks = size = 0
    for trace in snapshot.traces:
        if any(frame.filename == path and first <= frame.lineno <= last
               for frame in trace.traceback):
            blocks += 1
            size += trace.size
    return blocks, size


def test_pass_span_costs_one_append_and_one_packed_tuple():
    trace = sched_trace(SIZE, seed=SEED)
    off = replay_sched_trace(trace, incremental=True)
    telemetry = MeasuredTelemetry(TelemetryConfig(
        correlation_id=f"overhead-{SIZE}"
    ))
    try:
        on = replay_sched_trace(trace, incremental=True, telemetry=telemetry)
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    # Telemetry must not change what the scheduler does...
    assert on["passes"] == off["passes"]
    assert on["comparisons"] == off["comparisons"]
    assert on["jobs_started"] == off["jobs_started"]
    assert on["makespan_s"] == off["makespan_s"]
    # ...and every pass must have produced exactly one span, none shed,
    # through exactly one append.
    assert telemetry.appends == on["passes"]
    assert on["spans_recorded"] == on["passes"]
    assert on["spans_dropped"] == 0
    # The pin: what each span of the traced slice keeps.
    assert telemetry.snapshot is not None
    blocks, size = _span_path_cost(telemetry.snapshot)
    assert blocks >= TRACED_SPANS, (
        f"only {blocks} live blocks trace back to _note_pass for "
        f"{TRACED_SPANS} spans: has the span call site moved?"
    )
    assert blocks / TRACED_SPANS <= MAX_BLOCKS_PER_SPAN, (
        f"a pass span keeps {blocks / TRACED_SPANS:.2f} blocks "
        f"(budget {MAX_BLOCKS_PER_SPAN})"
    )
    assert size / TRACED_SPANS <= MAX_BYTES_PER_SPAN, (
        f"a pass span keeps {size / TRACED_SPANS:.1f} bytes "
        f"(budget {MAX_BYTES_PER_SPAN:.0f})"
    )
