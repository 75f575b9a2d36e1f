"""Time-series views of a trace (the paper's "evolution in time" figures).

Figures 4, 5, 6 and 12 plot, against time: allocated nodes, number of
running jobs, and completed-job counts.  All three series are derived here
as step functions from the trace.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.metrics.trace import EventKind, Trace, row_get


@dataclass(frozen=True)
class StepSeries:
    """A right-continuous step function sampled from events."""

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be non-decreasing")

    def at(self, t: float) -> float:
        """Value of the series at time ``t`` (0 before the first event)."""
        idx = bisect_right(self.times, t) - 1
        return self.values[idx] if idx >= 0 else 0.0

    def integral(self, t0: float, t1: float) -> float:
        """Integral of the step function over [t0, t1]."""
        if t1 < t0:
            raise ValueError(f"empty interval [{t0}, {t1}]")
        total, prev_t, prev_v = 0.0, t0, self.at(t0)
        for t, v in zip(self.times, self.values):
            if t <= t0:
                continue
            if t >= t1:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, v
        total += prev_v * (t1 - prev_t)
        return total

    def average(self, t0: float, t1: float) -> float:
        """Time-average over [t0, t1] (0 on an empty interval)."""
        if t1 <= t0:
            return 0.0
        return self.integral(t0, t1) / (t1 - t0)

    def sample(self, times: Sequence[float]) -> List[float]:
        return [self.at(t) for t in times]


def _dedupe(points: Iterable[Tuple[float, float]]) -> StepSeries:
    """Keep only the last value per timestamp; every series starts at 0 at 0.0."""
    times: List[float] = [0.0]
    values: List[float] = [0.0]
    for t, v in points:
        if times[-1] == t:
            values[-1] = v
        else:
            times.append(t)
            values.append(v)
    return StepSeries(tuple(times), tuple(values))


def allocated_nodes_series(trace: Trace) -> StepSeries:
    """Allocated node count over time (top plots of Figs. 4-6, 12)."""
    return _dedupe(
        (t, float(used))
        for t, used in trace.iter_series(EventKind.ALLOC_CHANGE, "nodes_used")
    )


def running_jobs_series(trace: Trace, include_resizers: bool = False) -> StepSeries:
    """Number of running jobs over time."""
    skipped = set() if include_resizers else {
        row[2]
        for row in trace.rows(EventKind.JOB_SUBMIT)
        if row_get(row, "resizer")
    }
    start = EventKind.JOB_START.value
    points: List[Tuple[float, float]] = []
    running: set = set()
    # A requeued job is pending again until its restart's JOB_START.
    for row in trace.rows(
        EventKind.JOB_START, EventKind.JOB_END, EventKind.JOB_CANCEL,
        EventKind.JOB_REQUEUE,
    ):
        job_id = row[2]
        if job_id in skipped:
            continue
        if row[1][0] == start:
            running.add(job_id)
            points.append((row[0], float(len(running))))
        elif job_id in running:
            running.discard(job_id)
            points.append((row[0], float(len(running))))
    return _dedupe(points)


def completed_jobs_series(trace: Trace) -> StepSeries:
    """Cumulative completed-job count (the throughput curves)."""
    return _dedupe(
        (row[0], float(count))
        for count, row in enumerate(trace.rows(EventKind.JOB_END), 1)
    )
