"""Aggregate workload measures (Table II of the paper).

Table II reports, per workload and per rendition (fixed/flexible):

* **Avg. resource utilization rate** — the average fraction of time nodes
  are allocated to jobs, relative to the workload execution time;
* **Avg. job waiting time** — submission to start;
* **Avg. job execution time** — start to end;
* **Avg. job completion time** — waiting plus execution.

Plus the headline **workload execution time** (makespan) of Fig. 10 and
the **gain** lines of Figs. 3, 7, 10 and 11.

Two statistics rules live here.  Seed ensembles of the paper metrics
get :func:`metric_stats` (mean with a Student-t 95% interval); wall
times get :func:`order_stats` (nearest-rank order statistics, a
quantile reported only when :func:`backed`), because a wall-time sample
is skewed and a symmetric interval around its mean can run below zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.metrics.timeline import allocated_nodes_series
from repro.metrics.trace import Trace
from repro.slurm.job import Job


@dataclass(frozen=True)
class WorkloadSummary:
    """The Table II row (one workload, one rendition)."""

    num_jobs: int
    makespan: float
    utilization_rate: float
    avg_wait_time: float
    avg_execution_time: float
    avg_completion_time: float
    total_node_seconds: float
    resize_count: int

    def as_dict(self) -> dict:
        return {
            "num_jobs": self.num_jobs,
            "makespan": self.makespan,
            "utilization_rate": self.utilization_rate,
            "avg_wait_time": self.avg_wait_time,
            "avg_execution_time": self.avg_execution_time,
            "avg_completion_time": self.avg_completion_time,
            "total_node_seconds": self.total_node_seconds,
            "resize_count": self.resize_count,
        }


def summarize(jobs: Sequence[Job], trace: Trace, num_nodes: int) -> WorkloadSummary:
    """Compute the Table II measures for one finished workload.

    ``jobs`` are the workload's (non-resizer) jobs, all terminal.
    """
    real_jobs: List[Job] = [j for j in jobs if not j.is_resizer]
    if not real_jobs:
        raise ValueError("no jobs to summarize")
    incomplete = [j for j in real_jobs if j.end_time is None]
    if incomplete:
        raise ValueError(f"jobs not finished: {[j.job_id for j in incomplete]}")

    t0 = min(j.submit_time for j in real_jobs)
    t1 = max(j.end_time for j in real_jobs)
    makespan = t1 - t0

    alloc = allocated_nodes_series(trace)
    node_seconds = alloc.integral(t0, t1)
    utilization = node_seconds / (num_nodes * makespan) if makespan > 0 else 0.0

    waits = np.array([j.wait_time for j in real_jobs])
    execs = np.array([j.execution_time for j in real_jobs])
    resizes = sum(len(j.resizes) for j in real_jobs)

    return WorkloadSummary(
        num_jobs=len(real_jobs),
        makespan=makespan,
        utilization_rate=utilization,
        avg_wait_time=float(waits.mean()),
        avg_execution_time=float(execs.mean()),
        avg_completion_time=float((waits + execs).mean()),
        total_node_seconds=node_seconds,
        resize_count=resizes,
    )


#: Two-sided 95% Student-t critical values for df = 1..30; beyond that
#: the normal approximation (1.96) is within half a percent.
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_critical_95(df: int) -> float:
    """Two-sided 95% t critical value (normal approximation past df=30)."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return _T95[df - 1] if df <= len(_T95) else 1.96


@dataclass(frozen=True)
class MetricStats:
    """Seed-ensemble statistics of one metric (the sweep currency).

    ``ci95_half`` is the half-width of the Student-t 95% confidence
    interval on the mean; a single observation has zero spread by
    convention (stdev and CI are both 0), so deterministic metrics —
    e.g. the analytic Fig. 1 costs — aggregate to a zero-width band
    rather than NaN.
    """

    n: int
    mean: float
    median: float
    stdev: float
    ci95_half: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci95_half

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci95_half

    def format_mean_ci(self) -> str:
        """The headline rendering: ``mean ± half-width``."""
        return f"{self.mean:.6g} ± {self.ci95_half:.3g}"

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "median": self.median,
            "stdev": self.stdev,
            "ci95_half": self.ci95_half,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def metric_stats(values: Sequence[float]) -> MetricStats:
    """Mean/median/sample-stdev/95% CI of a seed ensemble."""
    if not values:
        raise ValueError("no values to aggregate")
    arr = np.asarray(values, dtype=float)
    n = len(arr)
    mean = float(arr.mean())
    median = float(np.median(arr))
    if n == 1 or float(arr.min()) == float(arr.max()):
        # A lone observation — or a degenerate (deterministic) ensemble,
        # where accumulated float error must not masquerade as spread.
        stdev = 0.0
        ci = 0.0
    else:
        stdev = float(arr.std(ddof=1))
        ci = t_critical_95(n - 1) * stdev / float(np.sqrt(n))
    return MetricStats(n=n, mean=mean, median=median, stdev=stdev, ci95_half=ci)


#: A reported quantile needs at least this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``fraction`` of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def backed(count: int, fraction: float) -> bool:
    """Whether ``count`` samples leave :data:`SAMPLES_BEYOND` of them
    above the nearest-rank ``fraction`` percentile: p90 needs 100
    samples, p99 needs 1,000."""
    return count - math.ceil(fraction * count) >= SAMPLES_BEYOND


def order_stats(values: Sequence[float]) -> Dict[str, float]:
    """The wall-time report: ``n``, ``min``, the nearest-rank ``median``
    and ``max``, plus ``p90`` and ``p99`` only when :func:`backed`."""
    if not values:
        raise ValueError("no values to order")
    ordered = sorted(values)
    n = len(ordered)
    stats = {"n": n, "min": ordered[0], "median": percentile(ordered, 0.5),
             "max": ordered[-1]}
    for name, fraction in (("p90", 0.9), ("p99", 0.99)):
        if backed(n, fraction):
            stats[name] = percentile(ordered, fraction)
    return stats


def gain_percent(fixed: float, flexible: float) -> float:
    """The paper's gain metric: how much the flexible rendition saves.

    Positive = flexible is better (smaller), as in Figs. 3/7/10/11.
    """
    if fixed == 0:
        raise ValueError("fixed reference value is zero")
    return 100.0 * (fixed - flexible) / fixed
