"""Result containers returned by the :class:`~repro.api.session.Session`.

They are the public currency of the execution API: every
:meth:`~repro.api.session.Session.run` returns a :class:`WorkloadResult`
and every :meth:`~repro.api.session.Session.run_paired` a
:class:`PairedComparison`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.metrics.summary import WorkloadSummary
from repro.metrics.timeline import (
    StepSeries,
    allocated_nodes_series,
    completed_jobs_series,
    running_jobs_series,
)
from repro.metrics.trace import Trace
from repro.obs.spans import Telemetry
from repro.slurm.job import Job


@dataclass
class WorkloadResult:
    """Everything an experiment needs from one workload execution.

    The evolution series accessors derive their step functions from
    :attr:`trace` (:mod:`repro.metrics.timeline`).
    """

    workload_name: str
    flexible: bool
    jobs: List[Job]
    trace: Trace
    summary: WorkloadSummary
    #: The run's span recorder when the session enabled telemetry
    #: (:meth:`~repro.api.session.Session.with_telemetry`).
    telemetry: Optional["Telemetry"] = None
    #: Backend accounting records (``sacct`` rows) when the run executed
    #: through the execution-backend seam; None for the native sim path,
    #: whose ground truth is the trace itself.
    accounting: Optional[tuple] = None
    #: Which execution backend produced this result.
    backend: str = "sim"

    @property
    def makespan(self) -> float:
        return self.summary.makespan

    def allocation_series(self) -> StepSeries:
        return allocated_nodes_series(self.trace)

    def running_series(self) -> StepSeries:
        return running_jobs_series(self.trace)

    def completed_series(self) -> StepSeries:
        return completed_jobs_series(self.trace)


@dataclass
class PairedComparison:
    """A fixed-vs-flexible pair on the same workload (the paper's design)."""

    fixed: WorkloadResult
    flexible: WorkloadResult

    @property
    def makespan_gain(self) -> float:
        from repro.metrics.summary import gain_percent

        return gain_percent(self.fixed.makespan, self.flexible.makespan)

    @property
    def wait_gain(self) -> float:
        from repro.metrics.summary import gain_percent

        return gain_percent(
            self.fixed.summary.avg_wait_time, self.flexible.summary.avg_wait_time
        )
