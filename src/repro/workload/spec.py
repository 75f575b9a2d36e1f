"""Workload specifications: what gets submitted, when, and how."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.apps.base import AppModel
from repro.errors import WorkloadError
from repro.slurm.job import Job, JobClass


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One job of a workload, independent of fixed/flexible execution."""

    name: str
    #: Node count at submission (rigid submission size).
    submit_nodes: int
    #: Seconds after workload start at which the job is submitted.
    arrival_time: float
    #: Factory producing a fresh AppModel instance per execution.
    app_factory: Callable[[], AppModel]
    #: Whether the *flexible* rendition of the workload may resize this job.
    flexible: bool = True
    #: Flexible submission (future-work extension): the scheduler may
    #: start the job below its submitted size.
    moldable: bool = False
    #: Walltime limit passed to the scheduler (backfill planning input).
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        if self.submit_nodes < 1:
            raise WorkloadError(f"submit_nodes must be >= 1, got {self.submit_nodes}")
        if self.arrival_time < 0:
            raise WorkloadError(f"arrival_time must be >= 0, got {self.arrival_time}")

    def build_job(self, flexible_workload: bool) -> Job:
        """Materialize the Slurm job for a fixed or flexible rendition.

        The *same* spec yields the fixed and the flexible version of the
        workload, as in the paper's paired experiments.
        """
        app = self.app_factory()
        is_flex = flexible_workload and self.flexible and app.resize is not None
        nominal = app.total_time(self.submit_nodes)
        limit = self.time_limit if self.time_limit is not None else 1.2 * nominal
        moldable = self.moldable and app.resize is not None
        if is_flex:
            job_class = JobClass.MALLEABLE
        elif moldable:
            job_class = JobClass.MOLDABLE
        else:
            job_class = JobClass.RIGID
        return Job(
            name=self.name,
            num_nodes=self.submit_nodes,
            time_limit=limit,
            job_class=job_class,
            resize_request=app.resize if (is_flex or moldable) else None,
            payload=app,
            moldable_start=moldable,
        )


@dataclass
class WorkloadSpec:
    """An ordered collection of job specs plus identification metadata."""

    name: str
    jobs: List[JobSpec] = field(default_factory=list)
    #: Seed the workload was generated from (for provenance).
    seed: int = 0

    def __post_init__(self) -> None:
        self.jobs = sorted(self.jobs, key=lambda s: s.arrival_time)

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def flexible_count(self) -> int:
        return sum(1 for s in self.jobs if s.flexible)

    @property
    def flexible_ratio(self) -> float:
        return self.flexible_count / len(self.jobs) if self.jobs else 0.0
