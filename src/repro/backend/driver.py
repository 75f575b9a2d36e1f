"""Workload execution over the backend contract.

:func:`run_workload` is the backend-neutral counterpart of
:meth:`repro.api.session.SessionRun.execute`: it paces a
:class:`~repro.workload.spec.WorkloadSpec` through *any*
:class:`~repro.backend.base.ExecutionBackend` and rebuilds the familiar
:class:`~repro.api.results.WorkloadResult` from the backend's accounting
records — no trace scraping, no reliance on simulator internals.  The
session routes non-sim backends here (the sim backend keeps its native
in-process path, whose golden traces are pinned byte-for-byte).

Because accounting is the source of truth, the trace attached to the
result is *synthetic*: submit/start/end and allocation-change events
reconstructed from the records, enough for the timeline/summary helpers
and the session observer protocol to work unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.observers import ObserverDispatch
from repro.api.results import WorkloadResult
from repro.backend.base import (
    DEFAULT_DRAIN_TIMEOUT,
    AccountingRecord,
    ExecutionBackend,
    JobRequest,
)
from repro.metrics.summary import summarize
from repro.metrics.trace import EventKind, Trace
from repro.obs.spans import CLOCK_WALL, Telemetry
from repro.slurm.job import Job, JobState
from repro.workload.spec import WorkloadSpec


def _request_for(job: Job, time_scale: float) -> JobRequest:
    """Translate a materialized :class:`Job` into a backend request."""
    app = job.payload
    duration = app.total_time(job.num_nodes) * time_scale
    min_nodes = max_nodes = None
    if job.is_flexible and job.resize_request is not None:
        min_nodes = job.resize_request.min_procs
        max_nodes = job.resize_request.max_procs
    return JobRequest(
        name=job.name,
        num_nodes=job.num_nodes,
        duration=duration,
        time_limit=job.time_limit * time_scale,
        min_nodes=min_nodes,
        max_nodes=max_nodes,
    )


def _apply_record(job: Job, record: AccountingRecord, t0: float) -> None:
    """Fold the backend's accounting truth into the Job object."""

    def rel(t: Optional[float]) -> Optional[float]:
        return None if t is None else max(t - t0, 0.0)

    job.submit_time = rel(record.submit_time)
    job.start_time = rel(record.start_time)
    job.end_time = rel(record.end_time)
    if record.num_nodes >= 1:
        job.num_nodes = record.num_nodes
    # Defensive fallbacks: summarize() needs every job to carry a full
    # submit/start/end triple, and a real sacct can answer "Unknown" for
    # a job cancelled while pending.
    if job.submit_time is None:
        job.submit_time = 0.0
    if job.start_time is None:
        job.start_time = job.end_time if job.end_time is not None else job.submit_time
    if job.end_time is None:
        elapsed = record.elapsed if record.elapsed is not None else 0.0
        job.end_time = job.start_time + elapsed
    # Drive the state machine along a legal path where one exists; a
    # backend reporting an exotic path (e.g. BOOT_FAIL straight from
    # PENDING) still lands on the accounting state.
    if record.state is not job.state:
        try:
            if job.state is JobState.PENDING and record.state not in (
                JobState.CANCELLED,
                JobState.BOOT_FAIL,
                JobState.DEADLINE,
                JobState.PENDING,
            ):
                job.transition(JobState.RUNNING)
            if record.state is not job.state:
                job.transition(record.state)
        except Exception:
            job.state = record.state


def _synthesize_trace(
    jobs: List[Tuple[Job, AccountingRecord]],
    observers: Tuple[object, ...],
) -> Trace:
    """Rebuild a canonical-looking trace from accounting records.

    Events are recorded in time order (ties broken submit < start < end)
    so live observers see a plausible stream and the timeline helpers
    (``allocated_nodes_series`` et al.) work on the result.
    """
    trace = Trace()
    if observers:
        # No in-process controller backs these events: observers attach
        # to None and check the event stream alone.
        trace.subscribe(ObserverDispatch(None, tuple(observers)))

    SUBMIT, START, END = 0, 1, 2
    moments: List[Tuple[float, int, int, Job, AccountingRecord]] = []
    for job, record in jobs:
        moments.append((job.submit_time or 0.0, SUBMIT, job.job_id, job, record))
        if record.start_time is not None:
            moments.append((job.start_time, START, job.job_id, job, record))
        moments.append((job.end_time, END, job.job_id, job, record))
    moments.sort(key=lambda m: (m[0], m[1], m[2]))

    nodes_used = 0
    started: set = set()
    for time, phase, _, job, record in moments:
        if phase == SUBMIT:
            trace.record(
                time,
                EventKind.JOB_SUBMIT,
                job.job_id,
                name=job.name,
                nodes=job.num_nodes,
                flexible=job.is_flexible,
                resizer=False,
            )
        elif phase == START:
            started.add(job.job_id)
            nodes_used += job.num_nodes
            trace.record(
                time,
                EventKind.JOB_START,
                job.job_id,
                nodes=job.num_nodes,
                node_ids=(),
                resizer=False,
            )
            trace.record(
                time, EventKind.ALLOC_CHANGE, None, nodes_used=nodes_used
            )
        else:
            kind = (
                EventKind.JOB_CANCEL
                if record.state is JobState.CANCELLED
                else EventKind.JOB_END
            )
            if kind is EventKind.JOB_CANCEL:
                trace.record(time, kind, job.job_id)
            else:
                trace.record(time, kind, job.job_id, state=record.state.value)
            if job.job_id in started:
                started.discard(job.job_id)
                nodes_used -= job.num_nodes
                trace.record(
                    time, EventKind.ALLOC_CHANGE, None, nodes_used=nodes_used
                )
    return trace


def run_workload(
    backend: ExecutionBackend,
    spec: WorkloadSpec,
    flexible: bool = True,
    session=None,
    time_scale: float = 1.0,
    drain_timeout: Optional[float] = None,
) -> WorkloadResult:
    """Execute a workload through a backend and assemble the result.

    ``time_scale`` compresses the workload's virtual seconds onto the
    backend clock (a wall-clock backend cannot afford to *actually*
    sleep through an hour-long trace); durations, arrivals and limits
    all scale together, so the schedule's shape is preserved.
    """
    if time_scale <= 0:
        raise ValueError(f"time_scale must be positive, got {time_scale}")
    capabilities = backend.capabilities
    if drain_timeout is None:
        if capabilities.clock == "sim" and session is not None:
            drain_timeout = session.max_sim_time
        else:
            drain_timeout = DEFAULT_DRAIN_TIMEOUT

    telemetry = None
    if session is not None and session.telemetry is not None:
        telemetry = Telemetry(session.telemetry)
    observers: Tuple[object, ...] = ()
    if session is not None:
        # Each event reaches an observer once: those the backend feeds
        # live do not see the rebuilt trace as well.
        live = {id(obs) for obs in backend.live_observers}
        observers = tuple(
            obs for obs in session.observers if id(obs) not in live
        )

    wall_start = backend.now()
    t0 = wall_start
    by_backend_id: Dict[str, Job] = {}
    jobs: List[Job] = []
    for index, job_spec in enumerate(spec.jobs, start=1):
        target = t0 + job_spec.arrival_time * time_scale
        if target > backend.now():
            backend.wait(target - backend.now())
        job = job_spec.build_job(flexible)
        job.job_id = index
        backend_id = backend.submit(_request_for(job, time_scale))
        by_backend_id[backend_id] = job
        jobs.append(job)

    records = backend.drain(timeout=drain_timeout)

    paired: List[Tuple[Job, AccountingRecord]] = []
    for backend_id, job in by_backend_id.items():
        record = records[backend_id]
        _apply_record(job, record, t0)
        paired.append((job, record))

    trace = _synthesize_trace(paired, observers)
    num_nodes = (
        session.cluster.num_nodes
        if session is not None and session.cluster is not None
        else max((j.num_nodes for j in jobs), default=1)
    )
    summary = summarize(jobs, trace, num_nodes)
    if telemetry is not None:
        telemetry.record(
            "backend.run",
            wall_start,
            backend.now(),
            clock=CLOCK_WALL if capabilities.clock == "wall" else "sim",
            backend=backend.name,
            workload=spec.name,
            jobs=len(jobs),
        )
    return WorkloadResult(
        workload_name=spec.name,
        flexible=flexible,
        jobs=jobs,
        trace=trace,
        summary=summary,
        telemetry=telemetry,
        accounting=tuple(records[bid] for bid in by_backend_id),
        backend=backend.name,
    )
