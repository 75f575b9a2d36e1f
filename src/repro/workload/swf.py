"""Standard Workload Format (SWF) import/export.

SWF is the interchange format of the Parallel Workloads Archive (the
corpus Feitelson's model was fitted on): one job per line, 18
whitespace-separated fields, ``;`` comments.  Supporting it lets this
reproduction replay real cluster logs through the malleability machinery
and lets other schedulers consume workloads generated here.

Fields used (1-based SWF numbering):

1. job number · 2. submit time · 3. wait time · 4. run time ·
5. allocated processors · 8. requested processors · 9. requested time ·
11. status.  Unused fields are written as ``-1`` per the SWF convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Dict, List, Optional, Sequence

from repro.apps.base import LINEAR_SCALING, AppModel
from repro.core.actions import ResizeRequest
from repro.errors import WorkloadError
from repro.slurm.job import Job
from repro.workload.spec import JobSpec, WorkloadSpec

#: SWF status codes.
SWF_FAILED = 0
SWF_COMPLETED = 1
SWF_CANCELLED = 5


def export_spec(spec: WorkloadSpec) -> str:
    """Render a workload specification as SWF (pre-execution view).

    Wait/run times are not known before execution and are emitted as
    ``-1``; requested time comes from the job's walltime estimate.
    """
    lines = [
        f"; SWF export of workload {spec.name}",
        f"; UnixStartTime: 0",
        f"; MaxJobs: {len(spec.jobs)}",
    ]
    for i, js in enumerate(spec.jobs, start=1):
        app = js.app_factory()
        requested_time = js.time_limit
        if requested_time is None:
            requested_time = 1.2 * app.total_time(js.submit_nodes)
        lines.append(
            _swf_line(
                job_number=i,
                submit=js.arrival_time,
                wait=-1,
                run=-1,
                alloc_procs=-1,
                req_procs=js.submit_nodes,
                req_time=requested_time,
                status=-1,
            )
        )
    return "\n".join(lines) + "\n"


def export_results(jobs: Sequence[Job]) -> str:
    """Render finished jobs as SWF (post-execution accounting view)."""
    lines = ["; SWF export of executed jobs"]
    real = [j for j in jobs if not j.is_resizer]
    for job in sorted(real, key=lambda j: j.job_id):
        if job.submit_time is None or job.end_time is None:
            raise WorkloadError(f"job {job.job_id} has not finished")
        started = job.start_time is not None
        status = SWF_COMPLETED if job.state.value == "completed" else SWF_CANCELLED
        lines.append(
            _swf_line(
                job_number=job.job_id,
                submit=job.submit_time,
                wait=(job.start_time - job.submit_time) if started else -1,
                run=(job.end_time - job.start_time) if started else -1,
                alloc_procs=job.submitted_nodes,
                req_procs=job.submitted_nodes,
                req_time=job.time_limit,
                status=status,
            )
        )
    return "\n".join(lines) + "\n"


def export_sched_trace(trace) -> str:
    """Render a scheduler-scale trace (``SchedTraceJob`` records) as SWF.

    Each record becomes a completed-job line whose run time and requested
    time are known, so :func:`parse_swf` can reconstruct an equivalent
    workload — the ``repro bench sched`` harness uses the round trip to
    exercise the SWF import path at 5k-50k job scale.
    """
    lines = [
        "; SWF export of a scheduler-scale trace",
        f"; MaxJobs: {len(trace)}",
    ]
    for i, job in enumerate(trace, start=1):
        lines.append(
            _swf_line(
                job_number=i,
                submit=job.arrival,
                wait=-1,
                run=job.runtime,
                alloc_procs=job.nodes,
                req_procs=job.nodes,
                req_time=job.limit,
                status=SWF_COMPLETED,
            )
        )
    return "\n".join(lines) + "\n"


def _swf_line(
    job_number: int,
    submit: float,
    wait: float,
    run: float,
    alloc_procs: int,
    req_procs: int,
    req_time: float,
    status: int,
) -> str:
    fields = [
        job_number,          # 1 job number
        _num(submit),        # 2 submit time
        _num(wait),          # 3 wait time
        _num(run),           # 4 run time
        alloc_procs,         # 5 allocated processors
        -1,                  # 6 average CPU time
        -1,                  # 7 used memory
        req_procs,           # 8 requested processors
        _num(req_time),      # 9 requested time
        -1,                  # 10 requested memory
        status,              # 11 status
        -1,                  # 12 user
        -1,                  # 13 group
        -1,                  # 14 application
        -1,                  # 15 queue
        -1,                  # 16 partition
        -1,                  # 17 preceding job
        -1,                  # 18 think time
    ]
    return " ".join(str(f) for f in fields)


def _num(value: float) -> str:
    if value == -1:
        return "-1"
    return f"{value:.2f}".rstrip("0").rstrip(".")


@dataclass(slots=True, eq=False)
class SwfAppFactory:
    """The application factory of one SWF job.

    Each call builds a fresh :class:`AppModel`: ``steps`` iterations of a
    perfectly scalable application whose total work is the log's
    ``runtime x procs``.  A slotted object rather than a closure, so a
    long log costs one small record per job, and a spec pickles.
    """

    job_number: int
    runtime: float
    procs: int
    steps: int
    resize: ResizeRequest

    def __call__(self) -> AppModel:
        steps = self.steps
        return AppModel(
            name=f"swf-{self.job_number}",
            iterations=steps,
            serial_step_time=(self.runtime / steps) * self.procs,
            state_bytes=0.0,
            scalability=LINEAR_SCALING,
            resize=self.resize,
        )


def parse_swf(
    text: str,
    steps: int = 25,
    flexible: bool = True,
    max_procs: Optional[int] = None,
) -> WorkloadSpec:
    """Build a workload specification from an SWF log.

    Each SWF job becomes a perfectly scalable iterative application whose
    total work equals ``run time x requested processors`` (the log's
    observed demand), split into ``steps`` reconfiguring intervals; jobs
    without a positive run time fall back to the requested time.

    A line with too few fields, a field that is not a number (a word, a
    fractional processor count), or a submit, run or requested time that
    is not finite raises :class:`WorkloadError` quoting the line.
    """
    specs: List[JobSpec] = []
    step_count = max(1, steps)
    # One request per distinct maximum size: it is frozen, so the jobs
    # that share a size share it.
    resizes: Dict[int, ResizeRequest] = {}
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 11:
            raise WorkloadError(f"malformed SWF line ({len(fields)} fields): {raw!r}")
        try:
            job_number = int(fields[0])
            submit = float(fields[1])
            run = float(fields[3])
            req_procs = int(fields[7])
            if req_procs <= 0:
                req_procs = max(1, int(fields[4]))
            req_time = float(fields[8])
        except ValueError:
            raise WorkloadError(f"malformed SWF number in line: {raw!r}") from None
        if not (isfinite(submit) and isfinite(run) and isfinite(req_time)):
            raise WorkloadError(f"non-finite time in SWF line: {raw!r}")
        runtime = run if run > 0 else req_time
        if runtime <= 0:
            continue  # unusable record (cancelled before start, no estimate)
        if submit < 0:
            raise WorkloadError(f"negative submit time in SWF line: {raw!r}")
        time_limit = 1.2 * runtime
        if not isfinite(time_limit):
            raise WorkloadError(f"run time out of range in SWF line: {raw!r}")

        largest = req_procs if max_procs is None else max(max_procs, req_procs)
        resize = resizes.get(largest)
        if resize is None:
            resize = resizes[largest] = ResizeRequest(
                min_procs=1, max_procs=largest, factor=2
            )
        specs.append(
            JobSpec(
                name=f"swf-{job_number:05d}",
                submit_nodes=req_procs,
                arrival_time=submit,
                app_factory=SwfAppFactory(
                    job_number, runtime, req_procs, step_count, resize
                ),
                flexible=flexible,
                time_limit=time_limit,
            )
        )
    if not specs:
        raise WorkloadError("SWF log contained no usable jobs")
    return WorkloadSpec(name="swf-import", jobs=specs)

