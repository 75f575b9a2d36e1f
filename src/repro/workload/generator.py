"""Workload assembly for the paper's experiments.

Two families:

* **FS workloads** (Section VIII): synthetic Flexible Sleep jobs whose
  sizes/runtimes/arrivals come from the Feitelson model; used for the
  synchronous/asynchronous/heterogeneous/micro-step studies.
* **Real-application workloads** (Section IX): a randomly-sorted mix of
  CG, Jacobi and N-body jobs (33% each, fixed seed), each submitted with
  its Table I "maximum" node count, arrivals from the Feitelson model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.apps.base import AppModel
from repro.apps.cg import conjugate_gradient
from repro.apps.jacobi import jacobi
from repro.apps.nbody import nbody
from repro.apps.sleep import flexible_sleep
from repro.cluster.network import GiB
from repro.errors import WorkloadError
from repro.sim.rng import RandomStreams
from repro.workload.feitelson import FeitelsonConfig, FeitelsonModel
from repro.workload.spec import JobSpec, WorkloadSpec


@dataclass(frozen=True)
class FSWorkloadConfig:
    """Parameters of the preliminary-study FS workloads (Section VIII-A).

    Steps default to Table I's 25 iterations; per-step times are drawn
    from the Feitelson hyperexponential (correlated with job size) and
    capped at 60 s ("the maximum runtime was set to 60 seconds for each
    step"), which puts jobs in the several-hundred-second range of the
    paper's evolution charts (Figs. 4-6).
    """

    #: Steps per job (Table I: 25 iterations for FS).
    steps: int = 25
    #: Cap on the per-step time ("maximum runtime ... 60 seconds per step").
    step_cap: float = 60.0
    #: Mean of the short branch of the per-step-time distribution.
    step_short_mean: float = 25.0
    #: Mean of the long branch of the per-step-time distribution.
    step_long_mean: float = 80.0
    #: Bytes transferred at each reconfiguration ("1 GB of data").
    state_bytes: float = 1.0 * GiB
    #: Job sizes are drawn up to this many nodes.
    max_size: int = 20
    #: Average Poisson inter-arrival gap, seconds.
    arrival_mean: float = 10.0
    #: Checking-inhibitor period for the flexible jobs (Fig. 9 sweeps it).
    sched_period: float = 0.0
    #: Fraction of jobs that are flexible (Fig. 8 sweeps it).
    flexible_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise WorkloadError(f"steps must be >= 1, got {self.steps}")
        if self.step_cap <= 0:
            raise WorkloadError(f"step_cap must be positive, got {self.step_cap}")
        if not 0.0 <= self.flexible_ratio <= 1.0:
            raise WorkloadError(
                f"flexible_ratio must be in [0, 1], got {self.flexible_ratio}"
            )


def fs_workload(
    num_jobs: int,
    seed: int = 0,
    config: Optional[FSWorkloadConfig] = None,
) -> WorkloadSpec:
    """Generate one FS workload (the flexible rendition).

    The fixed rendition is the same spec run with
    ``Session.run(spec, flexible=False)``, which builds every job with
    ``JobSpec.build_job(False)``, so both renditions share identical job
    sizes, runtimes and arrival times, as in the paper.
    """
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    cfg = config or FSWorkloadConfig()
    rng = RandomStreams(seed)
    model = FeitelsonModel(
        FeitelsonConfig(
            max_size=cfg.max_size,
            arrival_mean=cfg.arrival_mean,
            runtime_short_mean=cfg.step_short_mean,
            runtime_long_mean=cfg.step_long_mean,
            runtime_cap=cfg.step_cap,
        ),
        rng,
    )

    specs: List[JobSpec] = []
    arrivals = model.arrival_times(num_jobs)
    for i in range(num_jobs):
        size = model.sample_size()
        step_time = model.sample_runtime(size)  # per-step time, capped
        flexible = rng.bernoulli("workload.flexible", cfg.flexible_ratio)
        # Close over loop variables via default arguments.
        factory: Callable[[], AppModel] = (
            lambda st=step_time, sz=size: flexible_sleep(
                step_time=st,
                at_procs=sz,
                steps=cfg.steps,
                state_bytes=cfg.state_bytes,
                max_procs=cfg.max_size,
                sched_period=cfg.sched_period,
            )
        )
        specs.append(
            JobSpec(
                name=f"fs-{i:04d}",
                submit_nodes=size,
                arrival_time=arrivals[i],
                app_factory=factory,
                flexible=flexible,
            )
        )
    return WorkloadSpec(name=f"fs-{num_jobs}jobs-seed{seed}", jobs=specs, seed=seed)


@dataclass(frozen=True, slots=True)
class SchedTraceJob:
    """One job of a scheduler-scale trace (no application payload).

    The ``repro bench sched`` harness replays tens of thousands of these
    as sleep jobs (:func:`repro.sweep.bench.replay_sched_trace`); the
    full :class:`~repro.workload.spec.JobSpec` (app factory, runtime
    model, DMR machinery) would dominate the measurement and cap the
    feasible trace size.
    """

    name: str
    nodes: int
    arrival: float
    runtime: float
    limit: float


def sched_trace(
    num_jobs: int,
    seed: int = 0,
    max_size: int = 20,
    arrival_mean: float = 10.0,
    runtime_short_mean: float = 120.0,
    runtime_long_mean: float = 600.0,
    runtime_cap: float = 3600.0,
) -> List[SchedTraceJob]:
    """Generate a synthetic Feitelson trace for scheduler benchmarks.

    Sizes, runtimes (hyperexponential, size-correlated) and Poisson
    arrivals come from the same model as the FS workloads, but runtimes
    are job totals (minutes-scale, like real cluster logs) rather than
    per-step times.
    """
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    rng = RandomStreams(seed)
    model = FeitelsonModel(
        FeitelsonConfig(
            max_size=max_size,
            arrival_mean=arrival_mean,
            runtime_short_mean=runtime_short_mean,
            runtime_long_mean=runtime_long_mean,
            runtime_cap=runtime_cap,
        ),
        rng,
    )
    arrivals = model.arrival_times(num_jobs)
    jobs: List[SchedTraceJob] = []
    for i in range(num_jobs):
        size = model.sample_size()
        runtime = model.sample_runtime(size)
        jobs.append(
            SchedTraceJob(
                name=f"sched-{i:05d}",
                nodes=size,
                arrival=arrivals[i],
                runtime=runtime,
                limit=1.2 * runtime,
            )
        )
    return jobs


def sched_trace_via_swf(trace: Sequence[SchedTraceJob]) -> List[SchedTraceJob]:
    """Round-trip a scheduler trace through the SWF format.

    Serializes the trace as a Standard Workload Format log and parses it
    back, exercising the real-log import path at bench scale.  SWF stores
    times at centisecond precision, so the returned jobs are the
    rounded-as-logged rendition of the input.
    """
    from repro.workload.swf import export_sched_trace, parse_swf

    spec = parse_swf(export_sched_trace(trace))
    return [
        SchedTraceJob(
            name=js.name,
            nodes=js.submit_nodes,
            arrival=js.arrival_time,
            runtime=js.time_limit / 1.2,
            limit=js.time_limit,
        )
        for js in spec.jobs
    ]


#: The paper's Section IX job mix: one third of each real application.
REALAPP_FACTORIES: Sequence[Callable[[], AppModel]] = (
    conjugate_gradient,
    jacobi,
    nbody,
)


def realapp_workload(
    num_jobs: int,
    seed: int = 0,
    arrival_mean: float = 30.0,
    factories: Sequence[Callable[[], AppModel]] = REALAPP_FACTORIES,
) -> WorkloadSpec:
    """Generate a Section IX real-application workload.

    Jobs instantiate CG/Jacobi/N-body in equal proportions, randomly
    sorted with a fixed seed, submitted with their Table I *maximum*
    process count ("the user-preferred scenario of a fast execution");
    inter-arrival gaps follow the Feitelson model.
    """
    if num_jobs < 1:
        raise WorkloadError(f"num_jobs must be >= 1, got {num_jobs}")
    if not factories:
        raise WorkloadError("need at least one application factory")
    rng = RandomStreams(seed)
    model = FeitelsonModel(FeitelsonConfig(arrival_mean=arrival_mean), rng)

    # Equal proportions, then randomly sorted with the workload seed.
    assigned = [factories[i % len(factories)] for i in range(num_jobs)]
    order = rng.stream("workload.sort").permutation(num_jobs)
    arrivals = model.arrival_times(num_jobs)

    specs: List[JobSpec] = []
    for i in range(num_jobs):
        factory = assigned[int(order[i])]
        app = factory()  # probe instance: sizes and limits
        assert app.resize is not None
        specs.append(
            JobSpec(
                name=f"{app.name}-{i:04d}",
                submit_nodes=app.resize.max_procs,
                arrival_time=arrivals[i],
                app_factory=factory,
                flexible=True,
            )
        )
    return WorkloadSpec(
        name=f"realapps-{num_jobs}jobs-seed{seed}", jobs=specs, seed=seed
    )
