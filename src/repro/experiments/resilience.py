"""Resilience — C/R vs DMR under node failures (Fig. 1 taken to faults).

Fig. 1 compares the *cost* of one reconfiguration under checkpoint/restart
against the DMR API.  This artifact extends the comparison to the scenario
that motivates it operationally: nodes that actually fail.  The same
MTBF-sampled fault plan is replayed against two renditions of the same
workload on the Section VIII testbed:

* **C/R** — rigid jobs with periodic checkpoints; a node death kills the
  job, which is requeued and restarts from its last checkpoint (rollback
  + relaunch + checkpoint read, the Fig. 1 cost structure);
* **DMR** — flexible jobs; the controller answers a node death with a
  forced-shrink decision (``DecisionReason.NODE_FAILURE``) the runtime
  services at its next reconfiguring point, evacuating the dying node
  through the ordinary malleability machinery ("shrink to survive").

Both renditions run to the same measurement horizon (a hair above the
fault-free rigid makespan); the headline metric is the fraction of the
workload's total serial work completed by the horizon.  Every run is
checked live by an :class:`~repro.testing.invariants.InvariantObserver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.api import Session, artifact, default_seed
from repro.api.session import SessionRun
from repro.cluster.configs import marenostrum_preliminary
from repro.errors import SimulationTimeout
from repro.faults import FaultPlan
from repro.metrics.report import format_csv, format_table
from repro.metrics.trace import EventKind, row_get
from repro.runtime.nanos import RuntimeConfig
from repro.testing import InvariantObserver
from repro.workload.spec import WorkloadSpec

#: Default cluster-wide mean-time-between-failures sweep (seconds).
RESILIENCE_MTBFS: Tuple[float, ...] = (2000.0, 1000.0, 500.0)
#: Quick (CI) sweep.
RESILIENCE_QUICK_MTBFS: Tuple[float, ...] = (500.0,)
#: Default workload size (Section VIII testbed: 20 nodes).
RESILIENCE_NUM_JOBS = 20
RESILIENCE_QUICK_NUM_JOBS = 14
#: C/R baseline checkpoints every this many iterations (of 25).
CHECKPOINT_PERIOD_STEPS = 5
#: Node repair time, seconds.
REPAIR_TIME = 600.0
#: Measurement horizon = this factor x the fault-free rigid makespan: a
#: hair of slack, so completing 100% under faults means the mechanism
#: genuinely absorbed them rather than coasting on schedule head-room.
HORIZON_FACTOR = 1.02


@dataclass(frozen=True)
class ResilienceRow:
    """One (MTBF, mechanism) cell of the comparison."""

    mtbf: Optional[float]  # None = fault-free baseline
    mechanism: str  # "cr" | "dmr"
    completed_work: float  # serial-seconds finished by the horizon
    total_work: float
    makespan: Optional[float]  # None when the horizon cut the run short
    failures: int
    requeues: int
    forced_shrinks: int
    checkpoint_writes: int

    @property
    def work_fraction(self) -> float:
        return self.completed_work / self.total_work if self.total_work else 0.0

    @property
    def drained(self) -> bool:
        return self.makespan is not None


@dataclass
class ResilienceResult:
    rows: List[ResilienceRow]
    horizon: float
    num_jobs: int
    seed: int
    invariant_checks: int

    def row(self, mtbf: Optional[float], mechanism: str) -> ResilienceRow:
        for r in self.rows:
            if r.mtbf == mtbf and r.mechanism == mechanism:
                return r
        raise KeyError(f"no row for mtbf={mtbf} mechanism={mechanism}")

    def as_table(self) -> str:
        cells = []
        for r in self.rows:
            cells.append(
                [
                    "-" if r.mtbf is None else f"{r.mtbf:g}",
                    r.mechanism.upper(),
                    f"{100.0 * r.work_fraction:.1f}%",
                    "-" if r.makespan is None else f"{r.makespan:.0f}",
                    r.failures,
                    r.requeues,
                    r.forced_shrinks,
                    r.checkpoint_writes,
                ]
            )
        return format_table(
            ["MTBF (s)", "mechanism", "work done", "makespan (s)",
             "failures", "requeues", "forced shrinks", "ckpt writes"],
            cells,
            title=(
                f"Resilience: C/R vs DMR under node failures "
                f"({self.num_jobs} jobs, horizon {self.horizon:.0f} s, "
                f"{self.invariant_checks} invariant checks)"
            ),
        )

    def as_csv(self) -> str:
        return format_csv(
            ["mtbf_s", "mechanism", "work_fraction", "completed_work_s",
             "total_work_s", "makespan_s", "failures", "requeues",
             "forced_shrinks", "checkpoint_writes"],
            [
                [
                    "" if r.mtbf is None else r.mtbf,
                    r.mechanism,
                    r.work_fraction,
                    r.completed_work,
                    r.total_work,
                    "" if r.makespan is None else r.makespan,
                    r.failures,
                    r.requeues,
                    r.forced_shrinks,
                    r.checkpoint_writes,
                ]
                for r in self.rows
            ],
        )


def _total_work(spec: WorkloadSpec) -> float:
    """The workload's serial work: sum of iterations x serial step time."""
    total = 0.0
    for js in spec.jobs:
        app = js.app_factory()
        total += app.iterations * app.serial_step_time
    return total


def _completed_work(run: SessionRun) -> float:
    """Serial-seconds of useful progress currently held by the jobs.

    Requeued C/R incarnations restart from their checkpoint, so lost
    (rolled-back) work correctly does not count.
    """
    done = 0.0
    for job in run.jobs:
        app = job.payload
        done += app.completed_steps * app.serial_step_time
    return done


def _run_mechanism(
    session: Session,
    spec: WorkloadSpec,
    plan: Optional[FaultPlan],
    mechanism: str,
    horizon: float,
    checkpoint_period: int,
) -> Tuple[ResilienceRow, int]:
    observer = InvariantObserver()
    s = session.observe(observer).with_faults(plan)
    if mechanism == "cr":
        flexible = False
        s = s.with_runtime(
            RuntimeConfig(checkpoint_period_steps=checkpoint_period)
        )
    else:
        flexible = True
    run = s.submit(spec, flexible=flexible)
    makespan: Optional[float] = None
    try:
        result = run.execute(horizon)
        makespan = result.summary.makespan
    except SimulationTimeout:
        pass  # horizon cut the run short; partial work still counts
    trace = run.sim.controller.trace
    row = ResilienceRow(
        mtbf=None,
        mechanism=mechanism,
        completed_work=_completed_work(run),
        total_work=_total_work(spec),
        makespan=makespan,
        failures=len(trace.of_kind(EventKind.NODE_FAIL)),
        requeues=sum(j.requeues for j in run.jobs),
        # Count *serviced* evacuations (the forced DMR_CHECK marker), not
        # issued decisions: a superseding failure can collapse a parked
        # decision into a requeue that never shrinks.
        forced_shrinks=sum(
            1
            for row in trace.rows(EventKind.DMR_CHECK)
            if row_get(row, "forced")
        ),
        checkpoint_writes=len(trace.of_kind(EventKind.CHECKPOINT_WRITE)),
    )
    return row, observer.verify_final()


def run_resilience(
    seed: int = 2017,
    mtbfs: Sequence[float] = RESILIENCE_MTBFS,
    num_jobs: int = RESILIENCE_NUM_JOBS,
    checkpoint_period: int = CHECKPOINT_PERIOD_STEPS,
    repair_time: float = REPAIR_TIME,
    horizon: Optional[float] = None,
) -> ResilienceResult:
    """Run the resilience comparison for one seed."""
    from dataclasses import replace

    base = Session(cluster=marenostrum_preliminary()).with_seed(seed)
    spec = base.fs_workload(num_jobs)

    # The measurement horizon: just above the fault-free rigid makespan,
    # so a mechanism only completes 100% by actually coping with faults.
    baseline = base.run(spec, flexible=False)
    if horizon is None:
        horizon = HORIZON_FACTOR * baseline.summary.makespan

    rows: List[ResilienceRow] = []
    checks = 0
    for mechanism in ("cr", "dmr"):
        row, n = _run_mechanism(
            base, spec, None, mechanism, horizon, checkpoint_period
        )
        rows.append(row)  # fault-free baseline row (mtbf=None)
        checks += n
    num_nodes = base.cluster.num_nodes
    for mtbf in mtbfs:
        plan = FaultPlan.from_mtbf(
            mtbf=mtbf,
            horizon=horizon,
            num_nodes=num_nodes,
            seed=seed,
            repair_time=repair_time,
        )
        for mechanism in ("cr", "dmr"):
            row, n = _run_mechanism(
                base, spec, plan, mechanism, horizon, checkpoint_period
            )
            rows.append(replace(row, mtbf=mtbf))
            checks += n
    return ResilienceResult(
        rows=rows,
        horizon=horizon,
        num_jobs=num_jobs,
        seed=seed,
        invariant_checks=checks,
    )


def run_resilience_quick(seed: int = 2017) -> ResilienceResult:
    """The CI-sized rendition (one MTBF, smaller workload)."""
    return run_resilience(
        seed=seed,
        mtbfs=RESILIENCE_QUICK_MTBFS,
        num_jobs=RESILIENCE_QUICK_NUM_JOBS,
    )


@artifact(
    "resilience",
    csv=True,
    description="C/R vs DMR completed work and makespan under node failures",
)
def _resilience_artifact(seed: Optional[int] = None) -> ResilienceResult:
    return run_resilience(seed=default_seed(seed))


if __name__ == "__main__":  # pragma: no cover
    print(run_resilience().as_table())
