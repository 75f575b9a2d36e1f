"""The default execution backend: the in-process simulator.

Three things live here:

* :func:`assemble` — the one place in the codebase that wires the
  simulation stack together (environment + machine + controller +
  runtime launcher + observers + faults).  :meth:`repro.api.session.
  Session.build`, the sim backend and the ``repro bench sched`` replay
  (:func:`repro.sweep.bench.replay_sched_trace`) all build through it.
* :func:`install_sleep_launcher` — runs each started job as a plain
  sleep for its :class:`~repro.backend.base.JobRequest` payload's
  duration, exactly what the subprocess backend's
  ``sbatch --wrap "sleep D"`` does, instead of the Nanos++ application
  model that :func:`assemble` installs.
* :class:`SimBackend` — the same stack exposed through the
  :class:`~repro.backend.base.ExecutionBackend` contract, so the
  conformance suite can run the identical scenario matrix against the
  simulator and a real (or fake) Slurm.  Jobs submitted through the
  contract carry a ``JobRequest`` payload and run under the sleep
  launcher.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.backend.base import (
    AccountingRecord,
    BackendCapabilities,
    BackendSpec,
    ExecutionBackend,
    JobRequest,
    register_backend,
)
from repro.core.actions import DecisionReason, ResizeAction, ResizeRequest
from repro.errors import BackendError, SchedulerError
from repro.metrics.trace import EventKind
from repro.sim.process import Interrupt
from repro.slurm.controller import SlurmConfig
from repro.slurm.job import Job, JobClass, JobState
from repro.slurm.resize import expand_protocol


def assemble(session, controller_class=None):
    """Wire up a live simulation for a session (the sim-backend seam).

    Experiments, benchmarks, the CLI and the sim backend all go through
    this function (via :meth:`~repro.api.session.Session.build`).
    ``controller_class`` swaps in another controller, such as the
    resort-per-pass oracle the bench's ``legacy`` rows replay through.
    """
    # Imported here: repro.api.session imports this module lazily, and
    # these are the assembly-only dependencies.
    from repro.api.observers import ObserverDispatch
    from repro.api.session import LiveSimulation
    from repro.cluster.configs import marenostrum_production
    from repro.faults import install_faults
    from repro.obs.spans import Telemetry
    from repro.runtime.nanos import install_runtime_launcher
    from repro.sim.engine import Environment
    from repro.slurm.controller import SlurmController

    if controller_class is None:
        controller_class = SlurmController
    cluster = session.cluster if session.cluster is not None else marenostrum_production()
    env = Environment()
    machine = cluster.build_machine()
    controller = controller_class(env, machine, config=session.slurm)
    telemetry = None
    if session.telemetry is not None:
        telemetry = Telemetry(session.telemetry)
        controller.telemetry = telemetry
    install_runtime_launcher(controller, cluster, session.runtime)
    dispatch = None
    if session.observers:
        dispatch = ObserverDispatch(controller, session.observers)
        controller.trace.subscribe(dispatch)
    injector = install_faults(controller, session.faults)
    return LiveSimulation(
        env=env,
        machine=machine,
        controller=controller,
        dispatch=dispatch,
        injector=injector,
        telemetry=telemetry,
    )


def install_sleep_launcher(controller) -> None:
    """Run each started job as a sleep for ``job.payload.duration``.

    Jobs must carry a :class:`~repro.backend.base.JobRequest` payload.
    The job completes when its sleep ends; a scancel or a time-limit
    kill interrupts the sleep after the controller has already settled
    the job's state.
    """
    env = controller.env

    def sleep(job: Job):
        try:
            yield env.timeout(job.payload.duration)
        except Interrupt:
            return
        if job.job_id in controller.running:
            controller.finish_job(job, JobState.COMPLETED)

    def launcher(job: Job) -> None:
        controller.register_job_process(
            job, env.process(sleep(job), name=f"sleep-{job.job_id}")
        )

    controller.launcher = launcher


@register_backend
class SimBackend(ExecutionBackend):
    """The simulator behind the backend contract."""

    name = "sim"
    CAPABILITIES = BackendCapabilities(
        supports_resize=True, supports_faults=True, clock="sim"
    )
    #: Sim seconds between accounting polls while draining (cheap: the
    #: event heap is what actually advances time).
    poll_interval = 1.0

    def __init__(self, session=None) -> None:
        from repro.api.session import Session

        if session is None:
            session = Session()
        if session.slurm is None:
            # The contract's timeout scenario needs walltime enforcement,
            # which the native paper workloads leave off.
            session = session.with_slurm(SlurmConfig(enforce_time_limits=True))
        self._session = session
        # Through Session.build so session observers (and the test
        # harness's invariant observer) attach exactly as on the native
        # path.
        self._sim = session.build()
        self._env = self._sim.env
        self._controller = self._sim.controller
        install_sleep_launcher(self._controller)
        self._jobs: Dict[str, Job] = {}

    @property
    def live_observers(self) -> Tuple[object, ...]:
        """The observers of the session this backend was built from,
        which :meth:`Session.build` attached to the live trace."""
        return self._session.observers

    # -- contract: clock ------------------------------------------------------
    def now(self) -> float:
        return self._env.now

    def wait(self, seconds: float) -> None:
        if seconds < 0:
            raise BackendError(f"cannot wait a negative time ({seconds})")
        if seconds == 0:
            return
        self._env.run(until=self._env.now + seconds)

    # -- contract: job control ------------------------------------------------
    def submit(self, request: JobRequest) -> str:
        resize = None
        job_class = JobClass.RIGID
        if request.flexible:
            lo = request.min_nodes or 1
            hi = request.max_nodes or max(request.num_nodes, lo)
            resize = ResizeRequest(min_procs=lo, max_procs=hi, factor=1)
            job_class = JobClass.MALLEABLE
        job = Job(
            name=request.name,
            num_nodes=request.num_nodes,
            time_limit=request.time_limit,
            job_class=job_class,
            resize_request=resize,
            payload=request,
        )
        self._controller.submit(job)
        job_id = str(job.job_id)
        self._jobs[job_id] = job
        # Let same-timestamp scheduling happen before the caller returns,
        # mirroring sbatch + an immediately-consistent squeue.
        self._env.run(until=self._env.now)
        return job_id

    def _job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise BackendError(f"sim backend: unknown job id {job_id!r}") from None

    def cancel(self, job_id: str) -> None:
        job = self._job(job_id)
        if job.is_terminal:
            raise BackendError(
                f"sim backend: job {job_id} is already {job.state.value}"
            )
        self._controller.cancel_job(job)
        self._env.run(until=self._env.now)

    def update_time_limit(self, job_id: str, time_limit: float) -> None:
        job = self._job(job_id)
        try:
            self._controller.update_time_limit(job, time_limit)
        except SchedulerError as exc:
            raise BackendError(str(exc)) from exc

    def update_nodes(self, job_id: str, num_nodes: int) -> None:
        """Operator-driven resize (``scontrol update NumNodes``).

        Expansion runs the paper's 4-step protocol (resizer job, detach,
        cancel, attach); shrinking is the single-step update.  Either
        way the decision is recorded first, exactly like a policy-driven
        resize, so the trace keeps its decision→ack pairing.
        """
        job = self._job(job_id)
        if job.job_id not in self._controller.running:
            raise BackendError(f"sim backend: job {job_id} is not running")
        current = job.num_nodes
        if num_nodes == current:
            return
        if num_nodes < 1:
            raise BackendError(f"target node count must be >= 1, got {num_nodes}")
        action = (
            ResizeAction.EXPAND if num_nodes > current else ResizeAction.SHRINK
        )
        self._controller.trace.record(
            self._env.now,
            EventKind.RESIZE_DECISION,
            job.job_id,
            action=action.value,
            target=num_nodes,
            reason=DecisionReason.OPERATOR.value,
            beneficiary=None,
        )
        if action is ResizeAction.EXPAND:
            outcome: Dict[str, object] = {}

            def driver():
                result = yield from expand_protocol(
                    self._controller, job, num_nodes
                )
                outcome["nodes"] = result

            self._env.process(driver(), name=f"operator-expand-{job.job_id}")
            deadline = (
                self._env.now + self._controller.config.resizer_timeout + 1.0
            )
            while "nodes" not in outcome and self._env.peek() <= deadline:
                self._env.step()
            if outcome.get("nodes") is None:
                raise BackendError(
                    f"sim backend: expand of job {job_id} to {num_nodes} "
                    "nodes aborted (no resources)"
                )
        else:
            try:
                self._controller.shrink_job(job, num_nodes)
            except SchedulerError as exc:
                raise BackendError(str(exc)) from exc
            self._env.run(until=self._env.now)

    # -- contract: accounting -------------------------------------------------
    def query_jobs(
        self, job_ids: Optional[Sequence[str]] = None
    ) -> Dict[str, AccountingRecord]:
        wanted = list(job_ids) if job_ids is not None else list(self._jobs)
        out: Dict[str, AccountingRecord] = {}
        for job_id in wanted:
            job = self._job(job_id)
            elapsed = None
            if job.start_time is not None:
                end = job.end_time if job.end_time is not None else self._env.now
                elapsed = end - job.start_time
            out[job_id] = AccountingRecord(
                job_id=job_id,
                name=job.name,
                state=job.state,
                num_nodes=job.num_nodes,
                submit_time=job.submit_time,
                start_time=job.start_time,
                end_time=job.end_time,
                elapsed=elapsed,
            )
        return out

    def close(self) -> None:
        if self._sim.dispatch is not None:
            try:
                self._controller.trace.unsubscribe(self._sim.dispatch)
            except ValueError:
                pass

    # -- construction ---------------------------------------------------------
    @classmethod
    def available(cls) -> Tuple[bool, str]:
        return True, "in-process simulator (no external requirements)"

    @classmethod
    def from_spec(cls, spec: BackendSpec, session=None) -> "SimBackend":
        return cls(session=session)
