"""The :class:`Session` — the public entry point of the reproduction.

A session is an immutable, composable description of *how* to run
workloads: which cluster model, which Slurm configuration, which
reconfiguration policy, which runtime tunables, which base seed, and
which observers to attach.  Each ``with_*`` call returns a new session,
so partially configured sessions can be shared and specialized::

    base = Session(cluster=marenostrum_preliminary()).with_seed(7)
    sync = base.with_runtime(RuntimeConfig(async_mode=False))
    result = sync.run(base.fs_workload(25), flexible=True)
    pair = sync.run_paired(base.fs_workload(25))

Execution is split into :meth:`Session.submit` (assemble the simulation
and install the arrival process — returns a :class:`SessionRun` handle)
and :meth:`SessionRun.execute` (drive it to completion); :meth:`Session.run`
and :meth:`Session.run_paired` are the one-call conveniences every
experiment driver uses.  :meth:`Session.build` exposes the bare
simulation (environment, machine, controller) for benchmarks and tours
that need the machinery without a workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.api.observers import ObserverDispatch, SessionObserver
from repro.api.results import PairedComparison, WorkloadResult
from repro.backend.base import BackendSpec
from repro.cluster.configs import ClusterConfig
from repro.cluster.machine import Machine
from repro.errors import SimulationTimeout
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.summary import summarize
from repro.obs.spans import Telemetry, TelemetryConfig
from repro.runtime.nanos import RuntimeConfig
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.slurm.controller import SlurmConfig, SlurmController
from repro.slurm.job import Job
from repro.slurm.reconfig import PolicyConfig
from repro.workload.spec import WorkloadSpec

#: Simulation horizon used when a run does not override it.
DEFAULT_MAX_SIM_TIME = 50_000_000.0

#: Base seed sessions fall back to (the paper's year, as everywhere else).
DEFAULT_SEED = 2017


@dataclass(frozen=True)
class LiveSimulation:
    """A bare, assembled simulation (no workload submitted yet)."""

    env: Environment
    machine: Machine
    controller: SlurmController
    #: The live observer hook installed on the trace (None when the
    #: session has no observers); detached once execution finishes so
    #: results do not retain the simulation stack.
    dispatch: Optional[ObserverDispatch] = None
    #: The fault injector driving the session's fault plan, if any.
    injector: Optional[FaultInjector] = None
    #: The live span recorder, when the session enabled telemetry.
    telemetry: Optional[Telemetry] = None


@dataclass(frozen=True)
class Session:
    """Immutable builder + executor for workload simulations."""

    cluster: Optional[ClusterConfig] = None
    slurm: Optional[SlurmConfig] = None
    runtime: Optional[RuntimeConfig] = None
    seed: Optional[int] = None
    observers: Tuple[SessionObserver, ...] = ()
    max_sim_time: float = DEFAULT_MAX_SIM_TIME
    faults: Optional[FaultPlan] = None
    telemetry: Optional[TelemetryConfig] = None
    #: Which execution backend runs this session's workloads.  The
    #: default, ``"sim"``, is the in-process simulator (byte-identical
    #: golden traces); any other backend routes :meth:`run` through the
    #: :mod:`repro.backend` seam.
    backend: BackendSpec = BackendSpec()

    # -- builder steps -----------------------------------------------------
    def with_cluster(self, cluster: ClusterConfig) -> "Session":
        """Pin the cluster model (testbed size + cost models)."""
        return replace(self, cluster=cluster)

    def with_slurm(self, config: SlurmConfig) -> "Session":
        """Pin the full Slurm controller configuration."""
        return replace(self, slurm=config)

    def with_runtime(self, config: RuntimeConfig) -> "Session":
        """Pin the Nanos++ runtime configuration (sync/async, costs)."""
        return replace(self, runtime=config)

    def with_policy(self, policy: PolicyConfig) -> "Session":
        """Swap the Algorithm 1 reconfiguration policy configuration.

        Merges into the current Slurm configuration, so it composes with
        :meth:`with_slurm` in either order.
        """
        base = self.slurm if self.slurm is not None else SlurmConfig()
        return replace(self, slurm=replace(base, policy=policy))

    def with_seed(self, seed: int) -> "Session":
        """Set the base seed for workload generation and RNG streams."""
        return replace(self, seed=seed)

    def with_max_sim_time(self, max_sim_time: float) -> "Session":
        """Set the default simulation horizon for runs of this session."""
        return replace(self, max_sim_time=max_sim_time)

    def with_faults(self, plan: Optional[FaultPlan]) -> "Session":
        """Inject a fault plan into every run of this session.

        The same (pre-sampled) plan replays against the fixed and the
        flexible rendition, so a paired comparison isolates exactly how
        each failure-handling mechanism copes.  ``None`` removes faults.
        """
        return replace(self, faults=plan)

    def with_telemetry(
        self,
        config: Optional[TelemetryConfig] = None,
        correlation_id: Optional[str] = None,
        max_spans: Optional[int] = None,
    ) -> "Session":
        """Enable span recording for every run of this session.

        Each :meth:`build` mints a fresh :class:`~repro.obs.spans.
        Telemetry` recorder from this config and hands it to the
        controller and runtime; the recorder comes back on
        :attr:`LiveSimulation.telemetry` and on the run's
        :class:`~repro.api.results.WorkloadResult`.  Telemetry records
        no trace events, so canonical traces (and their golden digests)
        are byte-identical with or without it.
        """
        if config is None:
            config = self.telemetry or TelemetryConfig()
        if correlation_id is not None:
            config = replace(config, correlation_id=correlation_id)
        if max_spans is not None:
            config = replace(config, max_spans=max_spans)
        return replace(self, telemetry=config)

    def observe(self, *observers: SessionObserver) -> "Session":
        """Attach observers; they receive live events from every run."""
        return replace(self, observers=self.observers + tuple(observers))

    def with_backend(self, backend, **options) -> "Session":
        """Select the execution backend for this session's runs.

        Accepts a registry name (``"sim"``, ``"slurm"``) plus keyword
        options, or a pre-built :class:`~repro.backend.base.BackendSpec`.
        ``with_backend("sim")`` without options is the default.
        """
        if isinstance(backend, BackendSpec):
            if options:
                raise ValueError("pass options via BackendSpec.of, not both")
            spec = backend
        else:
            spec = BackendSpec.of(str(backend), **options)
        return replace(self, backend=spec)

    # -- derived configuration --------------------------------------------
    @property
    def effective_seed(self) -> int:
        """The base seed runs of this session use (default: 2017)."""
        return DEFAULT_SEED if self.seed is None else self.seed

    def streams(self, name: str = "session") -> RandomStreams:
        """Named RNG streams derived from the session seed."""
        return RandomStreams(self.effective_seed).spawn(name)

    # -- workload helpers ---------------------------------------------------
    def fs_workload(self, num_jobs: int, config=None) -> WorkloadSpec:
        """A Flexible Sleep workload generated from the session seed."""
        from repro.workload.generator import fs_workload

        return fs_workload(num_jobs, seed=self.effective_seed, config=config)

    def realapp_workload(self, num_jobs: int, **kwargs) -> WorkloadSpec:
        """A Section IX real-application mix from the session seed."""
        from repro.workload.generator import realapp_workload

        return realapp_workload(num_jobs, seed=self.effective_seed, **kwargs)

    # -- assembly -----------------------------------------------------------
    def build(self) -> LiveSimulation:
        """Assemble environment + machine + controller + runtime launcher.

        Delegates to :func:`repro.backend.sim.assemble` — the one place
        that wires the simulation stack together; experiments,
        benchmarks and the CLI all go through it.  Only the native sim
        path can be built; a session configured for another backend
        executes through :meth:`run` instead.
        """
        if self.backend.name != "sim":
            from repro.errors import BackendError

            raise BackendError(
                f"cannot build() a bare simulation for backend "
                f"{self.backend.name!r}; use Session.run() or "
                "Session.execution_backend()"
            )
        from repro.backend.sim import assemble

        return assemble(self)

    def execution_backend(self):
        """Instantiate this session's configured execution backend."""
        from repro.backend.base import create_backend

        return create_backend(self.backend, session=self)

    def submit(self, spec: WorkloadSpec, flexible: bool = True) -> "SessionRun":
        """Stand up a fresh simulation and install the arrival process.

        ``flexible=False`` forces every job rigid regardless of the spec
        — this is how the paper's paired fixed/flexible comparisons are
        run.  Nothing executes until :meth:`SessionRun.execute`.
        """
        run = SessionRun(
            session=self, spec=spec, flexible=flexible, sim=self.build()
        )
        run._install_submitter()
        return run

    # -- execution ----------------------------------------------------------
    def run(
        self,
        spec: WorkloadSpec,
        flexible: bool = True,
        max_sim_time: Optional[float] = None,
    ) -> WorkloadResult:
        """Execute one rendition of a workload to completion.

        Sessions configured with a non-sim backend
        (:meth:`with_backend`) route through the backend seam; the
        simulator runs in process, where the recorded trace keeps every
        DMR event and the golden traces are pinned byte for byte.
        """
        if self.backend.name != "sim":
            from repro.backend.base import create_backend
            from repro.backend.driver import run_workload

            backend = create_backend(self.backend, session=self)
            try:
                return run_workload(
                    backend,
                    spec,
                    flexible=flexible,
                    session=self,
                    time_scale=float(self.backend.option("time_scale", 1.0)),
                    drain_timeout=max_sim_time,
                )
            finally:
                backend.close()
        return self.submit(spec, flexible=flexible).execute(max_sim_time)

    def run_paired(
        self,
        spec: WorkloadSpec,
        max_sim_time: Optional[float] = None,
    ) -> PairedComparison:
        """Run the fixed and flexible renditions of the same workload."""
        return PairedComparison(
            fixed=self.run(spec, flexible=False, max_sim_time=max_sim_time),
            flexible=self.run(spec, flexible=True, max_sim_time=max_sim_time),
        )


@dataclass
class SessionRun:
    """One submitted workload: a live simulation ready to execute."""

    session: Session
    spec: WorkloadSpec
    flexible: bool
    sim: LiveSimulation
    jobs: List[Job] = field(default_factory=list)

    def _install_submitter(self) -> None:
        env, controller = self.sim.env, self.sim.controller

        def submitter():
            t = 0.0
            for job_spec in self.spec.jobs:
                if job_spec.arrival_time > t:
                    yield env.timeout(job_spec.arrival_time - t)
                    t = job_spec.arrival_time
                self.jobs.append(
                    controller.submit(job_spec.build_job(self.flexible))
                )

        env.process(submitter(), name="submitter")

    def execute(self, max_sim_time: Optional[float] = None) -> WorkloadResult:
        """Drive the simulation to completion and collect the metrics.

        Raises :class:`~repro.errors.SimulationTimeout` if the workload
        has not drained by the horizon.
        """
        controller = self.sim.controller
        horizon = (
            self.session.max_sim_time if max_sim_time is None else max_sim_time
        )
        try:
            self.sim.env.run(until=horizon)
        finally:
            # Detach the live hook: the returned result keeps the trace,
            # and the dispatcher would otherwise pin controller + machine
            # + environment for as long as the result lives.
            if self.sim.dispatch is not None:
                controller.trace.unsubscribe(self.sim.dispatch)
        if len(self.jobs) < len(self.spec.jobs) or not controller.all_done():
            raise SimulationTimeout(
                workload_name=self.spec.name,
                max_sim_time=horizon,
                unsubmitted=len(self.spec.jobs) - len(self.jobs),
                pending_job_ids=tuple(sorted(controller.pending)),
                running_job_ids=tuple(sorted(controller.running)),
            )
        controller.release()
        summary = summarize(
            self.jobs, controller.trace, self.sim.machine.num_nodes
        )
        return WorkloadResult(
            workload_name=self.spec.name,
            flexible=self.flexible,
            jobs=self.jobs,
            trace=controller.trace,
            summary=summary,
            telemetry=self.sim.telemetry,
        )
