"""The Nanos++ runtime model: drives a job's execution in virtual time.

One :class:`NanosRuntime` instance exists per running job, exactly as one
Nanos++ runtime instance exists per MPI job in the paper.  The runtime:

* iterates the application model, charging step times from the app's
  scalability curve;
* exposes reconfiguring points at iteration boundaries, where it calls the
  DMR logic (inhibitor + sync/async hand-off) and the RMS policy;
* performs the resize actions — the Slurm expand/shrink protocol, the
  ``MPI_Comm_spawn`` of the new process set, and the data redistribution
  modeled through the Listing 3 transfer plans and the network model,
  charged by the formulas of :mod:`repro.runtime.costs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional, Tuple

from repro.apps.base import AppModel
from repro.cluster.configs import ClusterConfig
from repro.core.actions import DecisionReason, ResizeAction, ResizeDecision
from repro.core.dmr import INHIBITED, DMRSession
from repro.errors import RuntimeAPIError
from repro.metrics.trace import DMR_CHECK, EventKind
from repro.sim.events import Event
from repro.slurm.controller import SlurmController
from repro.slurm.job import Job, JobState
from repro.slurm.resize import expand_protocol, shrink_protocol
from repro.runtime.costs import redistribution_time, relaunch_time, shrink_ack_time
from repro.runtime.redistribution import plan_for_resize


@dataclass(frozen=True)
class RuntimeConfig:
    """Nanos++-level tunables."""

    #: Blocking cost of a synchronous DMR call (runtime<->RMS round trip).
    check_cost: float = 0.15
    #: Use ``dmr_icheck_status`` semantics (decision applied one step late).
    async_mode: bool = False
    #: Periodic checkpointing for *non-flexible* jobs (the C/R fault
    #: baseline): every N iterations the application state is written to
    #: the shared filesystem, and a requeued job restarts from its last
    #: checkpoint (paying the read) instead of from scratch.  Flexible
    #: jobs never checkpoint — the DMR mechanism shrinks away from
    #: failing nodes instead.  None disables checkpointing.
    checkpoint_period_steps: Optional[int] = None


class _Requeued(Exception):
    """Internal: this incarnation was requeued at a reconfiguring point
    (forced-shrink target fell below ``min_procs``); unwind the process."""


class NanosRuntime:
    """Executes one (possibly malleable) job inside the simulation."""

    __slots__ = (
        "env", "controller", "job", "app", "cluster", "config", "session",
        "_round_trip", "resize_count", "check_count",
    )

    def __init__(
        self,
        controller: SlurmController,
        job: Job,
        app: AppModel,
        cluster: ClusterConfig,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        if job.is_flexible and app.resize is None:
            raise RuntimeAPIError(
                f"flexible job {job.name!r} needs an app with resize parameters"
            )
        self.env = controller.env
        self.controller = controller
        self.job = job
        self.app = app
        self.cluster = cluster
        self.config = config or RuntimeConfig()
        #: The job's DMR call state; only a flexible job reaches a
        #: reconfiguring point, so a rigid one has none.
        self.session: Optional[DMRSession] = None
        #: What a serviced check blocks on: the round trip, paid only in
        #: synchronous mode (a zero cost still blocks for zero seconds).
        self._round_trip: Optional[float] = None
        if job.is_flexible:
            self.session = DMRSession(
                sched_period=app.sched_period,
                async_mode=self.config.async_mode,
                start_time=self.env.now,
            )
            if self.session.blocking:
                self._round_trip = self.config.check_cost
        #: Number of reconfigurations performed (for tests/metrics).
        self.resize_count = 0
        #: Number of DMR calls that reached the RMS.
        self.check_count = 0

    # -- the job process ---------------------------------------------------
    def run(self) -> Generator[Event, object, None]:
        """Simulation process executing the job to completion."""
        from repro.sim.process import Interrupt

        job, app = self.job, self.app
        malleable = self.session is not None
        cp_period = None if malleable else self.config.checkpoint_period_steps

        try:
            if job.requeues:
                yield from self._restart_costs(cp_period)
            while not app.finished:
                if malleable:
                    round_trip, resize = self._reconfiguring_point()
                    if round_trip is not None:
                        # Synchronous mode pays the round trip on the
                        # critical path.
                        yield self.env.timeout(round_trip)
                    if resize is not None:
                        if resize.action is ResizeAction.EXPAND:
                            yield from self._do_expand(resize)
                        else:
                            yield from self._do_shrink(resize)
                slowdown = self.controller.machine.slowdown_of(job.job_id)
                steps = (
                    self._batch_steps(slowdown) if malleable
                    else app.remaining_steps
                )
                if cp_period:
                    # Stop each batch at the next checkpoint boundary.
                    steps = min(
                        steps, cp_period - app.completed_steps % cp_period
                    )
                yield self.env.timeout(
                    steps * app.step_time(job.num_nodes) * slowdown
                )
                app.advance(steps)
                if (
                    cp_period
                    and not app.finished
                    and app.completed_steps % cp_period == 0
                ):
                    yield from self._checkpoint_write()
        except (Interrupt, _Requeued):
            # Killed by the controller (time limit / cancellation /
            # requeue): the job state was already settled by the killer.
            return

        self.controller.finish_job(job, JobState.COMPLETED)

    # -- fault-recovery costs ----------------------------------------------
    def _restart_costs(
        self, cp_period: Optional[int]
    ) -> Generator[Event, object, None]:
        """Costs a requeued incarnation pays before computing again."""
        job = self.job
        started_at = self.env.now
        yield self.env.timeout(relaunch_time(job.num_nodes))
        if cp_period and job.checkpoint_steps > 0:
            read = self.cluster.storage.read_time(
                self.app.state_bytes, nclients=max(1, job.num_nodes)
            )
            if read > 0:
                yield self.env.timeout(read)
            self.controller.trace.record(
                self.env.now,
                EventKind.CHECKPOINT_READ,
                job.job_id,
                steps=job.checkpoint_steps,
            )
        telemetry = self.controller.telemetry
        if telemetry is not None:
            telemetry.record(
                "runtime.restart", started_at, self.env.now, track="runtime",
                job_id=job.job_id, from_steps=job.checkpoint_steps,
            )

    def _checkpoint_write(self) -> Generator[Event, object, None]:
        """Write one periodic checkpoint (the C/R baseline's premium)."""
        job = self.job
        started_at = self.env.now
        write = self.cluster.storage.write_time(
            self.app.state_bytes, nclients=max(1, job.num_nodes)
        )
        if write > 0:
            yield self.env.timeout(write)
        telemetry = self.controller.telemetry
        if telemetry is not None:
            telemetry.record(
                "checkpoint.write_window", started_at, self.env.now,
                track="runtime", job_id=job.job_id,
                steps=self.app.completed_steps,
            )
        job.checkpoint_steps = self.app.completed_steps
        self.controller.trace.record(
            self.env.now,
            EventKind.CHECKPOINT_WRITE,
            job.job_id,
            steps=self.app.completed_steps,
        )

    def _batch_steps(self, slowdown: float) -> int:
        """How many iterations a malleable job runs before its next
        reconfiguring point.

        Iterations between two serviced DMR calls are indistinguishable in
        virtual time (constant step cost, no interaction), so they are
        coalesced into one timeout.  With an armed inhibitor this collapses
        e.g. CG's 10000 iterations into one event per scheduling period
        without changing any observable timing.
        """
        app = self.app
        period = app.sched_period
        if period <= 0:
            return 1  # a reconfiguring point precedes every iteration
        # Batch sizing must use the same (possibly degraded) step price
        # the run loop charges, or a slowdown would push the next
        # reconfiguring point — and forced-shrink service — late by the
        # slowdown factor.
        step = app.step_time(self.job.num_nodes) * slowdown
        until_next_check = self.session.inhibitor.last_check + period - self.env.now
        if until_next_check <= 0:
            return 1
        # Tolerance keeps the batched boundary identical to the per-step
        # loop when until/step is an exact multiple up to fp rounding
        # (see tests/runtime/test_batching.py).
        ratio = until_next_check / step
        steps = math.ceil(ratio - 1e-9 * max(1.0, ratio))
        return max(1, min(app.remaining_steps, steps))

    # -- reconfiguring point -------------------------------------------------
    def _reconfiguring_point(
        self,
    ) -> Tuple[Optional[float], Optional[ResizeDecision]]:
        """One ``dmr_check_status``/``dmr_icheck_status`` call site.

        Services the call and records its ``DMR_CHECK`` line.  Returns the
        round trip the caller blocks on (None when the call does not
        block) and the resize it then performs (None for none).
        """
        job = self.job
        # Node failure: the RMS already decided — evacuate the dying
        # node(s) now, bypassing the inhibitor and the regular check.
        forced = self.controller.take_forced(job)
        if forced is not None:
            floor = max(
                1,
                job.resize_request.min_procs
                if job.resize_request is not None
                else 1,
            )
            if forced.target_procs < floor:
                # A policy shrink (or further failures) between issue and
                # service left nothing to shrink to: this incarnation dies
                # and the job restarts like a rigid one.
                self.controller.requeue_job(job, reason="node_failure")
                raise _Requeued()
            self.controller.trace.record(
                self.env.now,
                EventKind.DMR_CHECK,
                job.job_id,
                blocking=False,
                applied=forced.action.value,
                forced=True,
            )
            return None, forced
        # Evolving applications may override the request at this step
        # ("Request an Action" mode, Section IV-1).
        request = self.app.request_at(self.app.completed_steps)
        assert request is not None
        resize = self.session.check(
            self.env.now, self.controller.check_status, job, request
        )
        if resize is INHIBITED:
            return None, None
        self.check_count += 1
        round_trip = self._round_trip
        self.controller.trace.record(
            self.env.now, DMR_CHECK, job.job_id,
            round_trip is not None,
            None if resize is None else resize.action.value,
        )
        return round_trip, resize

    # -- resize actions ----------------------------------------------------------
    def _do_expand(self, decision: ResizeDecision) -> Generator[Event, object, None]:
        job = self.job
        old = job.num_nodes
        target = decision.target_procs
        if target <= old:
            return  # stale asynchronous decision already satisfied

        reconfig_t0 = self.env.now
        if (yield from expand_protocol(self.controller, job, target)) is None:
            return  # aborted: resources went elsewhere meanwhile

        new = job.num_nodes
        # Spawn the new process set (MPI_Comm_spawn across the final
        # node list) and redistribute the data dependencies through the
        # offloaded tasks of Listing 3.
        yield self.env.timeout(self.cluster.spawn.spawn_time(new))
        plan = plan_for_resize(old, new, self.app.state_bytes)
        yield self.env.timeout(
            redistribution_time(self.cluster.network, plan)
            * self.controller.machine.network_factor
        )
        self.resize_count += 1
        telemetry = self.controller.telemetry
        if telemetry is not None:
            # The reconfiguration window: protocol RPCs + MPI_Comm_spawn
            # + the Listing 3 data-redistribution network stage.
            telemetry.record(
                "runtime.reconfig", reconfig_t0, self.env.now,
                track="runtime", job_id=job.job_id, action="expand",
                old_procs=old, new_procs=new,
            )

    def _do_shrink(self, decision: ResizeDecision) -> Generator[Event, object, None]:
        job = self.job
        old = job.num_nodes
        target = decision.target_procs
        if target >= old:
            return  # stale asynchronous decision already satisfied

        reconfig_t0 = self.env.now
        # Quiesce: outgoing ranks finish their offloaded tasks and ACK to
        # the management node before Slurm may reclaim their nodes.
        yield self.env.timeout(shrink_ack_time(old - target))
        # Spawn the reduced process set and move the data: senders forward
        # their blocks to group receivers (the network stage of Listing 3).
        yield self.env.timeout(self.cluster.spawn.spawn_time(target))
        plan = plan_for_resize(old, target, self.app.state_bytes)
        yield self.env.timeout(
            redistribution_time(self.cluster.network, plan)
            * self.controller.machine.network_factor
        )
        # A forced (node-failure) shrink must evacuate exactly the DOWN
        # nodes; a policy shrink releases the usual highest-index victims.
        # If yet another node died during the evacuation window above,
        # release only as many dead nodes as this decision covers — the
        # new failure already queued its own forced decision for the
        # next reconfiguring point.
        victims = None
        if decision.reason is DecisionReason.NODE_FAILURE:
            victims = self.controller.machine.down_nodes_of(job.job_id)[
                : old - target
            ]
        # Only now is it safe for Slurm to kill processes on released nodes.
        shrink_protocol(self.controller, job, target, victims=victims)
        self.resize_count += 1
        telemetry = self.controller.telemetry
        if telemetry is not None:
            telemetry.record(
                "runtime.reconfig", reconfig_t0, self.env.now,
                track="runtime", job_id=job.job_id, action="shrink",
                old_procs=old, new_procs=target,
                forced=decision.reason is DecisionReason.NODE_FAILURE,
            )


def install_runtime_launcher(
    controller: SlurmController,
    cluster: ClusterConfig,
    config: Optional[RuntimeConfig] = None,
) -> None:
    """Hook the controller so each started job runs under a NanosRuntime.

    Jobs must carry their :class:`AppModel` in ``job.payload``.  Also
    installs the requeue-restoration hook: a requeued job's application
    restarts from its last checkpoint when checkpointing is enabled
    (and the job is not flexible), from scratch otherwise.
    """
    cfg = config or RuntimeConfig()

    def launcher(job: Job) -> None:
        app = job.payload
        if not isinstance(app, AppModel):
            raise RuntimeAPIError(
                f"job {job.name!r} payload is not an AppModel: {app!r}"
            )
        runtime = NanosRuntime(controller, job, app, cluster, cfg)
        process = controller.env.process(runtime.run(), name=f"job-{job.job_id}")
        controller.register_job_process(job, process)

    def restore(job: Job) -> None:
        app = job.payload
        if not isinstance(app, AppModel):
            return
        fresh = app.fresh_copy()
        restart_from_checkpoint = (
            cfg.checkpoint_period_steps
            and job.checkpoint_steps > 0
            and not (job.is_flexible and fresh.resize is not None)
        )
        if restart_from_checkpoint:
            fresh.advance(min(job.checkpoint_steps, fresh.iterations))
        job.payload = fresh

    controller.launcher = launcher
    controller.requeue_restore = restore
