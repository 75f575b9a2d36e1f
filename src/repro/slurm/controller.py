"""The ``slurmctld`` analogue: queueing, dispatch, resize bookkeeping.

The controller is event-driven: every submission, completion, cancellation
and shrink triggers a scheduling pass (priority sort + EASY backfill).
Running jobs are *driven from outside* — the Nanos++ runtime model (or a
test) executes the job and calls :meth:`SlurmController.finish_job` when it
completes, mirroring how real Slurm learns about job termination from the
node daemons.

**DMR core integration.** This module is the RMS side of the
:mod:`repro.core` protocol:

* :meth:`SlurmController.check_status` is the entry point a
  :class:`repro.core.dmr.DMRSession` (or a
  :class:`repro.core.protocol.RMSChannel` message exchange) invokes at a
  reconfiguring point.  It takes the application's
  :class:`~repro.core.actions.ResizeRequest`, evaluates Algorithm 1 via
  :class:`~repro.slurm.reconfig.ReconfigurationPolicy`, and answers with a
  :class:`~repro.core.actions.ResizeDecision` whose
  :class:`~repro.core.actions.DecisionReason` is recorded in the trace.
* :meth:`SlurmController.policy_view` snapshots the scheduler state that
  decision is computed against, at the call, in both modes: asynchronous
  mode (``dmr_icheck_status``) applies the *decision* one step late —
  the staleness analysed in Fig. 6 — not a stale view.
* :meth:`SlurmController.epoch` changes whenever anything a backfill
  pass or an Algorithm 1 decision reads has changed: a periodic backfill
  pass after a pass that started nothing returns at once while it holds,
  and ``check_status`` reuses a job's last no-action decision while it,
  the job's size and its effective request all hold.
* :meth:`SlurmController.detach_all_nodes`, :meth:`SlurmController.grow_job`
  and :meth:`SlurmController.shrink_job` are the Section III Slurm API
  steps the runtime's resize protocol (:mod:`repro.slurm.resize`) drives
  after an affirmative decision; the runtime then wraps the result in a
  :class:`repro.core.handler.OffloadHandler` for data redistribution.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import count
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.machine import Machine
from repro.cluster.node import NodeState
from repro.core.actions import (
    DecisionReason,
    ResizeAction,
    ResizeDecision,
    ResizeRequest,
)
from repro.errors import SchedulerError
from repro.metrics.trace import EventKind, Trace
from repro.obs.spans import PassSpan
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.slurm.backfill import BF_MAX_JOB_TEST, plan_backfill
from repro.slurm.job import Job, JobState, TERMINAL_STATES
from repro.slurm.priority import MultifactorConfig, MultifactorPriority
from repro.slurm.queue import PendingQueue, SchedStats
from repro.slurm.reconfig import PolicyConfig, PolicyView, ReconfigurationPolicy


@dataclass(frozen=True)
class SlurmConfig:
    """Controller tunables (defaults mirror the paper's Slurm setup)."""

    priority: MultifactorConfig = field(default_factory=MultifactorConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    #: Seconds an expansion waits for its resizer job before aborting
    #: (Section V-B: "If the waiting time reaches a threshold, RJ is
    #: canceled and the action is aborted").
    resizer_timeout: float = 30.0
    #: One-way latency of a runtime<->RMS API call.
    rpc_latency: float = 0.05
    #: Period of the backfill scheduler thread (Slurm's bf_interval).
    #: Event-driven passes are FIFO-only, exactly as in Slurm, where
    #: sched/backfill only runs periodically.
    backfill_interval: float = 30.0
    #: Kill jobs that exceed their walltime limit (Slurm's default
    #: behaviour; off by default here because the paper's workloads are
    #: well-behaved and malleable jobs rescale their limits on resize).
    enforce_time_limits: bool = False
    #: Keep finished :class:`Job` records (and their start events) after
    #: completion.  Experiments need the archive for post-hoc metrics;
    #: million-job replays turn it off so controller memory stays
    #: proportional to the *live* jobs, not the whole trace
    #: (``finished_count`` still counts completions either way).
    retain_finished: bool = True


class SlurmController:
    """Workload manager: pending queue, running set, resize operations."""

    def __init__(
        self,
        env: Environment,
        machine: Machine,
        config: Optional[SlurmConfig] = None,
        trace: Optional[Trace] = None,
    ) -> None:
        self.env = env
        self.machine = machine
        self.config = config or SlurmConfig()
        self.trace = trace if trace is not None else Trace()
        self.priority_engine = MultifactorPriority(
            self.config.priority, machine.num_nodes
        )
        self.policy = ReconfigurationPolicy(self.config.policy)

        self._ids = count(1)
        self.pending: Dict[int, Job] = {}
        self.running: Dict[int, Job] = {}
        self.finished: List[Job] = []
        #: Completions seen so far (kept even when ``retain_finished`` is
        #: off and :attr:`finished` stays empty).
        self.finished_count = 0
        #: Hot-path instrumentation (read by ``repro bench sched``).
        self.stats = SchedStats()
        #: Span recorder (:class:`repro.obs.spans.Telemetry`), installed
        #: by ``Session.build`` when telemetry is enabled; None keeps
        #: the scheduling hot path free of any recording cost.
        self.telemetry = None
        #: Pending jobs in scheduling order, read in place by the FIFO
        #: pass, the backfill pass and the Algorithm 1 policy view.
        self.queue = PendingQueue(self.priority_engine, self.stats)
        # Running jobs ordered by (expected_end, start order) — the
        # accounting plan_backfill's shadow computation needs, maintained
        # incrementally on start/finish/resize instead of re-sorted per
        # backfill pass.
        self._end_keys: List[Tuple[float, int]] = []
        self._end_jobs: List[Job] = []
        self._end_key_of: Dict[int, Tuple[float, int]] = {}
        self._start_seq = count()
        #: Called with each newly started (non-resizer) job; the runtime
        #: layer installs a hook here that launches the job's execution.
        self.launcher: Optional[Callable[[Job], None]] = None
        self._start_events: Dict[int, Event] = {}
        #: Simulation process executing each running job (registered by
        #: the runtime layer; used to deliver time-limit kills).
        self.job_processes: Dict[int, object] = {}
        #: Forced resize decisions issued by node failures, keyed by job
        #: id; the runtime services them at the next reconfiguring point.
        self.forced: Dict[int, ResizeDecision] = {}
        #: Jobs whose runtime has taken a forced decision and is paying
        #: the evacuation costs (quiesce/spawn/redistribute) before the
        #: shrink lands; the invariant harness treats this window as a
        #: legitimate reason to still hold a DOWN node.
        self.evacuating: set = set()
        #: Hook restoring a requeued job's payload (the runtime layer
        #: installs checkpoint-aware restoration; the default restarts
        #: the application from scratch via ``payload.fresh_copy()``).
        self.requeue_restore: Optional[Callable[[Job], None]] = None
        self._pass_scheduled = False
        self._backfill_thread_alive = False
        #: The controller's part of :meth:`epoch`: running-set and
        #: expected-end changes, and time-limit updates.
        self._version = 0
        #: Epoch of the last backfill pass that started nothing (None
        #: after a pass that started a job).
        self._quiet_epoch: Optional[int] = None
        #: Each running job's last no-action decision, keyed on
        #: ``(epoch, size, effective request)``.
        self._no_action: Dict[
            int, Tuple[int, int, ResizeRequest, ResizeDecision]
        ] = {}

        machine.subscribe(self._on_alloc_change)

    # -- machine observer --------------------------------------------------
    def _on_alloc_change(self, used: int) -> None:
        self.trace.record(
            self.env.now, EventKind.ALLOC_CHANGE, nodes_used=used,
            nodes_total=self.machine.num_nodes,
        )

    # -- queue introspection -------------------------------------------------
    def pending_jobs(self, include_resizers: bool = True) -> List[Job]:
        """Pending queue in multifactor priority order."""
        jobs = self.queue.ordered(self.env.now)
        if include_resizers:
            return jobs
        return [j for j in jobs if not j.is_resizer]

    def epoch(self) -> int:
        """The scheduler state epoch: changes whenever a free node, an
        allocation, node health, the pending order, the running set, an
        expected end or a time limit has.

        A due saturation re-sort runs first, so it moves the epoch
        before anyone compares it.
        """
        self.queue.live(self.env.now)
        return self.machine.version + self.queue.version + self._version

    # -- running-jobs expected-end index -------------------------------------
    def _running_insert(self, job: Job) -> None:
        self._version += 1
        key = (job.expected_end, next(self._start_seq))
        self.stats.running_end_evals += 1
        i = bisect_left(self._end_keys, key)
        self._end_keys.insert(i, key)
        self._end_jobs.insert(i, job)
        self._end_key_of[job.job_id] = key

    def _running_remove(self, job: Job) -> None:
        self._version += 1
        self._no_action.pop(job.job_id, None)
        key = self._end_key_of.pop(job.job_id, None)
        if key is None:
            return
        i = bisect_left(self._end_keys, key)
        del self._end_keys[i]
        del self._end_jobs[i]

    def _running_reposition(self, job: Job) -> None:
        """Re-place a running job whose expected end changed (resize)."""
        self._version += 1
        key = self._end_key_of.pop(job.job_id, None)
        if key is None:
            return
        i = bisect_left(self._end_keys, key)
        del self._end_keys[i]
        del self._end_jobs[i]
        # Keep the original start sequence so ties among equal expected
        # ends resolve in start order, exactly like a stable sort over
        # the running dict.
        new_key = (job.expected_end, key[1])
        self.stats.running_end_evals += 1
        i = bisect_left(self._end_keys, new_key)
        self._end_keys.insert(i, new_key)
        self._end_jobs.insert(i, job)
        self._end_key_of[job.job_id] = new_key

    def running_jobs(self) -> List[Job]:
        return list(self.running.values())

    def all_done(self) -> bool:
        """True when nothing is pending or running."""
        return not self.pending and not self.running

    def get_job(self, job_id: int) -> Job:
        for pool in (self.pending, self.running):
            if job_id in pool:
                return pool[job_id]
        for job in self.finished:
            if job.job_id == job_id:
                return job
        raise SchedulerError(f"unknown job id {job_id}")

    # -- submission / completion ------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Enqueue a job; assigns its id and submit time."""
        if job.job_id != -1:
            raise SchedulerError(f"job {job.job_id} was already submitted")
        job.job_id = next(self._ids)
        job.submit_time = self.env.now
        self.pending[job.job_id] = job
        self.queue.add(job, self.env.now)
        self._start_events[job.job_id] = Event(self.env)
        self.trace.record(
            self.env.now,
            EventKind.JOB_SUBMIT,
            job.job_id,
            name=job.name,
            nodes=job.num_nodes,
            flexible=job.is_flexible,
            resizer=job.is_resizer,
        )
        self.request_schedule()
        self._ensure_backfill_thread()
        return job

    def started_event(self, job: Job) -> Event:
        """Event fired (with the job) the moment the job starts running."""
        try:
            return self._start_events[job.job_id]
        except KeyError:
            raise SchedulerError(f"job {job.job_id} was never submitted") from None

    def finish_job(self, job: Job, state: JobState = JobState.COMPLETED) -> None:
        """Mark a running job as finished and release its nodes."""
        if job.job_id not in self.running:
            raise SchedulerError(f"job {job.job_id} is not running")
        if job.nodes:
            self.machine.release(job.job_id)
        job.nodes = ()
        job.transition(state)
        job.end_time = self.env.now
        del self.running[job.job_id]
        self._running_remove(job)
        self.forced.pop(job.job_id, None)
        self.evacuating.discard(job.job_id)
        self._archive(job)
        self.trace.record(
            self.env.now, EventKind.JOB_END, job.job_id, state=state.value
        )
        self.request_schedule()

    def _archive(self, job: Job) -> None:
        """Record a completion; lean mode drops the record immediately.

        With ``retain_finished`` off, the finished :class:`Job` and its
        start event are released so controller memory tracks the live
        jobs only (``job_processes`` is left to its owners — the bench
        replays that run lean never populate it).
        """
        self.finished_count += 1
        if self.config.retain_finished:
            self.finished.append(job)
        else:
            self._start_events.pop(job.job_id, None)

    def cancel_job(self, job: Job) -> None:
        """Cancel a pending or running job (releases any held nodes)."""
        if job.job_id in self.pending:
            del self.pending[job.job_id]
            self.queue.discard(job)
            job.transition(JobState.CANCELLED)
            job.end_time = self.env.now
            self._archive(job)
        elif job.job_id in self.running:
            if job.nodes:
                self.machine.release(job.job_id)
            job.nodes = ()
            job.transition(JobState.CANCELLED)
            job.end_time = self.env.now
            del self.running[job.job_id]
            self._running_remove(job)
            self._archive(job)
            proc = self.job_processes.get(job.job_id)
            if (
                proc is not None
                and getattr(proc, "is_alive", False)
                and proc is not self.env.active_process
            ):
                proc.interrupt(cause="scancel")
        else:
            raise SchedulerError(f"job {job.job_id} cannot be cancelled")
        self.forced.pop(job.job_id, None)
        self.evacuating.discard(job.job_id)
        self.trace.record(self.env.now, EventKind.JOB_CANCEL, job.job_id)
        self.request_schedule()

    # -- scheduling ----------------------------------------------------------------
    def request_schedule(self) -> None:
        """Arrange a scheduling pass at the current timestamp (deduplicated)."""
        if self._pass_scheduled:
            return
        self._pass_scheduled = True
        tick = Event(self.env)
        tick.callbacks.append(self._scheduling_pass)
        tick._ok = True
        tick._value = None
        # Low priority: runs after all same-timestamp state changes settle.
        self.env.schedule(tick, priority=10)

    def _dependency_satisfied(self, job: Job) -> bool:
        if job.dependency is None:
            return True
        try:
            dep = self.get_job(job.dependency)
        except SchedulerError:
            if not self.config.retain_finished:
                # Lean mode drops finished jobs; an unknown dependency can
                # only be one that already completed.
                return True
            raise
        # "expand"-style dependency: parent must be running (or done).
        return dep.is_running or dep.state in TERMINAL_STATES

    def _scheduling_pass(self, _event: Event) -> None:
        """Event-driven pass: strict priority (FIFO) starts only.

        Mirrors Slurm's main scheduler, which does not backfill; lower
        priority jobs only jump the queue during the periodic backfill
        thread's pass (:meth:`_backfill_pass`).

        The pass walks the queue's live order in place: it steps past
        dependency-blocked jobs without touching them, and a start
        removes the job from the order, so the next candidate sits at the
        same index.  The pass costs O(k log n) in the k jobs it examines
        and writes nothing when the head does not fit.
        """
        self._pass_scheduled = False
        wall_t0 = perf_counter() if self.telemetry is not None else 0.0
        now = self.env.now
        free = self.machine.free_count
        examined = started = 0
        jobs = self.queue.live(now)
        i = 0
        while i < len(jobs):
            job = jobs[i]
            examined += 1
            if not self._dependency_satisfied(job):
                i += 1
                continue
            if job.num_nodes > free:
                # Moldable jobs (the paper's future-work "flexible
                # submission") may start below their submitted size.
                fitted = self._moldable_fit(job, free)
                if fitted is None:
                    break  # strict order: the blocked head stops the pass
                # Leave the queue under the size it was indexed with.
                self.queue.discard(job)
                job.num_nodes = fitted
            self._start_job(job)
            started += 1
            free -= job.num_nodes
        self._note_pass("fifo", now, examined, started, wall_t0)

    def _note_pass(self, kind: str, now: float, examined: int, started: int,
                   wall_t0: float) -> None:
        """Tally a finished pass; span-record it when telemetry is on.

        A pass is instantaneous in simulated time (zero-duration span at
        ``now``); the measured wall-clock cost rides along as an
        attribute, which is what the bench's overhead pin watches.  The
        span is a packed :class:`~repro.obs.spans.PassSpan`, so a pass
        pays for one tuple, not a ``Span`` and its attrs dict.
        """
        self.stats.record_pass(kind, examined, started)
        if self.telemetry is not None:
            self.telemetry.append(PassSpan((
                now, kind, examined, started,
                (perf_counter() - wall_t0) * 1e6,
            )))

    def _moldable_fit(self, job: Job, free: int) -> Optional[int]:
        """Size a moldable job into ``free`` nodes (largest fit, or None).

        The paper's conclusions propose non-rigid submission: "giving a
        range of number of nodes required instead of a fixed value".  A
        moldable job starts at the largest factor-reachable size within
        [min_procs, submitted] that fits the free nodes.
        """
        from repro.slurm.job import JobClass

        moldable = job.job_class is JobClass.MOLDABLE or job.moldable_start
        if not moldable or job.resize_request is None:
            return None
        request = job.resize_request
        size = job.num_nodes
        candidates = [size] + list(request.shrink_sizes(size))
        for candidate in candidates:
            if candidate <= free and candidate >= request.min_procs:
                return candidate
        return None

    def _ensure_backfill_thread(self) -> None:
        if self._backfill_thread_alive or self.config.backfill_interval <= 0:
            return
        self._backfill_thread_alive = True
        self.env.process(self._backfill_loop(), name="slurm-backfill")

    def _backfill_loop(self):
        """The sched/backfill thread: one EASY pass per bf_interval.

        The thread parks itself when the system drains (``all_done``);
        :meth:`submit` restarts it on the next arrival, so an
        idle-then-burst workload keeps getting backfill passes.  The
        alive flag is cleared in a ``finally`` so a crashed pass can
        never permanently wedge the restart logic.
        """
        try:
            while not self.all_done():
                self._backfill_pass()
                yield self.env.timeout(self.config.backfill_interval)
        finally:
            self._backfill_thread_alive = False

    def _backfill_pass(self) -> None:
        """Periodic EASY pass over the first ``BF_MAX_JOB_TEST``
        dependency-satisfied jobs, read from the live order in place
        (blocked ones are skipped).

        A pass returns at once when the :meth:`epoch` has not moved
        since a pass that started nothing: the order, the free nodes,
        the dependencies, the expected ends and the held nodes are all
        the same, and with no picks the shadow time does not depend on
        ``now``, so ``now + time_limit <= shadow`` only gets harder.
        """
        wall_t0 = perf_counter() if self.telemetry is not None else 0.0
        now = self.env.now
        epoch = self.epoch()
        if epoch == self._quiet_epoch:
            self.stats.backfill_skips += 1
            self._note_pass("backfill", now, 0, 0, wall_t0)
            return
        eligible: List[Job] = []
        examined = 0
        for job in self.queue.live(now):
            examined += 1
            if self._dependency_satisfied(job):
                eligible.append(job)
                if len(eligible) == BF_MAX_JOB_TEST:
                    break
        starts, _reservation = plan_backfill(
            eligible,
            self._end_jobs,
            self.machine.free_count,
            now,
            running_presorted=True,
            unreturnable=self.machine.held_unreturnable,
        )
        for job in starts:
            self._start_job(job)
        self._quiet_epoch = None if starts else epoch
        self._note_pass("backfill", now, examined, len(starts), wall_t0)

    def _start_job(self, job: Job) -> None:
        nodes = self.machine.allocate(job.job_id, job.num_nodes)
        job.nodes = nodes
        job.transition(JobState.RUNNING)
        job.start_time = self.env.now
        del self.pending[job.job_id]
        self.queue.discard(job)
        self.running[job.job_id] = job
        self._running_insert(job)
        self.trace.record(
            self.env.now,
            EventKind.JOB_START,
            job.job_id,
            nodes=job.num_nodes,
            node_ids=nodes,
            resizer=job.is_resizer,
        )
        self._start_events[job.job_id].succeed(job)
        if self.config.enforce_time_limits and not job.is_resizer:
            self.env.process(self._limit_enforcer(job), name=f"limit-{job.job_id}")
        if self.launcher is not None and not job.is_resizer:
            self.launcher(job)

    def _limit_enforcer(self, job: Job):
        """Kill the job when it exceeds its (possibly rescaled) limit."""
        while job.is_running:
            deadline = job.expected_end
            if self.env.now >= deadline:
                self.finish_job(job, JobState.TIMEOUT)
                proc = self.job_processes.get(job.job_id)
                if proc is not None and getattr(proc, "is_alive", False):
                    proc.interrupt(cause="time-limit")
                return
            yield self.env.timeout(deadline - self.env.now)

    def register_job_process(self, job: Job, process: object) -> None:
        """Let the runtime layer attach the process executing ``job``."""
        self.job_processes[job.job_id] = process

    # -- reconfiguration policy entry (used by the DMR API) --------------------
    def policy_view(self) -> PolicyView:
        """Snapshot of the scheduler state for a reconfiguration decision.

        Under the default ``shrink_beneficiary="head"`` the pending tuple
        holds only the queue head, all that Algorithm 1 then reads.
        """
        return PolicyView(
            free_nodes=self.machine.free_count,
            pending=self.queue.policy_snapshot(
                self.env.now,
                head_only=self.policy.config.shrink_beneficiary == "head",
            ),
            running_count=len(self.running),
            min_pending_nodes=self.queue.min_pending_nodes,
        )

    def check_status(self, job: Job, request: ResizeRequest) -> ResizeDecision:
        """Evaluate Algorithm 1 for ``job`` against the current state.

        A job's no-action decision is reused while the :meth:`epoch`, the
        job's size and its effective request are unchanged; the decision
        is recorded in the trace either way.
        """
        if job.job_id not in self.running:
            raise SchedulerError(f"job {job.job_id} is not running")
        request = self._effective_request(job, request)
        epoch = self.epoch()
        size = job.num_nodes
        kept = self._no_action.get(job.job_id)
        if (
            kept is not None
            and kept[0] == epoch
            and kept[1] == size
            and kept[2] == request
        ):
            decision = kept[3]
            self.stats.decisions_reused += 1
        else:
            decision = self.policy.decide(job, request, self.policy_view())
            if decision.action is ResizeAction.NO_ACTION:
                self._no_action[job.job_id] = (epoch, size, request, decision)
        self.trace.record(
            self.env.now,
            EventKind.RESIZE_DECISION,
            job.job_id,
            action=decision.action.value,
            target=decision.target_procs,
            reason=decision.reason.value,
            beneficiary=decision.beneficiary_job_id,
        )
        if (
            decision.action is ResizeAction.SHRINK
            and decision.beneficiary_job_id is not None
        ):
            # Foster the queued job that motivated the shrink
            # (Algorithm 1, line 18: set_max_priority(targetJobId)).
            beneficiary = self.pending.get(decision.beneficiary_job_id)
            if beneficiary is not None:
                beneficiary.priority_boost = float("inf")
                self.queue.reprioritize(beneficiary, self.env.now)
        return decision

    def _effective_request(self, job: Job, request: ResizeRequest) -> ResizeRequest:
        """Clamp a moldable-start job's growth at its submitted size.

        Flexible submission gives the scheduler the range
        ``[min_procs, submitted]`` to *start* the job in; the size the
        user submitted stays the ceiling for later grow decisions even
        though the application's own ``max_procs`` may be larger.
        Without the clamp, a job molded down at start could later expand
        past the allocation it was ever asked to have (the original
        submitted size was lost when ``_moldable_fit`` overwrote
        ``num_nodes``; ``Job.submitted_nodes`` preserves it).
        """
        if not job.moldable_start:
            return request
        ceiling = max(job.submitted_nodes, job.num_nodes, request.min_procs)
        if request.max_procs <= ceiling:
            return request
        preferred = request.preferred
        if preferred is not None and preferred > ceiling:
            preferred = ceiling
        return replace(request, max_procs=ceiling, preferred=preferred)

    # -- resize mechanics (Section III's Slurm API steps) ------------------------
    def detach_all_nodes(self, job: Job) -> Tuple[int, ...]:
        """Step 2 of the expand protocol: set a job's size to 0 nodes.

        Returns the node set, now free but intended for immediate transfer
        to the parent job.
        """
        if job.job_id not in self.running:
            raise SchedulerError(f"job {job.job_id} is not running")
        nodes = self.machine.release(job.job_id)
        job.nodes = ()
        return nodes

    def _rescale_time_limit(self, job: Job, old_size: int, new_size: int) -> None:
        """Update the walltime limit after a resize.

        The runtime knows the application keeps the same amount of work,
        so it rescales the *remaining* limit by the node ratio (the
        ``scontrol update TimeLimit`` a malleability-aware runtime issues).
        Without this, shrunk jobs overrun their limits and every backfill
        reservation computed from them is fiction.
        """
        if job.start_time is None:
            return
        elapsed = self.env.now - job.start_time
        remaining = max(0.0, job.time_limit - elapsed)
        job.time_limit = elapsed + remaining * (old_size / new_size)

    def grow_job(self, job: Job, node_ids: Tuple[int, ...]) -> None:
        """Step 4: attach specific (free) nodes to a running job."""
        if job.job_id not in self.running:
            raise SchedulerError(f"job {job.job_id} is not running")
        old_size = job.num_nodes
        self.machine.allocate_specific(job.job_id, node_ids)
        job.nodes = self.machine.nodes_of(job.job_id)
        self._rescale_time_limit(job, old_size, len(job.nodes))
        job.record_resize(self.env.now, len(job.nodes))
        self._running_reposition(job)
        self.trace.record(
            self.env.now,
            EventKind.RESIZE_EXPAND,
            job.job_id,
            new_size=job.num_nodes,
            added=tuple(node_ids),
        )

    def shrink_job(
        self,
        job: Job,
        new_size: int,
        victims: Optional[Sequence[int]] = None,
    ) -> Tuple[int, ...]:
        """Shrink a running job to ``new_size`` nodes (single-step update).

        ``victims`` pins which nodes are released (the forced-shrink path
        evacuates exactly the DOWN nodes); by default the highest-indexed
        nodes go, mirroring Slurm's keep-the-head-node behaviour.
        """
        if job.job_id not in self.running:
            raise SchedulerError(f"job {job.job_id} is not running")
        if not 1 <= new_size < job.num_nodes:
            raise SchedulerError(
                f"job {job.job_id}: invalid shrink {job.num_nodes} -> {new_size}"
            )
        count_out = job.num_nodes - new_size
        if victims is None:
            victims = self.machine.shrink_candidates(job.job_id, count_out)
        elif len(victims) != count_out:
            raise SchedulerError(
                f"job {job.job_id}: shrink to {new_size} must release "
                f"{count_out} nodes, got victims {tuple(victims)}"
            )
        released = self.machine.release(job.job_id, victims)
        self.evacuating.discard(job.job_id)
        job.nodes = self.machine.nodes_of(job.job_id)
        self._rescale_time_limit(job, job.num_nodes, new_size)
        job.record_resize(self.env.now, new_size)
        self._running_reposition(job)
        self.trace.record(
            self.env.now,
            EventKind.RESIZE_SHRINK,
            job.job_id,
            new_size=new_size,
            released=released,
        )
        self.request_schedule()
        return released

    def update_time_limit(self, job: Job, time_limit: float) -> None:
        """``scontrol update TimeLimit``: change a job's walltime limit.

        Routed through the controller (rather than poking the job) so the
        running-jobs expected-end index stays consistent.
        """
        if time_limit <= 0:
            raise SchedulerError(f"time limit must be positive, got {time_limit}")
        if job.state in TERMINAL_STATES:
            # Real Slurm: "scontrol update" on a finished job fails with
            # "Job/step already completing or completed".
            raise SchedulerError(
                f"job {job.job_id} is already {job.state.value}; "
                "cannot update its time limit"
            )
        job.time_limit = time_limit
        # An operator update establishes the job's new baseline limit:
        # like real Slurm, it survives a requeue (unlike the runtime's
        # resize rescaling, which is anchored to one incarnation's
        # elapsed time and must not).
        job.submitted_time_limit = time_limit
        # A pending job's limit feeds backfill's shadow test.
        self._version += 1
        if job.job_id in self.running:
            self._running_reposition(job)

    # -- node health / fault handling (:mod:`repro.faults`) ------------------
    def _forced_shrink_serviceable(self, job: Job) -> bool:
        """Whether the job's runtime will actually service a forced shrink.

        The gate must match the runtime's own reconfiguring-point
        condition: a job whose application carries no resize support
        never reaches a reconfiguring point, so parking a forced
        decision on it would let it compute on a dead node forever.
        Payload-less jobs (bare-controller tests driving resizes by
        hand) are trusted.
        """
        if not job.is_flexible or job.resize_request is None:
            return False
        if job.payload is None:
            return True
        return getattr(job.payload, "resize", None) is not None

    def fail_node(self, node_index: int) -> bool:
        """A node died: take it DOWN and make its holder react.

        * A free node simply leaves the allocatable pool.
        * A resizer holding the node is cancelled (its expansion aborts).
        * A rigid job is requeued — it restarts from scratch (or from its
          last checkpoint when the runtime enables checkpointing).
        * A flexible job receives a *forced shrink*
          (:attr:`~repro.core.actions.DecisionReason.NODE_FAILURE`) that
          its runtime services at the next reconfiguring point, shrinking
          away from the dying node instead of dying with it — unless the
          shrink would take it below ``min_procs``, in which case it is
          requeued like a rigid job.

        Returns False (a no-op, no trace event) when the node is already
        DOWN — a fault plan may sample the same node twice.
        """
        if self.machine.nodes[node_index].state is NodeState.DOWN:
            return False
        holder = self.machine.fail_node(node_index)
        node = self.machine.nodes[node_index]
        self.trace.record(
            self.env.now,
            EventKind.NODE_FAIL,
            holder,
            node=node_index,
            hostname=node.hostname,
        )
        if holder is None:
            return True
        job = self.running.get(holder)
        if job is None:  # pragma: no cover - machine/controller desync guard
            raise SchedulerError(f"node {node_index} held by unknown job {holder}")
        if job.is_resizer:
            self.cancel_job(job)
            return True
        dead = self.machine.down_nodes_of(job.job_id)
        target = job.num_nodes - len(dead)
        request = job.resize_request
        if (
            self._forced_shrink_serviceable(job)
            and target >= max(1, request.min_procs)
        ):
            decision = ResizeDecision(
                ResizeAction.SHRINK, target, DecisionReason.NODE_FAILURE
            )
            # A further failure before the pending forced shrink is
            # serviced *supersedes* it (one shrink will evacuate both
            # dead nodes): update the decision but record no second
            # RESIZE_DECISION, so the trace stays one-decision-one-ack
            # and the forced-shrink counts match actual evacuations.
            supersedes = job.job_id in self.forced
            self.forced[job.job_id] = decision
            if not supersedes:
                self.trace.record(
                    self.env.now,
                    EventKind.RESIZE_DECISION,
                    job.job_id,
                    action=decision.action.value,
                    target=target,
                    reason=decision.reason.value,
                    beneficiary=None,
                )
        else:
            self.requeue_job(job, reason="node_failure")
        return True

    def recover_node(self, node_index: int) -> None:
        """A node was repaired; it rejoins the pool once unheld."""
        restored = self.machine.recover_node(node_index)
        self.trace.record(
            self.env.now,
            EventKind.NODE_RECOVER,
            None,
            node=node_index,
            deferred=not restored,
        )
        if restored:
            self.request_schedule()

    def drain_node(self, node_index: int) -> None:
        """Operator drain: running work finishes, no new work lands."""
        self.machine.drain_node(node_index)
        self.trace.record(
            self.env.now, EventKind.NODE_DRAIN, None, node=node_index
        )

    def resume_node(self, node_index: int) -> None:
        """Lift an operator drain."""
        self.machine.resume_node(node_index)
        self.trace.record(
            self.env.now, EventKind.NODE_RESUME, None, node=node_index
        )
        self.request_schedule()

    def requeue_job(self, job: Job, reason: str = "node_failure") -> None:
        """Send a running job back to the pending queue (Slurm requeue).

        The incarnation's process is interrupted, in-flight resizer
        children are cancelled, held nodes are released (dead ones stay
        out of the pool), and the job re-enters the queue at its original
        submit time with its payload restored via :attr:`requeue_restore`
        (default: restart from scratch).
        """
        if job.job_id not in self.running:
            raise SchedulerError(f"job {job.job_id} is not running")
        proc = self.job_processes.pop(job.job_id, None)
        if (
            proc is not None
            and getattr(proc, "is_alive", False)
            and proc is not self.env.active_process
        ):
            proc.interrupt(cause="requeue")
        for other in list(self.pending.values()) + list(self.running.values()):
            if other.is_resizer and other.parent_id == job.job_id:
                self.cancel_job(other)
        if job.nodes:
            self.machine.release(job.job_id)
        job.nodes = ()
        del self.running[job.job_id]
        self._running_remove(job)
        self.forced.pop(job.job_id, None)
        self.evacuating.discard(job.job_id)
        job.transition(JobState.PENDING)
        job.start_time = None
        job.num_nodes = job.submitted_nodes
        job.time_limit = job.submitted_time_limit
        job.requeues += 1
        if self.requeue_restore is not None:
            self.requeue_restore(job)
        else:
            fresh = getattr(job.payload, "fresh_copy", None)
            if callable(fresh):
                job.payload = fresh()
        self.pending[job.job_id] = job
        self.queue.add(job, self.env.now)
        self._start_events[job.job_id] = Event(self.env)
        self.trace.record(
            self.env.now,
            EventKind.JOB_REQUEUE,
            job.job_id,
            reason=reason,
            requeues=job.requeues,
        )
        self.request_schedule()
        self._ensure_backfill_thread()

    def take_forced(self, job: Job) -> Optional[ResizeDecision]:
        """Pop the pending forced decision for ``job``, if any.

        The shrink target is recomputed against the job's *current* DOWN
        node count: failures and policy shrinks between issue and service
        can both move it.  The returned target may therefore have fallen
        below ``min_procs`` (e.g. a policy shrink released the healthy
        nodes first) — the caller must requeue the job instead of
        shrinking when that happens (``NanosRuntime`` does).
        """
        decision = self.forced.pop(job.job_id, None)
        if decision is None:
            return None
        dead = self.machine.down_nodes_of(job.job_id)
        if not dead:  # pragma: no cover - defensive; cannot heal while held
            return None
        target = job.num_nodes - len(dead)
        if target != decision.target_procs:
            decision = ResizeDecision(
                ResizeAction.SHRINK, target, DecisionReason.NODE_FAILURE
            )
        self.evacuating.add(job.job_id)
        return decision
