"""The resort-per-pass scheduler, kept as the oracle for the sorted indexes.

Before the sorted pending index (:class:`~repro.slurm.queue.PendingQueue`)
and the running-jobs expected-end index, every pass re-sorted the pending
queue with fresh priorities, and backfill re-sorted the running jobs for
its shadow time.  That costs O(n log n) per pass, but each pass is a
plain function of the controller's ``pending`` and ``running`` dicts.
:class:`ResortController` keeps it as the reference that the golden-trace
equivalence tests, the Hypothesis and ``test_queue`` differentials and
the ``legacy`` rows of ``repro bench sched``
(``replay_sched_trace(incremental=False)``) compare the controller with.

It keeps neither index, so its :class:`~repro.slurm.queue.SchedStats`
count only what re-sorting costs: one priority key per pending job per
ordered view, and one expected-end key per running job (and per pick)
whenever backfill computes a shadow time.  Its scheduler state epoch is
new on every read, so it never skips a backfill pass or reuses an
Algorithm 1 decision: the differentials compare the controller's
skipping and reuse against the work done in full.
"""

from __future__ import annotations

from itertools import count
from time import perf_counter
from typing import List

from repro.slurm.backfill import plan_backfill
from repro.slurm.controller import SlurmController
from repro.slurm.job import Job
from repro.slurm.reconfig import PolicyView


class _NoQueue:
    """Stand-in for the pending index: the controller's writes go nowhere."""

    def add(self, job: Job, now: float) -> None:
        pass

    def discard(self, job: Job) -> None:
        pass

    def reprioritize(self, job: Job, now: float) -> None:
        pass


class ResortController(SlurmController):
    """:class:`SlurmController` with every ordered view re-sorted per use."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.queue = _NoQueue()
        self._epochs = count()

    def epoch(self) -> int:
        return next(self._epochs)

    def pending_jobs(self, include_resizers: bool = True) -> List[Job]:
        jobs = [
            j
            for j in self.pending.values()
            if include_resizers or not j.is_resizer
        ]
        # Every ordered view recomputes one priority per job.
        self.stats.key_evals += len(jobs)
        return self.priority_engine.sort_queue(jobs, self.env.now)

    # The expected-end index is never built: inserts and re-keys only
    # count the key they would have computed.
    def _running_insert(self, job: Job) -> None:
        self.stats.running_end_evals += 1

    def _running_reposition(self, job: Job) -> None:
        self.stats.running_end_evals += 1

    def _scheduling_pass(self, _event) -> None:
        self._pass_scheduled = False
        wall_t0 = perf_counter() if self.telemetry is not None else 0.0
        free = self.machine.free_count
        examined = started = 0
        for job in self.pending_jobs():
            examined += 1
            if not self._dependency_satisfied(job):
                continue
            if job.num_nodes > free:
                fitted = self._moldable_fit(job, free)
                if fitted is None:
                    break
                job.num_nodes = fitted
            self._start_job(job)
            started += 1
            free -= job.num_nodes
        self._note_pass("fifo", self.env.now, examined, started, wall_t0)

    def _backfill_pass(self) -> None:
        wall_t0 = perf_counter() if self.telemetry is not None else 0.0
        pending = self.pending_jobs()
        eligible = [j for j in pending if self._dependency_satisfied(j)]
        running = self.running_jobs()
        starts, reservation = plan_backfill(
            eligible,
            running,
            self.machine.free_count,
            self.env.now,
            unreturnable=self.machine.held_unreturnable,
        )
        if reservation is not None:
            # compute_shadow sorted every running job (plus this pass's
            # picks) by expected end.
            self.stats.running_end_evals += len(running) + len(starts)
        for job in starts:
            self._start_job(job)
        self._note_pass(
            "backfill", self.env.now, len(pending), len(starts), wall_t0
        )

    def policy_view(self) -> PolicyView:
        # PolicyView derives min_pending_nodes from the tuple itself.
        return PolicyView(
            free_nodes=self.machine.free_count,
            pending=tuple(self.pending_jobs(include_resizers=False)),
            running_count=len(self.running),
        )
