"""Incrementally-maintained pending queue — the scheduler's hot path.

The original controller re-sorted the whole pending queue with freshly
computed multifactor priorities on *every* scheduling pass, making the
full trace O(n^2) — fine for the paper's 10-400 job workloads, hopeless
for 50k-job SWF replays (it survives only as the test oracle
:class:`repro.testing.oracle.ResortController`).  :class:`PendingQueue`
keeps a pair of parallel lists sorted by
:meth:`~repro.slurm.priority.MultifactorPriority.sort_key` with
:mod:`bisect`, the idiom of the controller's expected-end index.
The key is *time-invariant* while every entry's age factor is below
saturation, so a job is keyed once, at submission.

Readers use the order in place: the FIFO pass walks :meth:`live` past
dependency-blocked jobs, the backfill pass takes its first
``bf_max_job_test`` eligible jobs from it, and the Algorithm 1 policy
view is a tuple copy of it.  Starting a job is the only queue write a
pass makes.  A sorted multiset of the queued non-resizer sizes, each
recorded at insert, answers Algorithm 1's "some pending job fits" test
in O(1) (:attr:`PendingQueue.min_pending_nodes`).

Saturation (a job pending longer than ``PriorityMaxAge``, 7 days by
default) breaks the time-invariance: a saturated job's priority stops
growing while younger jobs keep catching up.  The queue watches the
earliest saturation deadline and, once crossed, degrades to re-keying and
re-sorting the same lists in place per distinct timestamp — exactly the
re-sorting cost, only for queues that have had jobs pending for a week.

:class:`SchedStats` counts the scheduler's work; ``repro bench sched``
reads it from the controller and from the resort-per-pass oracle to
prove the sorted index does asymptotically less work.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.slurm.job import Job
from repro.slurm.priority import MultifactorPriority


@dataclass
class SchedStats:
    """Operation counts of the scheduling hot path.

    ``key_evals`` (multifactor priority-key computations) plus
    ``running_end_evals`` (expected-end keys computed for backfill's
    shadow ordering) make up the bench's "comparisons" metric: they are
    the per-job work the resort-per-pass oracle redoes on every pass and
    the controller performs once per queue update.

    ``heap_pushes`` and ``heap_pops`` keep their historical names but
    count pending-index inserts (submit, requeue, re-key) and removals
    (start, cancel, re-key); passes that only read add to neither.
    """

    fifo_passes: int = 0
    backfill_passes: int = 0
    key_evals: int = 0
    running_end_evals: int = 0
    heap_pushes: int = 0
    heap_pops: int = 0
    queue_rebuilds: int = 0
    jobs_examined: int = 0
    jobs_started: int = 0
    max_examined_in_pass: int = 0
    max_queue_depth: int = 0

    def record_pass(self, kind: str, examined: int, started: int) -> None:
        if kind == "backfill":
            self.backfill_passes += 1
        else:
            self.fifo_passes += 1
        self.jobs_examined += examined
        self.jobs_started += started
        if examined > self.max_examined_in_pass:
            self.max_examined_in_pass = examined

    @property
    def passes(self) -> int:
        return self.fifo_passes + self.backfill_passes

    @property
    def comparisons(self) -> int:
        """The bench's headline cost metric (see class docstring)."""
        return self.key_evals + self.running_end_evals

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict view (what ``BENCH_sched.json`` records per run)."""
        return {
            "passes": self.passes,
            "fifo_passes": self.fifo_passes,
            "backfill_passes": self.backfill_passes,
            "key_evals": self.key_evals,
            "running_end_evals": self.running_end_evals,
            "comparisons": self.comparisons,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "queue_rebuilds": self.queue_rebuilds,
            "jobs_examined": self.jobs_examined,
            "jobs_started": self.jobs_started,
            "max_examined_in_pass": self.max_examined_in_pass,
            "max_queue_depth": self.max_queue_depth,
            "examined_per_pass": (
                self.jobs_examined / self.passes if self.passes else 0.0
            ),
            "comparisons_per_pass": (
                self.comparisons / self.passes if self.passes else 0.0
            ),
        }


class PendingQueue:
    """Priority-ordered pending jobs with O(log n) search per update."""

    def __init__(
        self, engine: MultifactorPriority, stats: Optional[SchedStats] = None
    ) -> None:
        self.engine = engine
        self.stats = stats if stats is not None else SchedStats()
        #: Sort keys, ascending (head first), and the jobs they key.
        #: Keys end in the job id, so they are unique and jobs are never
        #: compared.
        self._keys: List[Tuple] = []
        self._jobs: List[Job] = []
        self._key_of: Dict[int, Tuple] = {}
        #: Sizes of the queued non-resizer jobs, ascending, each as it
        #: was when the job was inserted.
        self._sizes: List[int] = []
        self._size_of: Dict[int, int] = {}
        #: Earliest time any current entry's age factor saturates.
        self._min_expiry = float("inf")
        #: True once a saturated entry is live: static keys are no longer
        #: trustworthy and the queue re-keys per distinct timestamp.
        self._stale = False
        self._fresh_at = float("-inf")

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._key_of

    # -- updates -----------------------------------------------------------
    def add(self, job: Job, now: float) -> None:
        """Insert a newly pending job (its key is computed once, here)."""
        self._insert(job, self._key(job, now))
        depth = len(self._jobs)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth

    def discard(self, job: Job) -> None:
        """Remove a job wherever it is (no-op when absent)."""
        key = self._key_of.pop(job.job_id, None)
        if key is not None:
            self._remove(job, key)

    def reprioritize(self, job: Job, now: float) -> None:
        """Re-key a pending job after a priority change (e.g. max-priority
        boost of a shrink beneficiary)."""
        key = self._key_of.pop(job.job_id, None)
        if key is None:
            return
        self._remove(job, key)
        self._insert(job, self._key(job, now))

    # -- ordered views -------------------------------------------------------
    def live(self, now: float) -> List[Job]:
        """All pending jobs in scheduling order: the queue's own list.

        Read it in place, never mutate it: after the job at index ``i``
        starts (is discarded), the next job sits at that same index.
        """
        self._ensure_fresh(now)
        return self._jobs

    def ordered(self, now: float) -> List[Job]:
        """All pending jobs in scheduling order (fresh list per call)."""
        return list(self.live(now))

    def policy_snapshot(self, now: float) -> Tuple[Job, ...]:
        """Pending non-resizer jobs in scheduling order (Algorithm 1's
        view): a tuple copy, filtered only while a resizer is queued."""
        jobs = self.live(now)
        if len(self._size_of) == len(jobs):
            return tuple(jobs)
        return tuple(job for job in jobs if not job.is_resizer)

    @property
    def min_pending_nodes(self) -> Optional[int]:
        """Smallest size among the queued non-resizer jobs (None if none)."""
        return self._sizes[0] if self._sizes else None

    # -- internals -----------------------------------------------------------
    def _key(self, job: Job, now: float) -> Tuple:
        self.stats.key_evals += 1
        return self.engine.sort_key(job, now)

    def _insert(self, job: Job, key: Tuple) -> None:
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._jobs.insert(i, job)
        self._key_of[job.job_id] = key
        if not job.is_resizer:
            size = job.num_nodes
            self._size_of[job.job_id] = size
            insort(self._sizes, size)
        self.stats.heap_pushes += 1
        self._note_expiry(job)

    def _remove(self, job: Job, key: Tuple) -> None:
        i = bisect_left(self._keys, key)
        del self._keys[i]
        del self._jobs[i]
        size = self._size_of.pop(job.job_id, None)
        if size is not None:
            del self._sizes[bisect_left(self._sizes, size)]
        self.stats.heap_pops += 1

    def _note_expiry(self, job: Job) -> None:
        if job.priority_boost == float("inf") or job.submit_time is None:
            return  # pinned to the front / keyed as submit 0.0: no drift
        expiry = job.submit_time + self.engine.config.max_age
        if expiry < self._min_expiry:
            self._min_expiry = expiry

    def _ensure_fresh(self, now: float) -> None:
        if not self._stale and now < self._min_expiry:
            return
        if self._stale and self._fresh_at == now:
            return
        self._rebuild(now)

    def _rebuild(self, now: float) -> None:
        """Re-key every queued job at ``now`` and re-sort the lists in
        place (saturated-queue fallback)."""
        self._min_expiry = float("inf")
        self._stale = False
        keyed = []
        for job in self._jobs:
            keyed.append((self._key(job, now), job))
            self._note_expiry(job)
            if (
                job.priority_boost != float("inf")
                and job.submit_time is not None
                and now - job.submit_time >= self.engine.config.max_age
            ):
                self._stale = True
        keyed.sort()  # keys are unique, so jobs are never compared
        self._keys[:] = [key for key, _ in keyed]
        self._jobs[:] = [job for _, job in keyed]
        self._key_of = {job.job_id: key for key, job in keyed}
        self._fresh_at = now
        self.stats.queue_rebuilds += 1
