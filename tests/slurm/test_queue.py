"""Tests for the incremental pending queue (the scheduler hot path)."""

import random

from repro.cluster import Machine
from repro.core import ResizeRequest
from repro.metrics.trace import canonical_lines
from repro.sim import Environment
from repro.slurm import (
    Job,
    JobClass,
    MultifactorConfig,
    MultifactorPriority,
    PendingQueue,
    SlurmConfig,
    SlurmController,
)
from repro.testing.oracle import ResortController


def job_of(jid, nodes, submit, boost=0.0, resizer=False):
    job = Job(name=f"j{jid}", num_nodes=nodes, time_limit=100.0)
    job.job_id = jid
    job.submit_time = submit
    job.priority_boost = boost
    job.is_resizer = resizer
    return job


def engine(nodes=32, **cfg):
    return MultifactorPriority(MultifactorConfig(**cfg), nodes)


def random_jobs(rng, n, max_nodes=32):
    jobs = []
    for i in range(1, n + 1):
        boost = float("inf") if rng.random() < 0.1 else 0.0
        jobs.append(
            job_of(i, rng.randint(1, max_nodes), rng.uniform(0, 1000), boost)
        )
    return jobs


def random_updates(rng, queue, steps=150, max_nodes=32):
    """Drive ``queue`` through random add/discard/reprioritize steps.

    Yields ``(now, queued_jobs)`` after every step, the clock advancing
    between steps.  A sixth of the added jobs are resizers.
    """
    queued = {}
    now = 0.0
    for jid in range(1, steps + 1):
        now += rng.uniform(0.0, 20.0)
        roll = rng.random()
        if roll < 0.5 or not queued:
            job = job_of(jid, rng.randint(1, max_nodes), now,
                         resizer=rng.random() < 1 / 6)
            queue.add(job, now)
            queued[job.job_id] = job
        elif roll < 0.8:
            queue.discard(queued.pop(rng.choice(sorted(queued))))
        else:
            job = queued[rng.choice(sorted(queued))]
            job.priority_boost = (
                float("inf") if rng.random() < 0.5 else rng.uniform(0, 500)
            )
            queue.reprioritize(job, now)
        yield now, list(queued.values())


def assert_consistent(queue, eng, jobs, now):
    order = queue.ordered(now)
    assert order == eng.sort_queue(jobs, now)
    assert queue.policy_snapshot(now) == tuple(
        job for job in order if not job.is_resizer
    )
    assert queue.min_pending_nodes == min(
        (job.num_nodes for job in jobs if not job.is_resizer), default=None
    )
    assert len(queue) == len(jobs)


class TestOrderEquivalence:
    """queue.ordered() must equal a full sort for any job mix."""

    def test_matches_sort_queue_random(self):
        rng = random.Random(7)
        eng = engine()
        for trial in range(20):
            jobs = random_jobs(rng, 40)
            queue = PendingQueue(eng)
            for job in jobs:
                queue.add(job, now=job.submit_time)
            now = 2000.0
            assert queue.ordered(now) == eng.sort_queue(jobs, now)

    def test_order_matches_sort_queue_after_random_updates(self):
        eng = engine()
        for seed in range(8):
            queue = PendingQueue(eng)
            for now, jobs in random_updates(random.Random(seed), queue):
                assert queue.ordered(now) == eng.sort_queue(jobs, now)

    def test_policy_snapshot_is_the_order_minus_resizers(self):
        eng = engine()
        for seed in range(8):
            queue = PendingQueue(eng)
            for now, jobs in random_updates(random.Random(seed), queue):
                assert queue.policy_snapshot(now) == tuple(
                    job for job in queue.ordered(now) if not job.is_resizer
                )

    def test_min_pending_nodes_matches_brute_force(self):
        eng = engine()
        for seed in range(8):
            queue = PendingQueue(eng)
            for now, jobs in random_updates(random.Random(seed), queue):
                assert queue.min_pending_nodes == min(
                    (j.num_nodes for j in jobs if not j.is_resizer),
                    default=None,
                )

    def test_key_time_invariance_before_saturation(self):
        eng = engine()
        a = job_of(1, 4, submit=10.0)
        b = job_of(2, 9, submit=400.0)
        k_early = eng.sort_key(a, 500.0), eng.sort_key(b, 500.0)
        k_late = eng.sort_key(a, 90_000.0), eng.sort_key(b, 90_000.0)
        assert k_early == k_late


class TestIncrementalUpdates:
    def test_reads_leave_the_order_in_place(self):
        """Passes that skip a dependency-blocked job write nothing."""
        env = Environment()
        ctl = SlurmController(env, Machine(4), SlurmConfig())
        hog = ctl.submit(Job(name="hog", num_nodes=4, time_limit=50.0))
        env.run(until=1.0)
        assert hog.is_running
        parent = ctl.submit(Job(name="parent", num_nodes=2, time_limit=10.0))
        child = ctl.submit(Job(name="child", num_nodes=1, time_limit=10.0,
                               dependency=parent.job_id,
                               priority_boost=float("inf")))
        before = ctl.stats.snapshot()
        for _ in range(3):
            ctl._scheduling_pass(None)
            ctl._backfill_pass()
        after = ctl.stats.snapshot()
        assert ctl.queue.ordered(env.now) == [child, parent]
        assert after["heap_pushes"] == before["heap_pushes"]
        assert after["heap_pops"] == before["heap_pops"]
        # Every pass examined the blocked child and the blocked parent.
        assert after["jobs_examined"] - before["jobs_examined"] == 12
        assert after["jobs_started"] == before["jobs_started"]

    def test_discard_and_contains(self):
        eng = engine()
        queue = PendingQueue(eng)
        job = job_of(1, 4, 0.0)
        queue.add(job, now=0.0)
        assert job in queue and len(queue) == 1
        queue.discard(job)
        assert job not in queue and len(queue) == 0
        assert queue.ordered(1.0) == [] and queue.min_pending_nodes is None
        queue.discard(job)  # idempotent

    def test_reprioritize_moves_boosted_job_to_front(self):
        eng = engine()
        queue = PendingQueue(eng)
        small = job_of(1, 1, submit=0.0)
        big = job_of(2, 32, submit=0.0)
        queue.add(small, now=0.0)
        queue.add(big, now=0.0)
        assert queue.ordered(1.0)[0] is big  # favor_big default
        small.priority_boost = float("inf")
        queue.reprioritize(small, now=1.0)
        assert queue.ordered(1.0)[0] is small
        # Re-boosting again keeps exactly one index entry per job.
        queue.reprioritize(small, now=2.0)
        assert queue.ordered(2.0) == [small, big]
        assert queue.min_pending_nodes == 1

    def test_moldable_start_keeps_the_size_index_consistent(self):
        """A job molded down at start leaves the queue under the size
        it was indexed with; every later removal still finds its size."""
        env = Environment()
        ctl = SlurmController(env, Machine(8), SlurmConfig())
        hog = ctl.submit(Job(name="hog", num_nodes=5, time_limit=50.0))
        env.run(until=1.0)
        assert hog.is_running
        molded = Job(
            name="molded", num_nodes=6, time_limit=40.0,
            job_class=JobClass.MOLDABLE,
            resize_request=ResizeRequest(min_procs=1, max_procs=6),
        )
        ctl.submit(molded)
        # Narrower, so lower priority: they queue behind the molded head.
        rest = [ctl.submit(Job(name=f"w{n}", num_nodes=n, time_limit=30.0))
                for n in (2, 4, 5)]
        env.run(until=2.0)
        assert molded.is_running and molded.num_nodes == 3
        queue = ctl.queue
        assert molded not in queue
        for job in rest:  # smallest first, so a stale size would show
            pending = [j for j in ctl.pending.values() if not j.is_resizer]
            assert queue.min_pending_nodes == min(j.num_nodes for j in pending)
            ctl.cancel_job(job)
        assert queue.min_pending_nodes is None and len(queue) == 0


class TestSaturationFallback:
    """Once a job's age factor saturates the static keys go stale; the
    queue must fall back to re-keying and still match a full sort."""

    def test_order_correct_across_saturation(self):
        # Tiny max_age so saturation is easy to reach: beyond it, an old
        # small job's priority freezes while a younger big job keeps
        # gaining and eventually overtakes it.
        eng = engine(max_age=100.0)
        old_small = job_of(1, 1, submit=0.0)
        young_big = job_of(2, 24, submit=90.0)
        queue = PendingQueue(eng)
        queue.add(old_small, now=0.0)
        queue.add(young_big, now=90.0)
        for now in (95.0, 120.0, 250.0, 1000.0):
            assert queue.ordered(now) == eng.sort_queue(
                [old_small, young_big], now
            ), f"diverged at now={now}"

    def test_rebuild_counts_tracked(self):
        eng = engine(max_age=10.0)
        queue = PendingQueue(eng)
        queue.add(job_of(1, 2, submit=0.0), now=0.0)
        queue.ordered(50.0)  # past saturation: forces a rebuild
        assert queue.stats.queue_rebuilds >= 1

    def test_random_updates_across_saturation(self):
        """Order, snapshot and size index survive the in-place re-sort."""
        eng = engine(max_age=100.0)
        queue = PendingQueue(eng)
        for now, jobs in random_updates(random.Random(3), queue, steps=300):
            assert_consistent(queue, eng, jobs, now)
        assert queue.stats.queue_rebuilds > 0


class TestControllerModeEquivalence:
    """The controller and the resort-per-pass oracle must emit identical
    traces."""

    def _drive(self, controller_class):
        env = Environment()
        ctl = controller_class(env, Machine(16), SlurmConfig())
        rng = random.Random(42)
        jobs = []
        for i in range(30):
            job = Job(
                name=f"w{i}",
                num_nodes=rng.randint(1, 12),
                time_limit=rng.uniform(20.0, 200.0),
            )
            jobs.append(job)

        def arrivals():
            for job in jobs:
                yield env.timeout(rng.uniform(0.0, 10.0))
                ctl.submit(job)

        def reaper():
            # Finish running jobs after a deterministic pseudo-runtime.
            pending = set()
            while not ctl.all_done() or pending:
                for job in list(ctl.running.values()):
                    if job.job_id not in pending:
                        pending.add(job.job_id)
                        env.process(finisher(job))
                yield env.timeout(5.0)
                pending = {j for j in pending if j in ctl.running}

        def finisher(job):
            yield env.timeout(job.time_limit / 4.0)
            if job.job_id in ctl.running:
                ctl.finish_job(job)

        env.process(arrivals(), name="arrivals")
        env.process(reaper(), name="reaper")
        env.run(until=2000.0)
        return ctl

    def test_traces_identical(self):
        incremental = self._drive(SlurmController)
        legacy = self._drive(ResortController)
        # An oracle that is really the controller would compare it with
        # itself; only the controller writes a pending index.
        assert type(legacy) is ResortController
        assert legacy.stats.heap_pushes == 0 < incremental.stats.heap_pushes
        assert canonical_lines(incremental.trace) == canonical_lines(legacy.trace)
