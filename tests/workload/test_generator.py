"""Tests for workload assembly (FS and real-application mixes)."""

import pytest

from repro.errors import WorkloadError
from repro.slurm import JobClass
from repro.workload import (
    FSWorkloadConfig,
    WorkloadSpec,
    fs_workload,
    realapp_workload,
)
from repro.workload.spec import JobSpec


class TestJobSpec:
    def spec(self, **kw):
        from repro.apps import flexible_sleep

        defaults = dict(
            name="j",
            submit_nodes=4,
            arrival_time=0.0,
            app_factory=lambda: flexible_sleep(step_time=10, at_procs=4),
        )
        defaults.update(kw)
        return JobSpec(**defaults)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            self.spec(submit_nodes=0)
        with pytest.raises(WorkloadError):
            self.spec(arrival_time=-1)

    def test_build_flexible_job(self):
        job = self.spec().build_job(flexible_workload=True)
        assert job.job_class is JobClass.MALLEABLE
        assert job.resize_request is not None

    def test_build_fixed_rendition_forces_rigid(self):
        job = self.spec().build_job(flexible_workload=False)
        assert job.job_class is JobClass.RIGID
        assert job.resize_request is None

    def test_fixed_spec_stays_rigid_in_flexible_workload(self):
        job = self.spec(flexible=False).build_job(flexible_workload=True)
        assert job.job_class is JobClass.RIGID

    def test_time_limit_defaults_to_padded_nominal(self):
        job = self.spec().build_job(flexible_workload=False)
        # 2 steps x 10 s at submit size, padded by 1.2.
        assert job.time_limit == pytest.approx(1.2 * 20.0)

    def test_each_build_gets_fresh_app(self):
        spec = self.spec()
        a = spec.build_job(True).payload
        b = spec.build_job(True).payload
        assert a is not b


class TestFSWorkload:
    def test_job_count(self):
        assert len(fs_workload(25, seed=0)) == 25

    def test_deterministic(self):
        a, b = fs_workload(20, seed=3), fs_workload(20, seed=3)
        assert [s.submit_nodes for s in a.jobs] == [s.submit_nodes for s in b.jobs]
        assert [s.arrival_time for s in a.jobs] == [s.arrival_time for s in b.jobs]

    def test_seeds_differ(self):
        a, b = fs_workload(20, seed=1), fs_workload(20, seed=2)
        assert [s.submit_nodes for s in a.jobs] != [s.submit_nodes for s in b.jobs]

    def test_sizes_within_cluster(self):
        wl = fs_workload(50, seed=0, config=FSWorkloadConfig(max_size=20))
        assert all(1 <= s.submit_nodes <= 20 for s in wl.jobs)

    def test_arrivals_sorted(self):
        wl = fs_workload(50, seed=0)
        arrivals = [s.arrival_time for s in wl.jobs]
        assert arrivals == sorted(arrivals)

    def test_table1_iterations_default(self):
        wl = fs_workload(5, seed=0)
        app = wl.jobs[0].app_factory()
        assert app.iterations == 25

    def test_step_cap_respected(self):
        wl = fs_workload(40, seed=0, config=FSWorkloadConfig(step_cap=60.0))
        for spec in wl.jobs:
            app = spec.app_factory()
            assert app.step_time(spec.submit_nodes) <= 60.0 + 1e-9

    def test_flexible_ratio(self):
        wl = fs_workload(200, seed=0, config=FSWorkloadConfig(flexible_ratio=0.5))
        assert 0.3 < wl.flexible_ratio < 0.7
        all_flex = fs_workload(50, seed=0)
        assert all_flex.flexible_ratio == 1.0
        none_flex = fs_workload(
            50, seed=0, config=FSWorkloadConfig(flexible_ratio=0.0)
        )
        assert none_flex.flexible_ratio == 0.0

    def test_sched_period_propagates(self):
        wl = fs_workload(5, seed=0, config=FSWorkloadConfig(sched_period=5.0))
        assert wl.jobs[0].app_factory().sched_period == 5.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            fs_workload(0)
        with pytest.raises(WorkloadError):
            FSWorkloadConfig(steps=0)
        with pytest.raises(WorkloadError):
            FSWorkloadConfig(flexible_ratio=2.0)

    def test_fixed_rendition_shares_jobs(self):
        flex = fs_workload(20, seed=0)
        fixed = [s.build_job(False) for s in flex.jobs]
        assert flex.flexible_count > 0
        assert len(fixed) == len(flex)
        assert all(job.job_class is JobClass.RIGID for job in fixed)
        assert [job.num_nodes for job in fixed] == [
            s.submit_nodes for s in flex.jobs
        ]


class TestRealAppWorkload:
    def test_equal_proportions(self):
        wl = realapp_workload(99, seed=0)
        names = [s.name.split("-")[0] for s in wl.jobs]
        assert names.count("cg") == 33
        assert names.count("jacobi") == 33
        assert names.count("nbody") == 33

    def test_submitted_at_maximum(self):
        wl = realapp_workload(30, seed=0)
        for spec in wl.jobs:
            app = spec.app_factory()
            assert spec.submit_nodes == app.resize.max_procs

    def test_random_sort_deterministic(self):
        a, b = realapp_workload(30, seed=5), realapp_workload(30, seed=5)
        assert [s.name for s in a.jobs] == [s.name for s in b.jobs]
        c = realapp_workload(30, seed=6)
        assert [s.name for s in a.jobs] != [s.name for s in c.jobs]

    def test_mix_is_shuffled(self):
        wl = realapp_workload(30, seed=0)
        kinds = [s.name.split("-")[0] for s in wl.jobs]
        # Not the unshuffled round-robin pattern.
        assert kinds != ["cg", "jacobi", "nbody"] * 10

    def test_validation(self):
        with pytest.raises(WorkloadError):
            realapp_workload(0)
        with pytest.raises(WorkloadError):
            realapp_workload(10, factories=())


class TestWorkloadSpec:
    def test_jobs_sorted_on_construction(self):
        from repro.apps import flexible_sleep

        factory = lambda: flexible_sleep(step_time=1, at_procs=1)
        spec = WorkloadSpec(
            name="w",
            jobs=[
                JobSpec("b", 1, 10.0, factory),
                JobSpec("a", 1, 5.0, factory),
            ],
        )
        assert [s.name for s in spec.jobs] == ["a", "b"]


class TestSchedTrace:
    def test_deterministic_per_seed(self):
        from repro.workload.generator import sched_trace

        a = sched_trace(100, seed=3)
        b = sched_trace(100, seed=3)
        c = sched_trace(100, seed=4)
        assert a == b
        assert a != c

    def test_shapes_and_bounds(self):
        from repro.workload.generator import sched_trace

        trace = sched_trace(200, seed=0, max_size=20, runtime_cap=3600.0)
        assert len(trace) == 200
        assert all(1 <= t.nodes <= 20 for t in trace)
        assert all(0.0 < t.runtime <= 3600.0 for t in trace)
        assert all(t.limit == pytest.approx(1.2 * t.runtime) for t in trace)
        arrivals = [t.arrival for t in trace]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        from repro.workload.generator import sched_trace

        with pytest.raises(WorkloadError):
            sched_trace(0)

    def test_swf_round_trip_preserves_shape(self):
        from repro.workload.generator import sched_trace, sched_trace_via_swf

        trace = sched_trace(50, seed=1)
        back = sched_trace_via_swf(trace)
        assert len(back) == len(trace)
        assert [t.nodes for t in back] == [t.nodes for t in trace]
        # SWF stores times at centisecond precision.
        for orig, rt in zip(trace, back):
            assert rt.arrival == pytest.approx(orig.arrival, abs=0.01)
            assert rt.runtime == pytest.approx(orig.runtime, abs=0.01)
