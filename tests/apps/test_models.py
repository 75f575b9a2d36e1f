"""Tests for application models and scalability curves."""

import bisect
import math

import pytest

from repro.apps import (
    AppModel,
    LinearScalability,
    MeasuredScalability,
    conjugate_gradient,
    flexible_sleep,
    jacobi,
    nbody,
)
from repro.apps.cg import CG_SPEEDUP
from repro.apps.jacobi import JACOBI_SPEEDUP
from repro.apps.nbody import NBODY_SPEEDUP
from repro.errors import ReproError


def reference_speedup(s: MeasuredScalability, nprocs: int) -> float:
    """The original lookup: validate, list the keys, then interpolate."""
    s._validate(nprocs)
    keys = list(s.points)
    if nprocs in s.points:
        return s.points[nprocs]
    if nprocs <= keys[0]:
        return s.points[keys[0]]
    if nprocs >= keys[-1]:
        return s.points[keys[-1]]
    hi = bisect.bisect_left(keys, nprocs)
    lo = hi - 1
    x0, x1 = keys[lo], keys[hi]
    y0, y1 = s.points[x0], s.points[x1]
    w = (math.log2(nprocs) - math.log2(x0)) / (math.log2(x1) - math.log2(x0))
    return y0 + w * (y1 - y0)


class TestScalability:
    def test_linear(self):
        s = LinearScalability()
        assert s.speedup(1) == 1.0
        assert s.speedup(16) == 16.0
        with pytest.raises(ReproError):
            s.speedup(0)

    def test_measured_exact_points(self):
        s = MeasuredScalability({1: 1.0, 8: 6.0, 32: 7.0})
        assert s.speedup(8) == 6.0
        assert s.speedup(32) == 7.0

    def test_measured_interpolates_in_log_space(self):
        s = MeasuredScalability({1: 1.0, 4: 3.0})
        assert s.speedup(2) == pytest.approx(2.0)  # halfway in log2

    def test_measured_clamps_beyond_range(self):
        s = MeasuredScalability({1: 1.0, 8: 6.0})
        assert s.speedup(64) == 6.0

    def test_measured_adds_unit_point(self):
        s = MeasuredScalability({8: 6.0})
        assert s.speedup(1) == 1.0

    @pytest.mark.parametrize(
        "points", [CG_SPEEDUP, JACOBI_SPEEDUP, NBODY_SPEEDUP],
        ids=["cg", "jacobi", "nbody"],
    )
    def test_measured_lookup_matches_the_reference(self, points):
        s = MeasuredScalability(points)
        for nprocs in range(1, 129):
            assert s.speedup(nprocs) == reference_speedup(s, nprocs), nprocs

    def test_measured_rejects_a_size_below_one(self):
        s = MeasuredScalability({1: 1.0, 8: 6.0})
        for nprocs in (0, -4):
            with pytest.raises(ReproError):
                s.speedup(nprocs)

    def test_measured_validation(self):
        with pytest.raises(ReproError):
            MeasuredScalability({})
        with pytest.raises(ReproError):
            MeasuredScalability({0: 1.0})
        with pytest.raises(ReproError):
            MeasuredScalability({2: -1.0})


class TestAppModel:
    def app(self, **kw):
        defaults = dict(
            name="t",
            iterations=4,
            serial_step_time=8.0,
            state_bytes=100.0,
            scalability=LinearScalability(),
        )
        defaults.update(kw)
        return AppModel(**defaults)

    def test_step_time_scales(self):
        app = self.app()
        assert app.step_time(1) == 8.0
        assert app.step_time(4) == 2.0

    def test_total_time(self):
        assert self.app().total_time(2) == 16.0

    def test_progress_tracking(self):
        app = self.app()
        assert app.remaining_steps == 4
        app.advance()
        app.advance(2)
        assert app.completed_steps == 3
        assert not app.finished
        app.advance()
        assert app.finished

    def test_advance_past_end_rejected(self):
        app = self.app(iterations=1)
        app.advance()
        with pytest.raises(ReproError):
            app.advance()

    def test_fresh_copy_independent_progress(self):
        app = self.app()
        app.advance(2)
        copy = app.fresh_copy()
        assert copy.completed_steps == 0
        assert copy.iterations == app.iterations

    def test_progress_is_not_part_of_equality_or_repr(self):
        curve = LinearScalability()
        app, twin = self.app(scalability=curve), self.app(scalability=curve)
        app.advance(2)
        assert app == twin
        assert repr(app) == repr(twin)
        assert "_completed" not in repr(app)

    def test_validation(self):
        with pytest.raises(ReproError):
            self.app(iterations=0)
        with pytest.raises(ReproError):
            self.app(serial_step_time=0)
        with pytest.raises(ReproError):
            self.app(state_bytes=-1)
        with pytest.raises(ReproError):
            self.app(sched_period=-1)


class TestPaperApplications:
    @pytest.mark.parametrize(
        "factory", [conjugate_gradient, jacobi, nbody, flexible_sleep],
        ids=["cg", "jacobi", "nbody", "fs"],
    )
    def test_instances_share_their_model_parts(self, factory):
        kwargs = {"step_time": 10.0, "at_procs": 4} if factory is flexible_sleep else {}
        a, b = factory(**kwargs), factory(**kwargs)
        assert a.scalability is b.scalability
        if factory is not flexible_sleep:
            assert a.resize is b.resize

    def test_fs_linear_anchor(self):
        app = flexible_sleep(step_time=60.0, at_procs=10, steps=2)
        assert app.step_time(10) == pytest.approx(60.0)
        assert app.step_time(20) == pytest.approx(30.0)
        assert app.iterations == 2

    def test_fs_table1_limits(self):
        app = flexible_sleep(step_time=10.0, at_procs=4)
        assert app.resize.min_procs == 1
        assert app.resize.max_procs == 20
        assert app.resize.preferred is None
        assert app.resize.factor == 2

    def test_fs_validation(self):
        with pytest.raises(ReproError):
            flexible_sleep(step_time=0, at_procs=4)
        with pytest.raises(ReproError):
            flexible_sleep(step_time=1, at_procs=0)

    def test_cg_table1(self):
        app = conjugate_gradient()
        assert app.iterations == 10_000
        assert app.resize.min_procs == 2
        assert app.resize.max_procs == 32
        assert app.resize.preferred == 8
        assert app.sched_period == 15.0

    def test_cg_sweet_spot_behaviour(self):
        """Section IX-A: <10% marginal gain per doubling beyond 8 procs."""
        app = conjugate_gradient()
        s = app.scalability
        assert s.speedup(16) / s.speedup(8) < 1.10
        assert s.speedup(32) / s.speedup(16) < 1.10
        # But the absolute best remains 32.
        assert s.speedup(32) == max(s.speedup(p) for p in (1, 2, 4, 8, 16, 32))

    def test_cg_short_iterations(self):
        """Section IX-A: CG/Jacobi iterations complete in < 2 s."""
        app = conjugate_gradient()
        assert app.step_time(8) < 2.0

    def test_jacobi_table1(self):
        app = jacobi()
        assert app.iterations == 10_000
        assert app.resize.preferred == 8
        assert app.sched_period == 15.0
        assert app.step_time(8) < 2.0

    def test_nbody_table1(self):
        app = nbody()
        assert app.iterations == 25
        assert app.resize.min_procs == 1
        assert app.resize.max_procs == 16
        assert app.resize.preferred == 1
        assert app.sched_period == 0.0

    def test_nbody_constant_performance(self):
        """Section IX-A: < 10% total gain, peak at 16 processes."""
        app = nbody()
        s = app.scalability
        assert s.speedup(16) < 1.10
        assert s.speedup(16) == max(s.speedup(p) for p in (1, 2, 4, 8, 16, 32))

    def test_nbody_costly_iterations(self):
        """N-body steps are minutes-scale vs CG/Jacobi seconds-scale."""
        assert nbody().step_time(1) > 10 * conjugate_gradient().step_time(8)
