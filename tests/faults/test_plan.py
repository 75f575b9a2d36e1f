"""Fault-plan construction: validation, determinism, MTBF sampling."""

import pickle

import pytest

from repro.errors import FaultError
from repro.faults import FaultEvent, FaultKind, FaultPlan


class TestFaultEvent:
    def test_node_kinds_need_a_node(self):
        with pytest.raises(FaultError):
            FaultEvent(time=1.0, kind=FaultKind.NODE_FAIL)

    def test_network_degrade_needs_no_node(self):
        e = FaultEvent(
            time=1.0, kind=FaultKind.NETWORK_DEGRADE, factor=2.0, duration=5.0
        )
        assert e.node is None

    def test_window_kinds_validate_factor_and_duration(self):
        with pytest.raises(FaultError):
            FaultEvent(time=0.0, kind=FaultKind.SLOWDOWN, node=1, factor=0.5,
                       duration=5.0)
        with pytest.raises(FaultError):
            FaultEvent(time=0.0, kind=FaultKind.SLOWDOWN, node=1, factor=2.0,
                       duration=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent(time=-1.0, kind=FaultKind.NODE_FAIL, node=0)


class TestFaultPlan:
    def test_events_are_time_sorted(self):
        plan = FaultPlan.scripted(
            [
                FaultEvent(time=9.0, kind=FaultKind.NODE_FAIL, node=1),
                FaultEvent(time=3.0, kind=FaultKind.NODE_FAIL, node=2),
            ]
        )
        assert [e.time for e in plan] == [3.0, 9.0]

    def test_plan_pickles(self):
        plan = FaultPlan.from_mtbf(
            mtbf=100.0, horizon=1000.0, num_nodes=8, seed=3, repair_time=50.0
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan


class TestMTBFSampling:
    def test_deterministic_for_a_seed(self):
        a = FaultPlan.from_mtbf(mtbf=200.0, horizon=2000.0, num_nodes=16, seed=5)
        b = FaultPlan.from_mtbf(mtbf=200.0, horizon=2000.0, num_nodes=16, seed=5)
        c = FaultPlan.from_mtbf(mtbf=200.0, horizon=2000.0, num_nodes=16, seed=6)
        assert a.events == b.events
        assert a.events != c.events

    def test_failures_within_horizon_and_node_range(self):
        plan = FaultPlan.from_mtbf(
            mtbf=50.0, horizon=1000.0, num_nodes=4, seed=1
        )
        assert plan.failure_count > 0
        for e in plan:
            assert e.time < 1000.0
            assert 0 <= e.node < 4

    def test_repairs_follow_failures(self):
        plan = FaultPlan.from_mtbf(
            mtbf=100.0, horizon=500.0, num_nodes=8, seed=2, repair_time=60.0
        )
        fails = [e for e in plan if e.kind is FaultKind.NODE_FAIL]
        recovers = [e for e in plan if e.kind is FaultKind.NODE_RECOVER]
        assert len(fails) == len(recovers)
        for r in recovers:
            partners = [
                f for f in fails
                if abs(f.time + 60.0 - r.time) < 1e-6 and f.node == r.node
            ]
            assert partners, f"no failure 60 s before repair at t={r.time}"

    def test_mean_gap_tracks_mtbf(self):
        plan = FaultPlan.from_mtbf(
            mtbf=20.0, horizon=20000.0, num_nodes=8, seed=11
        )
        times = [e.time for e in plan if e.kind is FaultKind.NODE_FAIL]
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        assert 14.0 < mean < 28.0  # exponential with mean 20

    def test_invalid_parameters_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_mtbf(mtbf=0.0, horizon=10.0, num_nodes=1)
        with pytest.raises(FaultError):
            FaultPlan.from_mtbf(mtbf=1.0, horizon=0.0, num_nodes=1)
        with pytest.raises(FaultError):
            FaultPlan.from_mtbf(mtbf=1.0, horizon=10.0, num_nodes=0)
        with pytest.raises(FaultError):
            FaultPlan.from_mtbf(mtbf=1.0, horizon=10.0, num_nodes=2,
                                repair_time=0.0)

    def test_nan_parameters_rejected(self):
        """Regression: NaN passes `<= 0` checks and would make the
        sampling loop spin forever."""
        nan = float("nan")
        with pytest.raises(FaultError):
            FaultPlan.from_mtbf(mtbf=nan, horizon=10.0, num_nodes=2)
        with pytest.raises(FaultError):
            FaultPlan.from_mtbf(mtbf=1.0, horizon=nan, num_nodes=2)
        with pytest.raises(FaultError):
            FaultPlan.from_mtbf(mtbf=1.0, horizon=10.0, num_nodes=2,
                                repair_time=nan)
        with pytest.raises(FaultError):
            FaultEvent(time=nan, kind=FaultKind.NODE_FAIL, node=0)

    def test_max_failures_caps_the_plan(self):
        plan = FaultPlan.from_mtbf(
            mtbf=10.0, horizon=100000.0, num_nodes=4, seed=0, max_failures=5
        )
        assert plan.failure_count == 5
