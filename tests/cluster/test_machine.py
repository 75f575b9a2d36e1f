"""Tests for node allocation bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, NodeState
from repro.errors import ClusterError


def test_machine_requires_nodes():
    with pytest.raises(ClusterError):
        Machine(0)


def test_fresh_machine_all_free():
    m = Machine(10)
    assert m.free_count == 10
    assert m.used_count == 0
    assert m.utilization() == 0.0


def test_allocate_lowest_indices_first():
    m = Machine(8)
    assert m.allocate(1, 3) == (0, 1, 2)
    assert m.allocate(2, 2) == (3, 4)
    assert m.free_count == 3


def test_allocate_appends_to_existing_job():
    m = Machine(8)
    m.allocate(1, 2)
    m.allocate(1, 2)
    assert m.nodes_of(1) == (0, 1, 2, 3)


def test_allocate_insufficient_raises():
    m = Machine(4)
    m.allocate(1, 3)
    with pytest.raises(ClusterError):
        m.allocate(2, 2)


def test_allocate_zero_rejected():
    with pytest.raises(ClusterError):
        Machine(4).allocate(1, 0)


def test_free_count_bounds_an_allocation():
    m = Machine(4)
    assert m.free_count == 4
    with pytest.raises(ClusterError):
        m.allocate(1, 5)
    m.allocate(1, 2)
    assert m.free_count == 2
    with pytest.raises(ClusterError):
        m.allocate(2, 3)
    assert m.free_count == 2


def test_release_all_nodes():
    m = Machine(6)
    m.allocate(1, 4)
    released = m.release(1)
    assert released == (0, 1, 2, 3)
    assert m.free_count == 6
    assert m.nodes_of(1) == ()


def test_partial_release():
    m = Machine(6)
    m.allocate(1, 4)
    m.release(1, [2, 3])
    assert m.nodes_of(1) == (0, 1)
    assert m.free_count == 4


def test_release_unowned_node_raises():
    m = Machine(6)
    m.allocate(1, 2)
    with pytest.raises(ClusterError):
        m.release(1, [5])


def test_release_jobless_raises():
    with pytest.raises(ClusterError):
        Machine(4).release(99)


def test_allocate_specific_transfers_exact_nodes():
    m = Machine(6)
    m.allocate(1, 2)          # job 1 on nodes 0,1
    m.allocate(2, 2)          # resizer on nodes 2,3
    m.release(2)              # resizer cancelled
    m.allocate_specific(1, [2, 3])
    assert m.nodes_of(1) == (0, 1, 2, 3)


def test_allocate_specific_requires_free_nodes():
    m = Machine(4)
    m.allocate(1, 2)
    with pytest.raises(ClusterError):
        m.allocate_specific(2, [1])


def test_owner_of():
    m = Machine(4)
    m.allocate(7, 2)
    assert m.owner_of(0) == 7
    assert m.owner_of(3) is None


def test_shrink_candidates_highest_first():
    m = Machine(8)
    m.allocate(1, 6)
    assert m.shrink_candidates(1, 2) == (5, 4)


def test_shrink_candidates_too_many_raises():
    m = Machine(8)
    m.allocate(1, 2)
    with pytest.raises(ClusterError):
        m.shrink_candidates(1, 3)


def test_drain_marks_nodes():
    m = Machine(4)
    m.allocate(1, 3)
    m.drain([2])
    assert m.nodes[2].state is NodeState.DRAINING


def test_observer_sees_every_change():
    m = Machine(6)
    seen = []
    m.subscribe(seen.append)
    m.allocate(1, 3)
    m.allocate(2, 1)
    m.release(1, [0])
    m.release(2)
    assert seen == [3, 4, 3, 2]


def test_jobs_listing():
    m = Machine(6)
    m.allocate(1, 1)
    m.allocate(2, 1)
    assert set(m.jobs()) == {1, 2}
    m.release(1)
    assert m.jobs() == (2,)


class TestSlowdownOf:
    """``slowdown_of`` skips its scan until a perf factor is ever raised;
    after that every read must still see the nodes' current factors."""

    def test_fresh_machine_runs_at_nominal_speed(self):
        m = Machine(4)
        m.allocate(1, 2)
        assert m.slowdown_of(1) == 1.0
        assert m.slowdown_of(99) == 1.0  # a job holding no nodes

    def test_slowest_node_gates_the_job(self):
        m = Machine(4)
        m.allocate(1, 3)
        m.set_perf_factor(1, 2.5)
        m.set_perf_factor(2, 1.5)
        m.set_perf_factor(3, 4.0)  # not the job's node
        assert m.slowdown_of(1) == 2.5

    def test_injector_restore_brings_nominal_speed_back(self):
        from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
        from repro.sim import Environment
        from repro.slurm import SlurmController

        env = Environment()
        m = Machine(4)
        m.allocate(1, 2)
        ctl = SlurmController(env, m)
        FaultInjector(ctl, FaultPlan.scripted([
            FaultEvent(time=1.0, kind=FaultKind.SLOWDOWN, node=0,
                       factor=3.0, duration=5.0),
        ])).start()
        env.run(until=2.0)
        assert m.slowdown_of(1) == 3.0
        # The window's expiry writes the node's factor back directly.
        env.run(until=7.0)
        assert m.slowdown_of(1) == 1.0

    def test_failed_node_resets_its_factor(self):
        m = Machine(4)
        m.allocate(1, 2)
        m.set_perf_factor(0, 3.0)
        assert m.slowdown_of(1) == 3.0
        m.fail_node(0)  # Node.fail() resets the factor
        assert m.slowdown_of(1) == 1.0


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_property_alloc_release_conserves_nodes(sizes):
    """Allocating arbitrary jobs then releasing them restores the pool."""
    m = Machine(32)
    placed = []
    for jid, size in enumerate(sizes):
        if size <= m.free_count:
            m.allocate(jid, size)
            placed.append(jid)
    # Invariant: every node is owned by at most one job.
    owned = [idx for jid in placed for idx in m.nodes_of(jid)]
    assert len(owned) == len(set(owned))
    assert m.used_count == len(owned)
    for jid in placed:
        m.release(jid)
    assert m.free_count == 32
