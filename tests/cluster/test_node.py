"""Unit tests for the Node state machine."""

import pytest

from repro.cluster import Node, NodeState


def test_defaults_match_marenostrum():
    node = Node(index=3)
    assert node.cores == 16
    assert node.memory_gb == 128.0
    assert node.hostname == "mn0003"
    assert node.state is NodeState.IDLE


def test_validation():
    with pytest.raises(ValueError):
        Node(index=-1)
    with pytest.raises(ValueError):
        Node(index=0, cores=0)


def test_custom_hostname_preserved():
    assert Node(index=1, hostname="custom01").hostname == "custom01"


def test_assign_and_free():
    node = Node(index=0)
    node.assign(42)
    assert node.state is NodeState.ALLOCATED
    assert node.job_id == 42
    assert node.state is not NodeState.IDLE
    node.free()
    assert node.state is NodeState.IDLE
    assert node.job_id is None


def test_double_assign_rejected():
    node = Node(index=0)
    node.assign(1)
    with pytest.raises(ValueError):
        node.assign(2)


def test_drain_lifecycle():
    node = Node(index=0)
    node.assign(1)
    node.drain()
    assert node.state is NodeState.DRAINING
    node.free()
    assert node.state is NodeState.IDLE


def test_drain_requires_allocation():
    with pytest.raises(ValueError):
        Node(index=0).drain()


def test_down_node_cannot_free():
    node = Node(index=0, state=NodeState.DOWN)
    with pytest.raises(ValueError):
        node.free()
