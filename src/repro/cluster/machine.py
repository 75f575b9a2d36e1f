"""Cluster-wide node allocation bookkeeping.

The :class:`Machine` tracks which nodes belong to which job, supports the
partial grow/release operations the Slurm resize protocol needs, and emits
allocation-change notifications that the metrics layer integrates into the
resource-utilization series reported in Table II of the paper.

Health bookkeeping: a DOWN or admin-drained node is *unavailable* — it is
neither free nor allocated, and :meth:`allocate` can never pick it.  A node
that fails while a job holds it stays in that job's allocation (the job
must evacuate or be requeued by the controller); releasing it clears the
ownership without returning the node to the free pool.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.node import Node, NodeState
from repro.errors import ClusterError

#: Signature of allocation observers: (allocated_node_count) -> None.
AllocationObserver = Callable[[int], None]


class Machine:
    """A homogeneous cluster of whole-node-allocatable compute nodes."""

    def __init__(
        self,
        num_nodes: int,
        cores_per_node: int = 16,
        memory_gb: float = 128.0,
        name: str = "marenostrum",
    ) -> None:
        if num_nodes < 1:
            raise ClusterError(f"cluster needs at least one node, got {num_nodes}")
        self.name = name
        self.nodes: List[Node] = [
            Node(index=i, cores=cores_per_node, memory_gb=memory_gb)
            for i in range(num_nodes)
        ]
        self._free: Set[int] = set(range(num_nodes))
        self._by_job: Dict[int, List[int]] = {}
        self._observers: List[AllocationObserver] = []
        #: Unheld DOWN or admin-drained nodes: neither free nor allocated.
        self._unavailable: Set[int] = set()
        #: Nodes an operator drained (stay out of the pool when released).
        self._admin_drained: Set[int] = set()
        #: DOWN nodes whose repair arrived while a job still held them;
        #: the recovery completes when the holder releases the node.
        self._deferred_recover: Set[int] = set()
        #: Held nodes that will NOT rejoin the free pool when released
        #: (dead without a pending repair, or operator-drained).  The
        #: backfill planner subtracts these from a job's freed-at-end
        #: count so shadow reservations stay honest under faults.
        self._held_unreturnable: Set[int] = set()
        #: Interconnect degradation multiplier (>= 1.0; faults raise it,
        #: the runtime scales redistribution times by it).
        self.network_factor: float = 1.0
        #: Set once any node's perf factor is raised: until then every
        #: job runs at nominal speed and :meth:`slowdown_of` need not scan.
        self._slowed = False
        #: Bumped by every change to the free pool, an allocation or node
        #: health (the held-unreturnable set included); part of the
        #: controller's scheduler state epoch.
        self.version = 0

    # -- introspection ---------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def cores_per_node(self) -> int:
        return self.nodes[0].cores

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def used_count(self) -> int:
        """Nodes currently allocated to jobs (excludes unavailable ones)."""
        return self.num_nodes - len(self._free) - len(self._unavailable)

    @property
    def unavailable_count(self) -> int:
        """Unheld DOWN + admin-drained nodes (out of the pool)."""
        return len(self._unavailable)

    @property
    def alive_count(self) -> int:
        """Nodes not DOWN (free, allocated or merely draining)."""
        return sum(1 for n in self.nodes if n.state is not NodeState.DOWN)

    @property
    def held_unreturnable(self) -> Set[int]:
        """Held nodes that will not rejoin the pool on release
        (dead-without-repair or operator-drained); the backfill planner's
        freed-at-end correction."""
        return self._held_unreturnable

    def all_free(self, node_indices: Sequence[int]) -> bool:
        """Whether every given node is in the free pool."""
        return self._free.issuperset(node_indices)

    def nodes_of(self, job_id: int) -> Tuple[int, ...]:
        """Indices of the nodes currently owned by ``job_id`` (sorted)."""
        return tuple(self._by_job.get(job_id, ()))

    def owner_of(self, node_index: int) -> Optional[int]:
        return self.nodes[node_index].job_id

    def jobs(self) -> Tuple[int, ...]:
        """Identifiers of all jobs that currently hold nodes."""
        return tuple(self._by_job)

    # -- observers --------------------------------------------------------
    def subscribe(self, observer: AllocationObserver) -> None:
        """Register a callback invoked after every allocation change."""
        self._observers.append(observer)

    def unsubscribe(self, observer: AllocationObserver) -> None:
        """Remove a callback added by :meth:`subscribe`."""
        self._observers.remove(observer)

    def _notify(self) -> None:
        self.version += 1
        used = self.used_count
        for obs in self._observers:
            obs(used)

    # -- allocation -------------------------------------------------------
    def allocate(self, job_id: int, count: int) -> Tuple[int, ...]:
        """Grant ``count`` free nodes to ``job_id`` (lowest indices first).

        A job may call this repeatedly; new nodes are appended to its
        existing allocation (this is how an expansion reuses the original
        nodes, per Section III of the paper).
        """
        if count < 1:
            raise ClusterError(f"allocation count must be >= 1, got {count}")
        if count > len(self._free):
            raise ClusterError(
                f"job {job_id}: requested {count} nodes, only {len(self._free)} free"
            )
        picked = sorted(self._free)[:count]
        for idx in picked:
            self.nodes[idx].assign(job_id)
            self._free.discard(idx)
        self._by_job.setdefault(job_id, []).extend(picked)
        self._by_job[job_id].sort()
        self._notify()
        return tuple(picked)

    def allocate_specific(self, job_id: int, node_indices: Sequence[int]) -> None:
        """Grant exactly the given free nodes to ``job_id``.

        Used when Slurm transfers the node set of a cancelled resizer job
        to the original job during an expansion.
        """
        indices = list(node_indices)
        for idx in indices:
            if idx not in self._free:
                raise ClusterError(f"node {idx} is not free")
        for idx in indices:
            self.nodes[idx].assign(job_id)
            self._free.discard(idx)
        self._by_job.setdefault(job_id, []).extend(indices)
        self._by_job[job_id].sort()
        self._notify()

    def release(self, job_id: int, node_indices: Optional[Sequence[int]] = None) -> Tuple[int, ...]:
        """Release some (or all) nodes of ``job_id`` back to the free pool."""
        owned = self._by_job.get(job_id)
        if not owned:
            raise ClusterError(f"job {job_id} holds no nodes")
        if node_indices is None:
            to_release = list(owned)
        else:
            to_release = list(node_indices)
            missing = [i for i in to_release if i not in owned]
            if missing:
                raise ClusterError(f"job {job_id} does not own nodes {missing}")
        for idx in to_release:
            node = self.nodes[idx]
            if node.state is NodeState.DOWN:
                # A dead node never returns to the free pool; a repair that
                # arrived while the job still held it completes now — but a
                # repair does not lift an operator drain (recover_node has
                # the same rule for unheld nodes).
                node.job_id = None
                if idx in self._deferred_recover:
                    self._deferred_recover.discard(idx)
                    node.recover()
                    if idx in self._admin_drained:
                        node.state = NodeState.DRAINING
                        self._unavailable.add(idx)
                    else:
                        self._free.add(idx)
                else:
                    self._unavailable.add(idx)
            elif idx in self._admin_drained:
                # Operator drain outlives the allocation: park the node.
                node.state = NodeState.DRAINING
                node.job_id = None
                self._unavailable.add(idx)
            else:
                node.free()
                self._free.add(idx)
            self._held_unreturnable.discard(idx)
            owned.remove(idx)
        if not owned:
            del self._by_job[job_id]
        self._notify()
        return tuple(sorted(to_release))

    def shrink_candidates(self, job_id: int, count: int) -> Tuple[int, ...]:
        """Pick which nodes a shrink should release (highest indices first).

        Keeping the lowest-indexed nodes mirrors Slurm's behaviour of
        retaining the job's head node (where the management process that
        collects shrink ACKs runs).
        """
        owned = self._by_job.get(job_id, [])
        if count > len(owned):
            raise ClusterError(
                f"job {job_id}: cannot release {count} of {len(owned)} nodes"
            )
        return tuple(sorted(owned, reverse=True)[:count])

    def drain(self, node_indices: Sequence[int]) -> None:
        """Mark allocated nodes as draining (pending shrink release)."""
        for idx in node_indices:
            self.nodes[idx].drain()

    # -- health (driven by the controller / fault injector) -----------------
    def fail_node(self, node_index: int) -> Optional[int]:
        """Take a node DOWN; returns the holding job's id, if any.

        A free (or drained-idle) node drops straight out of the pool.  An
        allocated node stays in its job's allocation — the caller (the
        controller) decides how the job reacts.  Failing an already-DOWN
        node raises (a ``None`` return would be indistinguishable from
        "a free node failed"); the controller pre-checks and no-ops.
        """
        node = self.nodes[node_index]
        if node.state is NodeState.DOWN:
            raise ClusterError(f"node {node_index} is already down")
        holder = node.job_id
        node.fail()
        if holder is None:
            self._free.discard(node_index)
            self._unavailable.add(node_index)
        else:
            self._held_unreturnable.add(node_index)
        self._notify()
        return holder

    def recover_node(self, node_index: int) -> bool:
        """Repair a DOWN node; returns True once it is back in the pool.

        A node still held by a job cannot rejoin immediately: the repair
        is deferred and completes when the holder releases it.
        """
        node = self.nodes[node_index]
        if node.state is not NodeState.DOWN:
            raise ClusterError(
                f"node {node_index} is {node.state.value}, not down"
            )
        if node.job_id is not None:
            self._deferred_recover.add(node_index)
            if node_index not in self._admin_drained:
                # The deferred repair means the node WILL rejoin the pool
                # when its holder releases it.
                self._held_unreturnable.discard(node_index)
            self.version += 1
            return False
        node.recover()
        self._unavailable.discard(node_index)
        if node_index in self._admin_drained:
            # Repair does not lift an operator drain.
            node.state = NodeState.DRAINING
            self._unavailable.add(node_index)
        else:
            self._free.add(node_index)
        self._notify()
        return True

    def drain_node(self, node_index: int) -> None:
        """Operator drain: no new work lands on the node.

        An idle node leaves the free pool at once; an allocated node keeps
        its job but is parked (not freed) when the job releases it.
        """
        node = self.nodes[node_index]
        if node.state is NodeState.DOWN:
            raise ClusterError(f"node {node_index} is down, cannot drain")
        self._admin_drained.add(node_index)
        if node.state is NodeState.IDLE:
            node.state = NodeState.DRAINING
            self._free.discard(node_index)
            self._unavailable.add(node_index)
            self._notify()
        elif node.state is NodeState.ALLOCATED:
            node.drain()
            self._held_unreturnable.add(node_index)
            self.version += 1

    def resume_node(self, node_index: int) -> None:
        """Lift an operator drain (the inverse of :meth:`drain_node`)."""
        node = self.nodes[node_index]
        self._admin_drained.discard(node_index)
        if node.state is NodeState.DRAINING:
            if node.job_id is None:
                node.state = NodeState.IDLE
                self._unavailable.discard(node_index)
                self._free.add(node_index)
                self._notify()
            else:
                node.state = NodeState.ALLOCATED
                self._held_unreturnable.discard(node_index)
                self.version += 1

    def set_perf_factor(self, node_index: int, factor: float) -> None:
        """Set a node's performance multiplier (transient slowdown)."""
        if factor < 1.0:
            raise ClusterError(f"perf factor must be >= 1.0, got {factor}")
        self.nodes[node_index].perf_factor = factor
        self._slowed = True

    def down_nodes_of(self, job_id: int) -> Tuple[int, ...]:
        """The DOWN nodes a job still holds (forced-shrink victims)."""
        return tuple(
            i for i in self.nodes_of(job_id)
            if self.nodes[i].state is NodeState.DOWN
        )

    def slowdown_of(self, job_id: int) -> float:
        """The job's effective slowdown: its slowest node gates each step."""
        if not self._slowed:
            return 1.0
        owned = self._by_job.get(job_id)
        if not owned:
            return 1.0
        return max(self.nodes[i].perf_factor for i in owned)

    def utilization(self) -> float:
        """Instantaneous fraction of allocated nodes."""
        return self.used_count / self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Machine {self.name!r} {self.used_count}/{self.num_nodes} "
            f"nodes allocated>"
        )
