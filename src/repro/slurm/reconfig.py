"""The resource-selection plug-in realizing the paper's Algorithm 1.

The policy has three modes, in decreasing precedence (Section IV):

1. **Request an action** — the application "strongly suggests" an action by
   submitting a minimum above (or a maximum below) its current size.
2. **Preferred number of nodes** — steer the job toward its preferred size;
   with an empty queue the job may instead grow to its maximum.
3. **Wide optimization** — expand into idle resources when no queued job
   could use them, shrink when that lets a queued job start (the queued job
   is then boosted to maximum priority).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Tuple

from repro.core.actions import (
    DecisionReason,
    ResizeAction,
    ResizeDecision,
    ResizeRequest,
)
from repro.slurm.job import Job


@dataclass(frozen=True)
class PolicyView:
    """Snapshot of the system state a decision is based on.

    The view is taken at the DMR call in both modes; asynchronous mode
    applies the resulting *decision* one step late, which is the effect
    Section VIII-C analyses.
    """

    free_nodes: int
    #: Pending non-resizer jobs in priority order (head first).  Under
    #: ``shrink_beneficiary="head"`` the controller passes only the head:
    #: the policy then reads no further than ``pending[:1]``.
    pending: Tuple[Job, ...] = ()
    #: Number of running jobs (including the caller).
    running_count: int = 1
    #: Smallest ``num_nodes`` among the pending non-resizer jobs (None
    #: when there are none); the controller reads it from the queue's
    #: size index, else it is derived from ``pending``.
    min_pending_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.free_nodes < 0:
            raise ValueError(f"free_nodes must be >= 0, got {self.free_nodes}")
        if self.min_pending_nodes is None and self.pending:
            smallest = min(job.num_nodes for job in self.pending)
            object.__setattr__(self, "min_pending_nodes", smallest)


@dataclass(frozen=True)
class PolicyConfig:
    """Tunables of the reconfiguration plug-in."""

    #: How far to shrink when releasing resources for a queued job:
    #: ``deepest`` goes to the smallest reachable size that satisfies the
    #: queued job (a literal reading of the paper's min_procs_run),
    #: ``minimal`` frees just enough nodes (the balance the paper's
    #: narratives exhibit; the ablation bench compares both).
    shrink_mode: Literal["deepest", "minimal"] = "minimal"
    #: Whether the wide-optimization branch may expand a job while other
    #: jobs are pending (Algorithm 1, lines 19-21 literally).  Slurm is
    #: "ultimately responsible for granting the operation according to
    #: the overall system status"; granting such expansions lets running
    #: jobs re-grab every node a shrink frees and starves wide pending
    #: jobs, so the default grant policy vetoes them.  The ablation bench
    #: measures the literal variant.
    expand_with_pending: bool = False
    #: Which queued jobs a shrink may benefit: only the queue head ("the
    #: next eligible job pending in the queue", Fig. 12's narrative) or
    #: any queued job (a literal reading of Algorithm 1's line 15).
    #: Head-only keeps shrink-triggered starts consistent with the
    #: backfill reservation of the highest-priority job; "any" lets
    #: boosted beneficiaries jump wide head jobs indefinitely.
    shrink_beneficiary: Literal["head", "any"] = "head"


class ReconfigurationPolicy:
    """Algorithm 1 of the paper as a deterministic decision function."""

    def __init__(self, config: PolicyConfig | None = None) -> None:
        self.config = config or PolicyConfig()

    # -- public entry ------------------------------------------------------
    def decide(
        self,
        job: Job,
        request: ResizeRequest,
        view: PolicyView,
    ) -> ResizeDecision:
        """Produce the expand/shrink/no-action decision for ``job``."""
        current = job.num_nodes

        requested = self._requested_action(current, request, view)
        if requested is not None:
            return requested

        if request.preferred is not None:
            return self._preferred_mode(job, current, request, view)
        return self._wide_optimization(job, current, request, view)

    # -- mode 1: request an action ------------------------------------------
    def _requested_action(
        self, current: int, request: ResizeRequest, view: PolicyView
    ) -> Optional[ResizeDecision]:
        if request.min_procs > current:
            # The application demands growth to at least min_procs.
            target = request.max_procs_to(current, request.max_procs, view.free_nodes)
            if target is not None and target >= request.min_procs:
                return ResizeDecision(
                    ResizeAction.EXPAND, target, DecisionReason.REQUESTED_ACTION
                )
            return ResizeDecision.no_action(current, DecisionReason.NO_RESOURCES)
        if request.max_procs < current:
            # The application demands shrinking to at most max_procs.
            for size in request.shrink_sizes(current):
                if size <= request.max_procs:
                    return ResizeDecision(
                        ResizeAction.SHRINK, size, DecisionReason.REQUESTED_ACTION
                    )
            return ResizeDecision.no_action(current, DecisionReason.NO_RESOURCES)
        return None

    # -- mode 2: preferred number of nodes ---------------------------------
    def _preferred_mode(
        self, job: Job, current: int, request: ResizeRequest, view: PolicyView
    ) -> ResizeDecision:
        preferred = request.preferred
        assert preferred is not None

        if not view.pending:
            # "No outstanding job in the queue": growth up to the maximum
            # is allowed (Algorithm 1, lines 2-4).
            target = request.max_procs_to(current, request.max_procs, view.free_nodes)
            if target is not None and target > current:
                return ResizeDecision(
                    ResizeAction.EXPAND, target, DecisionReason.ALONE_IN_SYSTEM
                )
            return ResizeDecision.no_action(current, DecisionReason.ALONE_IN_SYSTEM)

        if preferred == current:
            # Desired size already achieved (Section IV-2).
            return ResizeDecision.no_action(current, DecisionReason.PREFERRED_REACHED)

        if preferred > current:
            target = request.max_procs_to(current, preferred, view.free_nodes)
            if target is not None and target > current:
                return ResizeDecision(
                    ResizeAction.EXPAND, target, DecisionReason.EXPAND_TO_PREFERRED
                )
        else:
            if preferred in request.shrink_sizes(current):
                return ResizeDecision(
                    ResizeAction.SHRINK, preferred, DecisionReason.SHRINK_TO_PREFERRED
                )
        # Preferred unreachable: fall through to wide optimization
        # (Algorithm 1, line 13 onward).
        return self._wide_optimization(job, current, request, view)

    # -- mode 3: wide optimization ------------------------------------------
    def _wide_optimization(
        self, job: Job, current: int, request: ResizeRequest, view: PolicyView
    ) -> ResizeDecision:
        if view.pending:
            # If some queued job already fits in the free nodes, take no
            # action: the scheduler will start it, and expanding now would
            # steal its resources.
            if view.min_pending_nodes <= view.free_nodes:
                return ResizeDecision.no_action(current, DecisionReason.PENDING_FITS)
            shrink = self._shrink_for_pending(current, request, view)
            if shrink is not None:
                return shrink
            # No queued job can be helped.  Algorithm 1 (lines 19-21) then
            # grows into the idle nodes; the default grant policy vetoes
            # that while jobs are pending so freed nodes can accumulate
            # for wide queued jobs (see PolicyConfig.expand_with_pending).
            if self.config.expand_with_pending:
                target = request.max_procs_to(
                    current, request.max_procs, view.free_nodes
                )
                if target is not None and target > current:
                    return ResizeDecision(
                        ResizeAction.EXPAND,
                        target,
                        DecisionReason.EXPAND_IDLE_RESOURCES,
                    )
            return ResizeDecision.no_action(current, DecisionReason.NO_RESOURCES)

        # Empty queue: expand to the job maximum (lines 22-24).
        target = request.max_procs_to(current, request.max_procs, view.free_nodes)
        if target is not None and target > current:
            return ResizeDecision(
                ResizeAction.EXPAND, target, DecisionReason.EXPAND_IDLE_RESOURCES
            )
        return ResizeDecision.no_action(current, DecisionReason.NO_RESOURCES)

    def _shrink_for_pending(
        self, current: int, request: ResizeRequest, view: PolicyView
    ) -> Optional[ResizeDecision]:
        """Find the highest-priority queued job this job could unblock."""
        shrink_sizes = request.shrink_sizes(current)  # descending
        if not shrink_sizes:
            return None
        max_freeable = current - shrink_sizes[-1]
        candidates = (
            view.pending[:1]
            if self.config.shrink_beneficiary == "head"
            else view.pending
        )
        for target_job in candidates:
            needed = target_job.num_nodes - view.free_nodes
            if needed <= 0:
                continue  # handled by the fits-already guard
            if needed > max_freeable:
                continue  # even the deepest shrink would not unblock it
            if self.config.shrink_mode == "deepest":
                size = shrink_sizes[-1]
            else:
                # Smallest release that still lets the target start.
                size = next(s for s in shrink_sizes if current - s >= needed)
            return ResizeDecision(
                ResizeAction.SHRINK,
                size,
                DecisionReason.SHRINK_FOR_PENDING,
                beneficiary_job_id=target_job.job_id,
            )
        return None
