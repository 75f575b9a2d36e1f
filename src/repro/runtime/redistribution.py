"""Data-redistribution planning for expand/shrink (Listing 3 semantics).

The paper's programming model redistributes a block-distributed dataset
when a job is resized:

* **Expand** (Fig. 2a): each original rank partitions its block into
  ``factor`` subsets and offloads subset ``i`` to new rank
  ``myRank * factor + i``.
* **Shrink** (Fig. 2b): original ranks are grouped by ``factor``; within a
  group every *sender* forwards its block to the group's *receiver* (the
  last member), which then offloads the merged block to new rank
  ``receiver // factor``.

Besides the homogeneous mappings above, :func:`plan_block_remap` builds the
general block-to-block intersection plan that supports arbitrary (non
multiple/divisor) resizes, which the paper states the model also supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import RedistributionError


@dataclass(frozen=True)
class Transfer:
    """One network transfer: ``nbytes`` from ``src`` to ``dst``."""

    src: int
    dst: int
    nbytes: float

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise RedistributionError(f"negative transfer size {self.nbytes}")


@dataclass
class RedistributionPlan:
    """A set of transfers realizing a resize of block-distributed data."""

    kind: str  # "expand" | "shrink" | "remap"
    old_procs: int
    new_procs: int
    total_bytes: float
    transfers: List[Transfer] = field(default_factory=list)

    @property
    def bytes_out(self) -> Dict[int, float]:
        """Bytes leaving each source rank (network transfers only)."""
        out: Dict[int, float] = {}
        for t in self.transfers:
            out[t.src] = out.get(t.src, 0.0) + t.nbytes
        return out

    @property
    def bytes_in(self) -> Dict[int, float]:
        """Bytes arriving at each destination rank."""
        inn: Dict[int, float] = {}
        for t in self.transfers:
            inn[t.dst] = inn.get(t.dst, 0.0) + t.nbytes
        return inn

    @property
    def bytes_moved(self) -> float:
        return sum(t.nbytes for t in self.transfers)

    @property
    def message_count(self) -> int:
        return len(self.transfers)


def _check_args(old_procs: int, new_procs: int, total_bytes: float) -> None:
    if old_procs < 1 or new_procs < 1:
        raise RedistributionError(
            f"process counts must be >= 1, got {old_procs} -> {new_procs}"
        )
    if total_bytes < 0:
        raise RedistributionError(f"negative data size {total_bytes}")


def plan_expand(old_procs: int, new_procs: int, total_bytes: float) -> RedistributionPlan:
    """Listing 3 "expand" branch: split each block across ``factor`` ranks."""
    _check_args(old_procs, new_procs, total_bytes)
    if new_procs <= old_procs or new_procs % old_procs:
        raise RedistributionError(
            f"homogeneous expand needs a multiple: {old_procs} -> {new_procs}"
        )
    factor = new_procs // old_procs
    piece = total_bytes / new_procs
    plan = RedistributionPlan("expand", old_procs, new_procs, total_bytes)
    for rank in range(old_procs):
        for i in range(factor):
            dest = rank * factor + i
            plan.transfers.append(Transfer(src=rank, dst=dest, nbytes=piece))
    return plan


def plan_shrink(old_procs: int, new_procs: int, total_bytes: float) -> RedistributionPlan:
    """Listing 3 "shrink" branch: senders forward blocks to group receivers.

    Only the sender->receiver stage crosses the network; the receiver's
    offload to the new co-located process is a local hand-over.
    """
    _check_args(old_procs, new_procs, total_bytes)
    if new_procs >= old_procs or old_procs % new_procs:
        raise RedistributionError(
            f"homogeneous shrink needs a divisor: {old_procs} -> {new_procs}"
        )
    factor = old_procs // new_procs
    piece = total_bytes / old_procs
    plan = RedistributionPlan("shrink", old_procs, new_procs, total_bytes)
    for rank in range(old_procs):
        is_sender = (rank % factor) < (factor - 1)
        if is_sender:
            dst = factor * (rank // factor + 1) - 1  # the group's receiver
            plan.transfers.append(Transfer(src=rank, dst=dst, nbytes=piece))
    return plan


def plan_migrate(nprocs: int, total_bytes: float) -> RedistributionPlan:
    """Migration (Listing 1/2): same process count, new process set.

    Every original rank sends its whole block to its replacement rank in
    the freshly spawned communicator.
    """
    _check_args(nprocs, nprocs, total_bytes)
    piece = total_bytes / nprocs
    plan = RedistributionPlan("migrate", nprocs, nprocs, total_bytes)
    for rank in range(nprocs):
        plan.transfers.append(Transfer(src=rank, dst=rank, nbytes=piece))
    return plan


def plan_block_remap(
    old_procs: int, new_procs: int, total_bytes: float
) -> RedistributionPlan:
    """General block-to-block remap (supports arbitrary resizes).

    Item ranges are block-distributed in both configurations (rank ``r``
    of ``p`` holds the fraction ``[r/p, (r+1)/p)`` of the total); each
    overlapping (old rank, new rank) range pair becomes one transfer.
    Same-rank overlaps stay local and generate no transfer.
    """
    _check_args(old_procs, new_procs, total_bytes)
    plan = RedistributionPlan("remap", old_procs, new_procs, total_bytes)
    if total_bytes == 0 or old_procs == new_procs:
        return plan
    for old_rank in range(old_procs):
        lo, hi = old_rank / old_procs, (old_rank + 1) / old_procs
        last = min(new_procs - 1, int(hi * new_procs))
        for n in range(int(lo * new_procs), last + 1):
            overlap = min(hi, (n + 1) / new_procs) - max(lo, n / new_procs)
            if overlap > 0 and n != old_rank:  # same rank: data in place
                plan.transfers.append(
                    Transfer(src=old_rank, dst=n, nbytes=overlap * total_bytes)
                )
    return plan


def plan_for_resize(
    old_procs: int, new_procs: int, total_bytes: float
) -> RedistributionPlan:
    """Select the Listing 3 plan for an arbitrary resize.

    Homogeneous resizes (``new`` a multiple or divisor of ``old``) use the
    paper's expand/shrink mappings; equal sizes migrate; everything else
    falls back to the general block remap.  This is the single selection
    point shared by the runtime (:mod:`repro.runtime.nanos`) and the C/R
    comparison baseline (:mod:`repro.checkpoint.cr`).
    """
    _check_args(old_procs, new_procs, total_bytes)
    if new_procs == old_procs:
        return plan_migrate(old_procs, total_bytes)
    if new_procs > old_procs:
        if new_procs % old_procs == 0:
            return plan_expand(old_procs, new_procs, total_bytes)
        return plan_block_remap(old_procs, new_procs, total_bytes)
    if old_procs % new_procs == 0:
        return plan_shrink(old_procs, new_procs, total_bytes)
    return plan_block_remap(old_procs, new_procs, total_bytes)
