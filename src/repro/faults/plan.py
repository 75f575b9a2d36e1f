"""Deterministic fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is an immutable, picklable script of
:class:`FaultEvent` records — node crashes and repairs, operator drains,
transient per-node slowdowns and cluster-wide network degradation.  Plans
are either written by hand (:meth:`FaultPlan.scripted`) or sampled from a
seeded RNG with exponential inter-failure gaps
(:meth:`FaultPlan.from_mtbf`), so the same plan can be replayed against
the fixed and the flexible rendition of a workload — any survival
difference is attributable to the failure-handling mechanism alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import FaultError
from repro.sim.rng import RandomStreams


class FaultKind(enum.Enum):
    """Vocabulary of injectable faults."""

    NODE_FAIL = "node_fail"
    NODE_RECOVER = "node_recover"
    NODE_DRAIN = "node_drain"
    NODE_RESUME = "node_resume"
    SLOWDOWN = "slowdown"
    NETWORK_DEGRADE = "network_degrade"


#: Kinds that target a specific node.
_NODE_KINDS = frozenset(
    {
        FaultKind.NODE_FAIL,
        FaultKind.NODE_RECOVER,
        FaultKind.NODE_DRAIN,
        FaultKind.NODE_RESUME,
        FaultKind.SLOWDOWN,
    }
)

#: Kinds carrying a (factor, duration) degradation window.
_WINDOW_KINDS = frozenset({FaultKind.SLOWDOWN, FaultKind.NETWORK_DEGRADE})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    time: float
    kind: FaultKind
    #: Target node index (None only for NETWORK_DEGRADE).
    node: Optional[int] = None
    #: Performance multiplier of SLOWDOWN / NETWORK_DEGRADE (>= 1.0).
    #: Jobs observe factors at compute-batch boundaries (reconfiguring
    #: points, checkpoint intervals, or launch): a rigid
    #: non-checkpointing job prices its whole run in one batch and only
    #: sees factors in force when it starts.
    factor: float = 1.0
    #: How long a SLOWDOWN / NETWORK_DEGRADE window lasts.
    duration: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise FaultError(f"fault time must be finite and >= 0, got {self.time}")
        if self.kind in _NODE_KINDS and self.node is None:
            raise FaultError(f"{self.kind.value} needs a target node")
        if self.node is not None and self.node < 0:
            raise FaultError(f"node index must be >= 0, got {self.node}")
        if self.kind in _WINDOW_KINDS:
            if self.factor < 1.0:
                raise FaultError(
                    f"{self.kind.value} factor must be >= 1.0, got {self.factor}"
                )
            if self.duration <= 0:
                raise FaultError(
                    f"{self.kind.value} needs a positive duration, "
                    f"got {self.duration}"
                )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events (time-sorted)."""

    events: Tuple[FaultEvent, ...] = ()
    name: str = "scripted"

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.kind.value, e.node or 0))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def failure_count(self) -> int:
        return sum(1 for e in self.events if e.kind is FaultKind.NODE_FAIL)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def scripted(events: Iterable[FaultEvent], name: str = "scripted") -> "FaultPlan":
        return FaultPlan(events=tuple(events), name=name)

    @classmethod
    def from_mtbf(
        cls,
        mtbf: float,
        horizon: float,
        num_nodes: int,
        seed: int = 0,
        repair_time: Optional[float] = None,
        max_failures: Optional[int] = None,
    ) -> "FaultPlan":
        """Sample node crashes with exponential inter-failure gaps.

        ``mtbf`` is the *cluster-wide* mean time between failures; each
        failure hits a uniformly chosen node and, when ``repair_time`` is
        set, is followed by a repair that many seconds later.  Sampling
        is fully determined by ``seed``, so the identical plan replays
        against every rendition of a workload.
        """
        # NaN slips through plain `<= 0` comparisons and would make the
        # sampling loop below spin forever (t += nan never crosses the
        # horizon): every numeric parameter must be finite.
        if not math.isfinite(mtbf) or mtbf <= 0:
            raise FaultError(f"mtbf must be a positive finite number, got {mtbf}")
        if not math.isfinite(horizon) or horizon <= 0:
            raise FaultError(
                f"horizon must be a positive finite number, got {horizon}"
            )
        if num_nodes < 1:
            raise FaultError(f"num_nodes must be >= 1, got {num_nodes}")
        if repair_time is not None and (
            not math.isfinite(repair_time) or repair_time <= 0
        ):
            raise FaultError(
                f"repair_time must be a positive finite number, got {repair_time}"
            )
        rng = RandomStreams(seed)
        events: List[FaultEvent] = []
        failures = 0
        t = 0.0
        while True:
            t += rng.exponential("faults.interarrival", mtbf)
            if t >= horizon:
                break
            node = rng.integers("faults.node", 0, num_nodes - 1)
            events.append(FaultEvent(time=t, kind=FaultKind.NODE_FAIL, node=node))
            failures += 1
            if repair_time is not None:
                events.append(
                    FaultEvent(
                        time=t + repair_time,
                        kind=FaultKind.NODE_RECOVER,
                        node=node,
                    )
                )
            if max_failures is not None and failures >= max_failures:
                break
        return cls(
            events=tuple(events),
            name=f"mtbf{mtbf:g}-seed{seed}",
        )
