"""Application models for the simulated (virtual-time) executions.

An :class:`AppModel` describes an iterative malleable application the way
the workload experiments need it: how long one step takes at a given
process count (via a :class:`ScalabilityModel`), how much redistributable
state it carries, and its DMR reconfiguration parameters (Table I of the
paper).

The *real* NumPy kernels of CG/Jacobi/N-body (used to validate
redistribution correctness on the MPI substrate) live next to these models
in their respective modules.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.actions import ResizeRequest
from repro.errors import ReproError


class ScalabilityModel(ABC):
    """Parallel speedup as a function of process count."""

    @abstractmethod
    def speedup(self, nprocs: int) -> float:
        """Speedup over the 1-process execution (>= 0, S(1) == 1)."""

    def _validate(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ReproError(f"nprocs must be >= 1, got {nprocs}")


class LinearScalability(ScalabilityModel):
    """Perfect linear scaling (the Flexible Sleep synthetic assumption)."""

    def speedup(self, nprocs: int) -> float:
        self._validate(nprocs)
        return float(nprocs)


#: The one linear model: it holds no state, so every FS and SWF
#: application shares it.
LINEAR_SCALING = LinearScalability()


class MeasuredScalability(ScalabilityModel):
    """Speedup interpolated from measured (nprocs, speedup) points.

    Interpolation is linear in log2(nprocs), matching how strong-scaling
    curves are usually plotted; beyond the last point the curve is held
    flat (no extrapolated super-scaling).
    """

    def __init__(self, points: Dict[int, float]) -> None:
        if not points:
            raise ReproError("need at least one measured point")
        if any(p < 1 for p in points) or any(s <= 0 for s in points.values()):
            raise ReproError("points must map nprocs>=1 to speedup>0")
        if 1 not in points:
            points = dict(points)
            points[1] = 1.0
        self.points = dict(sorted(points.items()))
        self._keys = tuple(self.points)

    def speedup(self, nprocs: int) -> float:
        # Most calls ask for a measured size, and every measured size is
        # valid (>= 1).
        measured = self.points.get(nprocs)
        if measured is not None:
            return measured
        self._validate(nprocs)
        keys = self._keys
        if nprocs <= keys[0]:
            return self.points[keys[0]]
        if nprocs >= keys[-1]:
            return self.points[keys[-1]]
        # Find the bracketing measured points.
        hi = bisect.bisect_left(keys, nprocs)
        lo = hi - 1
        x0, x1 = keys[lo], keys[hi]
        y0, y1 = self.points[x0], self.points[x1]
        w = (math.log2(nprocs) - math.log2(x0)) / (math.log2(x1) - math.log2(x0))
        return y0 + w * (y1 - y0)


@dataclass(slots=True)
class AppModel:
    """An iterative malleable application (simulation view)."""

    name: str
    iterations: int
    #: Wall-time of one iteration on a single process, seconds.
    serial_step_time: float
    #: Total redistributable state (the OmpSs data dependencies), bytes.
    state_bytes: float
    scalability: ScalabilityModel
    #: DMR parameters (Table I). None -> the job is not reconfigurable.
    resize: Optional[ResizeRequest] = None
    #: Checking-inhibitor period, seconds (0 = check every iteration).
    sched_period: float = 0.0
    #: Evolving-application phases: per-iteration overrides of the resize
    #: request ("Request an Action" mode — e.g. a computational stage that
    #: demands growth by raising min_procs above the current allocation).
    phase_requests: Optional[Dict[int, ResizeRequest]] = None
    #: Iterations completed so far (progress, not part of the model).
    _completed: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ReproError(f"iterations must be >= 1, got {self.iterations}")
        if self.serial_step_time <= 0:
            raise ReproError(
                f"serial_step_time must be positive, got {self.serial_step_time}"
            )
        if self.state_bytes < 0:
            raise ReproError(f"state_bytes must be >= 0, got {self.state_bytes}")
        if self.sched_period < 0:
            raise ReproError(f"sched_period must be >= 0, got {self.sched_period}")

    def request_at(self, step: int) -> Optional[ResizeRequest]:
        """The DMR request in force at the given iteration.

        Evolving applications override their default request at specific
        steps; all other applications use ``resize`` throughout.
        """
        if self.phase_requests and step in self.phase_requests:
            return self.phase_requests[step]
        return self.resize

    # -- timing ---------------------------------------------------------
    def step_time(self, nprocs: int) -> float:
        """Duration of one iteration at ``nprocs`` processes."""
        return self.serial_step_time / self.scalability.speedup(nprocs)

    def total_time(self, nprocs: int) -> float:
        """Duration of the whole run at a constant process count."""
        return self.iterations * self.step_time(nprocs)

    # -- progress --------------------------------------------------------
    @property
    def completed_steps(self) -> int:
        return self._completed

    @property
    def remaining_steps(self) -> int:
        return self.iterations - self._completed

    @property
    def finished(self) -> bool:
        return self._completed >= self.iterations

    def advance(self, steps: int = 1) -> None:
        if self.finished:
            raise ReproError(f"{self.name}: advance() past completion")
        self._completed = min(self.iterations, self._completed + steps)

    def fresh_copy(self) -> "AppModel":
        """An unstarted copy (job instances must not share progress)."""
        return AppModel(
            name=self.name,
            iterations=self.iterations,
            serial_step_time=self.serial_step_time,
            state_bytes=self.state_bytes,
            scalability=self.scalability,
            resize=self.resize,
            sched_period=self.sched_period,
            phase_requests=self.phase_requests,
        )
