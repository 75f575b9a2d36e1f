"""Flexible Sleep (FS): the paper's synthetic malleable application.

Each step "computes" by sleeping; the sleep time scales perfectly linearly
with the number of processes (Section VII-B1).  The application also
carries an array of doubles (1 GB in the preliminary study) that forms the
OmpSs data dependency and is redistributed at every reconfiguration.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.base import LINEAR_SCALING, AppModel
from repro.cluster.network import GiB
from repro.core.actions import ResizeRequest
from repro.errors import ReproError

#: Table I row for FS: min 1, max 20 processes, no preferred size.
FS_MIN_PROCS = 1
FS_MAX_PROCS = 20


def flexible_sleep(
    step_time: float,
    at_procs: int,
    steps: int = 2,
    state_bytes: float = 1.0 * GiB,
    min_procs: int = FS_MIN_PROCS,
    max_procs: int = FS_MAX_PROCS,
    factor: int = 2,
    preferred: Optional[int] = None,
    sched_period: float = 0.0,
) -> AppModel:
    """Build an FS instance whose step lasts ``step_time`` at ``at_procs``.

    ``step_time``/``at_procs`` anchor the linear-scaling work: the serial
    step time is ``step_time * at_procs``.  The preliminary study uses 2
    steps of at most 60 s and a 1 GB redistributed array; the micro-steps
    experiment (Fig. 9) shortens the steps and raises their count.
    """
    if step_time <= 0:
        raise ReproError(f"step_time must be positive, got {step_time}")
    if at_procs < 1:
        raise ReproError(f"at_procs must be >= 1, got {at_procs}")
    return AppModel(
        name="fs",
        iterations=steps,
        serial_step_time=step_time * at_procs,
        state_bytes=state_bytes,
        scalability=LINEAR_SCALING,
        resize=ResizeRequest(
            min_procs=min_procs,
            max_procs=max_procs,
            factor=factor,
            preferred=preferred,
        ),
        sched_period=sched_period,
    )
