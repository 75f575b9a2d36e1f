"""Jacobi solver: model and parameters (Section VII-B3).

An embarrassingly parallel iterative solver with a program layout similar
to CG (flat matrix plus two vectors as the OmpSs data dependencies).  Its
scaling classification in the paper matches CG: "high scalability", sweet
spot at 8 processes, best absolute speed-up at 32.
"""

from __future__ import annotations

from repro.apps.base import AppModel, MeasuredScalability
from repro.cluster.network import MiB
from repro.core.actions import ResizeRequest

#: Table I row for Jacobi.
JACOBI_ITERATIONS = 10_000
JACOBI_MIN_PROCS = 2
JACOBI_MAX_PROCS = 32
JACOBI_PREFERRED = 8
JACOBI_SCHED_PERIOD = 15.0

#: Slightly better scaling than CG (no reduction in the inner loop).
JACOBI_SPEEDUP = {1: 1.0, 2: 1.95, 4: 3.7, 8: 6.3, 16: 6.9, 32: 7.45}

JACOBI_SERIAL_STEP_TIME = 0.35

#: Flat matrix + 2 vectors (~512 MiB).
JACOBI_STATE_BYTES = 512 * MiB

#: One curve and one request for every Jacobi instance: neither is
#: ever mutated, and :meth:`~repro.apps.base.AppModel.fresh_copy` shares
#: them between incarnations too.
JACOBI_SCALABILITY = MeasuredScalability(JACOBI_SPEEDUP)
JACOBI_RESIZE = ResizeRequest(
    min_procs=JACOBI_MIN_PROCS,
    max_procs=JACOBI_MAX_PROCS,
    factor=2,
    preferred=JACOBI_PREFERRED,
)


def jacobi(
    iterations: int = JACOBI_ITERATIONS,
    serial_step_time: float = JACOBI_SERIAL_STEP_TIME,
    state_bytes: float = JACOBI_STATE_BYTES,
    sched_period: float = JACOBI_SCHED_PERIOD,
) -> AppModel:
    """The Jacobi application model with the paper's Table I configuration."""
    return AppModel(
        name="jacobi",
        iterations=iterations,
        serial_step_time=serial_step_time,
        state_bytes=state_bytes,
        scalability=JACOBI_SCALABILITY,
        resize=JACOBI_RESIZE,
        sched_period=sched_period,
    )
