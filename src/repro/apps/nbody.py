"""N-body simulation: model and parameters (Section VII-B4).

Each process stores a subset of particles and exchanges its local subset
with every other process each iteration, so the paper observes *constant
performance*: the peak is at 16 processes but the total gain over the
sequential run stays below 10% — a single process is the sweet spot.
Iterations are costly ("in the scale of minutes"), so no checking
inhibitor is configured (Table I).
"""

from __future__ import annotations

from repro.apps.base import AppModel, MeasuredScalability
from repro.cluster.network import MiB
from repro.core.actions import ResizeRequest

#: Table I row for N-body.
NBODY_ITERATIONS = 25
NBODY_MIN_PROCS = 1
NBODY_MAX_PROCS = 16
NBODY_PREFERRED = 1
NBODY_SCHED_PERIOD = 0.0

#: Communication-bound: < 10% total gain, peak at 16 procs, drop at 32.
NBODY_SPEEDUP = {1: 1.0, 2: 1.03, 4: 1.05, 8: 1.07, 16: 1.09, 32: 1.0}

#: 25 iterations x ~24 s at the sweet spot ~= 600 s per job.
NBODY_SERIAL_STEP_TIME = 24.0

#: Particle array (position, velocity, mass, weight): ~128 MiB.
NBODY_STATE_BYTES = 128 * MiB

#: One curve and one request for every N-body instance: neither is
#: ever mutated, and :meth:`~repro.apps.base.AppModel.fresh_copy` shares
#: them between incarnations too.
NBODY_SCALABILITY = MeasuredScalability(NBODY_SPEEDUP)
NBODY_RESIZE = ResizeRequest(
    min_procs=NBODY_MIN_PROCS,
    max_procs=NBODY_MAX_PROCS,
    factor=2,
    preferred=NBODY_PREFERRED,
)


def nbody(
    iterations: int = NBODY_ITERATIONS,
    serial_step_time: float = NBODY_SERIAL_STEP_TIME,
    state_bytes: float = NBODY_STATE_BYTES,
) -> AppModel:
    """The N-body application model with the paper's Table I configuration."""
    return AppModel(
        name="nbody",
        iterations=iterations,
        serial_step_time=serial_step_time,
        state_bytes=state_bytes,
        scalability=NBODY_SCALABILITY,
        resize=NBODY_RESIZE,
        sched_period=NBODY_SCHED_PERIOD,
    )
