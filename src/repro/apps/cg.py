"""Conjugate Gradient (CG): model and parameters (Section VII-B2).

The paper's CG is an OpenMP+MPI solver over a block-row-distributed flat
matrix and four vectors, run for a fixed iteration count.  Its measured
strong-scaling behaviour (Section IX-A): high scalability with the best
speed-up at 32 processes, but less than 10% marginal gain beyond 8 — the
"sweet configuration spot".

The analytic model below drives the workload experiments; the real NumPy
kernel on the MPI substrate lives in :mod:`repro.apps.kernels.cg_kernel`.
"""

from __future__ import annotations

from repro.apps.base import AppModel, MeasuredScalability
from repro.cluster.network import MiB
from repro.core.actions import ResizeRequest

#: Table I row for CG.
CG_ITERATIONS = 10_000
CG_MIN_PROCS = 2
CG_MAX_PROCS = 32
CG_PREFERRED = 8
CG_SCHED_PERIOD = 15.0

#: Strong-scaling curve consistent with Section IX-A: near-linear to 8
#: processes, < 10% marginal gain per doubling afterwards, peak at 32.
CG_SPEEDUP = {1: 1.0, 2: 1.9, 4: 3.5, 8: 6.0, 16: 6.55, 32: 7.0}

#: One CG iteration at the sweet spot takes well under 2 seconds
#: (Section IX-A "short iterations"); 10000 x 60 ms ~= 600 s at 8 procs,
#: matching the average job execution times of Table II.
CG_SERIAL_STEP_TIME = 0.36

#: Flat matrix + 4 vectors redistributed on resize (~512 MiB).
CG_STATE_BYTES = 512 * MiB

#: One curve and one request for every CG instance: neither is
#: ever mutated, and :meth:`~repro.apps.base.AppModel.fresh_copy` shares
#: them between incarnations too.
CG_SCALABILITY = MeasuredScalability(CG_SPEEDUP)
CG_RESIZE = ResizeRequest(
    min_procs=CG_MIN_PROCS,
    max_procs=CG_MAX_PROCS,
    factor=2,
    preferred=CG_PREFERRED,
)


def conjugate_gradient(
    iterations: int = CG_ITERATIONS,
    serial_step_time: float = CG_SERIAL_STEP_TIME,
    state_bytes: float = CG_STATE_BYTES,
    sched_period: float = CG_SCHED_PERIOD,
) -> AppModel:
    """The CG application model with the paper's Table I configuration."""
    return AppModel(
        name="cg",
        iterations=iterations,
        serial_step_time=serial_step_time,
        state_bytes=state_bytes,
        scalability=CG_SCALABILITY,
        resize=CG_RESIZE,
        sched_period=sched_period,
    )
