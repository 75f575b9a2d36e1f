"""Applications: the paper's synthetic FS and real CG/Jacobi/N-body.

Each application exists in two forms:

* an **analytic model** (:class:`~repro.apps.base.AppModel`) used by the
  virtual-time workload experiments, parameterized per Table I; and
* a **real NumPy kernel** on the in-process MPI substrate
  (:mod:`repro.apps.kernels`) used to validate malleability/redistribution
  correctness with actual data.
"""

from repro.apps.base import (
    AppModel,
    LinearScalability,
    MeasuredScalability,
    ScalabilityModel,
)
from repro.apps.cg import conjugate_gradient
from repro.apps.jacobi import jacobi
from repro.apps.nbody import nbody
from repro.apps.sleep import flexible_sleep

__all__ = [
    "AppModel",
    "LinearScalability",
    "MeasuredScalability",
    "ScalabilityModel",
    "conjugate_gradient",
    "flexible_sleep",
    "jacobi",
    "nbody",
]
