"""Pluggable execution backends (the Session -> scheduler seam).

Public surface::

    from repro.backend import (
        AccountingRecord, BackendCapabilities, BackendSpec, ExecutionBackend,
        JobRequest, backend_class, backend_names, create_backend, run_workload,
    )

See :mod:`repro.backend.base` for the contract, :mod:`repro.backend.sim`
and :mod:`repro.backend.subprocess_slurm` for the implementations, and
:mod:`repro.backend.fake_slurmd` for the hermetic CI stand-in.
"""

from repro.backend.base import (
    AccountingRecord,
    BackendCapabilities,
    BackendSpec,
    ExecutionBackend,
    JobRequest,
    backend_class,
    backend_names,
    create_backend,
    register_backend,
)
from repro.backend.driver import run_workload

__all__ = [
    "AccountingRecord",
    "BackendCapabilities",
    "BackendSpec",
    "ExecutionBackend",
    "JobRequest",
    "backend_class",
    "backend_names",
    "create_backend",
    "register_backend",
    "run_workload",
]
