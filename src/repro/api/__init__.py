"""``repro.api`` — the public facade of the reproduction.

Everything a consumer needs lives here:

* :class:`Session` — immutable builder owning simulation assembly
  (cluster + Slurm + policy + runtime + seed) with ``submit`` / ``run`` /
  ``run_paired`` execution;
* :class:`SessionObserver` — the live hook (``on_event``) that sees
  every trace event as it is recorded;
* :class:`WorkloadResult` / :class:`PairedComparison` — the result
  currency every experiment driver returns;
* :func:`artifact` / :data:`REGISTRY` — the declarative registry the
  ``python -m repro`` CLI serves figures and tables from.

Experiment drivers, benchmarks and the CLI are all thin layers over
this package; nothing outside it assembles ``Environment`` +
``SlurmController`` by hand.
"""

from repro.api.observers import SessionObserver
from repro.api.registry import (
    REGISTRY,
    ArtifactRegistry,
    ArtifactSpec,
    artifact,
    builtin_registry,
    default_seed,
)
from repro.api.results import PairedComparison, WorkloadResult
from repro.api.session import (
    DEFAULT_MAX_SIM_TIME,
    LiveSimulation,
    Session,
    SessionRun,
)
from repro.errors import SimulationTimeout
from repro.obs.spans import Telemetry, TelemetryConfig

__all__ = [
    "ArtifactRegistry",
    "ArtifactSpec",
    "DEFAULT_MAX_SIM_TIME",
    "LiveSimulation",
    "PairedComparison",
    "REGISTRY",
    "Session",
    "SessionObserver",
    "SessionRun",
    "SimulationTimeout",
    "Telemetry",
    "TelemetryConfig",
    "WorkloadResult",
    "artifact",
    "builtin_registry",
    "default_seed",
]
