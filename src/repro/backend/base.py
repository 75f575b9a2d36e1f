"""The execution-backend seam: one contract, many schedulers.

The paper defines its malleability protocol against Slurm's *external*
API (``sbatch``/``scontrol``/``scancel``), so nothing above the
scheduler seam should care whether jobs run inside the in-process
simulator or on a real cluster.  :class:`ExecutionBackend` is that seam:
a small imperative contract (submit, cancel, update, query accounting,
drain) plus capability flags, implemented by

* :class:`repro.backend.sim.SimBackend` — the default, wrapping the
  simulation :func:`repro.backend.sim.assemble` builds, with jobs run
  by its sleep launcher;
* :class:`repro.backend.subprocess_slurm.SubprocessSlurmBackend` — real
  ``sbatch``/``scancel``/``squeue``/``sacct`` subprocess calls in the
  Kive ``slurmlib`` style (state-string parsing, batched accounting
  polls with an interval budget).

The shared conformance suite (``tests/backend/conformance.py``) runs the
identical scenario matrix against every registered backend, so sim-vs-
real divergence is a pytest artifact instead of an unknown.

Job identifiers are backend-scoped *strings* (real Slurm ids are opaque
text like ``"4242"`` or ``"4242+0"``); times are seconds on the
backend's own clock (``capabilities.clock``: simulated seconds for the
sim, wall-clock seconds for subprocess Slurm).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.errors import BackendError, BackendUnavailableError
from repro.slurm.job import TERMINAL_STATES, JobState

#: Default drain timeout, in backend-clock seconds.
DEFAULT_DRAIN_TIMEOUT = 3600.0

#: Spec options consumed by the workload driver, not the backend
#: constructor (``run_workload``'s time compression).
DRIVER_OPTIONS = frozenset({"time_scale"})


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do; conformance scenarios gate on these."""

    #: ``update_nodes`` grows/shrinks running jobs (the paper's protocol).
    supports_resize: bool = False
    #: The backend can inject node failures (sim only today).
    supports_faults: bool = False
    #: ``"sim"`` (virtual seconds, free to advance) or ``"wall"``.
    clock: str = "sim"


@dataclass(frozen=True)
class JobRequest:
    """A backend-neutral job submission (the ``sbatch`` argument set)."""

    name: str
    num_nodes: int
    #: Seconds of work the job performs (the ``--wrap "sleep D"`` body).
    duration: float
    #: Walltime limit in seconds (``-t``); jobs exceeding it time out
    #: where the backend enforces limits.
    time_limit: float
    #: Resize bounds for backends that support it; None = rigid.
    min_nodes: Optional[int] = None
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise BackendError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.duration < 0:
            raise BackendError(f"duration must be >= 0, got {self.duration}")
        if self.time_limit <= 0:
            raise BackendError(
                f"time_limit must be positive, got {self.time_limit}"
            )

    @property
    def flexible(self) -> bool:
        return self.min_nodes is not None or self.max_nodes is not None


@dataclass(frozen=True)
class AccountingRecord:
    """One ``sacct`` row, backend-neutral: the job's accounting truth."""

    job_id: str
    name: str
    state: JobState
    num_nodes: int
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: Seconds the job actually ran (ElapsedRaw).
    elapsed: Optional[float] = None

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class ExecutionBackend(abc.ABC):
    """Abstract scheduler: the contract every backend implements.

    Lifecycle: construct (usually via :func:`create_backend`), submit
    work, advance the clock with :meth:`wait` while polling
    :meth:`query_jobs`, then :meth:`drain` and :meth:`close`.  Backends
    are single-use and not thread-safe; callers serialize access.
    """

    #: Registry key and the ``--backend`` CLI value.
    name: ClassVar[str] = "abstract"

    #: Class-level capability flags.  Kept on the class (not just the
    #: instance) so ``repro backends`` can list them without paying a
    #: constructor — a :class:`~repro.backend.sim.SimBackend` builds a
    #: whole simulation on instantiation.
    CAPABILITIES: ClassVar[BackendCapabilities] = BackendCapabilities()

    @property
    def capabilities(self) -> BackendCapabilities:
        """Static capability flags for this backend instance."""
        return self.CAPABILITIES

    @property
    def live_observers(self) -> Tuple[object, ...]:
        """Session observers this backend already feeds its events to
        as they happen; :func:`~repro.backend.driver.run_workload` does
        not replay the rebuilt trace to them."""
        return ()

    # -- clock --------------------------------------------------------------
    @abc.abstractmethod
    def now(self) -> float:
        """Current time on the backend's clock, in seconds."""

    @abc.abstractmethod
    def wait(self, seconds: float) -> None:
        """Advance the backend clock by ``seconds`` (sleep or simulate)."""

    # -- job control --------------------------------------------------------
    @abc.abstractmethod
    def submit(self, request: JobRequest) -> str:
        """Submit a job; returns the backend's job id (``sbatch``)."""

    @abc.abstractmethod
    def cancel(self, job_id: str) -> None:
        """Cancel a pending or running job (``scancel``)."""

    @abc.abstractmethod
    def update_nodes(self, job_id: str, num_nodes: int) -> None:
        """Resize a running job (``scontrol update NumNodes``).

        Backends with ``supports_resize=False`` raise
        :class:`~repro.errors.BackendError`.
        """

    @abc.abstractmethod
    def update_time_limit(self, job_id: str, time_limit: float) -> None:
        """Change a job's walltime limit (``scontrol update TimeLimit``)."""

    # -- accounting ---------------------------------------------------------
    @abc.abstractmethod
    def query_jobs(
        self, job_ids: Optional[Sequence[str]] = None
    ) -> Dict[str, AccountingRecord]:
        """Batched accounting query (``sacct -j id1,id2,...``).

        ``None`` means "every job this backend instance submitted".
        One call, however many ids — callers must not loop per-job.
        """

    def drain(self, timeout: float = DEFAULT_DRAIN_TIMEOUT) -> Dict[str, AccountingRecord]:
        """Wait until every submitted job is terminal; return accounting.

        Raises :class:`~repro.errors.BackendError` when jobs are still
        live after ``timeout`` backend-clock seconds.
        """
        deadline = self.now() + timeout
        while True:
            records = self.query_jobs()
            live = sorted(
                job_id
                for job_id, record in records.items()
                if not record.is_terminal
            )
            if not live:
                return records
            if self.now() >= deadline:
                raise BackendError(
                    f"{self.name} backend: drain timed out after {timeout}s "
                    f"with live jobs {live}"
                )
            self.wait(min(self.poll_interval, max(deadline - self.now(), 0.0)))

    #: Seconds between accounting polls inside :meth:`drain` (the
    #: poll-interval budget; subclasses tune it to their clock).
    poll_interval: float = 1.0

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release backend resources; further calls are undefined."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- availability probe --------------------------------------------------
    @classmethod
    def available(cls) -> Tuple[bool, str]:
        """Whether this backend can run here, with a human-readable reason."""
        return True, "always available"

    @classmethod
    def from_spec(cls, spec: "BackendSpec", session=None) -> "ExecutionBackend":
        """Construct an instance from a picklable spec (see subclasses)."""
        options = {
            key: value
            for key, value in spec.options
            if key not in DRIVER_OPTIONS
        }
        return cls(**options)  # type: ignore[call-arg]


@dataclass(frozen=True)
class BackendSpec:
    """Picklable, hashable backend selection: name plus plain options.

    A :class:`~repro.api.session.Session` carries one (the default,
    ``BackendSpec()``, names the simulator); :func:`create_backend`
    turns it into the live backend.
    """

    name: str = "sim"
    #: Sorted (key, value) pairs of primitive options.
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, **options: Any) -> "BackendSpec":
        return cls(name=name, options=tuple(sorted(options.items())))

    def option(self, key: str, default: Any = None) -> Any:
        for name, value in self.options:
            if name == key:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, **dict(self.options)}


#: name -> backend class.
_BACKENDS: Dict[str, Type[ExecutionBackend]] = {}


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Class decorator: expose a backend under its ``name``."""
    _BACKENDS[cls.name] = cls
    return cls


def _ensure_builtins() -> None:
    # Built-in backends register on import; imported lazily so this
    # module stays dependency-light (subprocess_slurm pulls in shutil
    # and subprocess, sim pulls in the whole simulation stack).
    import repro.backend.sim  # noqa: F401
    import repro.backend.subprocess_slurm  # noqa: F401


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    _ensure_builtins()
    return sorted(_BACKENDS)


def backend_class(name: str) -> Type[ExecutionBackend]:
    """Resolve a backend class by registry name."""
    _ensure_builtins()
    try:
        return _BACKENDS[name]
    except KeyError:
        raise BackendUnavailableError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def create_backend(spec: BackendSpec, session=None) -> ExecutionBackend:
    """Instantiate the backend a spec describes.

    ``session`` carries the cluster/Slurm/runtime configuration backends
    may honour (the sim backend requires it; subprocess Slurm ignores
    everything but the spec options).
    """
    return backend_class(spec.name).from_spec(spec, session=session)
