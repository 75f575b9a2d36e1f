"""Exception hierarchy shared by all ``repro`` subsystems."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class SimulationError(ReproError):
    """Invalid use of the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """No runnable entity remains while some entity is still blocked."""


class ClusterError(ReproError):
    """Invalid allocation request or node bookkeeping violation."""


class SchedulerError(ReproError):
    """Workload-manager level error (bad job state transition, etc.)."""


class JobStateError(SchedulerError):
    """A job was driven through an illegal state transition."""


class MPIError(ReproError):
    """Errors raised by the in-process MPI substrate."""


class CommunicatorError(MPIError):
    """Operation on an invalid, freed, or foreign communicator."""


class RuntimeAPIError(ReproError):
    """Misuse of the Nanos++-style runtime or the DMR API."""


class RedistributionError(RuntimeAPIError):
    """An expand/shrink data-redistribution plan could not be built."""


class SimulationTimeout(ReproError):
    """A workload did not run to completion within the simulation horizon.

    Carries enough state to diagnose the stall: which jobs were still
    pending or running when the horizon was reached, and how many job
    specs were never even submitted.

    Instances must survive a pickle round trip unchanged — sweep pool
    workers raise them in a child process and ``concurrent.futures``
    re-raises them in the parent; without :meth:`__reduce__` the default
    exception reduction would call ``__init__`` with the formatted
    message as the only argument and lose the job-id payload.
    """

    def __init__(
        self,
        workload_name: str,
        max_sim_time: float,
        unsubmitted: int,
        pending_job_ids: tuple,
        running_job_ids: tuple,
    ) -> None:
        super().__init__(
            f"workload {workload_name!r} did not finish by t={max_sim_time}: "
            f"{unsubmitted} unsubmitted, {len(pending_job_ids)} pending, "
            f"{len(running_job_ids)} running"
        )
        self.workload_name = workload_name
        self.max_sim_time = max_sim_time
        self.unsubmitted = unsubmitted
        self.pending_job_ids = tuple(pending_job_ids)
        self.running_job_ids = tuple(running_job_ids)

    def __reduce__(self):
        return (
            type(self),
            (
                self.workload_name,
                self.max_sim_time,
                self.unsubmitted,
                self.pending_job_ids,
                self.running_job_ids,
            ),
        )


class TraceError(ReproError):
    """A trace was queried in a way its configuration cannot answer
    (e.g. a post-hoc query on a non-retaining streaming trace)."""


class TraceStreamError(TraceError):
    """A spilled trace stream on disk is unreadable: missing or corrupt
    end-of-stream footer (crash mid-spill), or a count/digest mismatch."""


class TelemetryError(ReproError):
    """Telemetry misuse or an invalid/ill-formed exported trace file
    (:mod:`repro.obs`)."""


class WorkloadError(ReproError):
    """Invalid workload-generation parameters."""


class SweepError(ReproError):
    """Invalid parameter-sweep definition or execution failure."""


class StoreError(ReproError):
    """The on-disk result store was misused or is unusable."""


class ServeError(ReproError):
    """Scheduler-as-a-service errors (:mod:`repro.serve`)."""


class QueueFullError(ServeError):
    """The service's submission queue is at capacity (HTTP 429)."""


class DrainingError(ServeError):
    """The service is draining and refuses new submissions (HTTP 503)."""


class BackendError(ReproError):
    """An execution backend failed or was misused (:mod:`repro.backend`)."""


class BackendUnavailableError(BackendError):
    """The requested backend cannot run here (missing CLI, no session)."""


class CheckpointError(ReproError):
    """Failure in the checkpoint/restart baseline."""


class FaultError(ReproError):
    """Invalid fault plan or fault-injection request."""


class InvariantViolation(ReproError):
    """A simulation invariant was broken (raised by the test harness).

    Carries the violated invariant's name and the simulation time so a
    failing property test points straight at the broken rule instead of
    at a downstream symptom.
    """

    def __init__(self, invariant: str, time: float, detail: str) -> None:
        super().__init__(f"[t={time}] invariant {invariant!r} violated: {detail}")
        self.invariant = invariant
        self.time = time
        self.detail = detail

    def __reduce__(self):
        # Like SimulationTimeout: keep the structured payload across the
        # pickle round trip pool workers put exceptions through.
        return (type(self), (self.invariant, self.time, self.detail))
