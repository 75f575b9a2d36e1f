"""Background job execution for the scheduler-as-a-service layer.

The :class:`JobManager` owns a bounded worker pool (threads — a
simulation is pure-Python compute, and threads let the live
:class:`~repro.api.observers.SessionObserver` machinery bridge events
straight into the asyncio serving loop, which a process pool cannot).
Every submission becomes a :class:`ServeJob` whose state is a
:class:`~repro.slurm.job.JobState`::

    PENDING -> RUNNING -> COMPLETED | FAILED

— the scheduler's own vocabulary, the one Slurm's accounting exposes (a
simulated job never sees NODE_FAIL from the *service's* perspective —
faults happen inside the simulation).  The wire form of a state is the
member name (``"COMPLETED"``).

Backpressure contract (enforced here, surfaced as HTTP codes by the
app layer):

* queue at capacity → :class:`~repro.errors.QueueFullError` (429);
* draining → :class:`~repro.errors.DrainingError` (503); in-flight and
  queued jobs still run to completion, so a drain never orphans work.

Event streaming: each workload job keeps the canonical line of *every*
trace event (the exact rendering golden traces are pinned on), appended
live by an :class:`EventBridge` observer from the worker thread.  SSE
subscribers replay the buffer from any cursor and wait on an
:class:`asyncio.Event` for more — so a late subscriber to a finished
job replays the identical stream a live subscriber saw.

Every state change (a line, running, progress, finished) bumps the
job's change counter and queues at most one loop wake-up: while one is
queued, further changes only bump the counter, so a burst of trace
lines costs the worker one ``call_soon_threadsafe`` and the loop one
wake-up.  A subscriber reads the counter together with the lines and
waits only while it has not moved, so a wake-up that ran while the
subscriber was elsewhere is never lost.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import DrainingError, QueueFullError, ServeError
from repro.api.observers import SessionObserver
from repro.metrics.trace import LineRenderer, text_digest
from repro.slurm.job import JobState, TERMINAL_STATES

#: Defaults for the service's capacity knobs.
DEFAULT_WORKERS = 2
DEFAULT_QUEUE_LIMIT = 64

#: Every state a :class:`ServeJob` takes, in lifecycle order.
SERVE_JOB_STATES = (JobState.PENDING, JobState.RUNNING,
                    JobState.COMPLETED, JobState.FAILED)


class ServeJob:
    """One submitted unit of background work (workload run or sweep)."""

    def __init__(self, job_id: str, kind: str, params: dict,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.id = job_id
        self.kind = kind  # "workload" | "sweep"
        self.params = params
        self._loop = loop
        self._lock = threading.Lock()
        self._waiters: Set[asyncio.Event] = set()
        #: Bumped under the lock by every state change; a subscriber
        #: waits only while it still reads the value it last saw.
        self._changes = 0
        #: True while a loop wake-up is queued and has not yet run.
        self._wake_queued = False
        self.state = JobState.PENDING
        self.submitted_unix = time.time()
        self.started_unix: Optional[float] = None
        self.finished_unix: Optional[float] = None
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.progress: Dict[str, int] = {}
        self._events: List[str] = []
        #: Installed by the manager at submit time: the parsed workload
        #: (workload jobs) or the expanded grid (sweep jobs).  Only the
        #: worker reads them; it drops both when the job ends, so a
        #: finished job does not keep its input alive.
        self.workload_spec = None
        self.sweep = None
        #: JSON-able span payload set by the worker when the run
        #: finishes (the job id is the correlation id).
        self.telemetry: Optional[dict] = None

    # -- event buffer (worker thread writes, loop thread reads) -------------
    def append_event(self, line: str) -> None:
        with self._lock:
            self._events.append(line)
            self._changed()

    def events_since(self, cursor: int) -> Tuple[List[str], bool, int]:
        """(new lines, job-is-terminal, change count) snapshot from ``cursor``.

        Pass the change count to :meth:`wait_change`.
        """
        with self._lock:
            return (self._events[cursor:], self.state in TERMINAL_STATES,
                    self._changes)

    # -- the one wake-up path (worker thread queues, loop thread runs) -------
    def _changed(self) -> None:
        """Count a state change and queue the loop wake-up unless one is
        queued already; the caller holds the lock."""
        self._changes += 1
        if self._wake_queued:
            return
        self._wake_queued = True
        try:
            self._loop.call_soon_threadsafe(self._wake)
        except RuntimeError:
            pass  # loop already closed (server shutting down)

    def _wake(self) -> None:
        # Clear the flag first: a change made from here on queues a new
        # wake-up rather than relying on this one.
        with self._lock:
            self._wake_queued = False
        for waiter in list(self._waiters):
            waiter.set()

    async def wait_change(self, seen: int, timeout: float = 0.5) -> None:
        """Wait until the change count moves past ``seen`` (or timeout).

        ``seen`` is the count :meth:`events_since` returned with the
        lines already handled; if it has moved since, this returns at
        once.  The timeout is only a safety net.
        """
        with self._lock:
            if self._changes != seen:
                return
        waiter = asyncio.Event()
        self._waiters.add(waiter)
        try:
            await asyncio.wait_for(waiter.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            self._waiters.discard(waiter)

    # -- state transitions (worker thread) ----------------------------------
    def mark_running(self) -> None:
        with self._lock:
            self.state = JobState.RUNNING
            self.started_unix = time.time()
            self._changed()

    def set_progress(self, done: int, total: int) -> None:
        with self._lock:
            self.progress = {"done": done, "total": total}
            self._changed()

    def finish(self, result: Optional[dict] = None,
               error: Optional[str] = None) -> None:
        with self._lock:
            self.state = (JobState.FAILED if error is not None
                          else JobState.COMPLETED)
            self.result = result
            self.error = error
            self.finished_unix = time.time()
            self._changed()

    def set_telemetry(self, correlation_id: Optional[str],
                      spans: List[dict], dropped: int) -> None:
        with self._lock:
            self.telemetry = {
                "correlation_id": correlation_id,
                "recorded": len(spans),
                "dropped": dropped,
                "spans": spans,
            }

    def telemetry_snapshot(self) -> dict:
        """Wire form of ``GET /v1/jobs/{id}/telemetry``.

        Spans land when the run finishes; until then the payload carries
        the job state and an empty span list, so pollers can tell "not
        done yet" from "ran without telemetry".
        """
        with self._lock:
            payload = {"id": self.id, "kind": self.kind,
                       "state": self.state.name}
            if self.telemetry is None:
                payload.update({
                    "correlation_id": self.id,
                    "recorded": 0,
                    "dropped": 0,
                    "spans": [],
                })
            else:
                payload.update(self.telemetry)
            return payload

    # -- wire form -----------------------------------------------------------
    def snapshot(self, include_result: bool = True) -> dict:
        with self._lock:
            payload = {
                "id": self.id,
                "kind": self.kind,
                "state": self.state.name,
                "params": self.params,
                "submitted_unix": self.submitted_unix,
                "started_unix": self.started_unix,
                "finished_unix": self.finished_unix,
                "events": len(self._events),
            }
            if self.progress:
                payload["progress"] = dict(self.progress)
            if self.error is not None:
                payload["error"] = self.error
            if include_result and self.result is not None:
                payload["result"] = self.result
            return payload


class EventBridge(SessionObserver):
    """Streams every trace event into the job's SSE buffer, live.

    Non-strict by construction (the :class:`SessionObserver` default):
    if buffering ever failed, the dispatch would log and count it
    rather than abort a simulation other subscribers are watching.
    Renders each event's row with the job's own
    :class:`~repro.metrics.trace.LineRenderer`.  Keeps the controller it
    was attached to, whose scheduler tallies the run publishes; that is
    None when the events come from a backend's accounting records.
    """

    def __init__(self, job: ServeJob) -> None:
        self._job = job
        self._line = LineRenderer().line
        self.controller = None

    def on_attach(self, controller) -> None:
        self.controller = controller

    def on_event(self, event) -> None:
        self._job.append_event(self._line(event.row))


class SweepProgressBridge:
    """SweepObserver updating a sweep job's polled progress counters."""

    def __init__(self, job: ServeJob, total: int) -> None:
        self._job = job
        self._done = 0
        self._total = total
        job.set_progress(0, total)

    def on_cell_start(self, index, total, spec) -> None:
        pass

    def on_cell_done(self, index, total, outcome) -> None:
        self._done += 1
        self._job.set_progress(self._done, self._total)


class JobManager:
    """Bounded worker pool + job registry + drain lifecycle."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        workers: int = DEFAULT_WORKERS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        store=None,
        registry=None,
        backend: str = "sim",
        backend_options: Optional[dict] = None,
    ) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {queue_limit}")
        self._loop = loop
        self.workers = workers
        self.queue_limit = queue_limit
        self.store = store
        self.registry = registry
        #: Execution backend workload jobs run on (``repro.backend``
        #: registry name; sweeps always stay on the simulator).  Options
        #: ride on the session's BackendSpec — e.g. ``time_scale`` so a
        #: wall-clock backend does not sleep through simulated hours.
        self.backend = backend
        self.backend_options = dict(backend_options or {})
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._jobs: Dict[str, ServeJob] = {}
        self._serial = 0
        self.draining = False
        self._running = 0
        self.max_concurrent = 0
        self.submitted_total = 0

    # -- lifecycle ----------------------------------------------------------
    def drain(self) -> dict:
        """Refuse new submissions; let queued + running jobs finish."""
        self.draining = True
        return self.status()

    def resume(self) -> dict:
        self.draining = False
        return self.status()

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)

    # -- accounting ----------------------------------------------------------
    def status(self) -> dict:
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                name = job.state.name
                by_state[name] = by_state.get(name, 0) + 1
            pending = by_state.get(JobState.PENDING.name, 0)
            running = by_state.get(JobState.RUNNING.name, 0)
            return {
                "state": "draining" if self.draining else "serving",
                "backend": self.backend,
                "queue_depth": pending,
                "running": running,
                "active": pending + running,
                "by_state": by_state,
                "max_concurrent": self.max_concurrent,
                "submitted_total": self.submitted_total,
                "workers": self.workers,
                "queue_limit": self.queue_limit,
            }

    def get(self, job_id: str) -> Optional[ServeJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[ServeJob]:
        with self._lock:
            return list(self._jobs.values())

    # -- submission ----------------------------------------------------------
    def _admit(self, kind: str, params: dict) -> ServeJob:
        if self.draining:
            raise DrainingError(
                "service is draining; new submissions are refused"
            )
        with self._lock:
            pending = sum(
                1 for j in self._jobs.values() if j.state is JobState.PENDING
            )
            if pending >= self.queue_limit:
                raise QueueFullError(
                    f"submission queue is full ({pending} pending, "
                    f"limit {self.queue_limit}); retry later"
                )
            self._serial += 1
            job_id = f"{kind[0]}{self._serial:06d}"
            job = ServeJob(job_id, kind, params, self._loop)
            self._jobs[job_id] = job
            self.submitted_total += 1
        return job

    def submit_workload(self, params: dict, workload_spec) -> ServeJob:
        """Queue one workload simulation (spec already validated)."""
        job = self._admit("workload", params)
        job.workload_spec = workload_spec
        self._executor.submit(self._run_workload, job)
        return job

    def submit_sweep(self, params: dict, sweep) -> ServeJob:
        """Queue one background sweep (grid already validated)."""
        job = self._admit("sweep", params)
        job.sweep = sweep
        self._executor.submit(self._run_sweep, job)
        return job

    # -- worker bodies (worker threads) --------------------------------------
    def _enter_run(self, job: ServeJob) -> None:
        job.mark_running()
        with self._lock:
            self._running += 1
            self.max_concurrent = max(self.max_concurrent, self._running)

    def _exit_run(self) -> None:
        with self._lock:
            self._running -= 1

    def _run_workload(self, job: ServeJob) -> None:
        from repro.api.session import Session
        from repro.cluster.configs import ClusterConfig
        from repro.obs.registry import default_registry, publish_sched_stats

        self._enter_run(job)
        try:
            params = job.params
            bridge = EventBridge(job)
            result = (
                Session(cluster=ClusterConfig(num_nodes=params["nodes"]))
                .with_seed(params["seed"])
                .observe(bridge)
                .with_telemetry(correlation_id=job.id)
                .with_backend(self.backend, **self.backend_options)
                .run(job.workload_spec, flexible=params["flexible"])
            )
            if bridge.controller is not None:
                publish_sched_stats(
                    default_registry(), bridge.controller.stats.snapshot()
                )
            default_registry().counter(
                "repro_serve_workloads_total",
                "Workload runs completed, by execution backend.",
                labels=("backend",),
            ).inc(backend=result.backend)
            telemetry = result.telemetry
            if telemetry is not None:
                job.set_telemetry(
                    telemetry.correlation_id,
                    telemetry.as_dicts(),
                    telemetry.dropped,
                )
            # The digest is taken over the lines the stream served, each
            # rendered once; equal to trace_digest(result.trace) when the
            # bridge saw every record, which the count checks.
            lines = job.events_since(0)[0]
            if len(lines) != len(result.trace):
                raise ServeError(
                    f"event buffer holds {len(lines)} lines for a "
                    f"{len(result.trace)}-record trace"
                )
            summary = result.summary
            job.finish(result={
                "workload": params["workload"],
                "flexible": params["flexible"],
                "backend": result.backend,
                "summary": summary.as_dict(),
                "trace_events": len(result.trace),
                "trace_digest": text_digest("\n".join(lines)),
            })
        except BaseException as exc:  # surface everything as FAILED
            job.finish(error=f"{type(exc).__name__}: {exc}")
        finally:
            job.workload_spec = None
            self._exit_run()

    def _run_sweep(self, job: ServeJob) -> None:
        from repro.obs.spans import TelemetryConfig
        from repro.sweep.runner import SweepRunner

        self._enter_run(job)
        try:
            sweep = job.sweep
            runner = SweepRunner(
                jobs=1,
                store=self.store,
                observers=(SweepProgressBridge(job, len(sweep)),),
                telemetry=TelemetryConfig(correlation_id=job.id),
            )
            result = runner.run(sweep)
            job.set_telemetry(
                job.id,
                [dict(span) for cell in result.cells for span in cell.spans],
                0,
            )
            aggregate = result.aggregate()
            job.finish(result={
                "cells": len(result),
                "cached_cells": result.cached_cells,
                "computed_cells": result.computed_cells,
                "compute_wall_s": result.compute_wall_time,
                "aggregate_csv": aggregate.as_csv(),
            })
        except BaseException as exc:
            job.finish(error=f"{type(exc).__name__}: {exc}")
        finally:
            job.sweep = None
            self._exit_run()
