"""`repro serve` — the scheduler-as-a-service HTTP application.

Request flow::

    client ──HTTP──▶ asyncio loop ──validate──▶ JobManager (bounded
    thread pool) ──Session.run──▶ EventBridge observer ──▶ per-job
    event buffer ──SSE──▶ any number of live/late subscribers

The asyncio loop only ever parses, validates and frames; every
simulation runs on the manager's worker pool, and every artifact render
runs on the default executor — a slow simulation can never stall
``/health``.

REST surface (all JSON unless noted):

========  ==========================  ==========================================
Method    Path                        Semantics
========  ==========================  ==========================================
GET       /health                     liveness + drain state + active jobs
GET       /metrics                    Prometheus text exposition (request
                                      counts, latency histograms, job
                                      states, queue depth, peak running
                                      jobs, observer errors), whatever
                                      the ``Accept`` header asks for
POST      /v1/workloads               submit a workload run (202 + job id;
                                      429 queue full, 503 draining)
GET       /v1/jobs                    list jobs (snapshots, no results)
GET       /v1/jobs/{id}               one job: state, progress, result
GET       /v1/jobs/{id}/events        live trace events as SSE (replays the
                                      full buffer for finished jobs)
GET       /v1/jobs/{id}/telemetry     the job's recorded spans + correlation
                                      id (empty while still running)
POST      /v1/sweeps                  launch a background sweep (polled
                                      progress via /v1/jobs/{id})
GET       /v1/artifacts               result-store inventory (the same
                                      listing `repro cache ls --json` emits)
GET       /v1/artifacts/{name}        rendered artifact text/CSV, served
                                      through the store-backed registry
POST      /v1/admin/drain             refuse new submissions; in-flight and
                                      queued jobs finish (drain is graceful)
POST      /v1/admin/resume            accept submissions again
==========================================================================

The operational drain/resume surface is modeled on slurmrestd/charm
node lifecycle semantics; the job-state vocabulary is the Slurm
accounting taxonomy (see :mod:`repro.serve.jobs`).
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import re
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import DrainingError, QueueFullError, ServeError, SweepError
from repro.obs.registry import MetricsRegistry, default_registry
from repro.serve.http import (
    HttpError,
    Request,
    SSE_HEADER,
    error_response,
    json_response,
    read_request,
    response_bytes,
    sse_frame,
    sse_frames,
)
from repro.serve.jobs import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKERS,
    SERVE_JOB_STATES,
    JobManager,
)

logger = logging.getLogger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8177

#: Validation ceilings — a public submission endpoint needs bounds.
MAX_WORKLOAD_JOBS = 5000
MAX_NODES = 4096
MAX_STEPS = 200
MAX_SWEEP_SEEDS = 64


# -- parameter validation -----------------------------------------------------

def _require_int(payload: dict, key: str, default, lo: int, hi: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise HttpError(400, f"{key!r} must be an integer")
    if not lo <= value <= hi:
        raise HttpError(400, f"{key!r} must be in [{lo}, {hi}], got {value}")
    return value


def _require_bool(payload: dict, key: str, default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise HttpError(400, f"{key!r} must be a boolean")
    return value


def validate_workload(payload: dict):
    """Normalize a POST /v1/workloads body into (params, WorkloadSpec).

    Runs on the serving loop, so it only *parses and generates* the
    workload (milliseconds at the enforced ceilings); the simulation
    itself happens on the worker pool.
    """
    from repro.cluster.configs import (
        marenostrum_preliminary,
        marenostrum_production,
    )
    from repro.errors import WorkloadError
    from repro.workload.generator import (
        FSWorkloadConfig,
        fs_workload,
        realapp_workload,
    )
    from repro.workload.swf import parse_swf

    unknown = set(payload) - {
        "workload", "num_jobs", "seed", "flexible", "nodes", "steps", "swf",
    }
    if unknown:
        raise HttpError(400, f"unknown field(s): {', '.join(sorted(unknown))}")
    workload = payload.get("workload", "fs")
    if workload not in ("fs", "realapps", "swf"):
        raise HttpError(
            400, f"'workload' must be one of fs, realapps, swf; got {workload!r}"
        )
    seed = _require_int(payload, "seed", 2017, 0, 2**31 - 1)
    flexible = _require_bool(payload, "flexible", True)
    nodes = payload.get("nodes")
    if nodes is not None:
        nodes = _require_int(payload, "nodes", None, 1, MAX_NODES)

    if workload == "swf":
        text = payload.get("swf")
        if not isinstance(text, str) or not text.strip():
            raise HttpError(400, "'swf' must carry the SWF log text")
        try:
            spec = parse_swf(text)
        except WorkloadError as exc:
            raise HttpError(400, f"invalid SWF workload: {exc}") from exc
        largest = max(js.submit_nodes for js in spec.jobs)
        if nodes is None:
            nodes = max(marenostrum_production().num_nodes, largest)
        num_jobs = len(spec.jobs)
    else:
        num_jobs = _require_int(payload, "num_jobs", 8, 1, MAX_WORKLOAD_JOBS)
        if workload == "fs":
            steps = _require_int(payload, "steps", 25, 1, MAX_STEPS)
            spec = fs_workload(
                num_jobs, seed=seed, config=FSWorkloadConfig(steps=steps)
            )
            if nodes is None:
                nodes = marenostrum_preliminary().num_nodes
        else:
            spec = realapp_workload(num_jobs, seed=seed)
            if nodes is None:
                nodes = marenostrum_production().num_nodes
    largest = max(js.submit_nodes for js in spec.jobs)
    if largest > nodes:
        raise HttpError(
            400,
            f"cluster of {nodes} nodes cannot run a {largest}-node job; "
            f"raise 'nodes'",
        )
    params = {
        "workload": workload,
        "num_jobs": num_jobs,
        "seed": seed,
        "flexible": flexible,
        "nodes": nodes,
    }
    return params, spec


def validate_sweep(payload: dict, registry):
    """Normalize a POST /v1/sweeps body into (params, Sweep)."""
    from repro.sweep.spec import DEFAULT_BASE_SEED, POLICY_PRESETS, Sweep

    unknown = set(payload) - {
        "artifacts", "workloads", "num_jobs", "nodes", "policies",
        "seeds", "base_seed", "async_mode",
    }
    if unknown:
        raise HttpError(400, f"unknown field(s): {', '.join(sorted(unknown))}")

    def str_list(key, allowed=None):
        value = payload.get(key)
        if value is None:
            return None
        if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value
        ):
            raise HttpError(400, f"{key!r} must be a list of strings")
        if allowed is not None:
            bad = sorted(set(value) - set(allowed))
            if bad:
                raise HttpError(
                    400,
                    f"unknown {key}: {', '.join(bad)}; "
                    f"known: {', '.join(allowed)}",
                )
        return value

    def int_list(key, lo, hi):
        value = payload.get(key)
        if value is None:
            return None
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise HttpError(400, f"{key!r} must be a list of integers")
        for v in value:
            if not lo <= v <= hi:
                raise HttpError(
                    400, f"{key!r} values must be in [{lo}, {hi}], got {v}"
                )
        return value

    artifacts = str_list(
        "artifacts", allowed=registry.names() if registry else None
    )
    workloads = str_list("workloads", allowed=("fs", "realapps"))
    num_jobs = int_list("num_jobs", 1, MAX_WORKLOAD_JOBS)
    nodes = int_list("nodes", 1, MAX_NODES)
    policies = str_list("policies", allowed=tuple(POLICY_PRESETS))
    seeds = _require_int(payload, "seeds", 3, 1, MAX_SWEEP_SEEDS)
    base_seed = _require_int(
        payload, "base_seed", DEFAULT_BASE_SEED, 0, 2**31 - 1
    )
    async_mode = _require_bool(payload, "async_mode", False)
    try:
        sweep = Sweep.over(
            seeds=seeds,
            base_seed=base_seed,
            artifacts=artifacts,
            workloads=workloads,
            num_jobs=num_jobs,
            nodes=nodes,
            policies=policies,
            async_mode=async_mode,
        )
    except SweepError as exc:
        raise HttpError(400, f"invalid sweep: {exc}") from exc
    params = {
        "artifacts": artifacts,
        "workloads": workloads,
        "num_jobs": num_jobs,
        "nodes": nodes,
        "policies": policies,
        "seeds": seeds,
        "base_seed": base_seed,
        "async_mode": async_mode,
        "cells": len(sweep),
    }
    return params, sweep


# -- request metrics ----------------------------------------------------------

class RequestMetrics:
    """Per-route request counters + latency histograms (loop-thread only).

    The tallies live as metric families on a
    :class:`~repro.obs.registry.MetricsRegistry` (by default the
    process-wide one), which ``/metrics`` renders as Prometheus text.
    Route labels come from the route table alone (an unmatched request
    is labelled by its status), so hostile paths and methods cannot
    grow the families.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route.",
            labels=("route",),
        )
        self.responses = self.registry.counter(
            "repro_http_responses_total",
            "HTTP responses sent, by status code.",
            labels=("status",),
        )
        self.latency = self.registry.histogram(
            "repro_http_request_duration_seconds",
            "HTTP request handling time in seconds, by route.",
            labels=("route",),
        )

    def observe(self, route: str, status: int, seconds: float) -> None:
        self.requests.inc(route=route)
        self.responses.inc(status=str(status))
        self.latency.observe(seconds, route=route)


# -- the server ---------------------------------------------------------------

class ReproServer:
    """The asyncio HTTP server wrapping a :class:`JobManager`."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        workers: int = DEFAULT_WORKERS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        store=None,
        registry=None,
        metrics_registry: Optional[MetricsRegistry] = None,
        backend: str = "sim",
        backend_options: Optional[dict] = None,
    ) -> None:
        from repro.backend import backend_names

        if backend not in backend_names():
            raise ServeError(
                f"unknown execution backend {backend!r}; "
                f"registered: {', '.join(backend_names())}"
            )
        if registry is None:
            from repro.api.registry import builtin_registry

            registry = builtin_registry()
        if store is not None:
            # Rendered artifacts are served from (and persisted to) the
            # same store the sweep cells use.
            registry.attach_store(store)
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_limit = queue_limit
        self.store = store
        self.registry = registry
        self.backend = backend
        self.backend_options = dict(backend_options or {})
        self.manager: Optional[JobManager] = None
        # The process-wide registry by default, so one scrape sees the
        # HTTP families next to everything the simulations publish
        # (scheduler op tallies, observer errors, store hit/miss).
        self.metrics_registry = (
            metrics_registry if metrics_registry is not None
            else default_registry()
        )
        self.metrics = RequestMetrics(self.metrics_registry)
        self.started_unix: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None

    def _collect_runtime(self, registry: MetricsRegistry) -> None:
        """Scrape-time mirror of uptime, job states, queue depth and
        peak worker concurrency."""
        if self.started_unix is not None:
            registry.gauge(
                "repro_serve_uptime_seconds",
                "Seconds since the server started listening.",
            ).set(time.time() - self.started_unix)
        if self.manager is not None:
            status = self.manager.status()
            jobs = registry.gauge(
                "repro_serve_jobs",
                "Serve jobs by lifecycle state.",
                labels=("state",),
            )
            # Every state, zeros too: the family is shared with servers
            # this process ran before, whose last counts must not linger.
            for state in SERVE_JOB_STATES:
                jobs.set(status["by_state"].get(state.name, 0),
                         state=state.name)
            registry.gauge(
                "repro_serve_queue_depth", "Serve jobs waiting for a worker.",
            ).set(status["queue_depth"])
            registry.gauge(
                "repro_serve_peak_running_jobs",
                "Most serve jobs ever running at once.",
            ).set(status["max_concurrent"])
            registry.counter(
                "repro_serve_submissions_total",
                "Serve jobs admitted since process start.",
            ).set(status["submitted_total"])

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.manager = JobManager(
            loop,
            workers=self.workers,
            queue_limit=self.queue_limit,
            store=self.store,
            registry=self.registry,
            backend=self.backend,
            backend_options=self.backend_options,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_unix = time.time()
        self.metrics_registry.register_collector(self._collect_runtime)

    async def stop(self) -> None:
        """Close the listener and wait for the worker pool to finish."""
        # A stopped server's jobs are no longer this process's to report.
        self.metrics_registry.unregister_collector(self._collect_runtime)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.manager is not None:
            # Pool shutdown blocks until in-flight jobs finish; keep the
            # loop responsive by waiting on a helper thread.
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(self.manager.shutdown, wait=True)
            )

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Serve one request.  A request is counted once, just before its
        response is written (a stream: when it ends), so a client that
        has read a response finds its request in the next scrape; a
        connection that sends no request is not counted at all."""
        start = time.perf_counter()
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                self.metrics.observe(
                    "unparsed", exc.status, time.perf_counter() - start
                )
                writer.write(error_response(exc.status, str(exc)))
                await writer.drain()
                return
            if request is None:
                return
            route_label, handler, path_args, streaming = self._resolve(request)
            if streaming:
                status = 500
                try:
                    status = await handler(request, writer, *path_args)
                finally:
                    self.metrics.observe(
                        route_label, status, time.perf_counter() - start
                    )
                return
            try:
                status, response = await handler(request, *path_args)
            except HttpError as exc:
                status, response = exc.status, error_response(
                    exc.status, str(exc)
                )
            except QueueFullError as exc:
                status, response = 429, error_response(429, str(exc))
            except DrainingError as exc:
                status, response = 503, error_response(503, str(exc))
            except Exception as exc:
                logger.exception("handler for %s failed", route_label)
                status, response = 500, error_response(
                    500, f"{type(exc).__name__}: {exc}"
                )
            self.metrics.observe(route_label, status, time.perf_counter() - start)
            writer.write(response)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away or server is stopping
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    _JOB_ID = r"(?P<job_id>[A-Za-z0-9_.-]+)"
    _NAME = r"(?P<name>[A-Za-z0-9_.-]+)"

    def _routes(self):
        return (
            ("GET", "/health", "GET /health", self._health, False),
            ("GET", "/metrics", "GET /metrics", self._metrics, False),
            ("POST", "/v1/workloads", "POST /v1/workloads",
             self._submit_workload, False),
            ("GET", "/v1/jobs", "GET /v1/jobs", self._list_jobs, False),
            ("GET", rf"/v1/jobs/{self._JOB_ID}/events",
             "GET /v1/jobs/{id}/events", self._stream_events, True),
            ("GET", rf"/v1/jobs/{self._JOB_ID}/telemetry",
             "GET /v1/jobs/{id}/telemetry", self._get_telemetry, False),
            ("GET", rf"/v1/jobs/{self._JOB_ID}", "GET /v1/jobs/{id}",
             self._get_job, False),
            ("POST", "/v1/sweeps", "POST /v1/sweeps", self._submit_sweep,
             False),
            ("GET", "/v1/artifacts", "GET /v1/artifacts",
             self._list_artifacts, False),
            ("GET", rf"/v1/artifacts/{self._NAME}", "GET /v1/artifacts/{name}",
             self._get_artifact, False),
            ("POST", "/v1/admin/drain", "POST /v1/admin/drain", self._drain,
             False),
            ("POST", "/v1/admin/resume", "POST /v1/admin/resume",
             self._resume, False),
        )

    def _resolve(self, request: Request):
        path_match = False
        for method, pattern, label, handler, streaming in self._routes():
            match = re.fullmatch(pattern, request.path)
            if match is None:
                continue
            path_match = True
            if request.method != method:
                continue
            return label, handler, tuple(match.groups()), streaming
        if path_match:
            raise_status, message = 405, f"method {request.method} not allowed"
        else:
            raise_status, message = 404, f"no such endpoint: {request.path}"

        async def reject(request, *args):
            return raise_status, error_response(raise_status, message)

        # One label per status: the path and method are the client's.
        return f"unmatched {raise_status}", reject, (), False

    # -- handlers (loop thread) ----------------------------------------------
    async def _health(self, request: Request):
        status = self.manager.status()
        return 200, json_response(200, {
            "status": "ok",
            "state": status["state"],
            "backend": status["backend"],
            "active": status["active"],
            "uptime_s": time.time() - self.started_unix,
        })

    async def _metrics(self, request: Request):
        text = self.metrics_registry.render_prometheus()
        return 200, response_bytes(
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _submit_workload(self, request: Request):
        params, spec = validate_workload(request.json())
        job = self.manager.submit_workload(params, spec)
        return 202, json_response(202, {
            "id": job.id,
            "state": job.state.name,
            "status_url": f"/v1/jobs/{job.id}",
            "events_url": f"/v1/jobs/{job.id}/events",
        })

    async def _submit_sweep(self, request: Request):
        params, sweep = validate_sweep(request.json(), self.registry)
        job = self.manager.submit_sweep(params, sweep)
        return 202, json_response(202, {
            "id": job.id,
            "state": job.state.name,
            "cells": len(sweep),
            "status_url": f"/v1/jobs/{job.id}",
        })

    async def _list_jobs(self, request: Request):
        jobs = [
            job.snapshot(include_result=False) for job in self.manager.jobs()
        ]
        jobs.sort(key=lambda snap: snap["id"])
        return 200, json_response(200, {"jobs": jobs})

    async def _get_job(self, request: Request, job_id: str):
        job = self.manager.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return 200, json_response(200, job.snapshot())

    async def _get_telemetry(self, request: Request, job_id: str):
        job = self.manager.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return 200, json_response(200, job.telemetry_snapshot())

    async def _stream_events(self, request: Request, writer, job_id: str):
        job = self.manager.get(job_id)
        if job is None:
            writer.write(error_response(404, f"no such job: {job_id}"))
            await writer.drain()
            return 404
        if job.kind != "workload":
            writer.write(error_response(
                400, f"job {job_id} is a {job.kind} job; poll "
                f"/v1/jobs/{job_id} for progress"
            ))
            await writer.drain()
            return 400
        # Each read's lines go out as one buffer in one write: the head
        # rides with the first, the done frame with the last.  A job
        # reads terminal only after its last line, so that read holds
        # every line.  The change count read with the lines makes the
        # wait return at once if the job moved while drain() yielded.
        out = SSE_HEADER
        cursor = 0
        while True:
            lines, done, changes = job.events_since(cursor)
            if lines:
                out += sse_frames(lines, cursor, "trace")
                cursor += len(lines)
            if done:
                final = {"state": job.state.name, "events": cursor}
                if job.error is not None:
                    final["error"] = job.error
                writer.write(out + sse_frame(
                    json.dumps(final, sort_keys=True), event="done"))
                await writer.drain()
                return 200
            if out:
                writer.write(out)
                out = b""
                await writer.drain()
            await job.wait_change(changes)

    async def _list_artifacts(self, request: Request):
        if self.store is None:
            return 200, json_response(200, {
                "store": None,
                "records": [],
                "note": "server started without a result store (--no-cache)",
            })
        return 200, json_response(200, self.store.listing())

    async def _get_artifact(self, request: Request, name: str):
        if name not in self.registry:
            known = ", ".join(self.registry.names())
            raise HttpError(404, f"unknown artifact {name!r}; known: {known}")
        form = request.query.get("form", "text")
        if form not in ("text", "csv"):
            raise HttpError(400, f"'form' must be text or csv, got {form!r}")
        if form == "csv" and not self.registry.get(name).supports_csv:
            raise HttpError(400, f"artifact {name!r} has no CSV form")
        seed = None
        if "seed" in request.query:
            try:
                seed = int(request.query["seed"])
            except ValueError:
                raise HttpError(400, "'seed' must be an integer")
        render = (self.registry.render_csv if form == "csv"
                  else self.registry.render)
        # Renders may simulate on a cold store; keep the loop free.
        text = await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(render, name, seed=seed)
        )
        from repro.serve.http import response_bytes

        content_type = "text/csv" if form == "csv" else "text/plain"
        return 200, response_bytes(
            200, text.encode("utf-8"), content_type=content_type
        )

    async def _drain(self, request: Request):
        return 200, json_response(200, self.manager.drain())

    async def _resume(self, request: Request):
        return 200, json_response(200, self.manager.resume())


# -- running ------------------------------------------------------------------

async def _serve_until_stopped(server: ReproServer, announce, stop_signals):
    import signal

    await server.start()
    if announce is not None:
        announce(server)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if stop_signals:
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
    try:
        await stop.wait()
    finally:
        # Graceful exit: refuse new work, let in-flight jobs finish.
        server.manager.drain()
        await server.stop()


def run_server(server: ReproServer, announce: Optional[Callable] = None) -> None:
    """Run the server in the foreground until SIGINT/SIGTERM."""
    try:
        asyncio.run(_serve_until_stopped(server, announce, stop_signals=True))
    except KeyboardInterrupt:
        pass


class ServerThread:
    """A :class:`ReproServer` on a daemon thread (tests and tooling).

    ``start()`` blocks until the listener is bound and returns the
    ephemeral port; ``stop()`` drains, closes and joins.
    """

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        self.server = ReproServer(**kwargs)
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServeError("server did not start within 30s")
        if self._error is not None:
            raise ServeError(f"server failed to start: {self._error}")
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - start failures
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover
            raise ServeError("server thread did not stop in time")
