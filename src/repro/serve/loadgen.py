"""`repro loadgen` — a concurrent benchmark client for `repro serve`.

Drives a running server with ``--clients`` concurrent sessions.  Each
session submits a workload, consumes the job's live SSE event stream to
the terminal ``done`` frame, then fetches the final job snapshot —
i.e. the full lifecycle a real client pays, including the per-request
TCP handshake (connections are one-shot by design).

Client-side latencies are kept per phase (submit / stream / status) as
plain sample lists and reported as nearest-rank order statistics
(:func:`~repro.metrics.summary.order_stats`: n, min, median and max, plus
p90/p99 only once ten samples lie beyond them).  One scrape of the
server's Prometheus ``/metrics``, parsed by
:func:`~repro.obs.registry.parse_prometheus`, is appended so the report
shows both sides of the wire.  The run ends with a drain check:
``POST /v1/admin/drain``, one refused submission (must be 503), a poll
until ``active == 0`` (no orphaned background work), and a resume so
the server is left serving.

The report is written as JSON (``BENCH_serve.json`` by convention) and
summarized on stdout.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.metrics.summary import order_stats
from repro.obs.registry import parse_prometheus

DEFAULT_CLIENTS = 4
DEFAULT_REQUESTS = 12
DEFAULT_NUM_JOBS = 6
STREAM_DONE = "done"
#: Largest read of an event stream's body.
STREAM_READ = 65536


class LoadgenError(ServeError):
    """The benchmark client hit a protocol or server error."""


# -- one-shot HTTP client (asyncio streams, stdlib only) ----------------------

async def _read_response(reader) -> Tuple[int, Dict[str, str], bytes]:
    status_line = await reader.readline()
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise LoadgenError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = (await reader.readline()).rstrip(b"\r\n")
        if not line:
            break
        name, _, value = line.partition(b":")
        headers[name.decode("ascii").strip().lower()] = (
            value.decode("latin-1").strip()
        )
    if "content-length" in headers:
        body = await reader.readexactly(int(headers["content-length"]))
    else:
        body = await reader.read()
    return status, headers, body


async def request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[dict] = None,
) -> Tuple[int, dict]:
    """One request/response cycle; returns (status, parsed JSON body).

    A body that is not JSON comes back as ``{"raw": text}``.
    """
    body = b""
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head + body)
        await writer.drain()
        status, _, raw = await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass
    try:
        parsed = json.loads(raw.decode("utf-8")) if raw else {}
    except ValueError:
        parsed = {"raw": raw.decode("utf-8", "replace")}
    return status, parsed


async def stream_events(host: str, port: int, job_id: str) -> List[dict]:
    """Consume one job's SSE stream to the ``done`` frame.

    Returns the parsed frames: ``{"event", "id", "data"}`` dicts in
    arrival order (the ``done`` frame included, last).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\nConnection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.split(None, 2)
        if len(parts) < 2 or parts[1] != b"200":
            raise LoadgenError(f"event stream refused: {status_line!r}")
        while True:
            line = (await reader.readline()).rstrip(b"\r\n")
            if not line:
                break  # end of response headers
        return await _read_frames(reader, job_id)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def _read_frames(reader, job_id: str) -> List[dict]:
    """Parse an SSE body to the ``done`` frame, one read at a time.

    Each read is parsed as a burst: its complete lines are decoded at
    once, CRLF line ends become LF, and every frame the blank lines
    close is parsed (``name: value`` fields) without awaiting per line.
    The bytes after the last newline, and the lines of a frame not yet
    closed, wait for the next read.
    """
    frames: List[dict] = []
    partial = b""  # bytes after the last newline
    open_frame = ""  # complete lines of a frame not yet closed
    while True:
        chunk = await reader.read(STREAM_READ)
        if not chunk:
            raise LoadgenError(f"stream for {job_id} ended without a done frame")
        partial += chunk
        cut = partial.rfind(b"\n") + 1
        if not cut:
            continue
        lines, partial = partial[:cut], partial[cut:]
        # A line's trailing CRs all go, as rstrip(b"\r\n") on it would.
        while b"\r\n" in lines:
            lines = lines.replace(b"\r\n", b"\n")
        *closed, open_frame = (open_frame + lines.decode("utf-8")).split("\n\n")
        for block in closed:
            frame: dict = {}
            for line in block.split("\n"):
                if line:
                    name, _, value = line.partition(":")
                    frame[name.strip()] = value.strip()
            if frame:
                frames.append(frame)
                if frame.get("event") == STREAM_DONE:
                    return frames


# -- the benchmark ------------------------------------------------------------

class Loadgen:
    """Concurrent submit+stream benchmark against one server."""

    def __init__(
        self,
        host: str,
        port: int,
        clients: int = DEFAULT_CLIENTS,
        requests: int = DEFAULT_REQUESTS,
        num_jobs: int = DEFAULT_NUM_JOBS,
        seed: int = 2017,
    ) -> None:
        if clients < 1 or requests < 1:
            raise LoadgenError("clients and requests must be >= 1")
        self.host = host
        self.port = port
        self.clients = clients
        self.requests = requests
        self.num_jobs = num_jobs
        self.seed = seed
        #: Per-phase client latencies in milliseconds, one per request.
        self.submit_ms: List[float] = []
        self.stream_ms: List[float] = []
        self.status_ms: List[float] = []
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.events_total = 0
        self._active_streams = 0
        self.max_concurrent_streams = 0
        self._queue: Optional[asyncio.Queue] = None

    async def _one_request(self, serial: int) -> None:
        t0 = time.perf_counter()
        status, body = await request(
            self.host, self.port, "POST", "/v1/workloads",
            {"workload": "fs", "num_jobs": self.num_jobs,
             "seed": self.seed + serial},
        )
        self.submit_ms.append(1e3 * (time.perf_counter() - t0))
        if status != 202:
            raise LoadgenError(f"submit returned {status}: {body}")
        job_id = body["id"]

        self._active_streams += 1
        self.max_concurrent_streams = max(
            self.max_concurrent_streams, self._active_streams
        )
        t0 = time.perf_counter()
        try:
            frames = await stream_events(self.host, self.port, job_id)
        finally:
            self._active_streams -= 1
        self.stream_ms.append(1e3 * (time.perf_counter() - t0))
        done = frames[-1]
        final = json.loads(done["data"])
        trace_frames = [f for f in frames if f.get("event") == "trace"]
        if final["events"] != len(trace_frames):
            raise LoadgenError(
                f"{job_id}: done frame says {final['events']} events, "
                f"stream carried {len(trace_frames)}"
            )
        self.events_total += len(trace_frames)

        t0 = time.perf_counter()
        status, snapshot = await request(
            self.host, self.port, "GET", f"/v1/jobs/{job_id}"
        )
        self.status_ms.append(1e3 * (time.perf_counter() - t0))
        if status != 200:
            raise LoadgenError(f"status fetch returned {status}")
        if snapshot["state"] == "COMPLETED":
            self.jobs_completed += 1
        else:
            self.jobs_failed += 1

    async def _client(self) -> None:
        while True:
            try:
                serial = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            await self._one_request(serial)

    async def _drain_check(self) -> dict:
        status, _ = await request(
            self.host, self.port, "POST", "/v1/admin/drain"
        )
        if status != 200:
            raise LoadgenError(f"drain returned {status}")
        refused, _ = await request(
            self.host, self.port, "POST", "/v1/workloads",
            {"workload": "fs", "num_jobs": 1},
        )
        # A drained server must finish in-flight work and reach quiescence.
        deadline = time.perf_counter() + 60.0
        active = None
        while time.perf_counter() < deadline:
            _, health = await request(self.host, self.port, "GET", "/health")
            active = health.get("active")
            if active == 0:
                break
            await asyncio.sleep(0.05)
        status, _ = await request(
            self.host, self.port, "POST", "/v1/admin/resume"
        )
        return {
            "submit_during_drain_status": refused,
            "refused_with_503": refused == 503,
            "active_after_drain": active,
            "drained_clean": active == 0,
            "resume_status": status,
        }

    async def _run(self) -> dict:
        self._queue = asyncio.Queue()
        for serial in range(self.requests):
            self._queue.put_nowait(serial)
        t0 = time.perf_counter()
        await asyncio.gather(*(self._client() for _ in range(self.clients)))
        wall = time.perf_counter() - t0
        drain = await self._drain_check()
        status, scrape = await request(self.host, self.port, "GET", "/metrics")
        if status != 200 or "raw" not in scrape:
            raise LoadgenError(f"/metrics scrape returned {status}")
        server_metrics, _ = parse_prometheus(scrape["raw"])
        return {
            "config": {
                "host": self.host,
                "port": self.port,
                "clients": self.clients,
                "requests": self.requests,
                "num_jobs": self.num_jobs,
                "seed": self.seed,
            },
            "client": {
                "wall_s": wall,
                "requests_per_s": self.requests / wall if wall > 0 else 0.0,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "events_streamed": self.events_total,
                "max_concurrent_streams": self.max_concurrent_streams,
                "submit_ms": order_stats(self.submit_ms),
                "stream_ms": order_stats(self.stream_ms),
                "status_ms": order_stats(self.status_ms),
            },
            "server": server_metrics,
            "drain": drain,
        }

    def run(self) -> dict:
        return asyncio.run(self._run())


def check_report(report: dict) -> List[str]:
    """Return the list of acceptance failures (empty = pass)."""
    failures = []
    client = report["client"]
    if client["requests_per_s"] <= 0:
        failures.append("throughput is zero")
    if client["jobs_failed"]:
        failures.append(f"{client['jobs_failed']} job(s) FAILED server-side")
    if client["jobs_completed"] != report["config"]["requests"]:
        failures.append(
            f"completed {client['jobs_completed']} of "
            f"{report['config']['requests']} jobs"
        )
    if client["events_streamed"] <= 0:
        failures.append("no trace events were streamed")
    drain = report["drain"]
    if not drain["refused_with_503"]:
        failures.append(
            "submission during drain was not refused with 503 "
            f"(got {drain['submit_during_drain_status']})"
        )
    if not drain["drained_clean"]:
        failures.append(
            f"drain left {drain['active_after_drain']} active job(s)"
        )
    return failures


def summarize(report: dict) -> str:
    client = report["client"]
    return (
        f"loadgen: {report['config']['requests']} requests, "
        f"{report['config']['clients']} clients -> "
        f"{client['requests_per_s']:.2f} req/s, "
        f"submit median {client['submit_ms']['median']:.2f} ms / "
        f"max {client['submit_ms']['max']:.2f} ms, "
        f"{client['events_streamed']} events streamed, "
        f"max {client['max_concurrent_streams']} concurrent streams, "
        f"drain {'clean' if report['drain']['drained_clean'] else 'DIRTY'}"
    )
