"""``serve_fs``: ``repro serve`` in its own process, an open-loop client.

The client is this process: one thread, one asyncio loop.  Request
``i`` is due at a fixed time on the schedule whether or not earlier
requests finished; at most ``nproc`` are in flight, so a slow server
makes later requests wait, and that wait is charged to them because
latency runs from the due time.  Each request is the ``repro loadgen``
shape: submit an FS workload (6 jobs, 25 steps, seed derived from the
run's seed), stream its events to the ``done`` frame, fetch the job.
The wire calls are ``repro loadgen``'s own client functions.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    ROOT,
    Result,
    check_against_record,
    check_values,
    derive_seed,
    peak_rss_mb,
    work_dir,
)
from perfbench.layers import add_layer_metrics, overhead_metrics
from perfbench.stats import (
    OpenLoop,
    backed_percentile,
    highest_backed_fraction,
    median,
    percentile,
)
from perfbench.tracer import Tracer

NUM_JOBS = 6
HOST = "127.0.0.1"
#: Server start-ups timed for setup_s (median reported).
SERVER_STARTS = 5
#: Requests sent one at a time before timing; the timed run repeats
#: their seeds, so their digests must match.
WARMUP_REQUESTS = 4
#: p90 needs ten samples beyond it.
MIN_REQUESTS = 100
#: Ceiling on any single wait for the server.
TIMEOUT_S = 60.0
ROUTE_SUBMIT = "POST /v1/workloads"
ROUTE_EVENTS = "GET /v1/jobs/{id}/events"
COMPLETED = "COMPLETED"
#: Latency a refused or failed request is reported with when a reported
#: percentile lands on it (it never finished).
NEVER_MS = 1e9


# -- the server process -----------------------------------------------------------

class Server:
    """``python -m repro serve`` on an ephemeral port, no result store."""

    def __init__(self, log_path: str) -> None:
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(log_path, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST,
             "--port", "0", "--no-cache"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.port = self._read_port()
            asyncio.run(self._wait_healthy())
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - t0

    def _read_port(self) -> int:
        deadline = time.monotonic() + TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not announce its port")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError("repro serve exited before announcing")
                line += chunk
        match = re.search(rb"listening on http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected announce line {line!r}")
        return int(match.group(1))

    async def _wait_healthy(self) -> None:
        from repro.serve.loadgen import LoadgenError

        deadline = time.monotonic() + TIMEOUT_S
        while True:
            try:
                status, _ = await call(self.port, "GET", "/health")
                if status == 200:
                    return
            except (OSError, LoadgenError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /health")
            await asyncio.sleep(0.005)

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- the client: repro loadgen's one-shot calls, each under a timeout --------------

async def call(port: int, method: str, path: str,
               payload: Optional[dict] = None) -> Tuple[int, dict]:
    from repro.serve import loadgen

    return await asyncio.wait_for(
        loadgen.request(HOST, port, method, path, payload), TIMEOUT_S)


async def stream_events(port: int, job_id: str) -> Tuple[int, dict]:
    """Read a job's SSE stream to ``done``: (trace frames, done payload)."""
    from repro.serve import loadgen

    frames = await asyncio.wait_for(
        loadgen.stream_events(HOST, port, job_id), TIMEOUT_S)
    trace = sum(1 for frame in frames if frame.get("event") == "trace")
    return trace, json.loads(frames[-1]["data"])


# -- the open loop ----------------------------------------------------------------

class Request:
    """Client-side record of one request (perf_counter times).

    A traced request also fetches the job's server-side spans once the
    job is done; ``collected`` is when that fetch returned.
    """

    __slots__ = ("index", "traced", "job_id", "sent", "posted", "streamed",
                 "finished", "collected", "frames", "snapshot", "telemetry",
                 "problem")

    def __init__(self, index: int, traced: bool = False) -> None:
        self.index = index
        self.traced = traced
        self.job_id: Optional[str] = None
        self.sent = self.posted = self.streamed = 0.0
        self.finished = self.collected = 0.0
        self.frames = 0
        self.snapshot: Dict[str, object] = {}
        self.telemetry: Optional[dict] = None
        self.problem: Optional[str] = None


def request_seed(seed: int, index: int) -> int:
    return derive_seed(seed, "serve_fs", index)


async def one_request(port: int, seed: int, req: Request) -> None:
    """Submit, stream to ``done``, fetch the job (and, traced, its spans)."""
    payload = {"workload": "fs", "num_jobs": NUM_JOBS,
               "seed": request_seed(seed, req.index)}
    status, body = await call(port, "POST", "/v1/workloads", payload)
    req.posted = time.perf_counter()
    if status in (429, 503):
        req.problem = f"refused ({status})"
        return
    if status != 202:
        req.problem = f"submit returned {status}"
        return
    req.job_id = body["id"]
    req.frames, done = await stream_events(port, req.job_id)
    req.streamed = time.perf_counter()
    if done.get("events") != req.frames:
        req.problem = (f"done frame says {done.get('events')} events, "
                       f"{req.frames} streamed")
    status, req.snapshot = await call(port, "GET", f"/v1/jobs/{req.job_id}")
    req.finished = time.perf_counter()
    if status != 200:
        req.problem = f"job fetch returned {status}"
        return
    if req.snapshot.get("state") != COMPLETED or done.get("state") != COMPLETED:
        req.problem = f"job ended {req.snapshot.get('state')}"
    if req.traced:
        status, req.telemetry = await call(
            port, "GET", f"/v1/jobs/{req.job_id}/telemetry")
        req.collected = time.perf_counter()
        if status != 200:
            req.problem = f"telemetry fetch returned {status}"


async def open_loop(port: int, seed: int, requests: List[Request],
                    rate: float) -> OpenLoop:
    """Send ``requests`` in order on the fixed schedule."""
    from repro.serve.loadgen import LoadgenError

    in_flight = asyncio.Semaphore(os.cpu_count() or 1)
    loop = OpenLoop(rate, len(requests), start=time.perf_counter() + 0.01)

    async def send(slot: int, req: Request) -> None:
        try:
            await one_request(port, seed, req)
            if req.streamed and req.problem is None:
                loop.record_done(slot, req.streamed)
            elif req.problem and req.problem.startswith("refused"):
                loop.record_refused()
            else:
                loop.record_failed()
        except (OSError, asyncio.TimeoutError, ValueError, LoadgenError) as exc:
            req.problem = f"{type(exc).__name__}: {exc}"
            loop.record_failed()
        finally:
            in_flight.release()

    tasks = []
    for slot, req in enumerate(requests):
        delay = loop.due(slot) - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await in_flight.acquire()
        req.sent = time.perf_counter()
        loop.record_sent(slot, req.sent)
        tasks.append(asyncio.create_task(send(slot, req)))
    await asyncio.gather(*tasks)
    return loop


# -- metrics ------------------------------------------------------------------------

def latency_ms(loop: OpenLoop, fraction: float) -> float:
    value = backed_percentile(loop.latencies(), fraction)
    return NEVER_MS if math.isinf(value) else 1e3 * value


def max_queue_depth(requests: List[Request]) -> int:
    """Most jobs ever waiting server-side, from submit/start stamps."""
    edges = []
    for req in requests:
        submitted = req.snapshot.get("submitted_unix")
        started = req.snapshot.get("started_unix")
        if submitted is not None and started is not None:
            edges += [(submitted, 1), (started, -1)]
    depth = deepest = 0
    for _, step in sorted(edges):
        depth += step
        deepest = max(deepest, depth)
    return deepest


def route_totals(port: int) -> Dict[str, Tuple[float, float]]:
    """(sum seconds, count) of the request-duration histogram per route,
    from the Prometheus text the server gives a plain scraper."""
    from repro.obs.registry import parse_prometheus

    url = f"http://{HOST}:{port}/metrics"
    # The server is local: never route the scrape through a proxy.
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(url, timeout=TIMEOUT_S) as response:
        samples, _ = parse_prometheus(response.read().decode("utf-8"))
    totals = {}
    for route in (ROUTE_SUBMIT, ROUTE_EVENTS):
        label = f'{{route="{route}"}}'
        totals[route] = (
            samples.get(f"repro_http_request_duration_seconds_sum{label}", 0.0),
            samples.get(f"repro_http_request_duration_seconds_count{label}", 0.0),
        )
    return totals


def _mean_ms(before, after, route: str) -> float:
    seconds = after[route][0] - before[route][0]
    count = after[route][1] - before[route][1]
    return 1e3 * seconds / count if count else 0.0


def _p50_ms(values: List[float]) -> float:
    return 1e3 * percentile(values, 0.5) if values else 0.0


def _account(result: Result, requests: List[Request]) -> None:
    result.attempted += len(requests)
    for req in requests:
        if req.problem is not None:
            result.fail(f"request {req.index}: {req.problem}")


def _digests(requests: List[Request]) -> Dict[str, object]:
    return {
        f"request {r.index}": [
            r.snapshot.get("result", {}).get("trace_digest"), r.frames]
        for r in requests
    }


# -- the workload -------------------------------------------------------------------

def run(seed: int, seconds: float, traced: bool, rate: float) -> Result:
    result = Result("serve_fs")
    logs = work_dir("serve_fs")
    log_path = os.path.join(logs, "server.log")
    startups = []
    server = None
    try:
        for _ in range(SERVER_STARTS):
            if server is not None:
                server.stop()
            server = Server(log_path)
            startups.append(server.startup_s)
        asyncio.run(_measure(server, seed, seconds, traced, rate, result,
                             startups))
    finally:
        if server is not None:
            server.stop()
    if not traced:
        # Every server has been waited for; the timed one is the largest.
        result.add("peak_rss_mb", peak_rss_mb(children=True), "MiB", 1)
    if result.correct:
        shutil.rmtree(logs, ignore_errors=True)
    return result


async def _measure(server: Server, seed: int, seconds: float, traced: bool,
                   rate: float, result: Result, startups: List[float]) -> None:
    port = server.port
    warm = [Request(i) for i in range(WARMUP_REQUESTS)]
    for req in warm:
        await one_request(port, seed, req)
        if req.problem is not None:
            result.fail(f"warm-up request {req.index}: {req.problem}")
    expected = _digests(warm)

    if traced:
        await _traced(server, seed, seconds, rate, result, expected)
        return

    count = max(MIN_REQUESTS, math.ceil(rate * seconds))
    requests = [Request(i) for i in range(count)]
    loop = await open_loop(port, seed, requests, rate)
    _account(result, requests)
    check_values(result, "warm-up repeated",
                 _digests(requests[:WARMUP_REQUESTS]), expected)
    check_against_record(result, seed, expected)

    result.notes.append(f"ops_per_s is requests_per_s at {rate:g} req/s "
                        f"offered, {count} requests, "
                        f"{os.cpu_count()} in flight at most")
    result.notes.append("latency runs from each request's due time to its "
                        "done frame; the highest percentile the sample backs "
                        f"is p{100 * highest_backed_fraction(count):.4g}")
    lateness = loop.lateness()
    result.notes.append(f"generator lateness mean "
                        f"{1e3 * sum(lateness) / len(lateness):.3f} ms, max "
                        f"{1e3 * max(lateness):.3f} ms; refused {loop.refused}")
    # Not scaled to reference speed (README.md): the rate is the offered
    # schedule's, and the latencies and start-ups are time in the server
    # process, which speed samples taken in this process do not track.
    result.add("ops_per_s", loop.completed_per_s(), "1/s", len(loop.done))
    result.add("latency_p50_ms", latency_ms(loop, 0.50), "ms", count)
    result.add("latency_p90_ms", latency_ms(loop, 0.90), "ms", count)
    result.add("setup_s", median(startups), "s", len(startups))


async def _traced(server: Server, seed: int, seconds: float, rate: float,
                  result: Result, expected) -> None:
    """Every request index twice on one schedule, once plain, once traced.

    The server records spans for every job whatever the client asks, so
    the cost of its telemetry is on both sides and cannot be measured
    from outside the program.  What tracing adds here is collecting the
    spans: ``trace.overhead_pct`` compares each traced request, up to
    its ``/telemetry`` fetch, with the plain request of the same index
    (the order within a pair alternates).
    """
    port = server.port
    pairs = max(1, math.ceil(rate * seconds / 2))
    schedule = []
    for index in range(pairs):
        pair = [Request(index), Request(index, traced=True)]
        schedule += pair if index % 2 == 0 else pair[::-1]
    before = await asyncio.to_thread(route_totals, port)
    loop = await open_loop(port, seed, schedule, rate)
    after = await asyncio.to_thread(route_totals, port)
    _account(result, schedule)
    plain = [r for r in schedule if not r.traced]
    requests = [r for r in schedule if r.traced]
    check_values(result, "warm-up repeated",
                 _digests(plain[:WARMUP_REQUESTS]), expected)
    check_values(result, "traced requests repeated", _digests(requests),
                 _digests(plain))

    tracer = Tracer()
    server_spans = []
    passes = pass_s = reconfigs = 0
    for req in requests:
        if not req.streamed:
            continue
        root = tracer.add_span("serve.request", req.sent, req.finished,
                               unit=req.job_id)
        tracer.add_span("serve.submit", req.sent, req.posted, root, req.job_id)
        tracer.add_span("serve.stream", req.posted, req.streamed, root,
                        req.job_id)
        tracer.add_span("serve.status", req.streamed, req.finished, root,
                        req.job_id)
        for span in (req.telemetry or {}).get("spans", ()):
            server_spans.append(span)
            if span["name"] == "sched.pass":
                passes += 1
                pass_s += span.get("attrs", {}).get("wall_us", 0.0) * 1e-6
            elif span["name"] == "runtime.reconfig":
                reconfigs += 1

    done = [r for r in requests if r.collected]
    snaps = [r.snapshot for r in done]
    lateness = loop.lateness()
    values = {
        "serve.submit_ms": _p50_ms([r.posted - r.sent for r in done]),
        "serve.queue_wait_ms": _p50_ms(
            [s["started_unix"] - s["submitted_unix"] for s in snaps]),
        "serve.run_ms": _p50_ms(
            [s["finished_unix"] - s["started_unix"] for s in snaps]),
        "serve.stream_ms": _p50_ms([r.streamed - r.posted for r in done]),
        "serve.status_ms": _p50_ms([r.finished - r.streamed for r in done]),
        "serve.frames": sum(r.frames for r in requests),
        "serve.late_ms": 1e3 * sum(lateness) / len(lateness),
        "serve.refused": loop.refused,
        "serve.server_submit_ms": _mean_ms(before, after, ROUTE_SUBMIT),
        "serve.server_stream_ms": _mean_ms(before, after, ROUTE_EVENTS),
        "serve.max_queue_depth": max_queue_depth(schedule),
        "slurm.passes": passes,
        "slurm.pass_s": pass_s,
        "runtime.resizes": reconfigs,
        "api.runs": len(done),
        "trace.spans": len(tracer.spans) + len(server_spans),
        **overhead_metrics([
            (traced.collected - traced.sent, untraced.finished - untraced.sent)
            for traced, untraced in zip(requests, plain)
            if traced.collected and untraced.finished]),
    }
    add_layer_metrics(result, values, {
        **{name: len(done) for name in values
           if name.startswith("serve.") and name.endswith("_ms")},
        "trace.overhead_pct": len(done),
    })
    out = _export(tracer, server_spans, seed)
    result.notes.append(f"{pairs} request indices sent plain and traced; "
                        f"spans written to {out}")


def _export(tracer: Tracer, server_spans: List[dict], seed: int) -> str:
    from repro.obs.perfetto import export_perfetto
    from repro.obs.spans import Span

    from perfbench.simruns import OUT_DIR

    os.makedirs(OUT_DIR, exist_ok=True)
    client = os.path.join(OUT_DIR, f"serve_fs-seed{seed}-client.json")
    tracer.export(client)
    if server_spans:
        export_perfetto(os.path.join(OUT_DIR, f"serve_fs-seed{seed}-server.json"),
                        spans=[Span.from_dict(s) for s in server_spans])
    return os.path.relpath(os.path.dirname(client), ROOT)
