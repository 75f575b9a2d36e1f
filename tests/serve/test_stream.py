"""The live event stream: one wake-up and one write per burst.

The unit tests drive :class:`ServeJob` and ``ReproServer._stream_events``
directly, with a stub loop or a stand-in writer, so each can place a
worker's appends exactly where a race would put them; the last two run
a real :class:`ServerThread`.
"""

import asyncio
import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.api.registry import ArtifactRegistry
from repro.api.session import Session
from repro.cluster.configs import ClusterConfig
from repro.metrics.trace import trace_digest
from repro.serve import ServerThread
from repro.serve.app import ReproServer
from repro.serve.http import SSE_HEADER, sse_frame
from repro.serve.jobs import EventBridge, ServeJob
from repro.serve.loadgen import request, stream_events
from repro.workload.generator import FSWorkloadConfig, fs_workload

HOST = "127.0.0.1"
DEADLINE = 60.0


class StubLoop:
    """Holds ``call_soon_threadsafe`` callbacks until :meth:`run_queued`."""

    def __init__(self):
        self.queued = []

    def call_soon_threadsafe(self, callback, *args):
        self.queued.append((callback, args))

    def run_queued(self):
        queued, self.queued = self.queued, []
        for callback, args in queued:
            callback(*args)


class Writer:
    """A ``StreamWriter`` stand-in that keeps every ``write``.

    ``hook`` runs once, inside the first ``drain()`` awaited after a
    trace frame went out.
    """

    def __init__(self, hook=None):
        self.writes = []
        self._hook = hook

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        if self._hook is not None and any(
            b"event: trace" in data for data in self.writes
        ):
            hook, self._hook = self._hook, None
            await hook()


def stream_server(job):
    """A never-started server whose manager knows only ``job``."""
    server = ReproServer(registry=ArtifactRegistry())
    server.manager = SimpleNamespace(get=lambda job_id: job)
    return server


def in_thread(*calls):
    """Run ``calls`` in order on a fresh thread, as a worker would."""
    worker = threading.Thread(target=lambda: [call() for call in calls])
    worker.start()
    worker.join(timeout=DEADLINE)
    assert not worker.is_alive()


def frame_ids(data: bytes):
    return [int(line[4:]) for line in data.split(b"\n")
            if line.startswith(b"id: ")]


class TestOneWakeUpPerBurst:
    def test_a_burst_queues_one_wake_up(self):
        loop = StubLoop()
        job = ServeJob("w000001", "workload", {}, loop)
        in_thread(*[lambda i=i: job.append_event(f"line {i}")
                    for i in range(1000)])
        assert len(loop.queued) == 1
        assert job.events_since(0)[2] == 1000  # every line counted

        loop.run_queued()
        job.append_event("line 1000")
        assert len(loop.queued) == 1
        # Every state change rides the wake-up already queued.
        job.mark_running()
        job.set_progress(1, 2)
        job.finish(result={})
        assert len(loop.queued) == 1

        loop.run_queued()
        lines, done, changes = job.events_since(0)
        assert len(lines) == 1001 and done
        assert changes == 1004
        assert loop.queued == []

    def test_the_wake_up_sets_every_waiter(self):
        async def scenario():
            job = ServeJob("w000001", "workload", {},
                           asyncio.get_running_loop())
            _, _, seen = job.events_since(0)
            waits = [asyncio.create_task(job.wait_change(seen, timeout=30))
                     for _ in range(3)]
            await asyncio.sleep(0)  # every subscriber is parked
            t0 = time.perf_counter()
            in_thread(lambda: job.append_event("line"))
            await asyncio.gather(*waits)
            return time.perf_counter() - t0

        assert asyncio.run(scenario()) < 5.0


class TestStreamEvents:
    def test_a_wake_up_during_drain_is_not_lost(self):
        async def scenario():
            job = ServeJob("w000001", "workload", {},
                           asyncio.get_running_loop())
            job.mark_running()
            job.append_event("first")

            async def finish_while_draining():
                # The worker appends its last line and finishes while the
                # stream is in drain(); the wake-up it queued runs now,
                # before the stream waits, and sets no waiter.
                in_thread(lambda: job.append_event("last"),
                          lambda: job.finish(result={}))
                await asyncio.sleep(0.05)

            writer = Writer(finish_while_draining)
            t0 = time.perf_counter()
            status = await stream_server(job)._stream_events(
                None, writer, job.id)
            return status, time.perf_counter() - t0, b"".join(writer.writes)

        status, elapsed, body = asyncio.run(scenario())
        assert status == 200
        assert b"data: last" in body and b"event: done" in body
        # Well inside the 0.5 s safety-net timeout.
        assert elapsed < 0.25

    def test_bursts_keep_ids_in_order_and_replay_the_same_bytes(self):
        lines = [f"{i}.0 job_submit {i} nodes=2" for i in range(40)]

        async def scenario():
            job = ServeJob("w000001", "workload", {},
                           asyncio.get_running_loop())
            job.mark_running()
            for line in lines[:25]:
                job.append_event(line)

            async def second_burst():
                in_thread(*[lambda line=line: job.append_event(line)
                            for line in lines[25:]],
                          lambda: job.finish(result={}))

            server = stream_server(job)
            live, late = Writer(second_burst), Writer()
            await server._stream_events(None, live, job.id)
            await server._stream_events(None, late, job.id)
            return live.writes, late.writes

        live, late = asyncio.run(scenario())
        # One write per burst: the head rides with the first, the done
        # frame with the last.
        assert len(live) == 2
        assert frame_ids(live[0]) == list(range(25))
        assert frame_ids(live[1]) == list(range(25, 40))
        # The same bytes as one frame per line, written one at a time.
        done = sse_frame(json.dumps({"events": 40, "state": "COMPLETED"},
                                    sort_keys=True), event="done")
        assert b"".join(live) == SSE_HEADER + b"".join(
            sse_frame(line, event="trace", event_id=i)
            for i, line in enumerate(lines)) + done
        # A late subscriber gets the finished stream in one write.
        assert late == [b"".join(live)]


@pytest.fixture()
def server():
    thread = ServerThread(workers=1).start()
    yield thread
    thread.stop()


def submit_and_wait(port, payload):
    status, body = asyncio.run(
        request(HOST, port, "POST", "/v1/workloads", payload))
    assert status == 202
    frames = asyncio.run(stream_events(HOST, port, body["id"]))
    assert frames[-1]["event"] == "done"
    status, snap = asyncio.run(
        request(HOST, port, "GET", f"/v1/jobs/{body['id']}"))
    assert status == 200
    return frames, snap


class TestServedDigest:
    def test_equals_an_independent_in_process_run(self, server):
        frames, snap = submit_and_wait(
            server.port, {"workload": "fs", "num_jobs": 3, "seed": 11})
        assert snap["state"] == "COMPLETED"
        params = snap["params"]
        result = (
            Session(cluster=ClusterConfig(num_nodes=params["nodes"]))
            .with_seed(11)
            .run(fs_workload(3, seed=11, config=FSWorkloadConfig(steps=25)),
                 flexible=True)
        )
        assert snap["result"]["trace_digest"] == trace_digest(result.trace)
        assert snap["result"]["trace_events"] == len(result.trace)
        trace_frames = [f for f in frames if f.get("event") == "trace"]
        assert len(trace_frames) == len(result.trace)

    def test_a_short_buffer_fails_the_job(self, server, monkeypatch):
        real = EventBridge.on_event
        skipped = []

        def drop_first(bridge, event):
            if not skipped:
                skipped.append(event)
                return
            real(bridge, event)

        monkeypatch.setattr(EventBridge, "on_event", drop_first)
        _, snap = submit_and_wait(
            server.port, {"workload": "fs", "num_jobs": 2, "seed": 3})
        assert snap["state"] == "FAILED"
        assert snap["error"].startswith("ServeError: event buffer holds")
