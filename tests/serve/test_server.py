"""Integration tests for the `repro serve` HTTP service.

Each test boots a real :class:`ServerThread` on an ephemeral port and
talks to it over actual sockets — the same path `repro loadgen` and CI
exercise, minus the subprocess.
"""

import asyncio
import gc
import json
import socket
import threading
import time
import weakref
from types import SimpleNamespace

import pytest

from repro.metrics.trace import text_digest
from repro.obs.registry import parse_prometheus
from repro.serve import ServerThread
from repro.serve.app import validate_sweep, validate_workload
from repro.serve.jobs import JobManager
from repro.serve.loadgen import request, stream_events
from repro.store import ResultStore

HOST = "127.0.0.1"
DEADLINE = 60.0


def http(port, method, path, payload=None):
    return asyncio.run(request(HOST, port, method, path, payload))


def stream(port, job_id):
    return asyncio.run(stream_events(HOST, port, job_id))


def raw_http(port, data: bytes) -> bytes:
    """Fire raw bytes at the server and collect the whole response."""
    with socket.create_connection((HOST, port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def wait_terminal(port, job_id):
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        status, snap = http(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if snap["state"] in ("COMPLETED", "FAILED", "CANCELLED"):
            return snap
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {DEADLINE}s")


@pytest.fixture()
def server():
    thread = ServerThread(workers=2).start()
    yield thread
    thread.stop()


class TestBasics:
    def test_health_and_metrics(self, server):
        status, health = http(server.port, "GET", "/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["state"] == "serving"

        status, body = http(server.port, "GET", "/metrics")
        assert status == 200
        samples, _ = parse_prometheus(body["raw"])
        route = '{route="GET /health"}'
        # the /health above
        assert samples[f"repro_http_requests_total{route}"] >= 1
        assert samples[f"repro_http_request_duration_seconds_count{route}"] >= 1
        assert samples["repro_serve_peak_running_jobs"] == 0

    def test_unknown_endpoint_is_404(self, server):
        status, body = http(server.port, "GET", "/nope")
        assert status == 404
        assert "no such endpoint" in body["error"]

    def test_wrong_method_is_405(self, server):
        status, body = http(server.port, "DELETE", "/health")
        assert status == 405

    def test_unknown_job_is_404(self, server):
        status, _ = http(server.port, "GET", "/v1/jobs/w999999")
        assert status == 404


class TestMalformedRequests:
    def test_garbage_request_line_is_400(self, server):
        response = raw_http(server.port, b"NONSENSE\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_malformed_json_body_is_400(self, server):
        body = b"{not json"
        response = raw_http(
            server.port,
            b"POST /v1/workloads HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"malformed JSON" in response

    @pytest.mark.parametrize("payload,fragment", [
        ({"workload": "zz"}, "must be one of"),
        ({"workload": "fs", "bogus": 1}, "unknown field"),
        ({"workload": "fs", "num_jobs": 0}, "must be in"),
        ({"workload": "fs", "num_jobs": True}, "must be an integer"),
        ({"workload": "fs", "flexible": "yes"}, "must be a boolean"),
        ({"workload": "swf"}, "SWF log text"),
        # A field that is not a number, a fractional processor count and
        # a non-finite submit time are malformed SWF, not server errors.
        ({"workload": "swf", "swf": "x 0 -1 5 1 -1 -1 1 10 -1 1"},
         "malformed SWF number"),
        ({"workload": "swf", "swf": "1 0 -1 5 1 -1 -1 1.5 10 -1 1"},
         "malformed SWF number"),
        ({"workload": "swf", "swf": "1 inf -1 5 1 -1 -1 1 10 -1 1"},
         "non-finite time"),
    ])
    def test_validation_errors_are_400(self, server, payload, fragment):
        status, body = http(server.port, "POST", "/v1/workloads", payload)
        assert status == 400
        assert fragment in body["error"]

    def test_job_too_wide_for_cluster_is_400(self, server):
        status, body = http(
            server.port, "POST", "/v1/workloads",
            {"workload": "fs", "num_jobs": 4, "nodes": 1},
        )
        assert status == 400
        assert "cannot run" in body["error"]


class TestWorkloadLifecycle:
    def test_submit_stream_replay_and_digest(self, server):
        status, body = http(
            server.port, "POST", "/v1/workloads",
            {"workload": "fs", "num_jobs": 3, "seed": 11},
        )
        assert status == 202
        assert body["state"] in ("PENDING", "RUNNING", "COMPLETED")
        job_id = body["id"]
        assert body["events_url"] == f"/v1/jobs/{job_id}/events"

        frames = stream(server.port, job_id)
        done = frames[-1]
        assert done["event"] == "done"
        final = json.loads(done["data"])
        assert final["state"] == "COMPLETED"
        trace_lines = [f["data"] for f in frames if f.get("event") == "trace"]
        assert len(trace_lines) == final["events"]
        # SSE ids number the stream 0..n-1
        ids = [int(f["id"]) for f in frames if "id" in f]
        assert ids == list(range(len(trace_lines)))

        snap = wait_terminal(server.port, job_id)
        assert snap["state"] == "COMPLETED"
        assert snap["events"] == len(trace_lines)
        assert server.server.manager.status()["by_state"] == {"COMPLETED": 1}
        # Acceptance: the streamed events ARE the retained trace.
        assert (text_digest("\n".join(trace_lines))
                == snap["result"]["trace_digest"])

        # A late subscriber to the finished job replays the same stream.
        replay = stream(server.port, job_id)
        assert [f["data"] for f in replay] == [f["data"] for f in frames]

    def test_sse_response_headers(self, server):
        _, body = http(server.port, "POST", "/v1/workloads",
                       {"workload": "fs", "num_jobs": 2})
        response = raw_http(
            server.port,
            f"GET /v1/jobs/{body['id']}/events HTTP/1.1\r\n\r\n"
            .encode("ascii"),
        )
        head = response.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Type: text/event-stream" in head
        assert b"event: done" in response

    def test_concurrent_submits_and_streams_lose_nothing(self, server):
        async def one(i):
            status, body = await request(
                HOST, server.port, "POST", "/v1/workloads",
                {"workload": "fs", "num_jobs": 3, "seed": 100 + i},
            )
            assert status == 202
            frames = await stream_events(HOST, server.port, body["id"])
            return body["id"], frames

        async def drive():
            return await asyncio.gather(*(one(i) for i in range(4)))

        for job_id, frames in asyncio.run(drive()):
            assert frames[-1]["event"] == "done"  # every stream terminated
            traces = [f for f in frames if f.get("event") == "trace"]
            snap = wait_terminal(server.port, job_id)
            assert snap["state"] == "COMPLETED"
            assert len(traces) == snap["events"]  # no event lost

        _, listing = http(server.port, "GET", "/v1/jobs")
        assert len(listing["jobs"]) == 4

    def test_failed_job_reports_error_and_stream_terminates(self, server):
        # Inject a job whose worker body must blow up (no workload spec):
        # the failure surfaces as FAILED + error, never a hung stream.
        manager = server.server.manager
        job = manager.submit_workload(
            {"workload": "fs", "num_jobs": 1, "seed": 1,
             "flexible": True, "nodes": 20},
            workload_spec=None,
        )
        snap = wait_terminal(server.port, job.id)
        assert snap["state"] == "FAILED"
        assert snap["error"]

        frames = stream(server.port, job.id)
        final = json.loads(frames[-1]["data"])
        assert final["state"] == "FAILED"
        assert final["error"]

    def test_events_for_sweep_job_is_400(self, server):
        status, body = http(
            server.port, "POST", "/v1/sweeps",
            {"workloads": ["fs"], "num_jobs": [2], "seeds": 1},
        )
        assert status == 202
        job_id = body["id"]
        response = raw_http(
            server.port,
            f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n\r\n".encode(),
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        wait_terminal(server.port, job_id)


class TestBackpressure:
    def test_queue_full_is_429(self):
        thread = ServerThread(workers=1, queue_limit=1).start()
        try:
            release = threading.Event()
            started = threading.Event()

            def occupy():
                started.set()
                release.wait(DEADLINE)

            # Pin the only worker so submissions stay PENDING.
            thread.server.manager._executor.submit(occupy)
            assert started.wait(DEADLINE)

            status, first = http(
                thread.port, "POST", "/v1/workloads",
                {"workload": "fs", "num_jobs": 2},
            )
            assert status == 202

            status, body = http(
                thread.port, "POST", "/v1/workloads",
                {"workload": "fs", "num_jobs": 2},
            )
            assert status == 429
            assert "queue is full" in body["error"]

            release.set()
            snap = wait_terminal(thread.port, first["id"])
            assert snap["state"] == "COMPLETED"
        finally:
            release.set()
            thread.stop()

    def test_drain_refuses_then_resume_accepts(self, server):
        status, body = http(server.port, "POST", "/v1/admin/drain")
        assert status == 200
        assert body["state"] == "draining"

        status, body = http(server.port, "POST", "/v1/workloads",
                            {"workload": "fs", "num_jobs": 1})
        assert status == 503
        assert "draining" in body["error"]

        _, health = http(server.port, "GET", "/health")
        assert health["state"] == "draining"

        status, body = http(server.port, "POST", "/v1/admin/resume")
        assert status == 200
        assert body["state"] == "serving"
        status, _ = http(server.port, "POST", "/v1/workloads",
                         {"workload": "fs", "num_jobs": 1})
        assert status == 202

    def test_drain_finishes_inflight_sweep(self, server):
        """A drain never orphans background work (acceptance criterion)."""
        status, body = http(
            server.port, "POST", "/v1/sweeps",
            {"workloads": ["fs"], "num_jobs": [2], "seeds": 2},
        )
        assert status == 202
        job_id = body["id"]
        status, _ = http(server.port, "POST", "/v1/admin/drain")
        assert status == 200

        snap = wait_terminal(server.port, job_id)
        assert snap["state"] == "COMPLETED"
        assert snap["progress"] == {"done": 2, "total": 2}
        assert snap["result"]["cells"] == 2

        _, health = http(server.port, "GET", "/health")
        assert health["active"] == 0  # quiescent: nothing orphaned


class TestFinishedJobs:
    @pytest.mark.parametrize("kind", ["workload", "sweep"])
    def test_a_finished_job_frees_its_input(self, kind):
        manager = JobManager(SimpleNamespace(call_soon_threadsafe=lambda *a: None),
                             workers=1)
        if kind == "workload":
            params, spec = validate_workload(
                {"workload": "fs", "num_jobs": 2, "seed": 3})
            job = manager.submit_workload(params, spec)
        else:
            params, spec = validate_sweep(
                {"workloads": ["fs"], "num_jobs": [2], "seeds": 1}, None)
            job = manager.submit_sweep(params, spec)
        submitted = weakref.ref(spec)
        del spec
        manager.shutdown(wait=True)  # the worker has returned
        assert job.state.name == "COMPLETED", job.error
        gc.collect()
        assert submitted() is None


class TestSweeps:
    def test_sweep_runs_and_reports_aggregate(self, server):
        status, body = http(
            server.port, "POST", "/v1/sweeps",
            {"workloads": ["fs"], "num_jobs": [2], "seeds": 2,
             "base_seed": 3},
        )
        assert status == 202
        snap = wait_terminal(server.port, body["id"])
        assert snap["state"] == "COMPLETED"
        assert snap["result"]["cells"] == 2
        assert "aggregate_csv" in snap["result"]

    @pytest.mark.parametrize("payload,fragment", [
        ({"workloads": ["zz"], "num_jobs": [2]}, "unknown workloads"),
        ({"workloads": ["fs"]}, "num_jobs"),
        ({"workloads": ["fs"], "num_jobs": [2], "policies": ["zz"]},
         "unknown policies"),
        ({"artifacts": ["nope"]}, "unknown artifacts"),
        ({"workloads": ["fs"], "num_jobs": "2"}, "list of integers"),
    ])
    def test_sweep_validation_errors(self, server, payload, fragment):
        status, body = http(server.port, "POST", "/v1/sweeps", payload)
        assert status == 400
        assert fragment in body["error"]


class TestLoadgen:
    def test_loadgen_cli_end_to_end(self, server, tmp_path):
        """`repro loadgen --quick --check` against a live server."""
        from repro.cli import main

        out = tmp_path / "bench.json"
        rc = main(["loadgen", "--port", str(server.port),
                   "--quick", "--check", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["client"]["jobs_completed"] == 4
        assert report["client"]["requests_per_s"] > 0
        assert report["client"]["events_streamed"] > 0
        for phase in ("submit_ms", "stream_ms", "status_ms"):
            stats = report["client"][phase]
            assert stats["n"] == 4
            assert 0 <= stats["min"] <= stats["median"] <= stats["max"]
            # Four samples back no tail quantile.
            assert "p90" not in stats and "p99" not in stats
        assert report["drain"]["refused_with_503"]
        assert report["drain"]["drained_clean"]
        scraped = report["server"]
        assert scraped['repro_http_requests_total{route="POST /v1/workloads"}'] >= 4
        assert scraped["repro_serve_peak_running_jobs"] >= 1
        # the drain check resumes, leaving the server serving
        _, health = http(server.port, "GET", "/health")
        assert health["state"] == "serving"

    def test_check_report_flags_failures(self):
        from repro.serve.loadgen import check_report

        bad = {
            "config": {"requests": 2},
            "client": {"requests_per_s": 0.0, "jobs_failed": 1,
                       "jobs_completed": 1, "events_streamed": 0},
            "drain": {"refused_with_503": False,
                      "submit_during_drain_status": 202,
                      "drained_clean": False, "active_after_drain": 3},
        }
        failures = check_report(bad)
        assert len(failures) == 6


class TestArtifacts:
    def test_listing_without_store(self, server):
        status, body = http(server.port, "GET", "/v1/artifacts")
        assert status == 200
        assert body["store"] is None

    def test_listing_and_render_with_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        thread = ServerThread(workers=1, store=store).start()
        try:
            status, body = http(thread.port, "GET", "/v1/artifacts")
            assert status == 200
            assert body["records"] == []
            assert body["stats"]["puts"] == 0

            status, _ = http(thread.port, "GET", "/v1/artifacts/nope")
            assert status == 404
            status, _ = http(thread.port, "GET", "/v1/artifacts/fig1?form=x")
            assert status == 400

            response = raw_http(
                thread.port, b"GET /v1/artifacts/fig1 HTTP/1.1\r\n\r\n"
            )
            head, _, text = response.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert b"Content-Type: text/plain" in head
            assert text  # the rendered figure

            # The render was persisted: the store now has records, via
            # the same listing the CLI's `cache ls --json` prints.
            status, body = http(thread.port, "GET", "/v1/artifacts")
            assert status == 200
            assert body["records"]
        finally:
            thread.stop()
