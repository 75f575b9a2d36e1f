"""Serve-side telemetry: Prometheus exposition and the telemetry route."""

import asyncio
import socket
import time

import pytest

from repro.obs.registry import MetricsRegistry, parse_prometheus
from repro.serve import ServerThread
from repro.serve.loadgen import request

HOST = "127.0.0.1"
DEADLINE = 60.0


def http(port, method, path, payload=None):
    return asyncio.run(request(HOST, port, method, path, payload))


def scrape(port, accept=None) -> str:
    """GET /metrics, with no Accept header unless one is given."""
    header = f"Accept: {accept}\r\n" if accept else ""
    with socket.create_connection((HOST, port), timeout=30) as sock:
        sock.sendall(
            f"GET /metrics HTTP/1.1\r\nHost: {HOST}:{port}\r\n{header}"
            f"Connection: close\r\n\r\n".encode("ascii")
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks).decode("utf-8")
    head, _, body = response.partition("\r\n\r\n")
    assert " 200 " in head.splitlines()[0]
    assert "text/plain; version=0.0.4" in head
    return body


def http_samples(samples, family):
    """One family's samples from a parsed scrape, keyed by their labels."""
    prefix = family + "{"
    return {name[len(prefix):-1]: value for name, value in samples.items()
            if name.startswith(prefix)}


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


class TestPrometheusExposition:
    def test_scrape_parses_and_has_core_families(self, server):
        http(server.port, "GET", "/health")
        samples, types = parse_prometheus(scrape(server.port))
        assert types["repro_http_requests_total"] == "counter"
        assert types["repro_http_request_duration_seconds"] == "histogram"
        assert types["repro_observer_errors_total"] == "counter"
        assert types["repro_serve_uptime_seconds"] == "gauge"
        assert samples['repro_http_requests_total{route="GET /health"}'] >= 1
        assert any(
            name.startswith("repro_http_request_duration_seconds_bucket{")
            for name in samples
        )
        assert samples["repro_serve_uptime_seconds"] >= 0

    def test_scrape_reflects_job_lifecycle(self, server):
        fifo = 'repro_sched_ops_total{op="fifo_passes"}'
        before, _ = parse_prometheus(scrape(server.port))
        status, body = http(
            server.port, "POST", "/v1/workloads",
            {"workload": "fs", "num_jobs": 2, "seed": 5},
        )
        assert status == 202
        wait_terminal(server.port, body["id"])
        samples, _ = parse_prometheus(scrape(server.port))
        assert samples["repro_serve_submissions_total"] >= 1
        assert samples['repro_serve_jobs{state="COMPLETED"}'] >= 1
        # The served run published its own scheduler tallies; the
        # registry is process-wide, so only the delta proves it.
        assert samples[fifo] > before.get(fifo, 0)

    def test_json_accept_gets_prometheus_text(self, server):
        http(server.port, "GET", "/health")
        samples, _ = parse_prometheus(scrape(server.port, "application/json"))
        assert samples['repro_http_requests_total{route="GET /health"}'] >= 1

    def test_unmatched_requests_share_one_label_per_status(self):
        registry = MetricsRegistry()
        thread = ServerThread(workers=1, metrics_registry=registry).start()

        async def probe():
            for i in range(100):
                status, _ = await request(HOST, thread.port, "GET", f"/x/{i}")
                assert status == 404
            for i in range(10):
                status, _ = await request(HOST, thread.port, f"M{i}", "/health")
                assert status == 405

        try:
            asyncio.run(probe())
            # A request is counted before its response is written, so a
            # scrape after the last response already sees every request.
            samples, _ = parse_prometheus(scrape(thread.port))
        finally:
            thread.stop()
        assert http_samples(samples, "repro_http_requests_total") == {
            'route="unmatched 404"': 100, 'route="unmatched 405"': 10}
        assert http_samples(
            samples, "repro_http_request_duration_seconds_count"
        ) == {'route="unmatched 404"': 100, 'route="unmatched 405"': 10}

    def test_a_connection_that_sends_nothing_is_not_counted(self):
        thread = ServerThread(
            workers=1, metrics_registry=MetricsRegistry()
        ).start()
        try:
            for _ in range(3):  # a TCP health check: connect, then close
                socket.create_connection((HOST, thread.port), timeout=30).close()
            assert http(thread.port, "GET", "/health")[0] == 200
            samples, _ = parse_prometheus(scrape(thread.port))
        finally:
            thread.stop()
        assert http_samples(samples, "repro_http_requests_total") == {
            'route="GET /health"': 1}
        assert http_samples(samples, "repro_http_responses_total") == {
            'status="200"': 1}

    def test_a_stopped_server_leaves_no_collector(self):
        completed = 'repro_serve_jobs{state="COMPLETED"}'
        registry = MetricsRegistry()
        first = ServerThread(workers=1, metrics_registry=registry).start()
        try:
            status, body = http(first.port, "POST", "/v1/workloads",
                                {"workload": "fs", "num_jobs": 2, "seed": 5})
            assert status == 202
            wait_terminal(first.port, body["id"])
            assert parse_prometheus(scrape(first.port))[0][completed] == 1
        finally:
            first.stop()
        assert registry._collectors == []

        second = ServerThread(workers=1, metrics_registry=registry).start()
        try:
            samples, _ = parse_prometheus(scrape(second.port))
            assert len(registry._collectors) == 1
        finally:
            second.stop()
        # The first server's COMPLETED job is not the second's to report.
        assert samples[completed] == 0
        assert samples["repro_serve_submissions_total"] == 0


class TestTelemetryRoute:
    def test_workload_job_exposes_spans(self, server):
        status, body = http(
            server.port, "POST", "/v1/workloads",
            {"workload": "fs", "num_jobs": 2, "seed": 7},
        )
        assert status == 202
        job_id = body["id"]
        wait_terminal(server.port, job_id)
        status, payload = http(
            server.port, "GET", f"/v1/jobs/{job_id}/telemetry"
        )
        assert status == 200
        assert payload["correlation_id"] == job_id
        assert payload["recorded"] == len(payload["spans"]) > 0
        names = {span["name"] for span in payload["spans"]}
        assert "sched.pass" in names
        assert all(span["cid"] == job_id for span in payload["spans"])

    def test_sweep_job_exposes_cell_spans(self, server):
        status, body = http(
            server.port, "POST", "/v1/sweeps",
            {"workloads": ["fs"], "num_jobs": [2], "seeds": 1,
             "base_seed": 3},
        )
        assert status == 202
        job_id = body["id"]
        wait_terminal(server.port, job_id)
        status, payload = http(
            server.port, "GET", f"/v1/jobs/{job_id}/telemetry"
        )
        assert status == 200
        names = {span["name"] for span in payload["spans"]}
        assert "sweep.cell" in names
        cids = {span["cid"] for span in payload["spans"]}
        assert cids == {f"{job_id}/0"}

    def test_unknown_job_is_404(self, server):
        status, _ = http(server.port, "GET", "/v1/jobs/zz9/telemetry")
        assert status == 404
