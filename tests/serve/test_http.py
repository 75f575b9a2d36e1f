"""Unit tests for the HTTP/1.1 wire layer (:mod:`repro.serve.http`)."""

import asyncio
import json

import pytest

from repro.errors import ServeError
from repro.serve.http import (
    HttpError,
    MAX_BODY_BYTES,
    Request,
    SSE_HEADER,
    error_response,
    json_response,
    read_request,
    response_bytes,
    sse_frame,
    sse_frames,
)


def parse(data: bytes):
    """Run read_request over a pre-fed stream."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


def parse_error(data: bytes) -> HttpError:
    with pytest.raises(HttpError) as excinfo:
        parse(data)
    return excinfo.value


class TestRequestParsing:
    def test_simple_get(self):
        req = parse(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/health"
        assert req.headers["host"] == "x"
        assert req.body == b""

    def test_post_with_body_and_query(self):
        body = b'{"a": 1}'
        req = parse(
            b"POST /v1/x?seed=1&seed=2&form= HTTP/1.1\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        assert req.body == body
        # last value wins; blank values are kept
        assert req.query == {"seed": "2", "form": ""}

    def test_percent_decoded_path(self):
        req = parse(b"GET /v1/jobs/a%20b HTTP/1.1\r\n\r\n")
        assert req.path == "/v1/jobs/a b"

    def test_clean_eof_is_none(self):
        assert parse(b"") is None

    def test_malformed_request_line(self):
        assert parse_error(b"GARBAGE\r\n\r\n").status == 400

    def test_unsupported_protocol(self):
        assert parse_error(b"GET / HTTP/2\r\n\r\n").status == 400

    def test_chunked_rejected(self):
        err = parse_error(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        )
        assert err.status == 501

    def test_malformed_header_line(self):
        assert parse_error(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n").status == 400

    def test_bad_content_length(self):
        assert parse_error(
            b"POST / HTTP/1.1\r\nContent-Length: xyz\r\n\r\n"
        ).status == 400
        assert parse_error(
            b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        ).status == 400

    def test_oversized_body_is_413(self):
        err = parse_error(
            b"POST / HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n"
        )
        assert err.status == 413

    def test_body_shorter_than_content_length(self):
        err = parse_error(
            b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"
        )
        assert err.status == 400


class TestRequestJson:
    def test_valid_object(self):
        req = Request(method="POST", path="/", body=b'{"k": 1}')
        assert req.json() == {"k": 1}

    @pytest.mark.parametrize("body", [b"", b"{bad", b"[1, 2]", b'"str"'])
    def test_rejected_bodies_are_400(self, body):
        req = Request(method="POST", path="/", body=body)
        with pytest.raises(HttpError) as excinfo:
            req.json()
        assert excinfo.value.status == 400


class TestResponses:
    def test_framing(self):
        raw = response_bytes(200, b"hi", content_type="text/plain")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 2" in head
        assert b"Connection: close" in head
        assert b"Content-Type: text/plain" in head
        assert body == b"hi"

    def test_json_response_is_sorted_and_newline_terminated(self):
        raw = json_response(202, {"b": 1, "a": 2})
        body = raw.partition(b"\r\n\r\n")[2]
        assert body == b'{"a": 2, "b": 1}\n'
        assert raw.startswith(b"HTTP/1.1 202 Accepted")

    def test_error_response_payload(self):
        body = error_response(429, "slow down").partition(b"\r\n\r\n")[2]
        assert json.loads(body) == {"error": "slow down", "status": 429}


class TestSse:
    def test_header_declares_event_stream(self):
        assert b"Content-Type: text/event-stream" in SSE_HEADER
        assert SSE_HEADER.endswith(b"\r\n\r\n")

    def test_full_frame(self):
        frame = sse_frame("payload", event="trace", event_id=7)
        assert frame == b"id: 7\nevent: trace\ndata: payload\n\n"

    def test_data_only_frame(self):
        assert sse_frame("x") == b"data: x\n\n"

    def test_multiline_data_rejected(self):
        with pytest.raises(ServeError):
            sse_frame("two\nlines")
        with pytest.raises(ServeError):
            sse_frame("cr\rline")

    def test_burst_is_the_frames_joined(self):
        lines = ["a", "b b", "c=1"]
        assert sse_frames(lines, 5, "trace") == b"".join(
            sse_frame(line, event="trace", event_id=5 + i)
            for i, line in enumerate(lines))
        assert sse_frames([], 0, "trace") == b""

    def test_burst_with_a_multiline_data_rejected(self):
        with pytest.raises(ServeError):
            sse_frames(["ok", "two\nlines"], 0, "trace")
        with pytest.raises(ServeError):
            sse_frames(["cr\rline"], 0, "trace")
