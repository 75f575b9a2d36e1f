"""Minimal stdlib HTTP/1.1 plumbing for :mod:`repro.serve`.

The service speaks plain HTTP/1.1 over :mod:`asyncio` streams — no
framework, no dependency.  This module owns the wire format only:
request parsing (with hard limits on request-line, header and body
sizes), response framing, and server-sent-event (SSE) encoding.  Routing
and semantics live in :mod:`repro.serve.app`.

Connections are one-shot: every response carries ``Connection: close``
and the server closes after writing it.  That keeps the framing code
trivially correct (no pipelining, no keep-alive timers) at the price of
a TCP handshake per request — which the loadgen benchmark deliberately
includes in its latencies, since that is what a real client pays too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import ServeError

#: Hard limits; requests beyond them are rejected, not buffered.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 2 * 1024 * 1024

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(ServeError):
    """A request that cannot be served; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The body parsed as a JSON object (400 on anything else)."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


async def _read_line(reader, limit: int, what: str) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except Exception as exc:  # IncompleteReadError, LimitOverrunError
        if isinstance(exc, (ConnectionError, TimeoutError)):
            raise
        raise HttpError(400, f"malformed {what}") from exc
    if len(line) > limit:
        raise HttpError(400, f"{what} too long")
    return line.rstrip(b"\r\n")


async def read_request(reader) -> Optional[Request]:
    """Parse one request from the stream; None on a clean EOF.

    Raises :class:`HttpError` on anything malformed or over-limit; the
    caller turns that into a 400/413 response.
    """
    try:
        raw = await reader.readline()
    except (ConnectionError, TimeoutError):
        return None
    if not raw:
        return None  # client closed without sending anything
    if len(raw) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = raw.rstrip(b"\r\n").split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method_b, target_b, version_b = parts
    if version_b not in (b"HTTP/1.1", b"HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol {version_b.decode('latin-1')!r}")
    try:
        method = method_b.decode("ascii")
        target = target_b.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HttpError(400, "non-ascii request line") from exc

    headers: Dict[str, str] = {}
    seen = 0
    while True:
        line = await _read_line(reader, MAX_HEADER_BYTES, "header")
        if not line:
            break
        seen += len(line)
        if seen > MAX_HEADER_BYTES:
            raise HttpError(400, "headers too large")
        name, sep, value = line.partition(b":")
        if not sep:
            raise HttpError(400, "malformed header line")
        try:
            headers[name.decode("ascii").strip().lower()] = (
                value.decode("latin-1").strip()
            )
        except UnicodeDecodeError as exc:
            raise HttpError(400, "non-ascii header name") from exc

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked transfer encoding is not supported")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "malformed Content-Length") from exc
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except Exception as exc:
            raise HttpError(400, "body shorter than Content-Length") from exc

    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return Request(
        method=method,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """Frame a complete (non-streaming) HTTP/1.1 response."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def json_response(status: int, payload: object) -> bytes:
    """Frame a JSON response (the service's lingua franca)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return response_bytes(status, body)


def error_response(status: int, message: str) -> bytes:
    return json_response(status, {"error": message, "status": status})


# -- server-sent events -------------------------------------------------------

SSE_HEADER = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-cache\r\n"
    b"Connection: close\r\n\r\n"
)


def sse_frame(data: str, event: Optional[str] = None,
              event_id: Optional[int] = None) -> bytes:
    """Encode one server-sent event.

    ``data`` must be newline-free (trace canonical lines are); multi-line
    payloads would need one ``data:`` field per line, which this service
    never emits.
    """
    if "\n" in data or "\r" in data:
        raise ServeError("SSE data must be a single line")
    parts = []
    if event_id is not None:
        parts.append(f"id: {event_id}")
    if event is not None:
        parts.append(f"event: {event}")
    parts.append(f"data: {data}")
    return ("\n".join(parts) + "\n\n").encode("utf-8")


def sse_frames(lines: List[str], first_id: int, event: str) -> bytes:
    """Encode a burst of events with ids ``first_id``, ``first_id + 1``, ...

    The same bytes as one :func:`sse_frame` per line, joined, built as
    one buffer so a burst costs one write.
    """
    for data in lines:
        if "\n" in data or "\r" in data:
            raise ServeError("SSE data must be a single line")
    return "".join(
        f"id: {event_id}\nevent: {event}\ndata: {data}\n\n"
        for event_id, data in enumerate(lines, first_id)
    ).encode("utf-8")
