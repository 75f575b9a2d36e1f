"""Spill-to-disk trace streaming.

:class:`StreamingTraceWriter` consumes trace events the moment they are
recorded and appends their canonical rendering
(:func:`repro.metrics.trace.canonical_line`, through the writer's own
:class:`~repro.metrics.trace.LineRenderer`) to a file on disk, keeping
a running SHA-256 of the stream.  Combined with ``Trace(retain=False)``
this makes trace memory flat: a million-job replay spills gigabytes of
events to disk while the process holds none of them.

The digest is computed over exactly the text
:func:`repro.metrics.trace.trace_digest` hashes for an in-memory trace
(lines joined by ``"\\n"``), so a spilled stream and a retained trace of
the same run are interchangeable for golden-trace verification — the
suite in tests/slurm/test_golden_traces.py relies on this equivalence.

Crash safety: :meth:`StreamingTraceWriter.close` appends an end-of-stream
footer carrying the event count and digest.  :func:`read_trace_lines`
refuses a file whose footer is missing (crash mid-spill), or whose body
disagrees with it — a truncated spill can never be mistaken for a
complete trace.
"""

from __future__ import annotations

import hashlib
import os
from typing import IO, List, Optional, Tuple

from repro.errors import TraceStreamError
from repro.metrics.trace import LineRenderer, Trace, TraceEvent

#: Footer marker; ``#`` can never start a canonical event line (those
#: begin with a float repr) so the footer is unambiguous.
FOOTER_PREFIX = "# repro-trace-end "
#: Comment prefix for section markers interleaved into a stream.
COMMENT_PREFIX = "# "


class StreamingTraceWriter:
    """Streams canonical trace lines to disk with a running digest.

    Use as a trace subscriber (``trace.subscribe(writer)``), as a
    session observer (``Session().observe(writer)``: it has the
    :class:`~repro.api.observers.SessionObserver` hooks), or call it
    directly with :class:`TraceEvent` instances.  Always :meth:`close`
    (or use as a context manager) — the footer written there is what
    marks the spill as complete.
    """

    #: A failed write is logged and counted by the session's observer
    #: dispatch instead of aborting the run (SessionObserver semantics).
    strict = False

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fh: Optional[IO[str]] = open(self.path, "w", encoding="utf-8")
        self._sha = hashlib.sha256()
        self._count = 0
        self._line = LineRenderer().line

    # -- sink interfaces ---------------------------------------------------
    def __call__(self, event: TraceEvent) -> None:
        self.write_line(self._line(event.row))

    def on_attach(self, controller) -> None:
        """SessionObserver hook; the writer needs no controller."""

    def on_event(self, event: TraceEvent) -> None:
        """SessionObserver hook: spill the event."""
        self(event)

    def attach(self, trace: Trace) -> "StreamingTraceWriter":
        """Subscribe to ``trace``; returns self for chaining."""
        trace.subscribe(self)
        return self

    def write_comment(self, text: str) -> None:
        """Interleave a section marker (digested like a regular line)."""
        self.write_line(COMMENT_PREFIX + text)

    def write_line(self, line: str) -> None:
        if self._fh is None:
            raise TraceStreamError(f"{self.path}: writer already closed")
        if self._count:
            self._sha.update(b"\n")
        self._sha.update(line.encode("utf-8"))
        self._fh.write(line + "\n")
        self._count += 1

    # -- state -------------------------------------------------------------
    @property
    def events(self) -> int:
        """Lines spilled so far (events plus comments)."""
        return self._count

    @property
    def digest(self) -> str:
        """SHA-256 of the stream so far (matches :func:`trace_digest`)."""
        return self._sha.hexdigest()

    def close(self) -> None:
        """Write the end-of-stream footer and close the file."""
        if self._fh is None:
            return
        self._fh.write(f"{FOOTER_PREFIX}events={self._count} sha256={self.digest}\n")
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "StreamingTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace_lines(path: str) -> List[str]:
    """Read a spilled trace back; raises on a truncated or corrupt file.

    Returns the canonical lines (comments included, footer stripped).
    """
    lines, footer = _read_validated(path)
    return lines


def stream_digest(path: str) -> str:
    """Digest of a spilled trace (validating the footer first)."""
    _lines, footer = _read_validated(path)
    return footer[1]


def _read_validated(path: str) -> Tuple[List[str], Tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    if not raw.endswith("\n"):
        raise TraceStreamError(
            f"{path}: no trailing newline — writer died mid-line"
        )
    lines = raw[:-1].split("\n") if raw != "\n" else [""]
    if not lines or not lines[-1].startswith(FOOTER_PREFIX):
        raise TraceStreamError(
            f"{path}: missing end-of-stream footer — the writer was never "
            "closed (crash mid-spill?); refusing the partial trace"
        )
    footer_line = lines.pop()
    try:
        fields = dict(
            part.split("=", 1)
            for part in footer_line[len(FOOTER_PREFIX):].split()
        )
        expected_count = int(fields["events"])
        expected_digest = fields["sha256"]
    except (KeyError, ValueError) as exc:
        raise TraceStreamError(f"{path}: malformed footer {footer_line!r}") from exc
    if len(lines) != expected_count:
        raise TraceStreamError(
            f"{path}: footer promises {expected_count} lines, found "
            f"{len(lines)} — truncated spill"
        )
    sha = hashlib.sha256("\n".join(lines).encode("utf-8"))
    if sha.hexdigest() != expected_digest:
        raise TraceStreamError(f"{path}: stream digest mismatch — corrupt spill")
    return lines, (expected_count, expected_digest)
