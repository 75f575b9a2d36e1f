"""`repro loadgen`'s event-stream parser: each read is parsed as a burst.

The line-at-a-time parser the client used before (one ``readline`` per
line) is kept here as the reference; the burst parser must give the
same frames for every way the server's bytes can be cut into reads.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.http import sse_frame, sse_frames
from repro.serve.loadgen import STREAM_DONE, LoadgenError, _read_frames

JOB = "w000001"


async def reference_frames(reader, job_id):
    """The line-at-a-time parse: one ``readline`` per line."""
    frames, frame = [], {}
    while True:
        raw = await reader.readline()
        if not raw:
            raise LoadgenError(f"stream for {job_id} ended without a done frame")
        line = raw.rstrip(b"\r\n").decode("utf-8")
        if line:
            name, _, value = line.partition(":")
            frame[name.strip()] = value.strip()
            continue
        if frame:
            frames.append(frame)
            if frame.get("event") == STREAM_DONE:
                return frames
            frame = {}


class Reads:
    """A reader whose successive ``read(n)`` calls return ``pieces``."""

    def __init__(self, pieces):
        self._pieces = list(pieces)

    async def read(self, n):
        if not self._pieces:
            return b""
        piece = self._pieces.pop(0)
        if len(piece) > n:
            self._pieces.insert(0, piece[n:])
            piece = piece[:n]
        return piece


def body_of(lines, crlf=False):
    """The bytes the server sends after the response head."""
    final = {"events": len(lines), "state": "COMPLETED"}
    body = sse_frames(lines, 0, "trace") + sse_frame(
        json.dumps(final, sort_keys=True), event="done")
    return body.replace(b"\n", b"\r\n") if crlf else body


def cut(body, offsets):
    """``body`` as the reads that end at each of ``offsets``."""
    bounds = [0, *sorted(set(offsets)), len(body)]
    return [body[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def fed(data):
    """A stream reader holding ``data`` and then EOF."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def parse(pieces):
    """(burst frames, reference frames) of a complete stream."""
    async def both():
        return (await _read_frames(Reads(pieces), JOB),
                await reference_frames(fed(b"".join(pieces)), JOB))

    return asyncio.run(both())


# Trace lines hold no CR or LF (``sse_frames`` refuses them); multi-byte
# characters, colons and spaces are all allowed.
_lines = st.lists(
    st.text(st.characters(blacklist_characters="\r\n",
                          blacklist_categories=("Cs",)), max_size=12),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(_lines, st.booleans(), st.data())
def test_burst_parse_equals_the_line_parse_for_every_split(lines, crlf, data):
    body = body_of(lines, crlf)
    offsets = data.draw(st.lists(st.integers(0, len(body)), max_size=12))
    burst, reference = parse(cut(body, offsets))
    assert burst == reference
    assert [frame.get("id") for frame in burst[:-1]] == [
        str(i) for i in range(len(lines))]
    assert burst[-1]["event"] == STREAM_DONE


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
def test_one_byte_reads_split_every_character_and_line_end(crlf):
    body = body_of(["0.0 job_submit 1 name=é→😀", "1.5 dmr_check 1 a=: b"],
                   crlf)
    pieces = [body[i:i + 1] for i in range(len(body))]
    burst, reference = parse(pieces)
    assert burst == reference == parse([body])[0]
    assert burst[0]["data"] == "0.0 job_submit 1 name=é→😀"


@settings(max_examples=100, deadline=None)
@given(_lines, st.booleans(), st.data())
def test_a_stream_cut_before_done_raises(lines, crlf, data):
    # Cuts inside a character included: the unfinished line is never
    # decoded (the line parser raised UnicodeDecodeError there).
    body = body_of(lines, crlf)
    end = data.draw(st.integers(0, len(body) - 1))
    offsets = data.draw(st.lists(st.integers(0, end), max_size=6))
    reader = Reads(cut(body[:end], offsets))
    with pytest.raises(LoadgenError, match="ended without a done frame"):
        asyncio.run(_read_frames(reader, JOB))
