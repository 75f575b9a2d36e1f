"""Golden digests re-verified through the spill-to-disk streaming writer.

The golden suite (test_golden_traces.py) pins digests of *retained*
traces.  Million-job runs retain nothing — events go straight from
``Trace.record`` to a :class:`StreamingTraceWriter` — so these tests
prove the streaming path is digest-equivalent: the same headline
artifacts, spilled to disk line-by-line, must reproduce the committed
golden digests byte for byte, and a live run observed mid-flight must
spill exactly what the retained trace says happened.
"""

from __future__ import annotations

from repro.api import Session
from repro.metrics.stream import StreamingTraceWriter, read_trace_lines, stream_digest
from repro.metrics.trace import canonical_lines, text_digest

from tests.slurm.test_golden_traces import (
    FIG3_GOLDEN_COUNTS,
    GOLDEN_SEED,
    _load,
    fig3_golden_lines,
    table2_golden_lines,
)


def _spill_golden(tmp_path, name, lines_fn):
    """Replay a golden artifact's event stream through the writer."""
    path = tmp_path / f"{name}.spill"
    with StreamingTraceWriter(path) as writer:
        for line in lines_fn():
            if line.startswith("# "):
                writer.write_comment(line[2:])
            else:
                writer.write_line(line)
    return path


def test_fig3_golden_digest_via_stream(tmp_path):
    path = _spill_golden(tmp_path, "fig3", fig3_golden_lines)
    assert stream_digest(path) == _load("fig3")["digest"]
    assert len(read_trace_lines(path)) == _load("fig3")["events"]


def test_table2_golden_digest_via_stream(tmp_path):
    path = _spill_golden(tmp_path, "table2", table2_golden_lines)
    assert stream_digest(path) == _load("table2")["digest"]
    assert len(read_trace_lines(path)) == _load("table2")["events"]


def test_live_session_stream_matches_retained_trace(tmp_path):
    """A run observed mid-flight spills exactly the retained trace."""
    from repro.experiments.fig03_sync import run_fig03

    path = tmp_path / "live.spill"
    writer = StreamingTraceWriter(path)
    session = Session().with_seed(GOLDEN_SEED).observe(writer)
    result = run_fig03(
        job_counts=FIG3_GOLDEN_COUNTS[:1], seed=GOLDEN_SEED, session=session
    )
    writer.close()
    pair = result.rows[0].pair
    expected = canonical_lines(pair.fixed.trace) + canonical_lines(
        pair.flexible.trace
    )
    assert read_trace_lines(path) == expected
    # The digest of the spilled stream is exactly the digest of the
    # retained lines — streaming and retention are interchangeable.
    assert stream_digest(path) == text_digest("\n".join(expected))
