"""Trace cost pins: a retained record is one small row the collector skips.

A trace keeps each record as a flat tuple of atoms
(:mod:`repro.metrics.trace`), so CPython's cyclic collector stops tracking
it at its first pass and it holds about 100 bytes.  Both properties are
pinned by count and by bytes, not by wall clock:

* after a 50-job flexible run and full collections, no retained row is
  tracked by the collector (an ``EventKind`` member, a dict or a list
  among a row's values keeps it tracked, and every full pass re-scans it);
* the bytes freed by dropping the rows of a 400-job flexible run, per
  record, stay at most :data:`MAX_BYTES_PER_RECORD`, measured with
  :mod:`tracemalloc`.  A slotted event object with a keyword dict per
  record reads about 270 B.

The runs are ``no_invariants``: the invariant observer would keep the
controller, and so the trace, alive past the measurement.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.api.session import Session
from repro.cluster.configs import marenostrum_preliminary

SEED = 2017
#: A row of the commonest forms is 72-96 B; add its time float (24 B)
#: when no other record shares it, a node tuple now and then, and one
#: slot of the trace's list.
MAX_BYTES_PER_RECORD = 140.0


def _flexible_run(jobs: int):
    session = Session(cluster=marenostrum_preliminary()).with_seed(SEED)
    return session.submit(session.fs_workload(jobs), flexible=True).execute()


@pytest.mark.no_invariants
def test_retained_rows_are_untracked_by_the_collector():
    trace = _flexible_run(50).trace
    # A collection may look at a row before the node tuple inside it,
    # which it untracks in the same pass (survivors are reordered), so
    # the last few rows need a second pass.  Rows that hold anything
    # the collector follows stay tracked however many passes run.
    gc.collect()
    gc.collect()
    rows = list(trace.rows())
    assert len(rows) == len(trace) > 1_000
    tracked = [row for row in rows if gc.is_tracked(row)]
    assert tracked == []


@pytest.mark.no_invariants
def test_rows_cost_at_most_140_bytes_per_record():
    gc.collect()
    tracemalloc.start()
    try:
        result = _flexible_run(400)
        trace, jobs = result.trace, result.jobs
        del result
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        records = len(trace)
        del trace
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(jobs) == 400 and records > 20_000
    per_record = freed / records
    assert per_record <= MAX_BYTES_PER_RECORD, (
        f"{per_record:.0f} B per record over {records} records"
    )
