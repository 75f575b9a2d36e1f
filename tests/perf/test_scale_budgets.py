"""Scale budgets: the simulator must *stay* the fast path.

Pins throughput (events/sec), scheduler work (comparisons-per-pass) and
memory (peak RSS) at bench scale, so a regression in the engine calendar,
the incremental queue or the trace layer fails loudly in CI instead of
silently re-inflating ``repro bench sched``.

Budget philosophy: the numbers are *floors with large headroom*, not the
measured values — dev hardware does ~66k events/sec and ~0.85
comparisons per pass at these sizes; the budgets admit a ~4x slower CI
box but not an algorithmic regression (the resort-per-pass oracle in
``repro.testing`` blows the comparison budget by ~70x).

The million-job run is ``slow`` (minutes): opt in with ``--run-slow`` or
``REPRO_RUN_SLOW=1``.
"""

from __future__ import annotations

import pytest

from repro.sweep.bench import SCHED_LEAN_MIN, replay_sched_trace
from repro.workload.generator import sched_trace

SEED = 2017

#: Conservative floor: dev hardware sustains ~66k events/sec.
MIN_EVENTS_PER_SEC = 15_000
#: The incremental queue computes ~2 keys/job over ~2.4 passes/job
#: (≈0.85 comparisons/pass); the resort-per-pass oracle re-keys the
#: whole queue every pass (hundreds per pass at these sizes).
MAX_COMPARISONS_PER_PASS = 1.5
#: Peak-RSS ceilings in MiB (interpreter + numpy baseline is ~45 MiB;
#: ru_maxrss is a process-lifetime high-water mark, so these also bound
#: every smaller replay that ran before them in the same process).
MAX_RSS_MB = {5_000: 300.0, 20_000: 500.0, 1_000_000: 4_096.0}


def _budget_checks(stats, size):
    assert stats["events_per_sec"] >= MIN_EVENTS_PER_SEC, (
        f"{size}-job replay slowed to {stats['events_per_sec']:.0f} "
        f"events/sec (budget {MIN_EVENTS_PER_SEC})"
    )
    assert stats["comparisons_per_pass"] <= MAX_COMPARISONS_PER_PASS, (
        f"{size}-job replay does {stats['comparisons_per_pass']:.2f} "
        f"comparisons/pass (budget {MAX_COMPARISONS_PER_PASS}) — is the "
        "incremental queue re-keying per pass again?"
    )
    assert stats["peak_rss_mb"] <= MAX_RSS_MB[size], (
        f"peak RSS {stats['peak_rss_mb']:.0f} MiB after the {size}-job "
        f"replay (budget {MAX_RSS_MB[size]:.0f} MiB)"
    )


@pytest.mark.parametrize("size", [5_000, 20_000])
def test_replay_budgets(size):
    trace = sched_trace(size, seed=SEED)
    stats = replay_sched_trace(trace, incremental=True)
    assert stats["jobs"] == size
    _budget_checks(stats, size)


@pytest.mark.slow
def test_million_job_replay_budgets():
    size = 1_000_000
    assert size >= SCHED_LEAN_MIN  # must take the flat-memory path
    trace = sched_trace(size, seed=SEED)
    stats = replay_sched_trace(trace, incremental=True, lean=True)
    assert stats["jobs"] == size
    assert stats["lean"] is True
    assert stats["jobs_started"] == size
    _budget_checks(stats, size)
