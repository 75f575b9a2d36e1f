"""Scheduler-scale benchmarks: the ``repro bench sched`` hot path.

Replays a 2k-job synthetic Feitelson trace (and its SWF round trip)
through a bare controller and through the resort-per-pass oracle
(``repro.testing.oracle.ResortController``), timing the replay and
pinning the properties ``BENCH_sched.json`` advertises: identical
schedules, and an incremental hot path that does at least 5x less
comparison work than the oracle.
"""

from repro.sweep.bench import autosize_cluster, replay_sched_trace, speedup_of
from repro.workload.generator import sched_trace, sched_trace_via_swf

TRACE_JOBS = 2_000
SEED = 2017

_TRACE = sched_trace(TRACE_JOBS, seed=SEED)


def test_sched_replay_incremental(benchmark):
    """Time the incremental scheduler on the 2k-job trace."""
    result = benchmark.pedantic(
        lambda: replay_sched_trace(_TRACE, incremental=True),
        rounds=3,
        iterations=1,
    )
    assert result["jobs_started"] == TRACE_JOBS


def test_sched_replay_legacy(benchmark):
    """Time the resort-per-pass oracle on the same trace."""
    result = benchmark.pedantic(
        lambda: replay_sched_trace(_TRACE, incremental=False),
        rounds=3,
        iterations=1,
    )
    assert result["jobs_started"] == TRACE_JOBS


def test_modes_agree_and_incremental_wins():
    incremental = replay_sched_trace(_TRACE, incremental=True)
    legacy = replay_sched_trace(_TRACE, incremental=False)
    # The oracle ran: it keeps no pending index.
    assert legacy["heap_pushes"] == 0 < incremental["heap_pushes"]
    # Behaviour-preserving: same schedule, pass for pass.
    assert incremental["makespan_s"] == legacy["makespan_s"]
    assert incremental["jobs_started"] == legacy["jobs_started"]
    assert incremental["passes"] == legacy["passes"]
    assert incremental["sim_events"] == legacy["sim_events"]
    # The acceptance bar: >= 5x less comparison work (measured ratios on
    # this trace are >50x; 5x leaves headroom for workload drift).
    ratios = speedup_of(legacy, incremental)
    assert ratios["comparisons_ratio"] >= 5.0
    assert ratios["key_evals_ratio"] >= 5.0


def test_swf_roundtrip_trace_replays():
    swf_trace = sched_trace_via_swf(_TRACE)
    assert len(swf_trace) == TRACE_JOBS
    result = replay_sched_trace(swf_trace, incremental=True)
    assert result["jobs_started"] == TRACE_JOBS
    assert result["max_queue_depth"] > 0  # the trace really queues


def test_autosized_cluster_builds_queue_pressure():
    nodes = autosize_cluster(_TRACE)
    assert nodes >= max(t.nodes for t in _TRACE)
    stats = replay_sched_trace(_TRACE, num_nodes=nodes, incremental=True)
    # Sustained pressure: some pass examined a deep queue.
    assert stats["max_queue_depth"] >= 50
