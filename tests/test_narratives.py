"""The paper's qualitative narratives, validated programmatically.

Beyond the headline numbers, the paper *describes* how the system
behaves.  These tests check those descriptions hold in the reproduction's
traces — they are the closest thing to reading the original evolution
charts.
"""

import pytest

from repro.api import Session
from repro.cluster import marenostrum_production
from repro.core import DecisionReason
from repro.metrics import EventKind
from repro.runtime import RuntimeConfig
from repro.workload import realapp_workload


@pytest.fixture(scope="module")
def flexible_run():
    """One 30-job Section IX flexible execution, shared by the tests."""
    session = Session(cluster=marenostrum_production(), runtime=RuntimeConfig())
    return session.run(realapp_workload(30, seed=2017), flexible=True)


def test_jobs_launched_at_maximum(flexible_run):
    """'The job submission of each application is launched with its
    "maximum" value' (Section IX-A)."""
    for job in flexible_run.jobs:
        app = job.payload
        assert job.submitted_nodes == app.resize.max_procs


def test_jobs_scaled_down_as_soon_as_possible(flexible_run):
    """'In the flexible configuration, they are scaled-down as soon as
    possible' (Section IX-B): with a non-empty queue, the first serviced
    check after start shrinks the job toward its preferred size."""
    shrink_events = flexible_run.trace.of_kind(EventKind.RESIZE_SHRINK)
    assert shrink_events, "no shrink happened at all"
    jobs_by_id = {j.job_id: j for j in flexible_run.jobs}
    # Most jobs that resized at all shrank to their preferred size.
    reached_preferred = 0
    resized_jobs = [j for j in flexible_run.jobs if j.resizes]
    for job in resized_jobs:
        preferred = job.payload.resize.preferred
        if any(new == preferred for _, _, new in job.resizes):
            reached_preferred += 1
    assert reached_preferred >= 0.7 * len(resized_jobs)


def test_nbody_runs_at_single_process(flexible_run):
    """N-body's sweet spot is one process (Section IX-A): its jobs are
    shrunk from 16 to 1."""
    nbody_jobs = [j for j in flexible_run.jobs if j.name.startswith("nbody")]
    assert nbody_jobs
    shrunk_to_one = [j for j in nbody_jobs if any(n == 1 for _, _, n in j.resizes)]
    assert len(shrunk_to_one) >= 0.6 * len(nbody_jobs)


def test_green_peaks_then_scale_down(flexible_run):
    """'The allocated nodes are 64 (the green peaks in the chart);
    however, as the job prefers 8 processes, it will be scaled-down'
    (Section IX-B): allocation spikes at starts, then drops."""
    alloc = flexible_run.allocation_series()
    peak = max(alloc.values)
    avg = alloc.average(0.0, flexible_run.makespan)
    assert peak >= 60  # starts at maximum sizes push near the 65 nodes
    assert avg < 0.8 * peak  # but the steady state sits far below


def test_completion_dominated_by_waiting_in_fixed():
    """'This [waiting] time is responsible for the reduction in the
    workload execution time' (Section IX-B): fixed jobs wait far longer
    than they run."""
    session = Session(cluster=marenostrum_production(), runtime=RuntimeConfig())
    fixed = session.run(realapp_workload(30, seed=2017), flexible=False)
    s = fixed.summary
    assert s.avg_wait_time > 2 * s.avg_execution_time


def test_tail_expansion_when_queue_empties(flexible_run):
    """Once nothing is pending, survivors expand ('the expansion can be
    granted up to a specified maximum')."""
    expands = [
        e
        for e in flexible_run.trace.of_kind(EventKind.RESIZE_DECISION)
        if e["action"] == "expand"
        and e["reason"] == DecisionReason.ALONE_IN_SYSTEM.value
    ]
    assert expands, "no empty-queue expansion was ever granted"
    # At least some happen late in the run (the drain phase); early ones
    # can also occur during arrival lulls.
    last_submit = max(j.submit_time for j in flexible_run.jobs)
    assert any(e.time > last_submit for e in expands)
