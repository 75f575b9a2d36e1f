"""What a reconfiguring point must keep: events, trace and ``DMR_CHECK``s.

``NanosRuntime._reconfiguring_point`` services one DMR call as a plain
method; the run loop blocks on the round trip it returns and performs the
resize it returns.  The event counts and trace digests below were taken
from the generator-based reconfiguring point it replaced, on a small
flexible FS workload with a node failure (a forced shrink) and a
slowdown window.  A change here moves perfbench's ``dmr_fs`` pins too.
"""

import inspect

import pytest

from repro.api import Session
from repro.cluster.configs import marenostrum_preliminary
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.metrics import EventKind
from repro.metrics.trace import trace_digest
from repro.runtime import RuntimeConfig
from repro.runtime.nanos import NanosRuntime

PLAN = FaultPlan.scripted([
    FaultEvent(time=60.0, kind=FaultKind.SLOWDOWN, node=5, factor=2.0,
               duration=50.0),
    FaultEvent(time=80.0, kind=FaultKind.NODE_FAIL, node=3),
    FaultEvent(time=240.0, kind=FaultKind.NODE_RECOVER, node=3),
])

#: mode -> (runtime config, events processed, trace digest).  With a free
#: round trip each serviced synchronous check still blocks on a zero-delay
#: timeout: that costs events, not time.
PINS = {
    "sync, free round trip": (
        RuntimeConfig(check_cost=0.0), 1913,
        "031bdf63087b1ed2b44dae78c8f4ff4573f077492ca08ef4caf3a5e34c12abc7",
    ),
    "sync": (
        RuntimeConfig(check_cost=0.15), 1872,
        "3c876f75845540d4c7b9da313e172816b76cc7e2ec1f61bd85c84bdce809ee8f",
    ),
    "async": (
        RuntimeConfig(async_mode=True), 1187,
        "a78b6bb0585fc0b652c88173b1d84810edb68214d1f06a823b40ab6de7ca6c67",
    ),
}

_runs = {}


def run_mode(mode):
    """(events processed, trace) of the pinned workload in ``mode``."""
    if mode not in _runs:
        session = (
            Session(cluster=marenostrum_preliminary())
            .with_seed(2017)
            .with_runtime(PINS[mode][0])
            .with_faults(PLAN)
        )
        run = session.submit(session.fs_workload(30), flexible=True)
        result = run.execute()
        _runs[mode] = (run.sim.env.events_processed, result.trace)
    return _runs[mode]


def test_reconfiguring_point_is_a_plain_method():
    assert not inspect.isgeneratorfunction(NanosRuntime._reconfiguring_point)


@pytest.mark.parametrize("mode", PINS)
def test_events_and_trace_are_pinned(mode):
    events, trace = run_mode(mode)
    _, pinned_events, pinned_digest = PINS[mode]
    assert events == pinned_events
    assert trace_digest(trace) == pinned_digest


@pytest.mark.parametrize("mode", PINS)
def test_dmr_check_fields(mode):
    _, trace = run_mode(mode)
    config = PINS[mode][0]
    checks = trace.of_kind(EventKind.DMR_CHECK)
    forced = [e for e in checks if e.data.get("forced")]
    assert len(forced) == 1
    assert forced[0]["applied"] == "shrink"
    assert not forced[0]["blocking"]
    regular = [e for e in checks if not e.data.get("forced")]
    assert {e["blocking"] for e in regular} == {not config.async_mode}
    applied = {e["applied"] for e in regular}
    assert applied == {None, "expand", "shrink"}
    if config.async_mode:
        return
    # A synchronous check applies the decision recorded just before it.
    events = list(trace)
    for i, event in enumerate(events):
        if event.kind is not EventKind.DMR_CHECK or event.data.get("forced"):
            continue
        decision = events[i - 1]
        assert decision.kind is EventKind.RESIZE_DECISION
        assert (decision.job_id, decision.time) == (event.job_id, event.time)
        action = decision["action"]
        assert event["applied"] == (None if action == "no_action" else action)

