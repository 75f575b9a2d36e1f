"""Tests for the DMR session (sync/async decision hand-off)."""

from repro.core import (
    INHIBITED,
    DMRSession,
    DecisionReason,
    ResizeAction,
    ResizeDecision,
)


def expand(target):
    return ResizeDecision(
        ResizeAction.EXPAND, target, DecisionReason.EXPAND_IDLE_RESOURCES
    )


def shrink(target):
    return ResizeDecision(
        ResizeAction.SHRINK, target, DecisionReason.SHRINK_FOR_PENDING
    )


def no_action():
    return ResizeDecision.no_action(4, DecisionReason.NO_RESOURCES)


class TestSynchronous:
    def test_returns_fresh_decision_blocking(self):
        s = DMRSession()
        decision = expand(8)
        # The answer is the RMS's decision itself: nothing is wrapped.
        assert s.check(0.0, lambda: decision) is decision
        assert s.check(1.0, expand, 16).target_procs == 16
        assert s.blocking

    def test_inhibited_calls_skip_decide(self):
        s = DMRSession(sched_period=10.0)
        calls = []
        out = s.check(5.0, lambda: calls.append(1) or expand(8))
        assert out is INHIBITED
        assert calls == []

    def test_inhibitor_window(self):
        s = DMRSession(sched_period=10.0)
        assert s.check(10.0, expand, 8).target_procs == 8
        assert s.check(15.0, expand, 8) is INHIBITED
        assert s.check(20.0, expand, 8).target_procs == 8


class TestAsynchronous:
    def test_first_call_applies_nothing(self):
        s = DMRSession(async_mode=True)
        assert s.check(0.0, expand, 8) is None
        assert not s.blocking
        # The negotiated decision is what the next call applies.
        assert s.check(1.0, no_action).target_procs == 8

    def test_second_call_applies_previous_decision(self):
        s = DMRSession(async_mode=True)
        s.check(0.0, expand, 8)
        out = s.check(1.0, shrink, 2)
        # Applies the step-0 decision even though conditions changed.
        assert out.action is ResizeAction.EXPAND
        assert out.target_procs == 8
        assert s.check(2.0, no_action).action is ResizeAction.SHRINK

    def test_no_action_decisions_are_dropped(self):
        s = DMRSession(async_mode=True)
        s.check(0.0, no_action)
        assert s.check(1.0, expand, 8) is None  # NO_ACTION never "applied"
        # Synchronous answers drop it too.
        assert DMRSession().check(0.0, no_action) is None

    def test_async_never_blocks(self):
        s = DMRSession(async_mode=True)
        assert not s.blocking
        # Every call answers at once with the previous step's decision.
        answers = [s.check(t, expand, 8 * (t + 1)) for t in (0, 1, 2)]
        assert answers[0] is None
        assert [a.target_procs for a in answers[1:]] == [8, 16]

    def test_async_respects_inhibitor(self):
        s = DMRSession(sched_period=10.0, async_mode=True)
        s.check(10.0, expand, 8)
        assert s.check(12.0, expand, 16) is INHIBITED
        # The pending decision survives an inhibited call.
        assert s.check(20.0, no_action).target_procs == 8
