"""Differential Hypothesis tests: ``Environment`` vs a stable-sort reference.

The engine keeps one heap of ``(time, priority, serial, event)`` entries.
Its one obligation is the event order: earlier time first, then lower
priority value, then insertion (FIFO) order.  The reference below keeps
the pending events in a plain list and takes the first entry of a
*stable* sort on ``(time, priority)``, so FIFO ties come from the sort's
stability rather than from any serial.  The tests drive a real
``Environment`` (``schedule``, ``timeout``, ``step``, ``peek`` and
``run``) and the reference with the same operation sequences, heavy on
timestamp ties, urgent-after-normal insertions and events scheduled at
``now`` while the engine drains, and require the same processed order,
clock and event count at every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EmptySchedule, Environment, Event

#: URGENT, NORMAL and the controller's scheduling-pass priority.
PRIORITIES = st.sampled_from([0, 1, 10])
#: Few distinct delays, zero included: dense same-timestamp ties.
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])

#: An operation on both sides.
OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, PRIORITIES),
    st.tuples(st.just("timeout"), DELAYS),
    st.just(("step",)),
    st.just(("peek",)),
    st.tuples(st.just("run_until"), DELAYS),
)


class Reference:
    """Pending events in a list; the next one is the head of a stable
    sort on ``(time, priority)``."""

    def __init__(self) -> None:
        self.now = 0.0
        self.pending = []
        self.processed = 0

    def push(self, time, priority, label) -> None:
        self.pending.append((time, priority, label))

    def pop(self):
        self.pending.sort(key=lambda entry: (entry[0], entry[1]))
        time, _, label = self.pending.pop(0)
        self.now = time
        self.processed += 1
        return label

    def peek(self) -> float:
        return min((entry[0] for entry in self.pending), default=float("inf"))


class Engine:
    """One ``Environment`` whose events log their labels when processed."""

    def __init__(self) -> None:
        self.env = Environment()
        self.fired = []
        self.labels = 0

    def _label(self, event: Event) -> int:
        label = self.labels
        self.labels += 1
        event.callbacks.append(lambda _e, label=label: self.fired.append(label))
        return label

    def schedule(self, delay, priority, then=None) -> int:
        event = Event(self.env)
        event._value = None
        label = self._label(event)
        if then is not None:
            event.callbacks.append(then)
        self.env.schedule(event, priority=priority, delay=delay)
        return label

    def timeout(self, delay) -> int:
        return self._label(self.env.timeout(delay))


def _apply(op, engine: Engine, ref: Reference) -> None:
    env = engine.env
    kind = op[0]
    if kind == "schedule":
        _, delay, priority = op
        ref.push(ref.now + delay, priority, engine.schedule(delay, priority))
    elif kind == "timeout":
        _, delay = op
        ref.push(ref.now + delay, 1, engine.timeout(delay))
    elif kind == "step":
        if ref.pending:
            env.step()
            assert engine.fired[-1] == ref.pop()
        else:
            with pytest.raises(EmptySchedule):
                env.step()
    elif kind == "peek":
        assert env.peek() == ref.peek()
    else:
        _, delay = op
        at = env.now + delay
        # run(until=at) schedules a NORMAL stop timeout at now + (at - now)
        # and processes everything ordered before it, the stop included.
        stop = object()
        ref.push(ref.now + (at - ref.now), 1, stop)
        before = len(engine.fired)
        env.run(until=at)
        expected = []
        while True:
            label = ref.pop()
            if label is stop:
                break
            expected.append(label)
        assert engine.fired[before:] == expected
    assert env.now == ref.now
    assert env.events_processed == ref.processed


@settings(max_examples=200)
@given(ops=st.lists(OPS, max_size=80))
def test_environment_matches_stable_sort_reference(ops):
    engine, ref = Engine(), Reference()
    for op in ops:
        _apply(op, engine, ref)
    # Drain whatever is left: the full residual order must match too.
    before = len(engine.fired)
    engine.env.run()
    expected = []
    while ref.pending:
        expected.append(ref.pop())
    assert engine.fired[before:] == expected
    assert engine.env.now == ref.now
    assert engine.env.events_processed == ref.processed
    assert engine.env.peek() == float("inf")


@settings(max_examples=100)
@given(
    pushes=st.lists(st.tuples(DELAYS, PRIORITIES), min_size=1, max_size=40),
    extra_priority=PRIORITIES,
)
def test_push_during_drain_matches_reference(pushes, extra_priority):
    """Events scheduled *at the current time while run() drains it* (what
    a scheduling pass does constantly) keep the reference order."""
    engine, ref = Engine(), Reference()
    followers = {}

    def spawn(_event):
        label = engine.schedule(0.0, extra_priority)
        followers[len(followers)] = label

    for delay, priority in pushes:
        label = engine.schedule(delay, priority, then=spawn)
        ref.push(delay, priority, ("lead", label))
    engine.env.run()

    expected = []
    spawned = 0
    while ref.pending:
        label = ref.pop()
        if isinstance(label, tuple):
            expected.append(label[1])
            # The lead's callback re-enters the timestamp being drained.
            ref.push(ref.now, extra_priority, followers[spawned])
            spawned += 1
        else:
            expected.append(label)
    assert engine.fired == expected
    assert engine.env.now == ref.now
    assert engine.env.events_processed == ref.processed


def test_same_timestamp_fifo_ties():
    """FIFO within (time, priority); a later urgent event jumps ahead."""
    engine = Engine()
    for _ in range(3):
        engine.schedule(5.0, 1)
    urgent = engine.schedule(5.0, 0)
    engine.env.run()
    assert engine.fired == [urgent, 0, 1, 2]


def test_peek_time_never_stale():
    env = Environment()
    env.timeout(3.0)
    env.timeout(1.0)
    assert env.peek() == 1.0
    env.step()
    assert env.peek() == 3.0
    env.step()
    assert env.peek() == float("inf")
    assert env.events_processed == 2
