"""Event primitives for the discrete-event simulation kernel.

The design follows the classic process-interaction style (as popularized by
SimPy): an :class:`Event` is a one-shot occurrence that carries a value or an
exception, and callbacks fire when the event is processed by the engine.
Processes (see :mod:`repro.sim.process`) are generators that ``yield`` events
to wait on them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

#: Sentinel for "event has not been triggered yet".
PENDING = object()

#: Scheduling priorities; lower sorts earlier within the same timestamp.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    An event goes through three phases: *pending* (just created),
    *triggered* (scheduled with a value at some simulation time), and
    *processed* (its callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event once it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event carries a value rather than an exception."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event payload (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.  If nothing waits on it, the engine raises it at the top
        level (unless :meth:`defuse` was called).
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the outcome of another event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.defused_fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine will not crash."""
        self._defused = True

    def defused_fail(self, exception: BaseException) -> "Event":
        """Fail the event but pre-defuse it (used by condition plumbing)."""
        self.fail(exception)
        self._defused = True
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Event.__init__ inlined: a timeout is born triggered.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._push(env._now + delay, NORMAL, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay}>"


class ConditionValue:
    """Mapping-like result of a condition: events → values, in firing order."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a boolean combination of other events.

    ``evaluate`` receives ``(events, count_of_fired)`` and returns True once
    the condition is satisfied.  Use the :meth:`all_of` / :meth:`any_of`
    evaluators, or the :class:`AllOf` / :class:`AnyOf` conveniences.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        # Immediately satisfied (e.g. empty AllOf)?
        if self._evaluate(self._events, 0):
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _build_value(self) -> ConditionValue:
        value = ConditionValue()
        for event in self._events:
            if event.callbacks is None and event._value is not PENDING:
                value.events.append(event)
        return value

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # already triggered
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(PENDING)  # placeholder; patched below

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        if value is PENDING:
            value = None  # will be rebuilt when processed
        # Build the condition value lazily at trigger time so that all
        # already-processed child events are included.
        if value is None:
            value = self._build_value()
        return super().succeed(value, priority=priority)

    @staticmethod
    def all_of(events: List[Event], count: int) -> bool:
        """Satisfied once every event has fired."""
        return len(events) == count

    @staticmethod
    def any_of(events: List[Event], count: int) -> bool:
        """Satisfied once at least one event has fired (or there are none)."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition satisfied when *all* of the given events have fired."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_of, events)


class AnyOf(Condition):
    """Condition satisfied when *any* of the given events has fired."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_of, events)
