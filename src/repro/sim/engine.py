"""The discrete-event simulation engine.

:class:`Environment` owns the simulation clock and one binary heap of
pending events, each entry a ``(time, priority, serial, event)`` tuple
(the layout SimPy uses).  Events scheduled at the same timestamp are
processed in (priority, insertion order): the serial is a per-environment
push counter, so ties never reach the event itself and every simulation
is fully deterministic.  :meth:`Environment.run` drains the heap in one
local loop; :meth:`Environment.step` processes a single event for callers
that bound or interleave execution.

Everything above this module runs as generator-based processes on one
:class:`Environment`: each job's :class:`repro.runtime.nanos.NanosRuntime`
is a process whose reconfiguring points call into the DMR core
(:class:`repro.core.dmr.DMRSession`), the Slurm controller schedules its
passes as same-timestamp events at low priority (so all state changes at a
timestamp settle before a pass observes them), and the
:class:`repro.core.protocol.RMSChannel` handshake models each protocol
message as a timed event.  Determinism here is what makes the paper's
paired fixed-vs-flexible comparisons exactly reproducible: identical
workloads see identical event orders, so any makespan difference is
attributable to the resize decisions alone.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, NORMAL, Timeout
from repro.sim.process import Process


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Environment.run`."""


class Environment:
    """A deterministic discrete-event simulation environment."""

    __slots__ = ("_now", "_heap", "_serial", "_active_process")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: List[Tuple[float, int, int, Event]] = []
        #: Entries pushed so far; the next entry's serial.
        self._serial = 0
        self._active_process: Optional[Process] = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed so far (benchmark instrumentation).

        An event counts from the moment it leaves the heap, so this is
        the number of pushes minus the entries still pending.
        """
        return self._serial - len(self._heap)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Enqueue a triggered event ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._push(self._now + delay, priority, event)

    def _push(self, at: float, priority: int, event: Event) -> None:
        """Add ``event``'s heap entry at time ``at`` (no checks)."""
        serial = self._serial
        self._serial = serial + 1
        heappush(self._heap, (at, priority, serial, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process the next event, advancing the clock."""
        try:
            self._now, _, _, event = heappop(self._heap)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - double-processing guard
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure: crash the simulation loudly.
            raise event._value

    # -- running -------------------------------------------------------------
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the schedule drains), a number
        (run up to that simulation time), or an :class:`Event` (run until it
        is processed; its value is returned).
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
            else:
                at = float(until)
                if at < self._now:
                    raise SimulationError(
                        f"until={at} lies in the past (now={self._now})"
                    )
                stop = Timeout(self, at - self._now)

            def _halt(event: Event) -> None:
                raise StopSimulation(event)

            if stop.callbacks is None:
                return stop.value if stop.ok else None
            stop.callbacks.append(_halt)

        # The body of step(), inlined: one frame for the whole drain.
        heap = self._heap
        try:
            while heap:
                self._now, _, _, event = heappop(heap)
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:  # pragma: no cover - see step()
                    raise SimulationError(f"{event!r} processed twice")
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as marker:
            ev: Event = marker.args[0]
            if not ev.ok:
                raise ev.value
            return ev.value
        if stop is not None and not stop.triggered:
            raise SimulationError(
                "simulation ran out of events before the 'until' condition"
            )
        return None

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)
