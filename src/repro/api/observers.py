"""Live observation of a running :class:`~repro.api.session.Session`.

Observers attach to a session *before* execution and receive every trace
event the moment it is recorded, through one hook,
:meth:`SessionObserver.on_event`.  This is how the invariant harness and
the serve SSE stream hook into the simulation without the experiment
drivers knowing about them.  Series the paper plots
(allocated nodes, running and completed jobs) are derived from the trace
after the run (:mod:`repro.metrics.timeline`), so a run without session
observers installs no trace subscriber at all.

The event stream includes resizer bookkeeping (the Section V
expand-protocol helper jobs, whose ``JOB_SUBMIT`` carries
``resizer=True``) and allocation changes; an observer that wants only
workload jobs filters them itself.
"""

from __future__ import annotations

import logging
from typing import Dict, Tuple

from repro.metrics.trace import TraceEvent
from repro.obs.registry import default_registry

logger = logging.getLogger(__name__)


def observer_error_counter():
    """The process-wide suppressed-observer-error counter family.

    Get-or-create on the default registry, so the family (and its
    ``# TYPE`` header in the Prometheus exposition) exists the moment
    this module is imported — operators can alert on a metric that is
    present-and-zero rather than absent.
    """
    return default_registry().counter(
        "repro_observer_errors_total",
        "Suppressed exceptions raised by non-strict session observers.",
        labels=("observer",),
    )


# Materialize the family eagerly (see docstring above).
observer_error_counter()


class SessionObserver:
    """Base class for session observers; every hook defaults to a no-op.

    Observers are *passengers* of the simulation: by default
    (``strict = False``) an exception escaping any hook is caught,
    logged and counted by the dispatching
    :class:`ObserverDispatch` instead of aborting the run — a
    disconnecting SSE subscriber or a buggy progress callback must not
    kill a simulation other consumers are still watching.  Observers
    whose exceptions *are* the product — the invariant harness in
    :mod:`repro.testing` — set ``strict = True`` and keep the old
    fail-the-run behaviour.
    """

    #: When True, exceptions raised by this observer's hooks propagate
    #: out of the simulation; when False they are caught, logged and
    #: counted on the dispatch (``ObserverDispatch.observer_errors``).
    strict = False

    def on_attach(self, controller) -> None:
        """Called once when the observer is wired to a live simulation.

        Gives state-checking observers (e.g. the invariant harness in
        :mod:`repro.testing`) access to the controller and machine for
        ground-truth comparisons; purely event-driven observers ignore it.
        ``controller`` is None when the events come from a backend's
        accounting records rather than an in-process controller.
        """

    def on_event(self, event: TraceEvent) -> None:
        """Every trace event, in order, as it is recorded."""


class ObserverDispatch:
    """Feeds trace events to a set of observers (one instance per run).

    Installed by the session as a live trace subscriber; calls each
    observer's :meth:`~SessionObserver.on_event` in attachment order.

    Non-strict observers (the default) are *isolated*: an exception
    escaping one of their hooks is caught, logged and tallied in
    :attr:`observer_errors` instead of aborting the simulation, and the
    remaining observers still receive the event.  Strict observers
    (``observer.strict = True``, e.g. the invariant harness) propagate.
    """

    def __init__(self, controller, observers: Tuple[SessionObserver, ...]) -> None:
        self._observers = observers
        #: Per-observer-class tally of suppressed callback exceptions.
        self.observer_errors: Dict[str, int] = {}
        for obs in observers:
            try:
                obs.on_attach(controller)
            except Exception:
                if obs.strict:
                    raise
                self._suppressed(obs, "on_attach")

    def _suppressed(self, obs: SessionObserver, hook: str) -> None:
        """Count, log and register the exception being handled, raised
        by a non-strict observer's ``hook``."""
        name = type(obs).__name__
        self.observer_errors[name] = self.observer_errors.get(name, 0) + 1
        # Mirror the tally into the process-wide registry so the serve
        # ``/metrics`` exposition (and any other scrape) sees suppressed
        # observer failures without holding a reference to this dispatch.
        observer_error_counter().inc(observer=name)
        logger.exception(
            "observer %s raised in %s; suppressed (observer is non-strict)",
            name,
            hook,
        )

    @property
    def suppressed_errors(self) -> int:
        """Total number of observer exceptions caught so far."""
        return sum(self.observer_errors.values())

    def __call__(self, event: TraceEvent) -> None:
        # Runs once per trace record: each call stays inline.
        for obs in self._observers:
            try:
                obs.on_event(event)
            except Exception:
                if obs.strict:
                    raise
                self._suppressed(obs, "on_event")
