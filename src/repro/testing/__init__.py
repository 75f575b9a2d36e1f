"""``repro.testing`` — the invariant / property-test harness.

* :class:`InvariantObserver` — a session observer asserting the
  simulator's global invariants (no double allocation, allocation
  conservation, no job started on a DOWN node, monotonic event time,
  decision/ack pairing) on every trace event; violations raise
  :class:`~repro.errors.InvariantViolation` at the breaking event.
* :func:`run_bounded` — ``env.run`` with an event budget, so a wedged
  process fails the test instead of hanging CI.
* :class:`ResortController` — the resort-per-pass scheduler, kept as the
  oracle the production controller's sorted indexes are diffed against.
* :mod:`repro.testing.pytest_plugin` — loaded from the repo's root
  conftest; wires an InvariantObserver into every ``Session.build`` of
  the suite (opt out with ``@pytest.mark.no_invariants``).
"""

from repro.errors import InvariantViolation
from repro.testing.bounded import DEFAULT_MAX_EVENTS, WedgedSimulation, run_bounded
from repro.testing.invariants import InvariantObserver
from repro.testing.oracle import ResortController

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "InvariantObserver",
    "InvariantViolation",
    "ResortController",
    "WedgedSimulation",
    "run_bounded",
]
