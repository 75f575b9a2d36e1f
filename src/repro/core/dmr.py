"""Scheduling-mode logic of the DMR API.

:class:`DMRSession` encapsulates the parts of ``dmr_check_status`` /
``dmr_icheck_status`` that are independent of the execution substrate:
the checking inhibitor and the synchronous/asynchronous decision hand-off.

*Synchronous* (``dmr_check_status``): the call blocks on a runtime<->RMS
round trip and the returned decision reflects the *current* system state.

*Asynchronous* (``dmr_icheck_status``): the call returns the decision that
was negotiated during the *previous* step and schedules a new negotiation
that overlaps with the upcoming step.  The applied decision may therefore
be stale — the inefficiency analysed in Section VIII-C / Fig. 6.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.core.actions import ResizeAction, ResizeDecision
from repro.core.inhibitor import CheckInhibitor


class _Inhibited:
    __slots__ = ()

    def __repr__(self) -> str:
        return "INHIBITED"


#: What :meth:`DMRSession.check` answers for a call the inhibitor swallowed.
INHIBITED = _Inhibited()


class DMRSession:
    """Per-job DMR call state (inhibitor + pending asynchronous decision)."""

    def __init__(
        self,
        sched_period: float = 0.0,
        async_mode: bool = False,
        start_time: float = 0.0,
    ) -> None:
        self.async_mode = async_mode
        self.inhibitor = CheckInhibitor(sched_period, start=start_time)
        self._pending: Optional[ResizeDecision] = None

    @property
    def blocking(self) -> bool:
        """Whether a serviced call blocks on the runtime<->RMS round trip."""
        return not self.async_mode

    def check(
        self, now: float, decide: Callable[..., ResizeDecision], *args
    ) -> Union[ResizeDecision, None, _Inhibited]:
        """Perform one DMR call at time ``now``.

        ``decide(*args)`` is invoked (at most once) to obtain the RMS
        decision based on the current system state.  Answers
        :data:`INHIBITED` when the inhibitor swallowed the call, else the
        decision to apply now: None when there is none (a NO_ACTION
        answer, or nothing negotiated yet in asynchronous mode).
        """
        if not self.inhibitor.try_acquire(now):
            return INHIBITED

        if not self.async_mode:
            decision = decide(*args)
            return None if decision.action is ResizeAction.NO_ACTION else decision

        # Asynchronous: apply what was negotiated last step, kick off the
        # next negotiation (overlapped with compute, hence non-blocking).
        to_apply, self._pending = self._pending, decide(*args)
        if to_apply is not None and to_apply.action is ResizeAction.NO_ACTION:
            return None
        return to_apply
