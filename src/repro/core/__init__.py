"""The paper's primary contribution: the DMR API and its protocol types."""

from repro.core.actions import (
    DecisionReason,
    ResizeAction,
    ResizeDecision,
    ResizeRequest,
)
from repro.core.dmr import INHIBITED, DMRSession
from repro.core.inhibitor import CheckInhibitor

__all__ = [
    "CheckInhibitor",
    "DMRSession",
    "DecisionReason",
    "INHIBITED",
    "ResizeAction",
    "ResizeDecision",
    "ResizeRequest",
]
