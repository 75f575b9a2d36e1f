"""The paper's primary contribution: the DMR API and its protocol types."""

from repro.core.actions import (
    DecisionReason,
    ResizeAction,
    ResizeDecision,
    ResizeRequest,
)
from repro.core.dmr import INHIBITED, DMRSession
from repro.core.handler import OffloadHandler
from repro.core.inhibitor import CheckInhibitor

__all__ = [
    "CheckInhibitor",
    "DMRSession",
    "DecisionReason",
    "INHIBITED",
    "OffloadHandler",
    "ResizeAction",
    "ResizeDecision",
    "ResizeRequest",
]
