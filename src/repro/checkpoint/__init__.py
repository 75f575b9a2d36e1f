"""Checkpoint/restart reconfiguration baseline (the Fig. 1 comparator)."""

from repro.checkpoint.cr import (
    CheckpointRestart,
    DMRReconfiguration,
    ReconfigurationCost,
    spawning_factor,
)

__all__ = [
    "CheckpointRestart",
    "DMRReconfiguration",
    "ReconfigurationCost",
    "spawning_factor",
]
