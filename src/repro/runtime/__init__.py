"""Nanos++ runtime substrate: job execution, DMR calls, redistribution."""

from repro.runtime.nanos import NanosRuntime, RuntimeConfig, install_runtime_launcher
from repro.runtime.offload import OFFLOAD_TAG, OffloadRegion, receive_offload
from repro.runtime.redistribution import (
    RedistributionPlan,
    Transfer,
    plan_block_remap,
    plan_expand,
    plan_for_resize,
    plan_migrate,
    plan_shrink,
)

__all__ = [
    "NanosRuntime",
    "OFFLOAD_TAG",
    "OffloadRegion",
    "RedistributionPlan",
    "RuntimeConfig",
    "Transfer",
    "install_runtime_launcher",
    "receive_offload",
    "plan_block_remap",
    "plan_expand",
    "plan_for_resize",
    "plan_migrate",
    "plan_shrink",
]
