"""Fig. 1 — N-body non-solving stages: C/R vs the DMR API.

The paper resizes a 48-process N-body simulation to 12, 24 and 48
processes and compares the cost of the non-solving stages under a
checkpoint/restart mechanism against the DMR API.  The headline result is
the "spawning" factor labels: C/R spawning is 31.4x / 63.75x / 77x more
expensive for 48-12 / 48-24 / 48-48 because it round-trips the state
through the shared filesystem and relaunches the job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.api import artifact
from repro.checkpoint.cr import (
    CheckpointRestart,
    DMRReconfiguration,
    ReconfigurationCost,
    spawning_factor,
)
from repro.cluster.configs import ClusterConfig, marenostrum_production
from repro.cluster.network import GiB
from repro.metrics.report import format_table

#: The paper's initial process count and resize targets.
FIG1_INITIAL_PROCS = 48
FIG1_TARGETS = (12, 24, 48)

#: N-body state for the Fig. 1 runs. The paper does not report the problem
#: size; we use a multi-GiB particle set so that redistribution (not only
#: spawn) contributes to the DMR cost, as in the original measurement.
FIG1_STATE_BYTES = 8.0 * GiB


@dataclass(frozen=True)
class Fig01Row:
    """One resize target of Fig. 1."""

    initial_procs: int
    target_procs: int
    cr: ReconfigurationCost
    dmr: ReconfigurationCost

    @property
    def factor(self) -> float:
        """The bar label: C/R spawning cost over DMR spawning cost."""
        return spawning_factor(self.cr, self.dmr)


@dataclass
class Fig01Result:
    rows: List[Fig01Row]
    state_bytes: float

    def as_table(self) -> str:
        return format_table(
            ["procs (init-resized)", "C/R spawning (s)", "DMR spawning (s)", "factor"],
            [
                [
                    f"{r.initial_procs}-{r.target_procs}",
                    r.cr.total,
                    r.dmr.total,
                    f"{r.factor:.1f}x",
                ]
                for r in self.rows
            ],
            title="Fig. 1: N-body non-solving (spawning) stages, C/R vs DMR API",
        )

    def as_csv(self) -> str:
        from repro.metrics.report import format_csv

        return format_csv(
            ["initial_procs", "target_procs", "cr_s", "dmr_s", "factor"],
            [
                [r.initial_procs, r.target_procs, r.cr.total, r.dmr.total, r.factor]
                for r in self.rows
            ],
        )


def run_fig01(
    cluster: ClusterConfig | None = None,
    state_bytes: float = FIG1_STATE_BYTES,
    initial_procs: int = FIG1_INITIAL_PROCS,
    targets: Tuple[int, ...] = FIG1_TARGETS,
) -> Fig01Result:
    """Compute the Fig. 1 comparison."""
    cluster = cluster or marenostrum_production()
    cr = CheckpointRestart(cluster)
    dmr = DMRReconfiguration(cluster)
    rows = [
        Fig01Row(
            initial_procs=initial_procs,
            target_procs=target,
            cr=cr.reconfigure(state_bytes, initial_procs, target),
            dmr=dmr.reconfigure(state_bytes, initial_procs, target),
        )
        for target in targets
    ]
    return Fig01Result(rows=rows, state_bytes=state_bytes)


@artifact("fig1", csv=True,
          description="C/R vs DMR non-solving (spawning) stages")
def _fig1_artifact(seed: Optional[int] = None) -> Fig01Result:
    # Fully analytic (cost models only) — the seed does not apply.
    return run_fig01()


if __name__ == "__main__":  # pragma: no cover
    print(run_fig01().as_table())
