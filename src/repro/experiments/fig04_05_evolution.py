"""Figs. 4 & 5 — evolution in time of the 10-job and 25-job FS workloads.

The paper's evolution charts plot allocated nodes, running jobs and
completed jobs against time for the fixed and flexible renditions.  The
10-job flexible workload reaches almost-full allocation (explaining its
outsized gain); the 25-job one exposes the last-job effect that narrows
the benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api import PairedComparison, Session, artifact, default_seed
from repro.cluster.configs import ClusterConfig, marenostrum_preliminary
from repro.metrics.report import format_evolution
from repro.runtime.nanos import RuntimeConfig
from repro.workload.generator import FSWorkloadConfig, fs_workload


@dataclass
class EvolutionResult:
    """Paired evolution data for one workload size."""

    num_jobs: int
    pair: PairedComparison

    def as_text(self, width: int = 64) -> str:
        out = []
        for result in (self.pair.fixed, self.pair.flexible):
            label = "flexible" if result.flexible else "fixed"
            t1 = result.makespan
            out.append(
                format_evolution(
                    f"{self.num_jobs}-job workload ({label})",
                    [
                        ("allocated nodes", result.allocation_series()),
                        ("running jobs", result.running_series()),
                        ("completed jobs", result.completed_series()),
                    ],
                    0.0,
                    t1,
                    width=width,
                )
            )
        return "\n".join(out)

    @property
    def flexible_avg_allocation(self) -> float:
        r = self.pair.flexible
        return r.allocation_series().average(0.0, r.makespan)

    @property
    def fixed_avg_allocation(self) -> float:
        r = self.pair.fixed
        return r.allocation_series().average(0.0, r.makespan)


def run_evolution(
    num_jobs: int,
    seed: int = 2017,
    cluster: Optional[ClusterConfig] = None,
    fs_config: Optional[FSWorkloadConfig] = None,
    async_mode: bool = False,
    session: Optional[Session] = None,
) -> EvolutionResult:
    """Run one paired workload and keep its full traces.

    The evolution series are derived from each rendition's trace
    (:meth:`~repro.api.WorkloadResult.allocation_series` and siblings).
    """
    session = (
        (session or Session())
        .with_cluster(cluster or marenostrum_preliminary())
        .with_runtime(RuntimeConfig(async_mode=async_mode))
        .with_seed(seed)
    )
    spec = fs_workload(num_jobs, seed=seed, config=fs_config or FSWorkloadConfig())
    return EvolutionResult(num_jobs=num_jobs, pair=session.run_paired(spec))


def run_fig04(seed: int = 2017) -> EvolutionResult:
    """Fig. 4: the 10-job workload."""
    return run_evolution(10, seed=seed)


def run_fig05(seed: int = 2017) -> EvolutionResult:
    """Fig. 5: the 25-job workload."""
    return run_evolution(25, seed=seed)


@artifact("fig4", description="Evolution in time of the 10-job FS workload")
def _fig4_artifact(seed: Optional[int] = None) -> EvolutionResult:
    return run_fig04(seed=default_seed(seed))


@artifact("fig5", description="Evolution in time of the 25-job FS workload")
def _fig5_artifact(seed: Optional[int] = None) -> EvolutionResult:
    return run_fig05(seed=default_seed(seed))


if __name__ == "__main__":  # pragma: no cover
    print(run_fig04().as_text())
    print(run_fig05().as_text())
