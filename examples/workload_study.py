#!/usr/bin/env python
"""Workload study: fixed vs flexible, the paper's Section IX in miniature.

Generates a 50-job workload mixing CG, Jacobi and N-body (one third
each), runs it twice on the 65-node production cluster — once rigid, once
malleable — and prints the paper's headline comparisons: execution time
(Fig. 10), waiting time (Fig. 11), the Table II measures and an ASCII
rendition of the Fig. 12 evolution charts.

Run:  python examples/workload_study.py [num_jobs]
"""

import sys

from repro.api import Session
from repro.cluster import marenostrum_production
from repro.metrics import format_evolution, format_table, gain_percent
from repro.runtime import RuntimeConfig
from repro.workload import realapp_workload


def main(num_jobs: int = 50) -> int:
    spec = realapp_workload(num_jobs, seed=2017)
    print(f"workload: {spec.name} ({num_jobs} jobs, CG/Jacobi/N-body mix)")

    session = (
        Session(cluster=marenostrum_production())
        .with_runtime(RuntimeConfig())
        .with_seed(2017)
    )
    pair = session.run_paired(spec)
    fixed, flex = pair.fixed.summary, pair.flexible.summary
    if fixed.avg_wait_time == 0:
        print(f"nothing queues at {num_jobs} jobs, so malleability has "
              "nothing to win; run more jobs")
        return 2
    # Malleability drains the workload sooner; only the flexible run resizes.
    assert flex.makespan < fixed.makespan, "the flexible rendition lost"
    assert fixed.resize_count == 0 < flex.resize_count

    print(
        format_table(
            ["measure", "fixed", "flexible", "gain (%)"],
            [
                ["workload execution time (s)", fixed.makespan, flex.makespan,
                 gain_percent(fixed.makespan, flex.makespan)],
                ["avg job waiting time (s)", fixed.avg_wait_time,
                 flex.avg_wait_time,
                 gain_percent(fixed.avg_wait_time, flex.avg_wait_time)],
                ["avg job execution time (s)", fixed.avg_execution_time,
                 flex.avg_execution_time,
                 gain_percent(fixed.avg_execution_time, flex.avg_execution_time)],
                ["avg job completion time (s)", fixed.avg_completion_time,
                 flex.avg_completion_time,
                 gain_percent(fixed.avg_completion_time, flex.avg_completion_time)],
                ["resource utilization (%)", 100 * fixed.utilization_rate,
                 100 * flex.utilization_rate, "-"],
                ["reconfigurations", fixed.resize_count, flex.resize_count, "-"],
            ],
            title="Fixed vs flexible (Table II measures)",
        )
    )

    for result in (pair.fixed, pair.flexible):
        label = "flexible" if result.flexible else "fixed"
        print(
            format_evolution(
                f"evolution ({label})",
                [
                    ("allocated nodes", result.allocation_series()),
                    ("running jobs", result.running_series()),
                    ("completed jobs", result.completed_series()),
                ],
                0.0,
                result.makespan,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 50))
