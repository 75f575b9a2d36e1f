#!/usr/bin/env python
"""Replay a cluster log through the malleability machinery.

Round-trips a workload through the Standard Workload Format (the format
of the Parallel Workloads Archive): generate a Feitelson workload, export
it as SWF, re-import the log, and run the imported workload both rigid
and malleable — the workflow for evaluating the DMR approach on real
site logs.

Run:  python examples/swf_replay.py
"""

from repro.api import Session
from repro.cluster import marenostrum_preliminary
from repro.metrics import format_table, gain_percent
from repro.workload import (
    FSWorkloadConfig,
    export_results,
    export_spec,
    fs_workload,
    parse_swf,
)


def main() -> None:
    # 1. A workload (stand-in for a downloaded site log).
    original = fs_workload(20, seed=42, config=FSWorkloadConfig(steps=10))
    swf_text = export_spec(original)
    print("=== SWF export (first lines) ===")
    print("\n".join(swf_text.splitlines()[:7]), "\n...")

    # 2. Re-import: every SWF job becomes a malleable iterative app.
    replay = parse_swf(swf_text, steps=10)
    print(f"\nre-imported {len(replay)} jobs from the SWF text")
    # The log keeps each job's size and its arrival time (to 0.01 s).
    assert [s.submit_nodes for s in replay.jobs] == [
        s.submit_nodes for s in original.jobs
    ]
    assert all(
        abs(r.arrival_time - o.arrival_time) <= 0.005
        for r, o in zip(replay.jobs, original.jobs)
    )

    # 3. Run the replay rigid and malleable (the CLI equivalent:
    #    python -m repro run --workload log.swf --rigid/--flexible).
    session = Session(cluster=marenostrum_preliminary())
    fixed = session.run(replay, flexible=False)
    flexible = session.run(replay, flexible=True)

    print(
        format_table(
            ["rendition", "makespan (s)", "avg wait (s)", "utilization (%)"],
            [
                ["fixed", fixed.makespan, fixed.summary.avg_wait_time,
                 100 * fixed.summary.utilization_rate],
                ["flexible", flexible.makespan, flexible.summary.avg_wait_time,
                 100 * flexible.summary.utilization_rate],
            ],
            title="\nSWF replay on 20 nodes",
        )
    )
    print(f"malleability gain on this log: "
          f"{gain_percent(fixed.makespan, flexible.makespan):.1f}%")

    # 4. Export the executed (flexible) run back to SWF for other tools.
    out = export_results(flexible.jobs)
    print("\n=== SWF of the executed flexible run (first lines) ===")
    print("\n".join(out.splitlines()[:5]), "\n...")


if __name__ == "__main__":
    main()
