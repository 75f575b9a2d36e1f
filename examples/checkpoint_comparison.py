#!/usr/bin/env python
"""Why not just checkpoint/restart? The paper's Fig. 1 motivation.

Compares the cost of reconfiguring an N-body job (48 initial processes)
through checkpoint/restart against the DMR API, broken down by phase, for
several resize targets and state sizes.

Run:  python examples/checkpoint_comparison.py
"""

from repro.checkpoint import CheckpointRestart, DMRReconfiguration, spawning_factor
from repro.cluster import GiB, marenostrum_production
from repro.metrics import format_table


def main() -> None:
    cluster = marenostrum_production()
    cr = CheckpointRestart(cluster)
    dmr = DMRReconfiguration(cluster)

    for state in (1.0 * GiB, 8.0 * GiB):
        rows = []
        for target in (12, 24, 48):
            c = cr.reconfigure(state, 48, target)
            d = dmr.reconfigure(state, 48, target)
            assert d.total < c.total, f"C/R beats DMR at 48 -> {target}"
            rows.append(
                [
                    f"48 -> {target}",
                    c.total,
                    f"write {c['checkpoint_write']:.1f} / requeue "
                    f"{c['requeue']:.0f} / relaunch {c['relaunch']:.1f} / "
                    f"read {c['checkpoint_read']:.1f}",
                    d.total,
                    f"{spawning_factor(c, d):.1f}x",
                ]
            )
        print(
            format_table(
                ["resize", "C/R (s)", "C/R phases", "DMR (s)", "factor"],
                rows,
                title=f"Reconfiguration cost, {state / GiB:.0f} GiB of state",
            )
        )


if __name__ == "__main__":
    main()
