#!/usr/bin/env python
"""Tour of the public facade: Session, observers, and the registry.

Three stations:

1. build a :class:`repro.api.Session` and run a paired fixed/flexible
   comparison in a few declarative lines;
2. attach an observer — a :class:`~repro.api.SessionObserver` whose
   one hook, ``on_event``, sees every resize as it happens — and read
   the paper's evolution series, which the result derives from the
   trace;
3. render a paper artifact through the declarative registry, exactly as
   ``python -m repro`` does.

Run:  python examples/session_api.py
"""

from repro.api import Session, SessionObserver, builtin_registry
from repro.cluster import marenostrum_preliminary
from repro.metrics import EventKind, format_table, sparkline
from repro.runtime import RuntimeConfig
from repro.workload import FSWorkloadConfig


class ResizeLog(SessionObserver):
    """Keeps one line per expand or shrink, as the simulation performs it."""

    def __init__(self) -> None:
        self.lines = []

    def on_event(self, event) -> None:
        if event.kind in (EventKind.RESIZE_EXPAND, EventKind.RESIZE_SHRINK):
            self.lines.append(
                f"t={event.time:7.1f}  job {event.job_id} {event.kind.value} "
                f"-> {event['new_size']} nodes"
            )


def main() -> None:
    # -- 1. a composable session -------------------------------------------
    session = (
        Session(cluster=marenostrum_preliminary())
        .with_runtime(RuntimeConfig(async_mode=False))
        .with_seed(42)
    )
    spec = session.fs_workload(12, config=FSWorkloadConfig(steps=8))

    pair = session.run_paired(spec)
    print(
        format_table(
            ["rendition", "makespan (s)", "avg wait (s)"],
            [
                ["fixed", pair.fixed.makespan, pair.fixed.summary.avg_wait_time],
                ["flexible", pair.flexible.makespan,
                 pair.flexible.summary.avg_wait_time],
            ],
            title=f"{spec.name}: gain {pair.makespan_gain:.1f}%",
        )
    )

    # -- 2. a live observer, and the series from the trace ------------------
    log = ResizeLog()
    result = session.observe(log).run(spec, flexible=True)
    print("\nfirst resizes, seen live:")
    for line in log.lines[:5]:
        print(" ", line)
    recorded = result.trace.of_kind(
        EventKind.RESIZE_EXPAND, EventKind.RESIZE_SHRINK
    )
    assert recorded and len(log.lines) == len(recorded), "observer missed resizes"
    alloc = result.allocation_series()
    print("\nallocated nodes over time (derived from the trace):")
    print(" ", sparkline(alloc, 0.0, alloc.times[-1]))

    # -- 3. the artifact registry -------------------------------------------
    registry = builtin_registry()
    print("\nregistered artifacts:", ", ".join(registry.names()))
    print("\nrendering 'fig1' through the registry:\n")
    print(registry.render("fig1"))


if __name__ == "__main__":
    main()
