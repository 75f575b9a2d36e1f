"""``sweep_realapps``: paired Section IX cells through a serial sweep.

A run is a sequence of *rounds*.  Each round takes a fresh temporary
result store; set-up fills it with the first :data:`PREFILLED` cells of
the round's grid, as an earlier sweep would have, and the timed phase
runs the whole grid, so cached cells are read while new ones are
computed and written.  Every served cell must carry the metrics its
set-up stored.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List

from perfbench.common import (
    ROOT,
    MachineSpeed,
    Result,
    add_timed,
    check_against_record,
    check_values,
    derive_seed,
    fresh_heap,
    peak_rss_mb,
    work_dir,
)
from perfbench.layers import LayerProbe, add_layer_metrics, overhead_metrics
from perfbench.stats import backed_percentile, median, percentile
from perfbench.tracer import Tracer

#: The paper's Section IX testbed and a ~50-job CG/Jacobi/N-body mix.
NODES = 65
NUM_JOBS = 50
#: Cells per round, and how many of them set-up puts in the store.  Few
#: enough that the median cell latency falls inside the computed cells,
#: not on the edge between served and computed ones.
GRID = 12
PREFILLED = 2
#: Rough seconds per timed round on a 2-vCPU machine (sizes traced runs).
ROUND_SECONDS = 1.5
#: p90 of the cell latency needs ten samples beyond it.
MIN_CELLS = 100


def grid(seed: int, round_index: int):
    from repro.sweep import Sweep

    seeds = [derive_seed(seed, "sweep_realapps", round_index, cell)
             for cell in range(GRID)]
    return Sweep.over(seeds=seeds, workloads=["realapps"],
                      num_jobs=[NUM_JOBS], nodes=[NODES])


class CellClock:
    """Sweep observer timing each cell from when the runner turned to it.

    A computed cell is timed from ``on_cell_start``; a cached one from
    the previous cell's return (the runner serves cached cells back to
    back before computing the rest).
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.mark = time.perf_counter()

    def on_cell_start(self, index, total, spec) -> None:
        self.mark = time.perf_counter()

    def on_cell_done(self, index, total, outcome) -> None:
        now = time.perf_counter()
        self.latencies.append(now - self.mark)
        self.mark = now


class CellUnits:
    """Sweep observer giving each computed cell its own span unit id.

    Store lookups of cached cells happen before any cell starts; they
    keep the round's id.
    """

    def __init__(self, tracer, round_index: int) -> None:
        self.tracer = tracer
        self.round_index = round_index

    def on_cell_start(self, index, total, spec) -> None:
        self.tracer.unit = f"sweep_realapps/{self.round_index}/cell{index}"

    def on_cell_done(self, index, total, outcome) -> None:
        pass


class Round:
    def __init__(self, index: int) -> None:
        self.index = index
        self.setup_s = 0.0
        self.run_s = 0.0
        self.cells = 0
        self.counts: Dict[str, object] = {}


def run_round(seed: int, index: int, scratch: str, clock=None,
              telemetry=None, probe=None, observers=()) -> Round:
    """Fill a fresh store with part of the grid, then run all of it.

    ``probe`` (a :class:`LayerProbe`) is installed for the timed phase
    only, so the store counts it reports are that phase's.
    """
    from repro.store import ResultStore
    from repro.sweep import Sweep, SweepRunner

    sweep = grid(seed, index)
    root = os.path.join(scratch, f"store-{index}")
    shutil.rmtree(root, ignore_errors=True)
    out = Round(index)
    fresh_heap()
    t0 = time.perf_counter()
    store = ResultStore(root)
    prefill = SweepRunner(jobs=1, store=store).run(
        Sweep(cells=sweep.cells[:PREFILLED]))
    out.setup_s = time.perf_counter() - t0

    before = store.stats()
    observers = tuple(observers) + (() if clock is None else (clock,))
    fresh_heap()
    if probe is not None:
        probe.install()
    try:
        t0 = time.perf_counter()
        if clock is not None:
            clock.mark = t0
        result = SweepRunner(jobs=1, store=store, observers=observers,
                             telemetry=telemetry).run(sweep)
        out.run_s = time.perf_counter() - t0
    finally:
        if probe is not None:
            probe.tracer.restore()
    after = store.stats()
    out.cells = len(result.cells)

    stored = {cell.spec: cell.metrics for cell in prefill.cells}
    served = {cell.spec: cell.metrics for cell in result.cells if cell.cached}
    out.counts = {
        "cells": len(result.cells),
        "store.hits": after["hits"] - before["hits"],
        "store.puts": after["puts"] - before["puts"],
        "cells_cached": len(served),
        "served_match_stored": served == stored,
        "metrics": [sorted(c.metrics.items()) for c in result.cells],
    }
    shutil.rmtree(root, ignore_errors=True)
    return out


def _checked(result: Result, label: str, rnd: Round, warm) -> None:
    """Check a round's store traffic and served cells; round 0's first
    cell is the warm-up cell computed again, so its metrics must repeat."""
    result.attempted += GRID
    check_values(result, label, rnd.counts, {
        "cells": GRID, "store.hits": PREFILLED, "store.puts": GRID - PREFILLED,
        "cells_cached": PREFILLED, "served_match_stored": True,
    })
    if rnd.index == 0:
        check_values(result, f"{label} warm-up cell repeated",
                     {"cell 0 metrics": rnd.counts["metrics"][0]},
                     {"cell 0 metrics": sorted(warm.metrics.items())})


def _fingerprint(rnd: Round) -> Dict[str, object]:
    from repro.metrics.trace import text_digest

    return {"round 0 cell metrics": text_digest(repr(rnd.counts["metrics"])),
            "store.hits": rnd.counts["store.hits"],
            "store.puts": rnd.counts["store.puts"]}


def run(seed: int, seconds: float, traced: bool) -> Result:
    result = Result("sweep_realapps")
    scratch = work_dir("sweep_realapps")
    try:
        # Warm-up: one computed cell of round 0 (imports, allocator).
        from repro.sweep import Sweep, SweepRunner

        warm = SweepRunner(jobs=1).run(
            Sweep(cells=grid(seed, 0).cells[:1])).cells[0]
        if traced:
            _traced(seed, seconds, scratch, result, warm)
            return result
        clock = CellClock()
        speed = MachineSpeed()
        rounds: List[Round] = []
        timed = 0.0
        while timed < seconds or len(clock.latencies) < MIN_CELLS:
            speed.sample()
            rnd = run_round(seed, len(rounds), scratch, clock)
            _checked(result, f"round {len(rounds)}", rnd, warm)
            rounds.append(rnd)
            timed += rnd.run_s
        speed.sample()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    check_against_record(result, seed, _fingerprint(rounds[0]))
    result.notes.append(f"ops_per_s is cells_per_s: {GRID} cells per round "
                        f"({PREFILLED} served from the store), "
                        f"{len(rounds)} rounds")
    result.notes.append("latency is per cell, from the runner turning to it "
                        "to its return")
    lat = clock.latencies
    add_timed(result, speed, {
        "ops_per_s": sum(r.cells for r in rounds) / timed,
        "latency_p50_ms": 1e3 * backed_percentile(lat, 0.50),
        "latency_p90_ms": 1e3 * backed_percentile(lat, 0.90),
        "setup_s": median([r.setup_s for r in rounds]),
    }, {"ops_per_s": len(rounds), "latency_p50_ms": len(lat),
        "latency_p90_ms": len(lat), "setup_s": len(rounds)})
    result.add("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    return result


def _traced(seed: int, seconds: float, scratch: str, result: Result,
            warm) -> None:
    """Each round untraced and traced back to back (fresh stores).

    The order within a pair alternates, so both sides of a pair run in
    the same phase of the machine and the overhead is read from pairs.
    """
    from repro.obs.spans import TelemetryConfig

    count = max(1, round(seconds / 2 / ROUND_SECONDS))
    tracer = Tracer()
    probe = LayerProbe(tracer)
    cells: List[Round] = []
    pairs = []
    for index in range(count):
        sides = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.unit = f"sweep_realapps/{index}"
                rnd = run_round(seed, index, scratch, probe=probe,
                                telemetry=TelemetryConfig(
                                    correlation_id=f"sweep_realapps/{index}"),
                                observers=(CellUnits(tracer, index),))
                cells.append(rnd)
            else:
                rnd = run_round(seed, index, scratch)
            label = f"{'traced' if traced else 'untraced'} round {index}"
            _checked(result, label, rnd, warm)
            sides[traced] = rnd
        check_values(result, f"traced round {index}", _fingerprint(sides[True]),
                     _fingerprint(sides[False]))
        pairs.append((sides[True].run_s, sides[False].run_s))

    values = probe.metrics()
    cell_ms = tracer.durations.get("sweep.cell", [])
    hits = sum(r.counts["store.hits"] for r in cells)
    puts = sum(r.counts["store.puts"] for r in cells)
    lookups = tracer.calls["store.get"]
    values.update({
        "sweep.cells_computed": len(cell_ms),
        "sweep.cells_cached": sum(r.counts["cells_cached"] for r in cells),
        "sweep.cell_ms_p50": 1e3 * percentile(cell_ms, 0.5) if cell_ms else 0.0,
        "store.hits": hits,
        "store.misses": lookups - hits,
        "store.puts": puts,
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        **overhead_metrics(pairs),
    })
    add_layer_metrics(result, values, {
        "sweep.cell_ms_p50": len(cell_ms),
        "slurm.reconfig.check_us_p50": int(values["slurm.reconfig.checks"]),
        "slurm.reconfig.check_us_p99": int(values["slurm.reconfig.checks"]),
        "trace.overhead_pct": len(pairs),
    })
    from perfbench.simruns import OUT_DIR

    path = os.path.join(OUT_DIR, f"sweep_realapps-seed{seed}.json")
    written = tracer.export(path)
    result.notes.append(f"{count} rounds run untraced and traced; {written} "
                        f"spans written to {os.path.relpath(path, ROOT)}")
