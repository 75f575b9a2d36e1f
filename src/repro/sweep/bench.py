"""``repro bench`` — the canonical benchmarks.

Two verbs share this module:

* ``repro bench`` — multi-seed ensemble of the paper's headline
  artifacts (Fig. 1, Fig. 3, Table II) through the sweep engine,
  emitting ``BENCH_sweep.json``: per-artifact cell wall-clock order
  statistics (:func:`~repro.metrics.summary.order_stats`) plus
  per-metric simulated-result statistics with 95% confidence bands.
* ``repro bench sched`` — the scheduler-scale benchmark: replays large
  synthetic Feitelson traces (and their SWF round trip) as sleep jobs
  through the simulation :func:`~repro.backend.sim.assemble` builds
  and, as the ``legacy`` rows, through the resort-per-pass oracle
  :class:`~repro.testing.oracle.ResortController`; emits
  ``BENCH_sched.json`` with pass counts, wall-clock and the
  comparison-work ratio of the two.

``--quick`` shrinks either bench for CI smoke runs.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional, Sequence

from repro.metrics.summary import order_stats
from repro.sweep.runner import SweepObserver, SweepRunner
from repro.sweep.spec import DEFAULT_BASE_SEED, Sweep

#: The headline artifacts the bench ensembles (all CSV-capable).
BENCH_ARTIFACTS = ("fig1", "fig3", "table2")

#: Default output file (the repo's bench trajectory is BENCH_*.json).
BENCH_PATH = "BENCH_sweep.json"

#: Ensemble widths: full runs 5 seeds, quick (CI smoke) runs 2.
BENCH_SEEDS = 5
QUICK_SEEDS = 2

#: Scheduler-scale bench outputs and trace sizes.
SCHED_BENCH_PATH = "BENCH_sched.json"
SCHED_SIZES = (5000, 20000, 50000)
SCHED_QUICK_SIZES = (2000,)
#: Legacy (O(n^2)) replays are capped by default: at 50k jobs the
#: resort-per-pass oracle takes minutes per row.
SCHED_LEGACY_CAP = 20000
#: Replays at or above this many jobs run *lean*: a non-retaining trace
#: and ``retain_finished=False``, so memory tracks the live jobs instead
#: of the whole history (what makes the million-job row feasible).
SCHED_LEAN_MIN = 200_000

#: Payload keys that legitimately differ between two runs of the same
#: bench on the same code: timestamps, wall-clock and anything derived
#: from it, and memory high-water marks.  ``--check``-style comparisons
#: must ignore exactly these — comparing ``generated_unix`` (or any
#: wall-derived ratio) makes every check fail by construction.
VOLATILE_BENCH_KEYS = frozenset({
    "generated_unix",
    "total_wall_s",
    "wall_s",
    "wall_us_per_pass",
    "events_per_sec",
    "peak_rss_mb",
    "wall_ratio",
    "wall_per_pass_ratio",
})


def run_bench(
    seeds: Optional[int] = None,
    jobs: int = 1,
    quick: bool = False,
    base_seed: int = DEFAULT_BASE_SEED,
    artifacts: Sequence[str] = BENCH_ARTIFACTS,
    store=None,
    observers: Sequence[SweepObserver] = (),
) -> Dict[str, object]:
    """Run the bench ensembles; returns the ``BENCH_sweep.json`` payload.

    Before each artifact's timed ensemble one untimed cell of that
    artifact runs in-process, so the first timed cell does not pay the
    process's one-time imports and caches; it touches neither the store
    nor ``cached_cells``.
    """
    if seeds is None:
        seeds = QUICK_SEEDS if quick else BENCH_SEEDS
    runner = SweepRunner(jobs=jobs, store=store, observers=observers)
    # Untimed, storeless and on a seed past the ensemble's: a warm-up on
    # an ensemble seed would leave that cell in the artifact registry's
    # in-memory cache, and the timed cell would then time a cache hit.
    warm_up = SweepRunner(jobs=1)
    per_artifact: Dict[str, object] = {}
    t_total = time.perf_counter()
    for name in artifacts:
        warm_up.run(Sweep.over(
            seeds=1, base_seed=base_seed + seeds, artifacts=[name]
        ))
        sweep = Sweep.over(seeds=seeds, base_seed=base_seed, artifacts=[name])
        t0 = time.perf_counter()
        result = runner.run(sweep)
        ensemble_wall = time.perf_counter() - t0
        per_artifact[name] = {
            "cells": len(result),
            "cached_cells": result.cached_cells,
            "ensemble_wall_s": ensemble_wall,
            "cell_wall": order_stats([c.wall_time for c in result.cells]),
            "metrics": result.aggregate().as_dict(),
        }
    return {
        "bench": "sweep",
        "version": _version(),
        "quick": quick,
        "seeds": list(range(base_seed, base_seed + seeds)),
        "jobs": jobs,
        "generated_unix": time.time(),
        "artifacts": per_artifact,
        "total_wall_s": time.perf_counter() - t_total,
    }


def write_bench(data: Dict[str, object], path: str = BENCH_PATH) -> str:
    """Serialize a bench payload to disk; returns the path written."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- the scheduler-scale bench (repro bench sched) ----------------------------

def replay_sched_trace(
    trace,
    num_nodes: Optional[int] = None,
    incremental: bool = True,
    backfill_interval: float = 30.0,
    lean: bool = False,
    telemetry=None,
) -> Dict[str, object]:
    """Replay a scheduler trace as sleep jobs; return stats.

    The simulation is built by :func:`~repro.backend.sim.assemble` on a
    ``num_nodes`` cluster, with the sleep launcher
    (:func:`~repro.backend.sim.install_sleep_launcher`) in place of the
    Nanos++ runtime: jobs are rigid and a started job simply occupies
    its nodes for its trace runtime, so the measurement isolates the
    scheduler hot path (queue maintenance, FIFO passes, EASY backfill)
    from the runtime/DMR machinery.  ``incremental=False`` replays
    through the resort-per-pass oracle
    (:class:`~repro.testing.oracle.ResortController`) instead of the
    production controller.

    ``lean=True`` replays with :attr:`SlurmConfig.retain_finished` off,
    which also makes the controller's trace non-retaining, so a
    million-job replay holds only the live jobs in memory.  Scheduling
    decisions — and therefore every deterministic stat — are identical
    in both modes.

    ``telemetry`` (a :class:`~repro.obs.spans.Telemetry`) attaches span
    recording to the replayed controller; the perf budget tests pin its
    overhead on this exact function.
    """
    from repro.api.session import Session
    from repro.backend.base import JobRequest
    from repro.backend.sim import assemble, install_sleep_launcher
    from repro.cluster.configs import ClusterConfig
    from repro.slurm.controller import SlurmConfig
    from repro.slurm.job import Job
    from repro.testing.oracle import ResortController

    if num_nodes is None:
        num_nodes = autosize_cluster(trace)
    session = Session(
        cluster=ClusterConfig(num_nodes=num_nodes),
        slurm=SlurmConfig(
            backfill_interval=backfill_interval,
            retain_finished=not lean,
        ),
    )
    sim = assemble(
        session, controller_class=None if incremental else ResortController
    )
    env, controller = sim.env, sim.controller
    controller.telemetry = telemetry
    install_sleep_launcher(controller)

    def submitter():
        for tj in sorted(trace, key=lambda t: t.arrival):
            if tj.arrival > env.now:
                yield env.timeout(tj.arrival - env.now)
            request = JobRequest(tj.name, tj.nodes, tj.runtime, tj.limit)
            controller.submit(Job(
                name=tj.name, num_nodes=tj.nodes, time_limit=tj.limit,
                payload=request,
            ))

    env.process(submitter(), name="sched-bench-arrivals")
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    if not controller.all_done():
        from repro.errors import SweepError

        raise SweepError(
            f"sched bench trace did not drain: {len(controller.pending)} "
            f"pending, {len(controller.running)} running on {num_nodes} nodes"
        )
    stats = controller.stats.snapshot()
    if telemetry is not None:
        stats["spans_recorded"] = len(telemetry)
        stats["spans_dropped"] = telemetry.dropped
    return {
        "mode": "incremental" if incremental else "legacy",
        "jobs": len(trace),
        "nodes": num_nodes,
        "lean": lean,
        "wall_s": wall,
        "makespan_s": env.now,
        "sim_events": env.events_processed,
        "events_per_sec": env.events_processed / wall if wall else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "wall_us_per_pass": (
            1e6 * wall / stats["passes"] if stats["passes"] else 0.0
        ),
        **stats,
    }


def peak_rss_mb() -> float:
    """Process peak RSS in MiB (the kernel's high-water mark).

    Monotone over the process lifetime, so it is a replay's own number
    only in a process that ran nothing larger before it; that is why
    :func:`run_sched_bench` gives every row a fresh child process.
    """
    import resource
    import sys

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return rss / divisor


def autosize_cluster(trace, target_utilization: float = 0.9) -> int:
    """Cluster size giving the trace sustained queue pressure.

    Sized so the offered load (node-seconds per second of arrivals) fills
    ``target_utilization`` of the machine: large enough that the trace
    drains, small enough that a real pending queue builds up and the
    scheduler actually has work to do.
    """
    span = max(t.arrival for t in trace) or 1.0
    work = sum(t.nodes * t.runtime for t in trace)
    widest = max(t.nodes for t in trace)
    return max(widest, int(work / span / target_utilization))


def run_sched_bench(
    sizes: Optional[Sequence[int]] = None,
    quick: bool = False,
    seed: int = DEFAULT_BASE_SEED,
    legacy: bool = True,
    legacy_cap: int = SCHED_LEGACY_CAP,
    progress=None,
    profile_path: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run the scheduler-scale bench; returns the BENCH_sched.json payload.

    For every trace size: replay with the incremental scheduler, replay
    with the resort-per-pass oracle (up to ``legacy_cap`` jobs), and
    record the comparison-work and wall-clock ratios.  The
    smallest size is additionally replayed from an SWF round trip of the
    trace, covering the real-log import path.  Sizes at or above
    ``SCHED_LEAN_MIN`` replay lean (flat memory, see
    :func:`replay_sched_trace`).

    Every row replays in a fresh child process (:func:`replay_in_child`)
    that regenerates its trace from the size and seed, so each row's
    ``peak_rss_mb`` is its own.

    ``profile_path`` wraps the *largest* size's incremental replay in
    cProfile and dumps pstats data there (the CI flamegraph artifact);
    ``trace_path`` records that same replay's spans and exports them as
    a Perfetto-loadable Chrome trace-event file.
    """
    if sizes is None:
        sizes = SCHED_QUICK_SIZES if quick else SCHED_SIZES
    say = progress if progress is not None else (lambda message: None)
    t_total = time.perf_counter()
    traces: Dict[str, object] = {}
    for size in sizes:
        lean = size >= SCHED_LEAN_MIN
        say(
            f"replaying {size}-job trace (incremental scheduler"
            + (", lean)" if lean else ")")
        )
        diagnostics = {}
        if size == max(sizes):
            diagnostics = {"profile_path": profile_path,
                           "trace_path": trace_path}
        incremental = replay_in_child(size, seed, lean=lean, **diagnostics)
        for path in filter(None, diagnostics.values()):
            say(f"diagnostics of the {size}-job replay written to {path}")
        entry: Dict[str, object] = {"incremental": incremental}
        if legacy and size <= legacy_cap:
            say(f"replaying {size}-job trace (resort-per-pass oracle)")
            entry["legacy"] = replay_in_child(size, seed, incremental=False)
            entry["speedup"] = speedup_of(entry["legacy"], entry["incremental"])
        traces[str(size)] = entry

    swf_size = min(sizes)
    say(f"replaying {swf_size}-job SWF round-trip trace")
    swf_entry: Dict[str, object] = {
        "incremental": replay_in_child(swf_size, seed, swf=True)
    }
    if legacy and swf_size <= legacy_cap:
        swf_entry["legacy"] = replay_in_child(
            swf_size, seed, swf=True, incremental=False
        )
        swf_entry["speedup"] = speedup_of(
            swf_entry["legacy"], swf_entry["incremental"]
        )
    return {
        "bench": "sched",
        "version": _version(),
        "quick": quick,
        "seed": seed,
        "sizes": list(sizes),
        "generated_unix": time.time(),
        "traces": traces,
        "swf_roundtrip": {str(swf_size): swf_entry},
        "total_wall_s": time.perf_counter() - t_total,
    }


def _replay_row(size: int, seed: int, swf: bool = False,
                profile_path: Optional[str] = None,
                trace_path: Optional[str] = None,
                **options) -> Dict[str, object]:
    from repro.workload.generator import sched_trace, sched_trace_via_swf

    trace = sched_trace(size, seed=seed)
    if swf:
        trace = sched_trace_via_swf(trace)
    if trace_path is not None:
        from repro.obs.spans import Telemetry, TelemetryConfig

        options["telemetry"] = Telemetry(
            TelemetryConfig(correlation_id=f"bench-sched-{size}")
        )
    if profile_path is None:
        stats = replay_sched_trace(trace, **options)
    else:
        import cProfile

        profiler = cProfile.Profile()
        stats = profiler.runcall(replay_sched_trace, trace, **options)
        profiler.dump_stats(profile_path)
    if trace_path is not None:
        from repro.obs.perfetto import export_perfetto

        telemetry = options["telemetry"]
        export_perfetto(
            trace_path,
            spans=telemetry.spans,
            correlation_id=telemetry.correlation_id,
            dropped=telemetry.dropped,
        )
    return stats


def replay_in_child(size: int, seed: int, swf: bool = False,
                    **options) -> Dict[str, object]:
    """One bench row, replayed in a freshly spawned interpreter.

    The child regenerates the ``size``-job trace from ``seed`` (and its
    SWF round trip when ``swf``) instead of receiving a pickled trace, so
    its ``peak_rss_mb`` is the row's own high-water mark rather than one
    inherited from an earlier, larger replay.  ``profile_path`` and
    ``trace_path`` write the replay's cProfile data and Perfetto spans;
    other ``options`` go to :func:`replay_sched_trace`.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        return pool.submit(_replay_row, size, seed, swf, **options).result()


def speedup_of(
    legacy: Dict[str, object], incremental: Dict[str, object]
) -> Dict[str, float]:
    """Legacy-over-incremental ratios (higher = bigger win)."""

    def ratio(key: str) -> float:
        denominator = float(incremental[key]) or 1.0
        return float(legacy[key]) / denominator

    return {
        "comparisons_ratio": ratio("comparisons"),
        "key_evals_ratio": ratio("key_evals"),
        "wall_ratio": ratio("wall_s"),
        "wall_per_pass_ratio": ratio("wall_us_per_pass"),
    }


def bench_drift(
    committed: Dict[str, object],
    fresh: Dict[str, object],
    _path: str = "",
) -> "list[str]":
    """Deterministic-metric differences between two sched-bench payloads.

    Compares only the keys present in *both* payloads and skips
    ``VOLATILE_BENCH_KEYS`` (timestamps, wall-clock, RSS) entirely — a
    check that diffs ``generated_unix`` fails on every run by
    construction, which is exactly the bug this helper exists to fix.
    Returns human-readable ``path: committed != fresh`` lines (empty
    means no drift).
    """
    drifts: list = []
    shared = (committed.keys() & fresh.keys()) - VOLATILE_BENCH_KEYS
    for key in sorted(shared):
        where = f"{_path}.{key}" if _path else str(key)
        old, new = committed[key], fresh[key]
        if isinstance(old, dict) and isinstance(new, dict):
            drifts.extend(bench_drift(old, new, where))
        elif old != new:
            drifts.append(f"{where}: committed {old!r} != fresh {new!r}")
    return drifts


def check_sched_bench(
    path: str = SCHED_BENCH_PATH,
    size: Optional[int] = None,
    progress=None,
) -> "list[str]":
    """Re-run one committed bench size and report deterministic drift.

    Loads the committed payload at ``path``, replays its smallest trace
    size (or ``size``) with the committed seed, and compares the
    deterministic scheduler metrics via :func:`bench_drift`.  Returns
    the drift lines; an empty list means the committed numbers still
    describe the current scheduler.
    """
    from repro.errors import SweepError

    try:
        with open(path, encoding="utf-8") as fh:
            committed = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SweepError(f"cannot read committed bench {path}: {exc}") from exc
    committed_sizes = sorted(int(s) for s in committed.get("traces", {}))
    if not committed_sizes:
        raise SweepError(f"{path} has no trace entries to check against")
    if size is None:
        size = committed_sizes[0]
    elif size not in committed_sizes:
        raise SweepError(
            f"size {size} not in committed bench (has {committed_sizes})"
        )
    entry = committed["traces"][str(size)]
    fresh = run_sched_bench(
        sizes=[size],
        seed=int(committed.get("seed", DEFAULT_BASE_SEED)),
        legacy="legacy" in entry,
        progress=progress,
    )
    drifts = bench_drift(entry, fresh["traces"][str(size)], f"traces.{size}")
    swf = committed.get("swf_roundtrip", {}).get(str(size))
    if swf is not None:
        drifts.extend(
            bench_drift(
                swf,
                fresh["swf_roundtrip"][str(size)],
                f"swf_roundtrip.{size}",
            )
        )
    return drifts


def _version() -> str:
    from repro import __version__

    return __version__
