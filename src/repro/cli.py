"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                # what can be reproduced
    python -m repro fig1                # one figure
    python -m repro fig10 fig11        # several (one shared simulation)
    python -m repro all --csv out/      # everything + CSV dumps
    python -m repro fig3 --seed 7       # reseed the stochastic workloads
    python -m repro run --workload my.swf --flexible --seed 7
                                        # replay a user-supplied SWF log
    python -m repro backends            # execution backends + availability
    python -m repro run --workload my.swf --backend slurm --time-scale 0.01
                                        # same replay on a real scheduler
    python -m repro sweep --artifact fig3 --seeds 5 --jobs 4
                                        # seed ensemble with 95% CIs
    python -m repro sweep --workload fs --num-jobs 25,50 --policies default,deepest
                                        # grid sweep over workload axes
    python -m repro bench --quick       # emit BENCH_sweep.json
    python -m repro bench sched         # scheduler-scale bench -> BENCH_sched.json
    python -m repro cache ls            # inspect the on-disk result store
    python -m repro serve               # scheduler-as-a-service HTTP API
    python -m repro loadgen --quick     # benchmark a running `repro serve`

Artifacts are served from the declarative :mod:`repro.api` registry —
each ``experiments`` module registers its producers with
``@artifact(...)`` and this module only iterates the registry.  Sweeps
and benches go through :mod:`repro.sweep`; rendered artifacts and sweep
cells are cached in the :mod:`repro.store` result store (disable with
``--no-cache``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.api.registry import ArtifactRegistry, builtin_registry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation of 'Efficient Scalable Computing "
            "through Flexible Applications and Adaptive Workloads' "
            "(Iserte et al., ICPP 2017)."
        ),
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        metavar="ARTIFACT",
        help="'list', 'all', 'run', or artifact names (see 'list')",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write <artifact>.csv files into DIR (where supported)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="base seed for stochastic workloads (default: the paper's 2017)",
    )
    run_opts = parser.add_argument_group(
        "run mode", "replay a user-supplied workload: repro run --workload FILE"
    )
    run_opts.add_argument(
        "--workload",
        metavar="FILE.swf",
        default=None,
        help="Standard Workload Format log to execute",
    )
    run_opts.add_argument(
        "--flexible",
        action="store_true",
        help="run the malleable rendition (default)",
    )
    run_opts.add_argument(
        "--rigid",
        action="store_true",
        help="run the rigid rendition instead",
    )
    run_opts.add_argument(
        "--nodes",
        type=int,
        default=None,
        metavar="N",
        help="cluster size (default: the 65-node production testbed, "
        "grown to fit the largest job)",
    )
    run_opts.add_argument(
        "--backend",
        metavar="NAME",
        default=None,
        help="execution backend (default: sim; see 'repro backends')",
    )
    run_opts.add_argument(
        "--time-scale",
        type=float,
        default=None,
        metavar="X",
        help="compress workload seconds onto the backend clock by X "
        "(wall-clock backends only; 0.01 turns a 100s trace into 1s)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result store (always re-simulate)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    return parser


def _print_listing(registry: ArtifactRegistry) -> None:
    print("reproducible artifacts:", ", ".join(registry.names()))
    for name in registry.names():
        spec = registry.get(name)
        csv_tag = " [csv]" if spec.supports_csv else ""
        print(f"  {name:<12} {spec.description}{csv_tag}")
    print("also: 'run --workload FILE.swf [--flexible|--rigid]' "
          "to replay your own workload")


def _emit_csv(registry: ArtifactRegistry, name: str, seed: Optional[int],
              directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.csv")
    with open(path, "w") as fh:
        fh.write(registry.render_csv(name, seed=seed))
    print(f"[csv written to {path}]")


def _run_user_workload(args: argparse.Namespace) -> int:
    """The ``repro run`` mode: execute a user-supplied SWF workload."""
    from repro.api import Session, SimulationTimeout
    from repro.backend import backend_names
    from repro.cluster.configs import ClusterConfig
    from repro.errors import BackendError, WorkloadError
    from repro.metrics.report import format_csv, format_table
    from repro.workload.swf import parse_swf

    if args.workload is None:
        print("run mode needs --workload FILE.swf", file=sys.stderr)
        return 2
    if args.flexible and args.rigid:
        print("--flexible and --rigid are mutually exclusive", file=sys.stderr)
        return 2
    backend = args.backend if args.backend is not None else "sim"
    if backend not in backend_names():
        print(f"unknown backend {backend!r}; see 'repro backends'",
              file=sys.stderr)
        return 2
    if args.time_scale is not None and args.time_scale <= 0:
        print("--time-scale must be positive", file=sys.stderr)
        return 2
    if args.time_scale is not None and backend == "sim":
        print("--time-scale applies to wall-clock backends; "
              "the simulator's virtual seconds are already free",
              file=sys.stderr)
        return 2
    try:
        with open(args.workload) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read workload: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_swf(text)
    except WorkloadError as exc:
        print(f"invalid workload: {exc}", file=sys.stderr)
        return 2

    flexible = not args.rigid
    largest = max(js.submit_nodes for js in spec.jobs)
    num_nodes = args.nodes if args.nodes is not None else max(65, largest)
    session = Session(cluster=ClusterConfig(num_nodes=num_nodes))
    if backend != "sim":
        options = {}
        if args.time_scale is not None:
            options["time_scale"] = args.time_scale
        session = session.with_backend(backend, **options)
    if args.seed is not None:
        # SWF logs pin every job's size, runtime and arrival, so a replay
        # is deterministic; keep the flag accepted (scripts pass it
        # uniformly) but be explicit that it cannot change this run.
        print("note: SWF replays are deterministic; --seed has no effect here")
    try:
        result = session.run(spec, flexible=flexible)
    except (SimulationTimeout, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    s = result.summary
    rendition = "flexible" if flexible else "rigid"
    headers = ["jobs", "rendition", "makespan (s)", "avg wait (s)",
               "avg exec (s)", "utilization (%)", "resizes"]
    cells = [[s.num_jobs, rendition, s.makespan, s.avg_wait_time,
              s.avg_execution_time, 100.0 * s.utilization_rate,
              s.resize_count]]
    title = f"SWF replay: {args.workload} ({num_nodes} nodes)"
    if result.backend != "sim":
        title += f" [backend={result.backend}]"
    print(format_table(headers, cells, title=title))
    if args.csv is not None:
        os.makedirs(args.csv, exist_ok=True)
        path = os.path.join(args.csv, "run.csv")
        with open(path, "w") as fh:
            fh.write(format_csv(
                ["jobs", "rendition", "makespan_s", "avg_wait_s",
                 "avg_exec_s", "utilization_pct", "resizes"],
                cells,
            ))
        print(f"[csv written to {path}]")
    return 0


# -- backends mode ------------------------------------------------------------

def _backends_mode(argv: List[str]) -> int:
    """``repro backends``: list execution backends and probe availability."""
    parser = argparse.ArgumentParser(
        prog="repro backends",
        description="List the registered execution backends with their "
        "capability flags and an availability probe (e.g. whether "
        "sbatch is on PATH).",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the listing as JSON")
    args = parser.parse_args(argv)

    from repro.backend import backend_class, backend_names

    rows = []
    for name in backend_names():
        cls = backend_class(name)
        caps = cls.CAPABILITIES
        ok, reason = cls.available()
        rows.append({
            "name": name,
            "available": ok,
            "clock": caps.clock,
            "resize": caps.supports_resize,
            "faults": caps.supports_faults,
            "detail": reason,
        })
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0

    def flag(value: bool) -> str:
        return "yes" if value else "no"

    print(f"{'backend':<10} {'available':<10} {'clock':<6} "
          f"{'resize':<7} {'faults':<7} detail")
    for row in rows:
        print(f"{row['name']:<10} {flag(row['available']):<10} "
              f"{row['clock']:<6} {flag(row['resize']):<7} "
              f"{flag(row['faults']):<7} {row['detail']}")
    print("select with --backend NAME ('repro run', 'repro sweep', "
          "'repro serve')")
    return 0


# -- resilience mode ----------------------------------------------------------

def _build_resilience_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro resilience",
        description="C/R vs DMR under MTBF-sampled node failures: the same "
        "fault plan replays against both mechanisms; reports completed "
        "work and makespan per MTBF (every run invariant-checked). "
        "Like 'repro sweep'/'bench', this mode always re-simulates; the "
        "registry form of the same artifact (via 'repro all', or the "
        "'resilience' name in an artifact list) runs the default MTBF "
        "sweep through the cached-artifact path instead.",
    )
    parser.add_argument("--mtbf", type=_float_list, default=None,
                        metavar="S1,S2,...",
                        help="cluster-wide MTBF values in seconds "
                        "(default 2000,1000,500; --quick: 500)")
    parser.add_argument("--quick", action="store_true",
                        help="small workload + single MTBF for CI smoke runs")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="workload + fault-plan seed (default 2017)")
    parser.add_argument("--num-jobs", type=int, default=None, metavar="N",
                        help="workload size (default 20; --quick: 14)")
    parser.add_argument("--repair-time", type=float, default=None, metavar="S",
                        help="node repair time in seconds (default 600)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless DMR completed strictly "
                        "more work than C/R at the harshest MTBF")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write resilience.csv into DIR")
    return parser


def _resilience_mode(argv: List[str]) -> int:
    from repro.api.registry import default_seed
    from repro.experiments import resilience as rz

    args = _build_resilience_parser().parse_args(argv)
    mtbfs = args.mtbf
    if mtbfs is not None and not mtbfs:
        print("--mtbf needs at least one value", file=sys.stderr)
        return 2
    import math

    if mtbfs is not None and any(not math.isfinite(m) or m <= 0 for m in mtbfs):
        print("--mtbf values must be positive finite seconds", file=sys.stderr)
        return 2
    if args.repair_time is not None and (
        not math.isfinite(args.repair_time) or args.repair_time <= 0
    ):
        print("--repair-time must be a positive finite number of seconds",
              file=sys.stderr)
        return 2
    if args.num_jobs is not None and args.num_jobs < 1:
        print("--num-jobs must be >= 1", file=sys.stderr)
        return 2
    if mtbfs is None:
        mtbfs = list(
            rz.RESILIENCE_QUICK_MTBFS if args.quick else rz.RESILIENCE_MTBFS
        )
    num_jobs = args.num_jobs
    if num_jobs is None:
        num_jobs = (
            rz.RESILIENCE_QUICK_NUM_JOBS if args.quick else rz.RESILIENCE_NUM_JOBS
        )
    result = rz.run_resilience(
        seed=default_seed(args.seed),
        mtbfs=mtbfs,
        num_jobs=num_jobs,
        repair_time=(
            rz.REPAIR_TIME if args.repair_time is None else args.repair_time
        ),
    )
    print(result.as_table())
    harshest = min(mtbfs)
    cr = result.row(harshest, "cr")
    dmr = result.row(harshest, "dmr")
    ahead = dmr.completed_work > cr.completed_work
    print(
        f"at MTBF {harshest:g}s: DMR completed {100 * dmr.work_fraction:.1f}% "
        f"vs C/R {100 * cr.work_fraction:.1f}% -> "
        f"{'DMR strictly ahead' if ahead else 'no separation'}"
    )
    if args.csv is not None:
        os.makedirs(args.csv, exist_ok=True)
        path = os.path.join(args.csv, "resilience.csv")
        with open(path, "w") as fh:
            fh.write(result.as_csv())
        print(f"[csv written to {path}]")
    if args.check and not ahead:
        print("resilience check failed: DMR did not beat C/R", file=sys.stderr)
        return 1
    return 0


# -- trace mode ---------------------------------------------------------------

def _build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one telemetry-enabled scenario and export its "
        "spans plus the per-job timeline as a Chrome trace-event JSON "
        "file, loadable at https://ui.perfetto.dev.",
    )
    parser.add_argument("scenario", nargs="?", default="fig1",
                        help="named scenario (default: fig1 — the DMR "
                        "rendition of the Section VIII testbed under an "
                        "MTBF-sampled fault plan, so scheduler passes, "
                        "reconfigurations and fault injections all appear)")
    parser.add_argument("--workload", choices=("fs", "realapps"),
                        default="fs", help="workload family (default fs)")
    parser.add_argument("--num-jobs", type=int, default=None, metavar="N",
                        help="workload size (default 20; 14 with --quick)")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="base seed (default 2017)")
    parser.add_argument("--mtbf", type=float, default=None, metavar="S",
                        help="cluster-wide MTBF of the injected fault plan "
                        "in seconds (default 500)")
    parser.add_argument("--max-spans", type=int, default=None, metavar="N",
                        help="span-buffer bound (default 100000; overflow "
                        "is counted, not fatal)")
    parser.add_argument("--out", metavar="FILE", default="trace.json",
                        help="output path (default trace.json)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (smaller workload)")
    return parser


def _trace_mode(argv: List[str]) -> int:
    from repro.api import Session
    from repro.cluster.configs import marenostrum_preliminary
    from repro.errors import SimulationTimeout, TelemetryError
    from repro.experiments.resilience import (
        HORIZON_FACTOR,
        REPAIR_TIME,
        RESILIENCE_NUM_JOBS,
        RESILIENCE_QUICK_NUM_JOBS,
    )
    from repro.faults import FaultPlan
    from repro.obs.perfetto import export_perfetto

    args = _build_trace_parser().parse_args(argv)
    if args.scenario.lower() != "fig1":
        print(f"unknown trace scenario {args.scenario!r}; known: fig1",
              file=sys.stderr)
        return 2
    seed = 2017 if args.seed is None else args.seed
    num_jobs = args.num_jobs if args.num_jobs is not None else (
        RESILIENCE_QUICK_NUM_JOBS if args.quick else RESILIENCE_NUM_JOBS
    )
    mtbf = 500.0 if args.mtbf is None else args.mtbf

    base = Session(cluster=marenostrum_preliminary()).with_seed(seed)
    spec = (base.fs_workload(num_jobs) if args.workload == "fs"
            else base.realapp_workload(num_jobs))
    # Same shape as the resilience artifact: measure to a horizon a hair
    # above the fault-free rigid makespan, with an MTBF-sampled plan.
    baseline = base.run(spec, flexible=False)
    horizon = HORIZON_FACTOR * baseline.summary.makespan
    plan = FaultPlan.from_mtbf(
        mtbf=mtbf,
        horizon=horizon,
        num_nodes=base.cluster.num_nodes,
        seed=seed,
        repair_time=REPAIR_TIME,
    )
    cid = f"trace-{args.scenario.lower()}-{seed}"
    session = base.with_faults(plan).with_telemetry(
        correlation_id=cid, max_spans=args.max_spans
    )
    run = session.submit(spec, flexible=True)
    try:
        run.execute(horizon)
    except SimulationTimeout:
        pass  # horizon cut the run short; spans up to the cut still export
    telemetry = run.sim.telemetry
    try:
        info = export_perfetto(
            args.out,
            spans=telemetry.spans,
            trace=run.sim.controller.trace,
            correlation_id=cid,
            dropped=telemetry.dropped,
        )
    except TelemetryError as exc:
        print(f"trace export failed: {exc}", file=sys.stderr)
        return 1
    counts = telemetry.counts_by_name()
    print(
        f"{args.scenario.lower()}: {num_jobs} {args.workload} jobs, "
        f"mtbf {mtbf:g}s, horizon {horizon:.0f}s (cid {cid})"
    )
    for name in sorted(counts):
        print(f"  {counts[name]:>5}  {name}")
    print(
        f"[{info['events']} trace events on {info['tracks']} tracks "
        f"({telemetry.dropped} spans dropped) written to {info['path']}]"
    )
    return 0


# -- sweep / bench / cache modes ---------------------------------------------

def _csv_list(cast, kind: str):
    """Argparse type: comma-separated list of ``cast``-able values."""

    def parse(text: str):
        try:
            return [cast(part) for part in text.split(",") if part]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {kind} list: {text!r}"
            )

    return parse


_int_list = _csv_list(int, "int")
_float_list = _csv_list(float, "float")
_str_list = _csv_list(str, "string")


def _store_for(args: argparse.Namespace):
    if args.no_cache:
        return None
    from repro.store import default_store

    return default_store(args.store)


class _PrintProgress:
    """Stderr per-cell progress lines for ``repro sweep`` / ``bench``."""

    def on_cell_start(self, index, total, spec):
        print(f"[{index + 1:>3}/{total}] run    {spec.describe()}",
              file=sys.stderr)

    def on_cell_done(self, index, total, outcome):
        tag = "cached" if outcome.cached else f"{outcome.wall_time:.1f}s"
        print(
            f"[{index + 1:>3}/{total}] done   {outcome.spec.describe()} ({tag})",
            file=sys.stderr,
        )


def _sweep_progress(quiet: bool):
    from repro.sweep import SweepObserver  # noqa: F401  (protocol anchor)

    return () if quiet else (_PrintProgress(),)


def _report_store(store) -> None:
    if store is None:
        return
    s = store.stats()
    served = s["hits"]
    total = s["hits"] + s["misses"]
    print(
        f"store {store.root}: served {served}/{total} lookups from cache "
        f"({s['puts']} new records); inspect with 'repro cache ls'"
    )


def _build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a parameter grid as independent cells with "
        "seed-ensemble statistics (mean, median, stdev, 95% CI).",
    )
    parser.add_argument("--artifact", action="append", metavar="NAME",
                        help="ensemble a registered artifact (repeatable)")
    parser.add_argument("--workload", action="append", metavar="FAMILY",
                        choices=("fs", "realapps"),
                        help="sweep a workload family instead (repeatable)")
    parser.add_argument("--num-jobs", type=_int_list, default=None,
                        metavar="N1,N2,...", help="workload sizes axis")
    parser.add_argument("--nodes", type=_int_list, default=None,
                        metavar="N1,N2,...", help="cluster sizes axis")
    parser.add_argument("--policies", type=_str_list, default=None,
                        metavar="P1,P2,...",
                        help="policy presets axis (default, deepest, literal)")
    parser.add_argument("--seeds", type=int, default=5, metavar="K",
                        help="ensemble width: K consecutive seeds (default 5)")
    parser.add_argument("--base-seed", type=int, default=None, metavar="S",
                        help="first seed of the ensemble (default 2017)")
    parser.add_argument("--async", dest="async_mode", action="store_true",
                        help="asynchronous DMR mode for workload cells")
    parser.add_argument("--backend", metavar="NAME", default=None,
                        help="execution backend for workload cells "
                        "(default: sim; see 'repro backends')")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (1 = serial, default)")
    parser.add_argument("--csv", nargs="?", const="-", default=None,
                        metavar="DIR",
                        help="emit aggregated CSV (bare: to stdout; "
                        "DIR: into DIR/sweep.csv)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="result-store directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result store")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="collect per-cell telemetry spans and export "
                        "them as a Perfetto-loadable Chrome trace to FILE")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress on stderr")
    return parser


def _sweep_mode(argv: List[str]) -> int:
    from repro.errors import SimulationTimeout, SweepError
    from repro.sweep import Sweep, SweepRunner
    from repro.sweep.spec import DEFAULT_BASE_SEED

    args = _build_sweep_parser().parse_args(argv)
    if args.backend is not None:
        from repro.backend import backend_names

        if args.backend not in backend_names():
            print(f"unknown backend {args.backend!r}; see 'repro backends'",
                  file=sys.stderr)
            return 2
    store = _store_for(args)
    try:
        sweep = Sweep.over(
            seeds=args.seeds,
            base_seed=(DEFAULT_BASE_SEED if args.base_seed is None
                       else args.base_seed),
            artifacts=args.artifact,
            workloads=args.workload,
            num_jobs=args.num_jobs,
            nodes=args.nodes,
            policies=args.policies,
            async_mode=args.async_mode,
            backend=args.backend if args.backend is not None else "sim",
        )
    except SweepError as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return 2
    if any(c.kind == "artifact" for c in sweep.cells):
        registry = builtin_registry()
        unknown = sorted(
            {c.artifact for c in sweep.cells
             if c.kind == "artifact" and c.artifact not in registry}
        )
        if unknown:
            print(f"unknown artifact(s): {', '.join(unknown)}; try 'repro list'",
                  file=sys.stderr)
            return 2
    telemetry_config = None
    if args.trace is not None:
        from repro.obs.spans import TelemetryConfig

        telemetry_config = TelemetryConfig(correlation_id="sweep")
    try:
        runner = SweepRunner(
            jobs=args.jobs, store=store,
            observers=_sweep_progress(args.quiet),
            telemetry=telemetry_config,
        )
        result = runner.run(sweep)
    except SimulationTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    aggregate = result.aggregate()
    print(aggregate.as_table())
    print(
        f"{len(result)} cells over seeds {sweep.seeds[0]}..{sweep.seeds[-1]} "
        f"({result.cached_cells} cached, {result.computed_cells} computed, "
        f"jobs={result.jobs}, compute {result.compute_wall_time:.1f}s)"
    )
    _report_store(store)
    if args.trace is not None:
        from repro.errors import TelemetryError
        from repro.obs.perfetto import export_perfetto
        from repro.obs.spans import Span

        spans = []
        for cell in result.cells:
            for data in cell.spans:
                span = Span.from_dict(data)
                cid = data.get("cid")
                # One track group per cell so concurrent cells' sim
                # clocks do not interleave on a shared track.
                if cid and span.track != "sweep":
                    span.track = f"{cid}/{span.track}"
                spans.append(span)
        try:
            info = export_perfetto(
                args.trace, spans=spans, correlation_id="sweep"
            )
        except TelemetryError as exc:
            print(f"trace export failed: {exc}", file=sys.stderr)
            return 1
        print(
            f"[{info['events']} trace events on {info['tracks']} tracks "
            f"written to {info['path']}]"
        )
    if args.csv == "-":
        print(aggregate.as_csv(), end="")
    elif args.csv is not None:
        os.makedirs(args.csv, exist_ok=True)
        path = os.path.join(args.csv, "sweep.csv")
        with open(path, "w") as fh:
            fh.write(aggregate.as_csv())
        print(f"[csv written to {path}]")
    return 0


def _build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Seed-ensemble bench of the headline artifacts "
        "(fig1/fig3/table2); emits BENCH_sweep.json.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small ensemble for CI smoke runs")
    parser.add_argument("--seeds", type=int, default=None, metavar="K",
                        help="ensemble width (default: 5, or 2 with --quick)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--base-seed", type=int, default=None, metavar="S")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="output path (default BENCH_sweep.json)")
    parser.add_argument("--store", metavar="DIR", default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _build_bench_sched_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench sched",
        description="Scheduler-scale bench: replay large synthetic "
        "Feitelson/SWF traces through the scheduler and, as the legacy "
        "rows, through the resort-per-pass oracle in repro.testing; "
        "emits BENCH_sched.json with pass counts, wall-clock and the "
        "incremental-vs-legacy comparison-work ratio.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="single small trace for CI smoke runs")
    parser.add_argument("--sizes", type=_int_list, default=None,
                        metavar="N1,N2,...",
                        help="trace sizes in jobs (default 5000,20000,50000; "
                        "--quick: 2000)")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="trace seed (default 2017)")
    parser.add_argument("--no-legacy", action="store_true",
                        help="skip the legacy (resort-per-pass oracle) "
                        "replays")
    parser.add_argument("--legacy-cap", type=int, default=None, metavar="N",
                        help="largest trace replayed with the "
                        "resort-per-pass oracle (default 20000)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="output path (default BENCH_sched.json)")
    parser.add_argument("--check", action="store_true",
                        help="re-run the smallest committed size and compare "
                        "the deterministic metrics against the committed "
                        "BENCH_sched.json (timestamps/wall-clock/RSS are "
                        "ignored); writes nothing")
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="dump cProfile pstats of the largest "
                        "incremental replay to FILE")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="export telemetry spans of the largest "
                        "incremental replay as a Perfetto-loadable "
                        "Chrome trace to FILE")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stderr")
    return parser


def _bench_sched_mode(argv: List[str]) -> int:
    from repro.errors import SweepError
    from repro.sweep.bench import (
        SCHED_BENCH_PATH,
        SCHED_LEGACY_CAP,
        check_sched_bench,
        run_sched_bench,
        write_bench,
    )
    from repro.sweep.spec import DEFAULT_BASE_SEED

    args = _build_bench_sched_parser().parse_args(argv)
    progress = None if args.quiet else (
        lambda message: print(f"[bench sched] {message}", file=sys.stderr)
    )
    if args.check:
        committed_path = args.out if args.out else SCHED_BENCH_PATH
        size = args.sizes[0] if args.sizes else None
        try:
            drifts = check_sched_bench(
                committed_path, size=size, progress=progress
            )
        except SweepError as exc:
            print(f"bench check failed: {exc}", file=sys.stderr)
            return 1
        if drifts:
            print(f"{committed_path} drifted from the current scheduler:")
            for line in drifts:
                print(f"  {line}")
            return 1
        print(
            f"{committed_path}: deterministic metrics match "
            "(volatile fields ignored)"
        )
        return 0
    data = run_sched_bench(
        sizes=args.sizes,
        quick=args.quick,
        seed=DEFAULT_BASE_SEED if args.seed is None else args.seed,
        legacy=not args.no_legacy,
        legacy_cap=(SCHED_LEGACY_CAP if args.legacy_cap is None
                    else args.legacy_cap),
        progress=progress,
        profile_path=args.profile,
        trace_path=args.trace,
    )
    path = write_bench(data, args.out if args.out else SCHED_BENCH_PATH)
    for size, entry in data["traces"].items():
        inc = entry["incremental"]
        line = (
            f"{size:>6} jobs  incremental: {inc['wall_s']:.1f}s wall, "
            f"{inc['comparisons']} comparisons, {inc['passes']} passes"
        )
        if "speedup" in entry:
            ratios = entry["speedup"]
            line += (
                f"  | legacy {entry['legacy']['wall_s']:.1f}s "
                f"({ratios['comparisons_ratio']:.0f}x comparisons, "
                f"{ratios['wall_ratio']:.1f}x wall)"
            )
        print(line)
    print(f"total {data['total_wall_s']:.1f}s; [bench written to {path}]")
    return 0


def _bench_mode(argv: List[str]) -> int:
    from repro.errors import SimulationTimeout, SweepError
    from repro.sweep import run_bench, write_bench
    from repro.sweep.bench import BENCH_PATH
    from repro.sweep.spec import DEFAULT_BASE_SEED

    if argv and argv[0].lower() == "sched":
        return _bench_sched_mode(argv[1:])
    args = _build_bench_parser().parse_args(argv)
    store = _store_for(args)
    try:
        data = run_bench(
            seeds=args.seeds,
            jobs=args.jobs,
            quick=args.quick,
            base_seed=(DEFAULT_BASE_SEED if args.base_seed is None
                       else args.base_seed),
            store=store,
            observers=_sweep_progress(args.quiet),
        )
    except (SimulationTimeout, SweepError) as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    path = write_bench(data, args.out if args.out else BENCH_PATH)
    for name, entry in data["artifacts"].items():
        print(
            f"{name:<8} {entry['cells']} cells "
            f"({entry['cached_cells']} cached) in {entry['ensemble_wall_s']:.1f}s"
        )
    print(f"total {data['total_wall_s']:.1f}s over seeds {data['seeds']}")
    print(f"[bench written to {path}]")
    _report_store(store)
    return 0


def _cache_mode(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or empty the on-disk result store.",
    )
    parser.add_argument("action", choices=("ls", "clear"))
    parser.add_argument("--store", metavar="DIR", default=None)
    parser.add_argument("--json", action="store_true",
                        help="emit the ls inventory as JSON (stable "
                        "ordering; includes hit/miss/put stats)")
    args = parser.parse_args(argv)

    from repro.store import default_store

    store = default_store(args.store)
    if args.action == "clear":
        if args.json:
            print("--json applies to 'ls' only", file=sys.stderr)
            return 2
        removed = store.clear()
        print(f"removed {removed} record(s) from {store.root}")
        return 0
    if args.json:
        import json

        print(json.dumps(store.listing(), indent=2, sort_keys=True))
        return 0
    entries = store.entries()
    print(f"store {store.root} (salt {store.salt}): {len(entries)} record(s)")
    for entry in entries:
        print(f"  {entry.describe()}")
    return 0


def _serve_mode(argv: List[str]) -> int:
    from repro.serve.app import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        ReproServer,
        run_server,
    )
    from repro.serve.jobs import DEFAULT_QUEUE_LIMIT, DEFAULT_WORKERS

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the scheduler-as-a-service HTTP server "
        "(REST/JSON API with live SSE event streams).",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, metavar="ADDR")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, metavar="N",
                        help=f"listen port (default {DEFAULT_PORT}; 0 picks "
                        "an ephemeral port)")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        metavar="N",
                        help="simulation worker threads "
                        f"(default {DEFAULT_WORKERS})")
    parser.add_argument("--queue-limit", type=int,
                        default=DEFAULT_QUEUE_LIMIT, metavar="N",
                        help="max queued submissions before 429 "
                        f"(default {DEFAULT_QUEUE_LIMIT})")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="result-store directory backing sweeps and "
                        "artifact rendering")
    parser.add_argument("--no-cache", action="store_true",
                        help="serve without a result store")
    parser.add_argument("--backend", metavar="NAME", default="sim",
                        help="execution backend for workload submissions "
                        "(default: sim; see 'repro backends')")
    parser.add_argument("--time-scale", type=float, default=None, metavar="X",
                        help="compress workload seconds onto the backend "
                        "clock by X (wall-clock backends only)")
    args = parser.parse_args(argv)

    from repro.backend import backend_names

    if args.backend not in backend_names():
        print(f"unknown backend {args.backend!r}; see 'repro backends'",
              file=sys.stderr)
        return 2
    if args.time_scale is not None and (
        args.time_scale <= 0 or args.backend == "sim"
    ):
        print("--time-scale must be positive and needs a wall-clock "
              "--backend", file=sys.stderr)
        return 2
    backend_options = (
        {} if args.time_scale is None else {"time_scale": args.time_scale}
    )
    store = _store_for(args)
    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        store=store,
        backend=args.backend,
        backend_options=backend_options,
    )

    def announce(srv) -> None:
        print(f"repro serve: listening on http://{srv.host}:{srv.port} "
              f"({srv.workers} workers, queue limit {srv.queue_limit}, "
              f"backend {srv.backend})",
              flush=True)

    run_server(server, announce=announce)
    print("repro serve: drained and stopped")
    return 0


def _loadgen_mode(argv: List[str]) -> int:
    from repro.serve.app import DEFAULT_HOST, DEFAULT_PORT
    from repro.serve.loadgen import (
        DEFAULT_CLIENTS,
        DEFAULT_NUM_JOBS,
        DEFAULT_REQUESTS,
        Loadgen,
        LoadgenError,
        check_report,
        summarize,
    )

    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Benchmark a running `repro serve` with concurrent "
        "workload submissions and SSE event streams.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, metavar="ADDR")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, metavar="N")
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS,
                        metavar="N", help="concurrent client sessions "
                        f"(default {DEFAULT_CLIENTS})")
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS,
                        metavar="N", help="total workload submissions "
                        f"(default {DEFAULT_REQUESTS})")
    parser.add_argument("--num-jobs", type=int, default=DEFAULT_NUM_JOBS,
                        metavar="N", help="jobs per submitted workload "
                        f"(default {DEFAULT_NUM_JOBS})")
    parser.add_argument("--seed", type=int, default=2017, metavar="S")
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized run (2 clients, 4 requests)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless throughput is non-zero, "
                        "every job completed and the drain was clean")
    parser.add_argument("--out", metavar="PATH", default="BENCH_serve.json",
                        help="report path (default BENCH_serve.json)")
    args = parser.parse_args(argv)

    clients = 2 if args.quick else args.clients
    requests = 4 if args.quick else args.requests
    gen = Loadgen(
        host=args.host,
        port=args.port,
        clients=clients,
        requests=requests,
        num_jobs=args.num_jobs,
        seed=args.seed,
    )
    try:
        report = gen.run()
    except (LoadgenError, ConnectionError, OSError) as exc:
        print(f"loadgen failed: {exc}", file=sys.stderr)
        print(f"(is `repro serve` running on "
              f"{args.host}:{args.port}?)", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(summarize(report))
    print(f"[report written to {args.out}]")
    if args.check:
        failures = check_report(report)
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0].lower() == "serve":
        return _serve_mode(argv[1:])
    if argv and argv[0].lower() == "loadgen":
        return _loadgen_mode(argv[1:])
    if argv and argv[0].lower() == "sweep":
        return _sweep_mode(argv[1:])
    if argv and argv[0].lower() == "bench":
        return _bench_mode(argv[1:])
    if argv and argv[0].lower() == "cache":
        return _cache_mode(argv[1:])
    if argv and argv[0].lower() == "resilience":
        return _resilience_mode(argv[1:])
    if argv and argv[0].lower() == "trace":
        return _trace_mode(argv[1:])
    if argv and argv[0].lower() == "backends":
        return _backends_mode(argv[1:])
    args = build_parser().parse_args(argv)
    if args.artifacts[0].lower() == "run":
        if len(args.artifacts) > 1:
            print("run mode takes no artifact names", file=sys.stderr)
            return 2
        return _run_user_workload(args)
    if args.workload is not None:
        print("--workload requires the 'run' mode", file=sys.stderr)
        return 2
    if args.backend is not None or args.time_scale is not None:
        print("--backend/--time-scale require the 'run' mode "
              "(artifacts always render through the simulator)",
              file=sys.stderr)
        return 2

    registry = builtin_registry()
    if args.no_cache:
        registry.detach_store()
    else:
        # Rendered figures/tables are served from (and persisted to) the
        # on-disk store, so a repeated `repro figN` skips the simulation.
        from repro.store import default_store

        registry.attach_store(default_store(args.store))
    wanted: List[str] = []
    for name in args.artifacts:
        key = name.lower()
        if key == "list":
            _print_listing(registry)
            continue
        if key == "all":
            wanted.extend(registry.names())
            continue
        if key not in registry:
            print(f"unknown artifact {name!r}; try 'list'", file=sys.stderr)
            return 2
        wanted.append(key)

    seen = set()
    for key in wanted:
        if key in seen:
            continue
        seen.add(key)
        print(registry.render(key, seed=args.seed))
        if args.csv is not None and registry.get(key).supports_csv:
            _emit_csv(registry, key, args.seed, args.csv)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
