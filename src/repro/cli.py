"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro --help              # the verbs below and the artifact form
    python -m repro list                # what can be reproduced
    python -m repro fig10 fig11 --csv out/
                                        # artifacts (one shared simulation)
    python -m repro all --seed 7        # every artifact, reseeded
    python -m repro run --workload my.swf --flexible
                                        # replay a user-supplied SWF log
    python -m repro sweep --artifact fig3 --seeds 5 --jobs 4
                                        # seed ensemble with 95% CIs
    python -m repro bench --quick       # BENCH_sweep.json ('bench sched':
                                        # scheduler scale -> BENCH_sched.json)
    python -m repro cache ls            # inspect the on-disk result store
    python -m repro serve               # scheduler-as-a-service HTTP API
    python -m repro loadgen --quick     # benchmark a running `repro serve`
    python -m repro resilience --quick  # C/R vs DMR under node failures
    python -m repro trace fig1 --quick  # Perfetto trace of one scenario
    python -m repro backends            # execution backends + availability

:func:`build_parser` is the one command tree: a subparser per verb,
bound to its handler with ``set_defaults(handler=...)``, with the
options several verbs share defined once as parent parsers and checked
by the ``type=`` converters below.  Artifact names come from the
declarative :mod:`repro.api` registry, not from the tree, so rendering
artifacts is the default rather than a verb: :func:`parse_command`
sends a command line whose first word is not a verb to it.  Sweeps and
benches go through :mod:`repro.sweep`; rendered artifacts and sweep
cells are cached in the :mod:`repro.store` result store (disable with
``--no-cache``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, NoReturn, Optional

from repro.api.registry import ArtifactRegistry, builtin_registry

#: The verbs of the tree; any other first word names artifacts.
VERBS = ("run", "sweep", "bench", "cache", "serve", "loadgen",
         "resilience", "trace", "backends")
#: The hidden subcommand :func:`parse_command` routes artifact names to.
_ARTIFACTS = "artifacts"


# -- the command tree ---------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return value


def _list_of(cast):
    """Argparse type: a non-empty comma-separated list of ``cast`` values."""

    def parse(text: str) -> list:
        values = [cast(part) for part in text.split(",") if part]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values

    return parse


def _output_path(text: str) -> str:
    """Argparse type: a file path in an existing directory, so a missing
    one is a usage error before the run, not a traceback after it."""
    directory = os.path.dirname(text)
    if directory and not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"directory {directory!r} does not exist")
    return text


def _backend_name(text: str) -> str:
    from repro.backend import backend_names

    if text not in backend_names():
        raise argparse.ArgumentTypeError(
            f"unknown backend {text!r}; see 'repro backends'")
    return text


class _Parser(argparse.ArgumentParser):
    """Every parser of the tree: usage errors are one stderr line, and
    verbs match case-insensitively, as artifact names do."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse has no public hook for how subcommand names match.
        if action.nargs == argparse.PARSER:
            arg_strings = [arg_strings[0].lower(), *arg_strings[1:]]
        return super()._get_values(action, arg_strings)


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option several verbs share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    store = _option("--store", metavar="DIR", help="result-store directory "
                    "(default: $REPRO_CACHE_DIR or .repro-cache)")
    no_cache = _option("--no-cache", action="store_true",
                       help="bypass the on-disk result store")
    seed = _option("--seed", type=int, metavar="N",
                   help="base seed (default 2017)")
    quiet = _option("--quiet", action="store_true",
                    help="suppress progress lines on stderr")
    csv = _option("--csv", metavar="DIR",
                  help="also write the CSV form into DIR")
    backend = _option("--backend", type=_backend_name, default="sim",
                      metavar="NAME", help="execution backend "
                      "(default: sim; see 'repro backends')")
    time_scale = _option("--time-scale", type=_positive_float, metavar="X",
                         help="compress workload seconds onto the backend "
                         "clock by X (wall-clock backends only; 0.01 turns "
                         "a 100s trace into 1s)")
    jobs = _option("--jobs", type=_positive_int, default=1, metavar="N",
                   help="worker processes (default 1: serial)")
    base_seed = _option("--base-seed", type=int, metavar="S",
                        help="first seed of the ensemble (default 2017)")
    # serve and loadgen resolve None to the service's own defaults, so
    # the CLI need not import repro.serve before a verb asks for it.
    address = _option("--host", metavar="ADDR",
                      help="server address (default 127.0.0.1)")
    address.add_argument("--port", type=int, metavar="N",
                         help="server port (default 8177; 0 lets "
                         "'repro serve' pick an ephemeral port)")

    root = _Parser(
        prog="repro",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Regenerate the evaluation of 'Efficient Scalable "
        "Computing through Flexible\nApplications and Adaptive Workloads' "
        "(Iserte et al., ICPP 2017).",
        epilog="artifact form (a first word that is not a verb):\n"
        "  repro ARTIFACT [ARTIFACT ...] [options]\n"
        "  renders figures and tables by name: 'repro list' names them, "
        "'repro all'\n  renders every one, 'repro list --help' shows "
        "the options.",
    )
    verbs = root.add_subparsers(title="verbs", metavar="VERB")

    artifacts = verbs.add_parser(
        _ARTIFACTS, prog="repro", parents=[csv, seed, store, no_cache],
        description="Render the paper's figures and tables by name.",
    )
    artifacts.add_argument("artifacts", nargs="+", metavar="ARTIFACT",
                           help="'list', 'all', or artifact names "
                           "(see 'list')")
    artifacts.set_defaults(handler=_render_artifacts)

    run = verbs.add_parser(
        "run", parents=[seed, csv, store, no_cache, backend, time_scale],
        help="replay a user-supplied SWF workload",
        description="Replay a Standard Workload Format log on the "
        "simulator or a wall-clock backend.",
    )
    run.add_argument("--workload", metavar="FILE.swf", required=True,
                     help="Standard Workload Format log to execute")
    rendition = run.add_mutually_exclusive_group()
    rendition.add_argument("--flexible", action="store_true",
                           help="run the malleable rendition (default)")
    rendition.add_argument("--rigid", action="store_true",
                           help="run the rigid rendition instead")
    run.add_argument("--nodes", type=_positive_int, metavar="N",
                     help="cluster size (default: the 65-node production "
                     "testbed, grown to fit the largest job)")
    run.set_defaults(handler=_run_user_workload)

    sweep = verbs.add_parser(
        "sweep", parents=[store, no_cache, quiet, backend, jobs, base_seed],
        help="run a parameter grid with seed-ensemble statistics",
        description="Run a parameter grid as independent cells with "
        "seed-ensemble statistics (mean, median, stdev, 95% CI).",
    )
    sweep.add_argument("--artifact", action="append", metavar="NAME",
                       help="ensemble a registered artifact (repeatable)")
    sweep.add_argument("--workload", action="append", metavar="FAMILY",
                       choices=("fs", "realapps"),
                       help="sweep a workload family instead (repeatable)")
    sweep.add_argument("--num-jobs", type=_list_of(_positive_int),
                       metavar="N1,N2,...", help="workload sizes axis")
    sweep.add_argument("--nodes", type=_list_of(_positive_int),
                       metavar="N1,N2,...", help="cluster sizes axis")
    sweep.add_argument("--policies", type=_list_of(str), metavar="P1,P2,...",
                       help="policy presets axis (default, deepest, literal)")
    sweep.add_argument("--seeds", type=_positive_int, default=5, metavar="K",
                       help="ensemble width: K consecutive seeds (default 5)")
    sweep.add_argument("--async", dest="async_mode", action="store_true",
                       help="asynchronous DMR mode for workload cells")
    sweep.add_argument("--csv", nargs="?", const="-", metavar="DIR",
                       help="emit aggregated CSV (bare: to stdout; "
                       "DIR: into DIR/sweep.csv)")
    sweep.add_argument("--trace", type=_output_path, metavar="FILE",
                       help="collect per-cell telemetry spans and export "
                       "them as a Perfetto-loadable Chrome trace to FILE")
    sweep.set_defaults(handler=_sweep_mode)

    bench = verbs.add_parser(
        "bench", parents=[store, no_cache, quiet, jobs, base_seed],
        help="seed-ensemble bench -> BENCH_sweep.json "
        "('bench sched': scheduler scale)",
        description="Seed-ensemble bench of the headline artifacts "
        "(fig1/fig3/table2); emits BENCH_sweep.json.",
    )
    bench.add_argument("--quick", action="store_true",
                       help="small ensemble for CI smoke runs")
    bench.add_argument("--seeds", type=_positive_int, metavar="K",
                       help="ensemble width (default: 5, or 2 with --quick)")
    bench.add_argument("--out", type=_output_path, metavar="FILE",
                       help="output path (default BENCH_sweep.json)")
    bench.set_defaults(handler=_bench_mode)
    # sched's --quick, --quiet and --out default to bench's values, so
    # 'bench --quick sched' and 'bench sched --quick' agree.
    sched = bench.add_subparsers(title="benches").add_parser(
        "sched", parents=[seed],
        help="scheduler-scale bench -> BENCH_sched.json",
        description="Scheduler-scale bench: replay large synthetic "
        "Feitelson/SWF traces through the scheduler and, as the legacy "
        "rows, through the resort-per-pass oracle in repro.testing; "
        "emits BENCH_sched.json with pass counts, wall-clock and the "
        "incremental-vs-legacy comparison-work ratio.",
    )
    sched.add_argument("--quick", action="store_true",
                       default=argparse.SUPPRESS,
                       help="single small trace for CI smoke runs")
    sched.add_argument("--sizes", type=_list_of(_positive_int),
                       metavar="N1,N2,...",
                       help="trace sizes in jobs (default 5000,20000,50000; "
                       "--quick: 2000)")
    sched.add_argument("--no-legacy", action="store_true",
                       help="skip the legacy (resort-per-pass oracle) "
                       "replays")
    sched.add_argument("--legacy-cap", type=int, metavar="N",
                       help="largest trace replayed with the "
                       "resort-per-pass oracle (default 20000)")
    sched.add_argument("--out", type=_output_path, metavar="FILE",
                       default=argparse.SUPPRESS,
                       help="output path (default BENCH_sched.json)")
    sched.add_argument("--check", action="store_true",
                       help="re-run the smallest committed size and compare "
                       "the deterministic metrics against the committed "
                       "BENCH_sched.json (timestamps/wall-clock/RSS are "
                       "ignored); writes nothing")
    sched.add_argument("--profile", type=_output_path, metavar="FILE",
                       help="dump cProfile pstats of the largest "
                       "incremental replay to FILE")
    sched.add_argument("--trace", type=_output_path, metavar="FILE",
                       help="export telemetry spans of the largest "
                       "incremental replay as a Perfetto-loadable "
                       "Chrome trace to FILE")
    sched.add_argument("--quiet", action="store_true",
                       default=argparse.SUPPRESS,
                       help="suppress progress lines on stderr")
    sched.set_defaults(handler=_bench_sched_mode)

    cache = verbs.add_parser(
        "cache", help="inspect or empty the on-disk result store",
        description="Inspect or empty the on-disk result store.",
    )
    cache_verbs = cache.add_subparsers(required=True)
    ls = cache_verbs.add_parser("ls", parents=[store],
                                help="list the stored records")
    ls.add_argument("--json", action="store_true",
                    help="emit the inventory as JSON (stable ordering; "
                    "includes hit/miss/put stats)")
    ls.set_defaults(handler=_cache_ls)
    cache_verbs.add_parser(
        "clear", parents=[store], help="remove every stored record",
    ).set_defaults(handler=_cache_clear)

    serve = verbs.add_parser(
        "serve", parents=[address, store, no_cache, backend, time_scale],
        help="run the scheduler-as-a-service HTTP server",
        description="Run the scheduler-as-a-service HTTP server "
        "(REST/JSON API with live SSE event streams).",
    )
    serve.add_argument("--workers", type=_positive_int, metavar="N",
                       help="simulation worker threads (default 2)")
    serve.add_argument("--queue-limit", type=_positive_int, metavar="N",
                       help="max queued submissions before 429 (default 64)")
    serve.set_defaults(handler=_serve_mode)

    loadgen = verbs.add_parser(
        "loadgen", parents=[address, seed],
        help="benchmark a running 'repro serve'",
        description="Benchmark a running `repro serve` with concurrent "
        "workload submissions and SSE event streams.",
    )
    loadgen.add_argument("--clients", type=_positive_int, metavar="N",
                         help="concurrent client sessions (default 4)")
    loadgen.add_argument("--requests", type=_positive_int, metavar="N",
                         help="total workload submissions (default 12)")
    loadgen.add_argument("--num-jobs", type=_positive_int, metavar="N",
                         help="jobs per submitted workload (default 6)")
    loadgen.add_argument("--quick", action="store_true",
                         help="small CI-sized run (2 clients, 4 requests)")
    loadgen.add_argument("--check", action="store_true",
                         help="exit non-zero unless throughput is non-zero, "
                         "every job completed and the drain was clean")
    loadgen.add_argument("--out", type=_output_path, metavar="PATH",
                         default="BENCH_serve.json",
                         help="report path (default BENCH_serve.json)")
    loadgen.set_defaults(handler=_loadgen_mode)

    resilience = verbs.add_parser(
        "resilience", parents=[seed, csv],
        help="C/R vs DMR under MTBF-sampled node failures",
        description="C/R vs DMR under MTBF-sampled node failures: the same "
        "fault plan replays against both mechanisms; reports completed "
        "work and makespan per MTBF (every run invariant-checked). "
        "Like 'repro sweep'/'bench', this mode always re-simulates; the "
        "registry form of the same artifact (via 'repro all', or the "
        "'resilience' name in an artifact list) runs the default MTBF "
        "sweep through the cached-artifact path instead.",
    )
    resilience.add_argument("--mtbf", type=_list_of(_positive_float),
                            metavar="S1,S2,...",
                            help="cluster-wide MTBF values in seconds "
                            "(default 2000,1000,500; --quick: 500)")
    resilience.add_argument("--quick", action="store_true",
                            help="small workload + single MTBF for CI "
                            "smoke runs")
    resilience.add_argument("--num-jobs", type=_positive_int, metavar="N",
                            help="workload size (default 20; --quick: 14)")
    resilience.add_argument("--repair-time", type=_positive_float,
                            metavar="S",
                            help="node repair time in seconds (default 600)")
    resilience.add_argument("--check", action="store_true",
                            help="exit non-zero unless DMR completed "
                            "strictly more work than C/R at the harshest "
                            "MTBF")
    resilience.set_defaults(handler=_resilience_mode)

    trace = verbs.add_parser(
        "trace", parents=[seed],
        help="export one scenario's spans as a Perfetto trace",
        description="Run one telemetry-enabled scenario and export its "
        "spans plus the per-job timeline as a Chrome trace-event JSON "
        "file, loadable at https://ui.perfetto.dev.",
    )
    trace.add_argument("scenario", nargs="?", default="fig1",
                       help="named scenario (default: fig1 — the DMR "
                       "rendition of the Section VIII testbed under an "
                       "MTBF-sampled fault plan, so scheduler passes, "
                       "reconfigurations and fault injections all appear)")
    trace.add_argument("--workload", choices=("fs", "realapps"),
                       default="fs", help="workload family (default fs)")
    trace.add_argument("--num-jobs", type=_positive_int, metavar="N",
                       help="workload size (default 20; 14 with --quick)")
    trace.add_argument("--mtbf", type=_positive_float, metavar="S",
                       help="cluster-wide MTBF of the injected fault plan "
                       "in seconds (default 500)")
    trace.add_argument("--max-spans", type=_positive_int, metavar="N",
                       help="span-buffer bound (default 100000; overflow "
                       "is counted, not fatal)")
    trace.add_argument("--out", type=_output_path, metavar="FILE",
                       default="trace.json",
                       help="output path (default trace.json)")
    trace.add_argument("--quick", action="store_true",
                       help="CI-sized run (smaller workload)")
    trace.set_defaults(handler=_trace_mode)

    backends = verbs.add_parser(
        "backends", help="list the execution backends and availability",
        description="List the registered execution backends with their "
        "capability flags and an availability probe (e.g. whether "
        "sbatch is on PATH).",
    )
    backends.add_argument("--json", action="store_true",
                          help="emit the listing as JSON")
    backends.set_defaults(handler=_backends_mode)
    return root


def _print_listing(registry: ArtifactRegistry) -> None:
    print("reproducible artifacts:", ", ".join(registry.names()))
    for name in registry.names():
        spec = registry.get(name)
        csv_tag = " [csv]" if spec.supports_csv else ""
        print(f"  {name:<12} {spec.description}{csv_tag}")
    print("also: 'run --workload FILE.swf [--flexible|--rigid]' "
          "to replay your own workload")


def _write_csv(directory: str, name: str, text: str) -> None:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.csv")
    with open(path, "w") as fh:
        fh.write(text)
    print(f"[csv written to {path}]")


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options the command line set, as keyword arguments;
    the callee's own defaults stand in for the rest."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _run_user_workload(args: argparse.Namespace) -> int:
    """The ``repro run`` mode: execute a user-supplied SWF workload."""
    from repro.api import Session, SimulationTimeout
    from repro.cluster.configs import ClusterConfig
    from repro.errors import BackendError, WorkloadError
    from repro.metrics.report import format_csv, format_table
    from repro.workload.swf import parse_swf

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
    if args.backend != "sim":
        session = session.with_backend(args.backend,
                                       **_given(args, "time_scale"))
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
        _write_csv(args.csv, "run", format_csv(
            ["jobs", "rendition", "makespan_s", "avg_wait_s",
             "avg_exec_s", "utilization_pct", "resizes"],
            cells,
        ))
    return 0


# -- backends mode ------------------------------------------------------------

def _backends_mode(args: argparse.Namespace) -> int:
    """``repro backends``: list execution backends and probe availability."""
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

def _resilience_mode(args: argparse.Namespace) -> int:
    from repro.api.registry import default_seed
    from repro.experiments import resilience as rz

    mtbfs = args.mtbf
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
        _write_csv(args.csv, "resilience", result.as_csv())
    if args.check and not ahead:
        print("resilience check failed: DMR did not beat C/R", file=sys.stderr)
        return 1
    return 0


# -- trace mode ---------------------------------------------------------------

def _trace_mode(args: argparse.Namespace) -> int:
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


def _sweep_mode(args: argparse.Namespace) -> int:
    from repro.errors import SimulationTimeout, SweepError
    from repro.sweep import Sweep, SweepRunner
    from repro.sweep.spec import DEFAULT_BASE_SEED

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
            backend=args.backend,
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
            observers=() if args.quiet else (_PrintProgress(),),
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
        _write_csv(args.csv, "sweep", aggregate.as_csv())
    return 0


def _bench_sched_mode(args: argparse.Namespace) -> int:
    from repro.errors import SweepError
    from repro.sweep.bench import (
        SCHED_BENCH_PATH,
        SCHED_LEGACY_CAP,
        check_sched_bench,
        run_sched_bench,
        write_bench,
    )
    from repro.sweep.spec import DEFAULT_BASE_SEED

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


def _bench_mode(args: argparse.Namespace) -> int:
    from repro.errors import SimulationTimeout, SweepError
    from repro.sweep import run_bench, write_bench
    from repro.sweep.bench import BENCH_PATH
    from repro.sweep.spec import DEFAULT_BASE_SEED

    store = _store_for(args)
    try:
        data = run_bench(
            seeds=args.seeds,
            jobs=args.jobs,
            quick=args.quick,
            base_seed=(DEFAULT_BASE_SEED if args.base_seed is None
                       else args.base_seed),
            store=store,
            observers=() if args.quiet else (_PrintProgress(),),
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


def _cache_ls(args: argparse.Namespace) -> int:
    from repro.store import default_store

    store = default_store(args.store)
    if args.json:
        print(json.dumps(store.listing(), indent=2, sort_keys=True))
        return 0
    entries = store.entries()
    print(f"store {store.root} (salt {store.salt}): {len(entries)} record(s)")
    for entry in entries:
        print(f"  {entry.describe()}")
    return 0


def _cache_clear(args: argparse.Namespace) -> int:
    from repro.store import default_store

    store = default_store(args.store)
    removed = store.clear()
    print(f"removed {removed} record(s) from {store.root}")
    return 0


def _serve_mode(args: argparse.Namespace) -> int:
    from repro.serve.app import ReproServer, run_server

    server = ReproServer(
        store=_store_for(args),
        backend=args.backend,
        backend_options=_given(args, "time_scale"),
        **_given(args, "host", "port", "workers", "queue_limit"),
    )

    def announce(srv) -> None:
        print(f"repro serve: listening on http://{srv.host}:{srv.port} "
              f"({srv.workers} workers, queue limit {srv.queue_limit}, "
              f"backend {srv.backend})",
              flush=True)

    run_server(server, announce=announce)
    print("repro serve: drained and stopped")
    return 0


def _loadgen_mode(args: argparse.Namespace) -> int:
    from repro.serve.app import DEFAULT_HOST, DEFAULT_PORT
    from repro.serve.loadgen import (
        Loadgen,
        LoadgenError,
        check_report,
        summarize,
    )

    sizes = ({"clients": 2, "requests": 4} if args.quick
             else _given(args, "clients", "requests"))
    gen = Loadgen(
        host=DEFAULT_HOST if args.host is None else args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        **sizes,
        **_given(args, "num_jobs", "seed"),
    )
    try:
        report = gen.run()
    except (LoadgenError, ConnectionError, OSError) as exc:
        print(f"loadgen failed: {exc}", file=sys.stderr)
        print(f"(is `repro serve` running on "
              f"{gen.host}:{gen.port}?)", file=sys.stderr)
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


# -- the artifact form and dispatch -------------------------------------------

def _render_artifacts(args: argparse.Namespace) -> int:
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
            _write_csv(args.csv, key, registry.render_csv(key, seed=args.seed))
    return 0


def parse_command(argv: List[str]) -> argparse.Namespace:
    """Parse one ``repro`` command line without running it.

    Raises ``SystemExit`` for ``--help`` (status 0) and for a usage
    error (status 2).  The one routing step: a first word that is
    neither a verb (in any case) nor ``-h``/``--help`` starts the
    artifact form.  ``run`` and ``serve`` take ``--time-scale`` only
    with a wall-clock ``--backend``.
    """
    argv = list(argv)
    if not argv or (argv[0].lower() not in VERBS
                    and argv[0] not in ("-h", "--help")):
        argv.insert(0, _ARTIFACTS)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "time_scale", None) is not None and args.backend == "sim":
        parser.error("--time-scale applies to wall-clock backends; "
                     "the simulator's virtual seconds are already free")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = parse_command(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
