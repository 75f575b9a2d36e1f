"""The per-layer metrics: which public functions are wrapped, and how the
traced run turns spans and the program's own counters into metrics.

Layers are named after the ``repro`` module that owns them.  Every
traced run reports every metric in :data:`PER_LAYER`; a layer the
workload does not reach reads 0.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from perfbench.stats import backed, median, percentile
from perfbench.tracer import Tracer

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("slurm.passes", "count", "lower"),
    ("slurm.backfill_passes", "count", "lower"),
    ("slurm.jobs_examined", "count", "lower"),
    ("slurm.jobs_started", "count", "higher"),
    ("slurm.heap_pops", "count", "lower"),
    ("slurm.max_queue_depth", "count", "lower"),
    ("slurm.started_per_examined", "ratio", "higher"),
    ("slurm.pass_s", "s", "lower"),
    ("slurm.submit_s", "s", "lower"),
    ("slurm.finish_s", "s", "lower"),
    ("slurm.self_s", "s", "lower"),
    ("slurm.reconfig.checks", "count", "lower"),
    ("slurm.reconfig.check_s", "s", "lower"),
    ("slurm.reconfig.check_us_p50", "us", "lower"),
    ("slurm.reconfig.check_us_p99", "us", "lower"),
    ("slurm.reconfig.view_s", "s", "lower"),
    ("slurm.reconfig.decide_s", "s", "lower"),
    ("slurm.reconfig.self_s", "s", "lower"),
    ("slurm.reconfig.pending_seen", "count", "lower"),
    ("slurm.reconfig.expand", "count", "higher"),
    ("slurm.reconfig.shrink", "count", "higher"),
    ("slurm.reconfig.none", "count", "lower"),
    ("slurm.reconfig.acted_ratio", "ratio", "higher"),
    ("runtime.dmr_checks", "count", "lower"),
    ("runtime.resizes", "count", "higher"),
    ("runtime.bytes_moved", "B", "lower"),
    ("metrics.trace_records", "count", "lower"),
    ("metrics.record_s", "s", "lower"),
    ("metrics.summarize_s", "s", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("workload.parse_s", "s", "lower"),
    ("workload.generate_s", "s", "lower"),
    ("api.assemble_s", "s", "lower"),
    ("api.runs", "count", "higher"),
    ("api.self_s", "s", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.run_ms", "ms", "lower"),
    ("serve.stream_ms", "ms", "lower"),
    ("serve.status_ms", "ms", "lower"),
    ("serve.frames", "count", "lower"),
    ("serve.late_ms", "ms", "lower"),
    ("serve.refused", "count", "lower"),
    ("serve.server_submit_ms", "ms", "lower"),
    ("serve.server_stream_ms", "ms", "lower"),
    ("serve.max_queue_depth", "count", "lower"),
    ("sweep.cells_computed", "count", "lower"),
    ("sweep.cells_cached", "count", "higher"),
    ("sweep.cell_ms_p50", "ms", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("store.puts", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.get_s", "s", "lower"),
    ("store.put_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Scheduler counters summed over units, by metric name.
SCHED_COUNTERS = {
    "slurm.passes": "passes",
    "slurm.backfill_passes": "backfill_passes",
    "slurm.jobs_examined": "jobs_examined",
    "slurm.jobs_started": "jobs_started",
    "slurm.heap_pops": "heap_pops",
}


class LayerProbe:
    """Installs the wrappers and accumulates what they observe."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        tracer.keep_durations.update({"slurm.reconfig.check", "sweep.cell"})
        self.actions: Counter = Counter()
        self.pending_seen = 0
        self.views = 0
        self.bytes_moved = 0.0
        self.sched: Counter = Counter()
        self.max_queue_depth = 0
        self.events = 0
        #: Traces of finished runs, scanned for runtime events at report
        #: time so the scan never lands inside a timed span.
        self.traces: List[object] = []

    def install(self) -> None:
        import repro.api.session as session_mod
        import repro.runtime.nanos as nanos_mod
        import repro.sweep.runner as runner_mod
        import repro.workload.generator as generator_mod
        import repro.workload.swf as swf_mod
        from repro.api.session import Session, SessionRun
        from repro.metrics.trace import Trace
        from repro.obs.spans import Telemetry
        from repro.sim.engine import Environment
        from repro.slurm.controller import SlurmController
        from repro.slurm.reconfig import ReconfigurationPolicy
        from repro.store.store import ResultStore

        t = self.tracer
        t.wrap(Environment, "run", "sim.run")
        t.wrap(SlurmController, "submit", "slurm.submit")
        t.wrap(SlurmController, "finish_job", "slurm.finish")
        t.wrap(SlurmController, "check_status", "slurm.reconfig.check")
        t.wrap(SlurmController, "policy_view", "slurm.reconfig.view",
               observe=self._saw_view)
        t.wrap(ReconfigurationPolicy, "decide", "slurm.reconfig.decide",
               observe=self._saw_decision)
        t.wrap(nanos_mod, "plan_for_resize", "runtime.plan",
               observe=self._saw_plan)
        t.wrap(Trace, "record", "metrics.record")
        t.wrap(session_mod, "summarize", "metrics.summarize")
        t.wrap(swf_mod, "parse_swf", "workload.parse")
        t.wrap(generator_mod, "fs_workload", "workload.generate")
        t.wrap(generator_mod, "realapp_workload", "workload.generate")
        t.wrap(Session, "submit", "api.submit")
        t.wrap(SessionRun, "execute", "api.execute", observe=self._saw_run)
        t.wrap(runner_mod, "execute_cell", "sweep.cell")
        t.wrap(ResultStore, "get", "store.get")
        t.wrap(ResultStore, "put", "store.put")

        append = Telemetry.append

        def append_and_adopt(telemetry, span):
            append(telemetry, span)
            if span.name == "sched.pass":
                t.adopt_pass(span.attrs["wall_us"] * 1e-6)

        t.patch(Telemetry, "append", append_and_adopt)

    # -- observers ---------------------------------------------------------------
    def _saw_view(self, view, args) -> None:
        self.views += 1
        self.pending_seen += len(view.pending)

    def _saw_decision(self, decision, args) -> None:
        self.actions[decision.action.value] += 1

    def _saw_plan(self, plan, args) -> None:
        self.bytes_moved += plan.bytes_moved

    def _saw_run(self, result, args) -> None:
        run = args[0]
        controller = run.sim.controller
        snapshot = controller.stats.snapshot()
        for metric, key in SCHED_COUNTERS.items():
            self.sched[metric] += snapshot[key]
        self.max_queue_depth = max(self.max_queue_depth,
                                   snapshot["max_queue_depth"])
        self.events += run.sim.env.events_processed
        self.traces.append(result.trace)

    def _runtime_counts(self) -> Counter:
        from repro.metrics.trace import EventKind

        counts: Counter = Counter()
        for trace in self.traces:
            for event in trace:
                if event.kind is EventKind.DMR_CHECK:
                    counts["dmr_checks"] += 1
                elif event.kind in (EventKind.RESIZE_EXPAND,
                                    EventKind.RESIZE_SHRINK):
                    counts["resizes"] += 1
        return counts

    # -- report ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Every in-process per-layer metric (serve fills its own)."""
        t = self.tracer
        self_by_layer = t.layer_self_time()
        checks = t.durations.get("slurm.reconfig.check", [])
        acted = self.actions["expand"] + self.actions["shrink"]
        decided = acted + self.actions["no_action"]
        examined = self.sched["slurm.jobs_examined"]
        runtime = self._runtime_counts()
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        out.update({
            "sim.events": self.events,
            "sim.run_s": t.inclusive["sim.run"],
            "sim.self_s": self_by_layer.get("sim", 0.0),
            **{metric: float(v) for metric, v in self.sched.items()},
            "slurm.max_queue_depth": self.max_queue_depth,
            "slurm.started_per_examined": (
                self.sched["slurm.jobs_started"] / examined if examined else 0.0),
            "slurm.pass_s": t.inclusive["slurm.pass"],
            "slurm.submit_s": t.inclusive["slurm.submit"],
            "slurm.finish_s": t.inclusive["slurm.finish"],
            "slurm.self_s": self_by_layer.get("slurm", 0.0),
            "slurm.reconfig.checks": t.calls["slurm.reconfig.check"],
            "slurm.reconfig.check_s": t.inclusive["slurm.reconfig.check"],
            "slurm.reconfig.check_us_p50": _backed_us(checks, 0.50),
            "slurm.reconfig.check_us_p99": _backed_us(checks, 0.99),
            "slurm.reconfig.view_s": t.inclusive["slurm.reconfig.view"],
            "slurm.reconfig.decide_s": t.inclusive["slurm.reconfig.decide"],
            "slurm.reconfig.self_s": self_by_layer.get("slurm.reconfig", 0.0),
            "slurm.reconfig.pending_seen": (
                self.pending_seen / self.views if self.views else 0.0),
            "slurm.reconfig.expand": self.actions["expand"],
            "slurm.reconfig.shrink": self.actions["shrink"],
            "slurm.reconfig.none": self.actions["no_action"],
            "slurm.reconfig.acted_ratio": acted / decided if decided else 0.0,
            "runtime.dmr_checks": runtime["dmr_checks"],
            "runtime.resizes": runtime["resizes"],
            "runtime.bytes_moved": self.bytes_moved,
            "metrics.trace_records": t.calls["metrics.record"],
            "metrics.record_s": t.inclusive["metrics.record"],
            "metrics.summarize_s": t.inclusive["metrics.summarize"],
            "metrics.self_s": self_by_layer.get("metrics", 0.0),
            "workload.parse_s": t.inclusive["workload.parse"],
            "workload.generate_s": t.inclusive["workload.generate"],
            "api.assemble_s": t.inclusive["api.submit"],
            "api.runs": t.calls["api.execute"],
            "api.self_s": self_by_layer.get("api", 0.0),
            "sweep.self_s": self_by_layer.get("sweep", 0.0),
            "store.get_s": t.inclusive["store.get"],
            "store.put_s": t.inclusive["store.put"],
            "trace.spans": len(t.spans) + t.dropped,
        })
        return out


def _backed_us(durations: List[float], fraction: float) -> float:
    """Percentile in microseconds, 0 when the sample cannot back it."""
    if not durations or not backed(len(durations), fraction):
        return 0.0
    return 1e6 * percentile(durations, fraction)


def overhead_metrics(pairs: List[Tuple[float, float]]) -> Dict[str, float]:
    """Tracing cost from (traced, untraced) wall seconds of the same units.

    The overhead is the median of the per-pair ratios, so a phase change
    of the machine between two pairs does not read as tracing cost.
    """
    ratios = [traced / plain for traced, plain in pairs if plain > 0]
    return {
        "trace.wall_s": sum(traced for traced, _ in pairs),
        "trace.untraced_wall_s": sum(plain for _, plain in pairs),
        "trace.overhead_pct": 100.0 * (median(ratios) - 1.0) if ratios else 0.0,
    }


def add_layer_metrics(result, values: Dict[str, float],
                      samples: Optional[Dict[str, int]] = None) -> None:
    """Copy every :data:`PER_LAYER` metric into ``result``."""
    samples = samples or {}
    for name, unit, _ in PER_LAYER:
        result.add(name, values.get(name, 0.0), unit, samples.get(name, 1))
