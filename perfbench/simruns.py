"""``dmr_fs`` and ``rigid_swf``: whole simulations driven through Session.

A run is a sequence of *units*, each one workload generated from a seed
derived from the run's seed and the unit's index.  Unit 0 runs once as
warm-up and again as the first timed unit, so its trace digest and
deterministic counts must repeat within the run; on the default seed
they must also equal the values in ``expected.json``.
"""

from __future__ import annotations

import os
import time
from array import array
from typing import Dict, Optional, Tuple

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
)
from perfbench.layers import LayerProbe, add_layer_metrics, overhead_metrics
from perfbench.stats import backed_percentile, median
from perfbench.tracer import Tracer

#: Jobs per dmr_fs unit: a queue several hundred deep, where Algorithm 1
#: (``check_status`` and its policy view) dominates the wall time.
DMR_JOBS = 400
#: Jobs per rigid_swf trace.  Several traces per run average out how
#: much one trace's busy periods load the scheduler.
RIGID_JOBS = 20_000
#: Rough seconds per unit on a 2-vCPU machine; sizes the traced run so
#: its unit count, and so its counts, depend only on --seconds.
UNIT_SECONDS = {"dmr_fs": 1.0, "rigid_swf": 5.0}
#: Order statistics kept per unit for the pooled latency percentiles.
SKETCH_POINTS = 1001
#: Seconds between two samples of the machine speed taken from inside
#: the event stream; a rigid_swf unit runs for about 5 s.
SAMPLE_EVERY_S = 1.0
#: Where traced runs write their spans.
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


class EventClock:
    """Live trace subscriber stamping the wall time each event arrives.

    The gaps between consecutive stamps are the latency a live consumer
    of the event stream sees; one ``perf_counter`` call per event.  Each
    unit's gaps are kept as :data:`SKETCH_POINTS` evenly spaced order
    statistics and the sketches are pooled over units: a run whose units
    straddle a fast and a slow phase of the machine reads between the
    two, and memory does not grow with the number of units (which would
    tie peak RSS to speed).

    Every :data:`SAMPLE_EVERY_S` seconds it also samples the machine
    speed, so a long unit is covered as densely as a short one.  Its
    clock stops while a sample runs: neither the gaps nor the unit's run
    time include the samples.
    """

    __slots__ = ("times", "sketch", "count", "speed", "paused", "next_sample")

    def __init__(self, speed: MachineSpeed) -> None:
        self.times = array("d")
        self.sketch = array("d")
        self.count = 0
        self.speed = speed
        #: Seconds spent sampling the machine speed so far.
        self.paused = 0.0
        self.next_sample = 0.0

    def __call__(self, event) -> None:
        now = time.perf_counter() - self.paused
        self.times.append(now)
        if now >= self.next_sample:
            start = time.perf_counter()
            self.speed.sample()
            self.paused += time.perf_counter() - start
            self.next_sample = now + SAMPLE_EVERY_S

    def close_unit(self) -> None:
        t, self.times = self.times, array("d")
        gaps = sorted(t[i + 1] - t[i] for i in range(len(t) - 1))
        self.count += len(gaps)
        last = len(gaps) - 1
        self.sketch.extend(gaps[round(k * last / (SKETCH_POINTS - 1))]
                           for k in range(SKETCH_POINTS))


class DmrFs:
    """Flexible FS workloads on the 20-node cluster, synchronous DMR."""

    name = "dmr_fs"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, index: int, correlation_id: Optional[str] = None):
        """Generate unit ``index`` and submit it; returns (run, setup s)."""
        from repro.api import Session
        from repro.cluster.configs import marenostrum_preliminary

        t0 = time.perf_counter()
        session = Session(cluster=marenostrum_preliminary()).with_seed(
            derive_seed(self.seed, self.name, index))
        if correlation_id is not None:
            session = session.with_telemetry(correlation_id=correlation_id)
        run = session.submit(session.fs_workload(DMR_JOBS), flexible=True)
        return run, time.perf_counter() - t0


class RigidSwf:
    """Feitelson traces as SWF text, parsed and replayed rigid."""

    name = "rigid_swf"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._inputs: Dict[int, Tuple[str, int]] = {}

    def swf_input(self, index: int) -> Tuple[str, int]:
        """The unit's SWF text and cluster size (benchmark input, untimed)."""
        if index not in self._inputs:
            from repro.sweep.bench import autosize_cluster
            from repro.workload.generator import sched_trace
            from repro.workload.swf import export_sched_trace

            trace = sched_trace(
                RIGID_JOBS, seed=derive_seed(self.seed, self.name, index))
            # Unit 0 is replayed twice (warm-up and first timed unit).
            self._inputs = {k: v for k, v in self._inputs.items() if k == 0}
            self._inputs[index] = (
                export_sched_trace(trace), autosize_cluster(trace))
        return self._inputs[index]

    def prepare(self, index: int, correlation_id: Optional[str] = None):
        """Parse unit ``index`` and submit it; returns (run, setup s)."""
        import repro.workload.swf as swf
        from repro.api import Session
        from repro.cluster.configs import ClusterConfig

        text, nodes = self.swf_input(index)
        t0 = time.perf_counter()
        spec = swf.parse_swf(text)
        session = Session(cluster=ClusterConfig(num_nodes=nodes))
        if correlation_id is not None:
            session = session.with_telemetry(correlation_id=correlation_id)
        run = session.submit(spec, flexible=False)
        return run, time.perf_counter() - t0


WORKLOADS = {cls.name: cls for cls in (DmrFs, RigidSwf)}


class Unit:
    """What one executed unit contributes to the run."""

    def __init__(self, jobs: int, setup_s: float, run_s: float,
                 completed: int, counts: Dict[str, object],
                 error: Optional[str] = None) -> None:
        self.jobs = jobs
        self.setup_s = setup_s
        self.run_s = run_s
        self.completed = completed
        self.counts = counts
        self.error = error


def run_unit(workload, index: int, clock: Optional[EventClock] = None,
             digest: bool = False, correlation_id: Optional[str] = None) -> Unit:
    from repro.errors import ReproError
    from repro.metrics.trace import EventKind, trace_digest
    from repro.slurm.job import JobState

    run, setup_s = workload.prepare(index, correlation_id)
    jobs = len(run.spec.jobs)
    trace = run.sim.controller.trace
    paused = 0.0
    if clock is not None:
        clock.times = array("d")
        trace.subscribe(clock)
        paused = clock.paused
    fresh_heap()
    t0 = time.perf_counter()
    try:
        result = run.execute()
    except ReproError as exc:
        return Unit(jobs, setup_s, time.perf_counter() - t0, 0, {},
                    f"unit {index}: {type(exc).__name__}: {exc}")
    finally:
        if clock is not None:
            trace.unsubscribe(clock)
    run_s = time.perf_counter() - t0
    if clock is not None:
        run_s -= clock.paused - paused
        clock.close_unit()
    completed = sum(1 for job in result.jobs if job.state is JobState.COMPLETED)
    counts: Dict[str, object] = {}
    if digest:
        counts = {
            "trace_digest": trace_digest(result.trace),
            "sim.events": run.sim.env.events_processed,
            "slurm.passes": run.sim.controller.stats.passes,
            "slurm.reconfig.checks": sum(
                1 for e in result.trace if e.kind is EventKind.RESIZE_DECISION),
            "metrics.trace_records": len(result.trace),
            "jobs_completed": completed,
        }
    return Unit(jobs, setup_s, run_s, completed, counts)


def _account(result: Result, unit: Unit) -> None:
    result.attempted += unit.jobs
    if unit.error is not None:
        result.fail(unit.error, unit.jobs)
    elif unit.completed != unit.jobs:
        result.fail(f"{unit.jobs - unit.completed} of {unit.jobs} jobs did "
                    "not complete", unit.jobs - unit.completed)


def run(name: str, seed: int, seconds: float, traced: bool) -> Result:
    workload = WORKLOADS[name](seed)
    result = Result(name)
    warm = run_unit(workload, 0, digest=True)
    if warm.error is not None:
        result.fail(f"warm-up {warm.error}")
        return result
    if traced:
        return _traced(workload, seed, seconds, warm, result)

    speed = MachineSpeed()
    clock = EventClock(speed)
    units = []
    timed = 0.0
    while timed < seconds:
        unit = run_unit(workload, len(units), clock, digest=not units)
        _account(result, unit)
        units.append(unit)
        timed += unit.run_s
    check_values(result, "unit 0 repeated", units[0].counts, warm.counts)
    check_against_record(result, seed, warm.counts)

    ok = [u for u in units if u.error is None]
    if not ok:
        return result
    result.notes.append(
        f"ops_per_s is jobs_per_s: {DMR_JOBS if name == 'dmr_fs' else RIGID_JOBS}"
        f" jobs per unit, {len(ok)} units")
    result.notes.append("latency is the gap between consecutive trace events "
                        "as a live subscriber receives them")
    result.notes.append(f"unit 0 trace digest {warm.counts['trace_digest']}")
    add_timed(result, speed, {
        "ops_per_s": sum(u.jobs for u in ok) / sum(u.run_s for u in ok),
        "latency_p50_ms": 1e3 * backed_percentile(clock.sketch, 0.50),
        "latency_p90_ms": 1e3 * backed_percentile(clock.sketch, 0.90),
        "setup_s": median([u.setup_s for u in units]),
    }, {"ops_per_s": len(ok), "latency_p50_ms": clock.count,
        "latency_p90_ms": clock.count, "setup_s": len(units)})
    result.add("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    return result


def _traced(workload, seed: int, seconds: float, warm: Unit,
            result: Result) -> Result:
    """Each unit untraced and traced back to back; per-layer metrics.

    The order within a pair alternates and the wrappers are installed
    for the traced unit only, so both sides of a pair run in the same
    phase of the machine and the overhead is read from the pairs.
    """
    count = max(1, round(seconds / 2 / UNIT_SECONDS[workload.name]))
    tracer = Tracer()
    probe = LayerProbe(tracer)
    pairs = []
    for index in range(count):
        unit_id = f"{workload.name}/{index}"
        sides = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.unit = unit_id
                probe.install()
            try:
                unit = run_unit(workload, index, digest=True,
                                correlation_id=unit_id if traced else None)
            finally:
                tracer.restore()
            _account(result, unit)
            sides[traced] = unit
        pairs.append((sides[True].run_s, sides[False].run_s))
        check_values(result, f"traced unit {index}", sides[True].counts,
                     sides[False].counts)
        if index == 0:
            check_values(result, "untraced unit 0", sides[False].counts,
                         warm.counts)
            # The wrappers must count what the trace records.
            check_values(result, "wrapper counts", {
                "slurm.reconfig.checks": tracer.calls["slurm.reconfig.check"],
                "metrics.trace_records": tracer.calls["metrics.record"],
            }, {k: warm.counts[k] for k in (
                "slurm.reconfig.checks", "metrics.trace_records")})

    values = probe.metrics()
    values.update(overhead_metrics(pairs))
    add_layer_metrics(result, values, {
        "slurm.reconfig.check_us_p50": int(values["slurm.reconfig.checks"]),
        "slurm.reconfig.check_us_p99": int(values["slurm.reconfig.checks"]),
        "trace.overhead_pct": len(pairs),
    })
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.json")
    written = tracer.export(path)
    result.notes.append(f"{count} units run untraced and traced; {written} "
                        f"spans written to {os.path.relpath(path, ROOT)}")
    return result
