"""Sweep execution: serial or on a ``ProcessPoolExecutor`` worker pool.

The execution contract:

* :func:`execute_cell` is a module-level, picklable function — the only
  thing shipped to workers is a :class:`~repro.sweep.spec.RunSpec`, and
  the only thing shipped back is a small JSON-able payload (metrics,
  compute wall time and, with telemetry on, span dicts).  Heavy result
  objects (jobs, traces) never cross the process boundary.
* Workers are fresh processes, so the artifact registry's in-memory
  per-``(name, seed)`` cache is empty by construction — a cell can never
  observe another cell's results (see
  :class:`~repro.api.registry.ArtifactRegistry`).
* Errors raised in a worker surface in the parent as the *real*
  exception: :class:`~repro.errors.SimulationTimeout` (and every other
  ``ReproError``) survives the pickle round trip with its payload.
* Results are assembled in *grid order*, never completion order, so a
  sweep's output is byte-identical for any ``jobs`` setting.

Per-cell progress streams through :class:`SweepObserver` hooks in the
parent; inside each cell, in serial mode only, callers may attach their
own live session observers to the simulation.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SweepError
from repro.obs.registry import default_registry, publish_store_stats
from repro.obs.spans import CLOCK_WALL, Telemetry, TelemetryConfig
from repro.sweep.aggregate import SweepResult
from repro.sweep.spec import POLICY_PRESETS, RunSpec, Sweep


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or cache-served) cell."""

    spec: RunSpec
    metrics: Dict[str, float]
    #: Seconds of compute the cell cost *when it was computed* (a cached
    #: cell reports the original compute time, not the lookup time).
    wall_time: float
    cached: bool
    #: Span dicts shipped back from the worker when the runner had
    #: telemetry enabled.  Cache-served payloads written before spans
    #: existed (or by a telemetry-free run) simply have none.
    spans: Tuple[Dict[str, object], ...] = ()


class SweepObserver:
    """Parent-side progress hooks; every method defaults to a no-op."""

    def on_cell_start(self, index: int, total: int, spec: RunSpec) -> None:
        """A cell is about to execute (cache misses only)."""

    def on_cell_done(self, index: int, total: int, outcome: CellOutcome) -> None:
        """A cell's outcome is available (computed or cache-served)."""


def metrics_from_csv(csv_text: str) -> Dict[str, float]:
    """Flatten an artifact's CSV table into named scalar metrics.

    The first column — plus any column containing a non-numeric cell —
    is treated as a row axis; if that does not identify rows uniquely,
    further leading columns are promoted until it does (Fig. 1 needs
    both ``initial_procs`` and ``target_procs``).  Every remaining cell
    becomes one metric keyed ``column[axis=value;...]``, e.g.
    ``flexible_s[jobs=25]`` for Fig. 3 or
    ``makespan_s[num_jobs=50;rendition=fixed]`` for Table II (``;``
    keeps metric names comma-free, so aggregate CSV needs no quoting).
    """
    lines = [ln for ln in csv_text.strip().splitlines() if ln]
    if len(lines) < 2:
        raise SweepError("CSV has no data rows to extract metrics from")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise SweepError("ragged CSV; cannot extract metrics")

    def numeric(cell: str) -> Optional[float]:
        try:
            return float(cell)
        except ValueError:
            return None

    axis_cols = {0}
    for i in range(len(header)):
        if any(numeric(r[i]) is None for r in rows):
            axis_cols.add(i)

    def labels() -> List[str]:
        return [
            ";".join(f"{header[i]}={row[i]}" for i in sorted(axis_cols))
            for row in rows
        ]

    # Promote further columns into the axis until every row is unique.
    for i in range(len(header)):
        if len(set(labels())) == len(rows):
            break
        axis_cols.add(i)

    metric_cols = [i for i in range(len(header)) if i not in axis_cols]
    if not metric_cols:
        raise SweepError("CSV has no numeric metric columns")

    metrics: Dict[str, float] = {}
    for row, label in zip(rows, labels()):
        for i in metric_cols:
            metrics[f"{header[i]}[{label}]"] = float(row[i])
    return metrics


def _execute_artifact_cell(spec: RunSpec) -> Dict[str, float]:
    from repro.api.registry import builtin_registry

    registry = builtin_registry()
    art = registry.get(spec.artifact)
    if not art.supports_csv:
        sweepable = [n for n in registry.names()
                     if registry.get(n).supports_csv]
        raise SweepError(
            f"artifact {spec.artifact!r} has no CSV metric form; "
            f"sweepable artifacts: {', '.join(sweepable)}"
        )
    return metrics_from_csv(registry.render_csv(spec.artifact, seed=spec.seed))


def session_for(spec: RunSpec):
    """Resolve a workload cell's axes into the :class:`Session` it runs.

    This is the cell's full execution identity: cluster preset/override,
    Algorithm 1 policy preset, runtime mode, seed, horizon and backend.
    Workers call it on their side of the process boundary, so only the
    picklable :class:`RunSpec` crosses it.
    """
    from repro.api.session import DEFAULT_MAX_SIM_TIME, Session
    from repro.backend.base import BackendSpec
    from repro.cluster.configs import (
        ClusterConfig,
        marenostrum_preliminary,
        marenostrum_production,
    )
    from repro.runtime.nanos import RuntimeConfig
    from repro.slurm.controller import SlurmConfig

    if spec.nodes is not None:
        cluster = ClusterConfig(num_nodes=spec.nodes)
    elif spec.workload == "fs":
        cluster = marenostrum_preliminary()
    else:
        cluster = marenostrum_production()
    return Session(
        cluster=cluster,
        slurm=SlurmConfig(policy=POLICY_PRESETS[spec.policy]),
        runtime=RuntimeConfig(async_mode=spec.async_mode),
        seed=spec.seed,
        max_sim_time=(DEFAULT_MAX_SIM_TIME if spec.max_sim_time is None
                      else spec.max_sim_time),
        backend=BackendSpec.of(spec.backend),
    )


def _execute_workload_cell(
    spec: RunSpec, session_observers=(), telemetry_config=None
) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
    from repro.workload.generator import fs_workload, realapp_workload

    session = session_for(spec).observe(*session_observers)
    if telemetry_config is not None:
        session = session.with_telemetry(telemetry_config)
    if spec.workload == "fs":
        workload = fs_workload(spec.num_jobs, seed=spec.seed)
    else:
        workload = realapp_workload(spec.num_jobs, seed=spec.seed)
    pair = session.run_paired(workload)
    fixed, flexible = pair.fixed.summary, pair.flexible.summary
    # Tiny under-subscribed workloads may never queue a job; a 0-wait
    # fixed rendition makes the gain ratio undefined, not infinite.
    wait_gain = pair.wait_gain if fixed.avg_wait_time > 0 else 0.0
    metrics = {
        "fixed_makespan_s": fixed.makespan,
        "flexible_makespan_s": flexible.makespan,
        "makespan_gain_pct": pair.makespan_gain,
        "fixed_avg_wait_s": fixed.avg_wait_time,
        "flexible_avg_wait_s": flexible.avg_wait_time,
        "wait_gain_pct": wait_gain,
        "fixed_utilization_pct": 100.0 * fixed.utilization_rate,
        "flexible_utilization_pct": 100.0 * flexible.utilization_rate,
        "flexible_resizes": float(flexible.resize_count),
    }
    spans: List[Dict[str, object]] = []
    for result in (pair.fixed, pair.flexible):
        if result.telemetry is None:
            continue
        rendition = "flexible" if result.flexible else "fixed"
        for data in result.telemetry.as_dicts():
            data.setdefault("attrs", {})["rendition"] = rendition
            spans.append(data)
    return metrics, spans


def execute_cell(
    spec: RunSpec, session_observers=(), telemetry_config=None
) -> Dict[str, object]:
    """Run one cell to completion; the worker-side entry point.

    Returns the JSON-able store payload.  ``session_observers`` only
    applies in-process (serial mode) — live observers cannot cross a
    process boundary, which is why, with telemetry enabled, the span
    dicts are returned by value.
    """
    t0 = time.perf_counter()
    wall_start = time.time()
    spans: List[Dict[str, object]] = []
    if spec.kind == "artifact":
        metrics = _execute_artifact_cell(spec)
    else:
        metrics, spans = _execute_workload_cell(
            spec, session_observers, telemetry_config
        )
    wall_time = time.perf_counter() - t0
    payload: Dict[str, object] = {
        "metrics": metrics,
        "wall_time": wall_time,
    }
    if telemetry_config is not None:
        cell = Telemetry(telemetry_config)
        cell.record(
            "sweep.cell", wall_start, time.time(), CLOCK_WALL, track="sweep",
            kind=spec.kind, wall_time=wall_time, backend=spec.backend,
        )
        payload["spans"] = cell.as_dicts() + spans
    return payload


def _outcome(spec: RunSpec, payload: Dict[str, object], cached: bool) -> CellOutcome:
    return CellOutcome(
        spec=spec,
        metrics={k: float(v) for k, v in payload["metrics"].items()},
        wall_time=float(payload["wall_time"]),
        cached=cached,
        # Payloads cached before telemetry existed carry no spans.
        spans=tuple(payload.get("spans", ())),
    )


class SweepRunner:
    """Executes a :class:`Sweep`, store-first, serially or on a pool.

    ``jobs=1`` runs every miss in-process (and honours
    ``session_observers``); ``jobs>1`` fans misses out to a
    ``ProcessPoolExecutor``.  Either way the store is consulted first
    and populated after, and the returned cells are in grid order.
    """

    def __init__(
        self,
        jobs: int = 1,
        store=None,
        observers: Sequence[SweepObserver] = (),
        session_observers=(),
        telemetry: Optional[TelemetryConfig] = None,
    ) -> None:
        if jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.store = store
        self.observers = tuple(observers)
        self.session_observers = tuple(session_observers)
        #: When set, each computed cell records spans under the child
        #: correlation id ``<cid>/<cell index>`` — the config is
        #: picklable, so pool workers attach to the parent trace too.
        self.telemetry = telemetry

    def _cell_config(self, index: int) -> Optional[TelemetryConfig]:
        if self.telemetry is None:
            return None
        return self.telemetry.child(index)

    # -- hooks --------------------------------------------------------------
    def _notify_start(self, index: int, total: int, spec: RunSpec) -> None:
        for obs in self.observers:
            obs.on_cell_start(index, total, spec)

    def _notify_done(self, index: int, total: int, outcome: CellOutcome) -> None:
        for obs in self.observers:
            obs.on_cell_done(index, total, outcome)

    # -- execution ----------------------------------------------------------
    def run(self, sweep: Sweep) -> SweepResult:
        total = len(sweep)
        outcomes: Dict[RunSpec, CellOutcome] = {}
        store_stats_before = None if self.store is None else self.store.stats()

        # Store-first pass: serve every known cell from disk.
        pending: List[Tuple[int, RunSpec]] = []
        for index, spec in enumerate(sweep.cells):
            payload = None if self.store is None else self.store.get(spec.as_dict())
            if payload is not None:
                outcome = _outcome(spec, payload, cached=True)
                outcomes[spec] = outcome
                self._notify_done(index, total, outcome)
            else:
                pending.append((index, spec))

        if pending and self.jobs == 1:
            for index, spec in pending:
                self._notify_start(index, total, spec)
                payload = execute_cell(
                    spec, self.session_observers, self._cell_config(index)
                )
                outcomes[spec] = self._finish(index, total, spec, payload)
        elif pending:
            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {}
                for index, spec in pending:
                    self._notify_start(index, total, spec)
                    futures[pool.submit(
                        execute_cell, spec, (), self._cell_config(index)
                    )] = (index, spec)
                done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
                # On failure: cancel what never started, but let cells
                # already running finish and persist every completed
                # sibling before surfacing the error — their compute is
                # paid for, and a re-run after the fix finds them in
                # the store.
                settled = list(done)
                settled.extend(f for f in not_done if not f.cancel())
                failure = None
                for fut in settled:
                    index, spec = futures[fut]
                    try:
                        # Blocks only for the already-running stragglers.
                        payload = fut.result()
                    except Exception as exc:
                        # The worker's real exception, pickled with its
                        # payload intact.
                        if failure is None:
                            failure = exc
                        continue
                    outcomes[spec] = self._finish(index, total, spec, payload)
                if failure is not None:
                    raise failure

        if store_stats_before is not None:
            # Mirror this run's hit/miss/put deltas into the process-wide
            # registry so ``/metrics`` scrapes see store behaviour.
            publish_store_stats(
                default_registry(), store_stats_before, self.store.stats()
            )

        return SweepResult(
            cells=tuple(outcomes[spec] for spec in sweep.cells),
            jobs=self.jobs,
        )

    def _finish(
        self, index: int, total: int, spec: RunSpec, payload: Dict[str, object]
    ) -> CellOutcome:
        if self.store is not None:
            self.store.put(spec.as_dict(), payload)
        outcome = _outcome(spec, payload, cached=False)
        self._notify_done(index, total, outcome)
        return outcome
