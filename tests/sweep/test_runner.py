"""Tests for sweep execution: serial, pooled, cached, and failing."""

import pytest

from repro.errors import SimulationTimeout, SweepError
from repro.metrics.trace import EventKind
from repro.store import ResultStore
from repro.sweep import (
    RunSpec,
    Sweep,
    SweepObserver,
    SweepRunner,
    execute_cell,
    metrics_from_csv,
)

#: A tiny, fast workload grid (sub-second per cell).
TINY = Sweep.over(seeds=2, workloads=["fs"], num_jobs=[4], nodes=[8])


class TestMetricsFromCsv:
    def test_single_axis(self):
        csv = "jobs,fixed_s,gain_pct\n10,100.5,20\n25,200,10\n"
        assert metrics_from_csv(csv) == {
            "fixed_s[jobs=10]": 100.5,
            "fixed_s[jobs=25]": 200.0,
            "gain_pct[jobs=10]": 20.0,
            "gain_pct[jobs=25]": 10.0,
        }

    def test_non_numeric_column_becomes_axis(self):
        csv = ("num_jobs,rendition,makespan_s\n"
               "50,fixed,10\n50,flexible,5\n")
        metrics = metrics_from_csv(csv)
        assert metrics["makespan_s[num_jobs=50;rendition=fixed]"] == 10.0
        assert metrics["makespan_s[num_jobs=50;rendition=flexible]"] == 5.0

    def test_columns_promoted_until_rows_unique(self):
        # Fig. 1's shape: the first column is constant across rows.
        csv = ("initial,target,cost\n48,12,1\n48,24,2\n48,48,3\n")
        metrics = metrics_from_csv(csv)
        assert metrics == {
            "cost[initial=48;target=12]": 1.0,
            "cost[initial=48;target=24]": 2.0,
            "cost[initial=48;target=48]": 3.0,
        }

    @pytest.mark.parametrize("csv,msg", [
        ("only_header\n", "no data rows"),
        ("a,b\n1\n", "ragged"),
        ("name,kind\nx,y\n", "no numeric metric columns"),
    ])
    def test_rejects_unusable_csv(self, csv, msg):
        with pytest.raises(SweepError, match=msg):
            metrics_from_csv(csv)


class TestExecuteCell:
    def test_workload_cell_metrics_and_event_fan_in(self):
        payload = execute_cell(TINY.cells[0])
        metrics = payload["metrics"]
        assert metrics["fixed_makespan_s"] > 0
        assert metrics["flexible_makespan_s"] > 0
        assert set(metrics) >= {"makespan_gain_pct", "wait_gain_pct",
                                "flexible_utilization_pct"}
        assert payload["wall_time"] > 0

    def test_artifact_cell_without_csv_is_rejected(self):
        spec = RunSpec(kind="artifact", artifact="fig4", seed=1)
        with pytest.raises(SweepError, match="no CSV metric form"):
            execute_cell(spec)

    def test_artifact_cell_extracts_metrics(self):
        spec = RunSpec(kind="artifact", artifact="fig1", seed=1)
        metrics = execute_cell(spec)["metrics"]
        assert metrics["factor[initial_procs=48;target_procs=12]"] > 1.0


class _Recorder(SweepObserver):
    def __init__(self):
        self.started = []
        self.done = []

    def on_cell_start(self, index, total, spec):
        self.started.append((index, spec.seed))

    def on_cell_done(self, index, total, outcome):
        self.done.append((index, outcome.spec.seed, outcome.cached))


class TestSweepRunner:
    def test_rejects_bad_jobs(self):
        with pytest.raises(SweepError, match="jobs must be >= 1"):
            SweepRunner(jobs=0)

    def test_serial_run_in_grid_order(self):
        recorder = _Recorder()
        result = SweepRunner(jobs=1, observers=[recorder]).run(TINY)
        assert [c.spec.seed for c in result.cells] == [2017, 2018]
        assert result.cached_cells == 0
        assert result.computed_cells == 2
        assert recorder.started == [(0, 2017), (1, 2018)]
        assert recorder.done == [(0, 2017, False), (1, 2018, False)]

    def test_pool_matches_serial_metrics(self):
        serial = SweepRunner(jobs=1).run(TINY)
        pooled = SweepRunner(jobs=2).run(TINY)
        assert [c.metrics for c in pooled.cells] == [
            c.metrics for c in serial.cells
        ]
        assert [c.spec for c in pooled.cells] == [c.spec for c in serial.cells]

    def test_store_serves_second_run(self, tmp_path):
        store = ResultStore(tmp_path)
        first = SweepRunner(jobs=1, store=store).run(TINY)
        assert first.cached_cells == 0
        second = SweepRunner(jobs=1, store=store).run(TINY)
        assert second.cached_cells == len(TINY)
        assert [c.metrics for c in second.cells] == [
            c.metrics for c in first.cells
        ]
        # Cached cells preserve the original compute wall time.
        assert [c.wall_time for c in second.cells] == [
            c.wall_time for c in first.cells
        ]
        assert store.stats()["hits"] == len(TINY)

    def test_store_is_shared_across_worker_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepRunner(jobs=2, store=store).run(TINY)
        again = SweepRunner(jobs=1, store=store).run(TINY)
        assert again.cached_cells == len(TINY)

    def test_session_observers_stream_in_serial_mode(self):
        from repro.api import SessionObserver

        seen = []
        live = SessionObserver()
        live.on_event = seen.append
        SweepRunner(jobs=1, session_observers=[live]).run(TINY)
        # Two cells x two renditions x four jobs each.
        assert sum(e.kind is EventKind.JOB_END for e in seen) == 2 * 2 * 4


class TestWorkerErrorPropagation:
    HOPELESS = Sweep.over(
        seeds=1, workloads=["fs"], num_jobs=[4], nodes=[8],
        max_sim_time=1.0,  # nothing can finish by t=1
    )

    def test_serial_timeout_surfaces(self):
        with pytest.raises(SimulationTimeout) as exc_info:
            SweepRunner(jobs=1).run(self.HOPELESS)
        assert exc_info.value.max_sim_time == 1.0

    def test_pool_timeout_surfaces_with_payload(self):
        """The regression: a worker's SimulationTimeout must cross the
        process boundary with its diagnostic payload intact."""
        with pytest.raises(SimulationTimeout) as exc_info:
            SweepRunner(jobs=2).run(self.HOPELESS)
        exc = exc_info.value
        assert exc.max_sim_time == 1.0
        assert isinstance(exc.pending_job_ids, tuple)
        assert exc.unsubmitted + len(exc.pending_job_ids) + len(
            exc.running_job_ids
        ) > 0

    def test_failed_cell_stores_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(SimulationTimeout):
            SweepRunner(jobs=1, store=store).run(self.HOPELESS)
        assert store.entries() == []

    def test_completed_siblings_are_persisted_despite_a_failure(self, tmp_path):
        """A worker failure must not discard siblings that finished:
        their payloads land in the store before the error surfaces."""
        good = Sweep.over(seeds=1, workloads=["fs"], num_jobs=[4], nodes=[8])
        mixed = Sweep(cells=good.cells + self.HOPELESS.cells)
        store = ResultStore(tmp_path)
        with pytest.raises(SimulationTimeout):
            SweepRunner(jobs=2, store=store).run(mixed)
        (entry,) = store.entries()
        assert entry.spec["max_sim_time"] is None  # the good cell
        # A re-run of the good cell alone is now a pure cache hit.
        again = SweepRunner(jobs=1, store=store).run(good)
        assert again.cached_cells == 1


class TestSweepTelemetry:
    def test_serial_cells_carry_child_correlated_spans(self):
        from repro.obs.spans import TelemetryConfig

        runner = SweepRunner(
            jobs=1, telemetry=TelemetryConfig(correlation_id="sweep")
        )
        result = runner.run(TINY)
        for index, cell in enumerate(result.cells):
            names = {span["name"] for span in cell.spans}
            assert "sweep.cell" in names
            assert "sched.pass" in names
            cids = {span["cid"] for span in cell.spans}
            assert cids == {f"sweep/{index}"}
            renditions = {
                span.get("attrs", {}).get("rendition")
                for span in cell.spans
                if span["name"] != "sweep.cell"
            }
            assert renditions == {"fixed", "flexible"}

    def test_pool_spans_match_serial(self):
        from repro.obs.spans import TelemetryConfig

        config = TelemetryConfig(correlation_id="sweep")
        serial = SweepRunner(jobs=1, telemetry=config).run(TINY)
        pooled = SweepRunner(jobs=2, telemetry=config).run(TINY)
        for a, b in zip(serial.cells, pooled.cells):
            names = lambda cell: sorted(
                s["name"] for s in cell.spans if s["name"] != "sweep.cell"
            )
            assert names(a) == names(b)

    def test_no_telemetry_means_no_spans(self):
        result = SweepRunner(jobs=1).run(TINY)
        assert all(cell.spans == () for cell in result.cells)

    def test_cached_replay_preserves_spans(self, tmp_path):
        from repro.obs.spans import TelemetryConfig

        store = ResultStore(tmp_path)
        config = TelemetryConfig(correlation_id="sweep")
        first = SweepRunner(jobs=1, store=store, telemetry=config).run(TINY)
        second = SweepRunner(jobs=1, store=store, telemetry=config).run(TINY)
        assert second.cached_cells == len(TINY)
        assert [len(c.spans) for c in second.cells] == [
            len(c.spans) for c in first.cells
        ]
