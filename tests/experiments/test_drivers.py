"""Unit tests for the experiment drivers (small configurations).

The full-size reproductions live in benchmarks/; these tests exercise the
driver plumbing — result containers, gain computations, CSV/table
rendering — on reduced workloads so they stay fast.
"""

import pytest

from repro.api import Session
from repro.cluster import ClusterConfig
from repro.experiments.fig01_cr_vs_dmr import run_fig01
from repro.experiments.fig03_sync import run_fig03
from repro.experiments.fig04_05_evolution import run_evolution
from repro.experiments.fig08_heterogeneous import run_fig08
from repro.experiments.fig09_inhibitor import run_fig09
from repro.errors import SimulationTimeout
from repro.workload import FSWorkloadConfig, fs_workload


SMALL_FS = FSWorkloadConfig(steps=4)


class TestCommon:
    def test_run_workload_rejects_unfinished(self):
        spec = fs_workload(5, seed=1, config=SMALL_FS)
        with pytest.raises(SimulationTimeout, match="did not finish"):
            Session(cluster=ClusterConfig(num_nodes=20)).run(
                spec, flexible=False, max_sim_time=1.0
            )

    def test_paired_comparison_gains(self):
        pair = Session(cluster=ClusterConfig(num_nodes=20)).run_paired(
            fs_workload(6, seed=1, config=SMALL_FS)
        )
        assert pair.makespan_gain == pytest.approx(
            100.0 * (pair.fixed.makespan - pair.flexible.makespan)
            / pair.fixed.makespan
        )

    def test_result_series_accessors(self):
        result = Session(cluster=ClusterConfig(num_nodes=20)).run(
            fs_workload(4, seed=1, config=SMALL_FS), flexible=True
        )
        assert result.allocation_series().values[-1] == 0
        assert result.completed_series().values[-1] == 4
        assert result.running_series().at(result.trace.last_time() + 1) == 0


class TestFig01Driver:
    def test_rows_and_csv(self):
        result = run_fig01(targets=(24, 48))
        assert [r.target_procs for r in result.rows] == [24, 48]
        csv = result.as_csv()
        assert csv.splitlines()[0].startswith("initial_procs,")
        assert len(csv.strip().splitlines()) == 3
        assert "C/R" in result.as_table()

    def test_custom_state_bytes(self):
        small = run_fig01(state_bytes=1e6)
        big = run_fig01(state_bytes=64e9)
        # More state -> bigger C/R disk cost.
        assert big.rows[0].cr.total > small.rows[0].cr.total


class TestSweepDrivers:
    def test_fig03_small(self):
        result = run_fig03(job_counts=(4, 8), seed=1, fs_config=SMALL_FS)
        assert [r.num_jobs for r in result.rows] == [4, 8]
        csv = result.as_csv()
        assert csv.splitlines()[0] == "jobs,fixed_s,flexible_s,gain_pct"
        assert len(csv.strip().splitlines()) == 3

    def test_evolution_driver(self):
        result = run_evolution(5, seed=1, fs_config=SMALL_FS)
        text = result.as_text()
        assert "fixed" in text and "flexible" in text
        assert result.fixed_avg_allocation > 0

    def test_fig08_small(self):
        result = run_fig08(num_jobs=8, rates=(0.0, 1.0), seeds=(1,),
                           fs_config=SMALL_FS)
        assert result.baseline == result.rows[0].makespan
        with pytest.raises(KeyError):
            result.gain_at(0.5)
        assert "flexible_rate_pct" in result.as_csv()

    def test_fig09_small(self):
        result = run_fig09(job_counts=(4,), periods=(None, 5.0), seed=1)
        cell = result.cell(4, 5.0)
        assert cell.label == "Sched 5"
        assert result.cell(4, None).label == "Flexible"
        with pytest.raises(KeyError):
            result.cell(4, 99.0)
        assert "period_s" in result.as_csv()
        assert "Sched 5" in result.as_table()


class TestSessionPlumbing:
    def test_drivers_accept_a_base_session(self):
        """Observers attached to the base session see every driver run."""
        from repro.api import SessionObserver
        from repro.metrics import EventKind

        class Completions(SessionObserver):
            def __init__(self):
                self.count = 0

            def on_event(self, event):
                if event.kind is EventKind.JOB_END:
                    self.count += 1

        completed = Completions()
        base = Session().observe(completed)
        run_fig03(job_counts=(4,), seed=1, fs_config=SMALL_FS, session=base)
        assert completed.count == 8  # 4 jobs x fixed + flexible


class TestRealAppsDriver:
    def test_small_run_csv_and_tables(self):
        from repro.experiments.fig10_12_realapps import run_realapps

        result = run_realapps(job_counts=(10,), seed=1)
        row = result.row(10)
        assert row.pair.flexible.summary.num_jobs == 10
        with pytest.raises(KeyError):
            result.row(999)
        csv = result.as_csv()
        assert len(csv.strip().splitlines()) == 3  # header + fixed + flexible
        assert "Table II" in result.table2()
        assert "Fig. 12" in result.fig12_text(num_jobs=10)
