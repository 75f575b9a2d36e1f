"""Tests for the seed-ensemble aggregation layer."""

from repro.sweep import CellOutcome, RunSpec, SweepResult


def _cell(seed, metrics, *, num_jobs=10, cached=False):
    return CellOutcome(
        spec=RunSpec(kind="workload", workload="fs", num_jobs=num_jobs,
                     seed=seed),
        metrics=metrics,
        wall_time=0.5,
        cached=cached,
    )


def _result(*cells, jobs=1):
    return SweepResult(cells=tuple(cells), jobs=jobs)


class TestAggregation:
    def test_groups_by_non_seed_axes(self):
        result = _result(
            _cell(1, {"makespan_s": 10.0}),
            _cell(2, {"makespan_s": 14.0}),
            _cell(1, {"makespan_s": 100.0}, num_jobs=50),
            _cell(2, {"makespan_s": 104.0}, num_jobs=50),
        )
        agg = result.aggregate()
        by_group = {(r.group, r.metric): r.stats for r in agg.rows}
        small = by_group[("workload=fs;num_jobs=10;policy=default", "makespan_s")]
        large = by_group[("workload=fs;num_jobs=50;policy=default", "makespan_s")]
        assert small.n == 2 and small.mean == 12.0
        assert large.n == 2 and large.mean == 102.0

    def test_group_order_follows_grid_metric_order_alphabetical(self):
        result = _result(
            _cell(1, {"b_metric": 1.0, "a_metric": 2.0}, num_jobs=50),
            _cell(1, {"b_metric": 1.0, "a_metric": 2.0}, num_jobs=10),
        )
        rows = result.aggregate().rows
        assert [r.group for r in rows] == [
            "workload=fs;num_jobs=50;policy=default", "workload=fs;num_jobs=50;policy=default",
            "workload=fs;num_jobs=10;policy=default", "workload=fs;num_jobs=10;policy=default",
        ]
        assert [r.metric for r in rows[:2]] == ["a_metric", "b_metric"]

    def test_ci_band_is_the_t_interval(self):
        result = _result(
            _cell(1, {"m": 10.0}),
            _cell(2, {"m": 12.0}),
            _cell(3, {"m": 14.0}),
        )
        (row,) = result.aggregate().rows
        assert row.stats.mean == 12.0
        assert row.stats.median == 12.0
        # stdev = 2, t(df=2) = 4.303 -> half width = 4.303 * 2 / sqrt(3)
        assert abs(row.stats.ci95_half - 4.303 * 2.0 / 3.0**0.5) < 1e-9
        assert "±" in row.stats.format_mean_ci()

    def test_counters(self):
        result = _result(
            _cell(1, {"m": 1.0}, cached=True),
            _cell(2, {"m": 2.0}),
            jobs=4,
        )
        assert result.cached_cells == 1
        assert result.computed_cells == 1
        assert result.compute_wall_time == 0.5  # misses only
        assert len(result) == 2


class TestRendering:
    def test_table_shows_mean_ci(self):
        result = _result(_cell(1, {"m": 10.0}), _cell(2, {"m": 14.0}))
        table = result.aggregate().as_table()
        assert "mean ± 95% CI" in table
        assert "workload=fs;num_jobs=10;policy=default" in table

    def test_csv_is_parseable_and_labeled(self):
        result = _result(_cell(1, {"m[x=1]": 10.0}), _cell(2, {"m[x=1]": 14.0}))
        csv = result.aggregate().as_csv()
        header, row = csv.strip().splitlines()
        assert header == "group,metric,n,mean,ci95_half,ci_low,ci_high,median,stdev"
        cells = row.split(",")
        assert cells[0] == "workload=fs;num_jobs=10;policy=default"  # ; keeps CSV intact
        assert cells[1] == "m[x=1]"
        assert float(cells[3]) == 12.0

    def test_as_dict_nests_group_metric(self):
        result = _result(_cell(1, {"m": 10.0}))
        d = result.aggregate().as_dict()
        assert d["workload=fs;num_jobs=10;policy=default"]["m"]["n"] == 1
        assert d["workload=fs;num_jobs=10;policy=default"]["m"]["ci95_half"] == 0.0
