"""Tests for Standard Workload Format import/export."""

import pytest

from repro.api import Session
from repro.cluster import ClusterConfig
from repro.errors import WorkloadError
from repro.workload import (
    FSWorkloadConfig,
    export_results,
    export_spec,
    fs_workload,
    parse_swf,
)


SAMPLE_SWF = """\
; sample log
; MaxJobs: 3
1 0 5 100 4 -1 -1 4 120 -1 1 -1 -1 -1 -1 -1 -1 -1
2 30 0 200 8 -1 -1 8 240 -1 1 -1 -1 -1 -1 -1 -1 -1
3 60 -1 -1 2 -1 -1 2 50 -1 5 -1 -1 -1 -1 -1 -1 -1
"""


class TestParse:
    def test_parses_jobs(self):
        spec = parse_swf(SAMPLE_SWF)
        assert len(spec) == 3
        assert [s.submit_nodes for s in spec.jobs] == [4, 8, 2]
        assert [s.arrival_time for s in spec.jobs] == [0.0, 30.0, 60.0]

    def test_runtime_from_log_or_estimate(self):
        spec = parse_swf(SAMPLE_SWF, steps=10)
        # Job 1: run time 100 s at 4 procs.
        app = spec.jobs[0].app_factory()
        assert app.total_time(4) == pytest.approx(100.0)
        # Job 3: no run time -> uses the 50 s request.
        app3 = spec.jobs[2].app_factory()
        assert app3.total_time(2) == pytest.approx(50.0)

    def test_comment_only_log_rejected(self):
        with pytest.raises(WorkloadError):
            parse_swf("; nothing here\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(WorkloadError, match="malformed"):
            parse_swf("1 2 3\n")

    def test_negative_submit_rejected(self):
        bad = "1 -5 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        with pytest.raises(WorkloadError, match="submit"):
            parse_swf(bad)

    def test_imported_workload_runs(self):
        spec = parse_swf(SAMPLE_SWF, steps=4)
        result = Session(cluster=ClusterConfig(num_nodes=16)).run(spec, flexible=True)
        assert result.summary.num_jobs == 3

    def test_flexible_flag(self):
        rigid = parse_swf(SAMPLE_SWF, flexible=False)
        assert rigid.flexible_ratio == 0.0


class TestExport:
    def test_export_spec_roundtrip(self):
        original = fs_workload(8, seed=2, config=FSWorkloadConfig(steps=4))
        text = export_spec(original)
        back = parse_swf(text, steps=4)
        assert len(back) == len(original)
        assert [s.submit_nodes for s in back.jobs] == [
            s.submit_nodes for s in original.jobs
        ]
        assert [s.arrival_time for s in back.jobs] == pytest.approx(
            [s.arrival_time for s in original.jobs], abs=0.01
        )

    def test_export_results_records_actuals(self):
        spec = fs_workload(5, seed=2, config=FSWorkloadConfig(steps=4))
        result = Session(cluster=ClusterConfig(num_nodes=20)).run(spec, flexible=False)
        text = export_results(result.jobs)
        lines = [l for l in text.splitlines() if not l.startswith(";")]
        assert len(lines) == 5
        fields = lines[0].split()
        assert len(fields) == 18
        assert int(fields[10]) == 1  # completed status
        assert float(fields[3]) > 0  # real run time

    def test_export_results_rejects_unfinished(self):
        from repro.slurm import Job

        job = Job(name="x", num_nodes=1, time_limit=10.0)
        job.job_id = 1
        job.submit_time = 0.0
        with pytest.raises(WorkloadError):
            export_results([job])

    def test_exported_results_reimportable(self):
        spec = fs_workload(5, seed=2, config=FSWorkloadConfig(steps=4))
        result = Session(cluster=ClusterConfig(num_nodes=20)).run(spec, flexible=False)
        replay = parse_swf(export_results(result.jobs), steps=4)
        assert len(replay) == 5
        # Replayed runtimes match the measured execution times.
        for js, job in zip(replay.jobs, sorted(result.jobs, key=lambda j: j.job_id)):
            app = js.app_factory()
            assert app.total_time(js.submit_nodes) == pytest.approx(
                job.execution_time, rel=0.01
            )
