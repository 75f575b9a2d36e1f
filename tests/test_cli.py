"""Tests for the command-line interface (registry-driven)."""

import json

import pytest

import repro.cli as cli
from repro.api.registry import ArtifactRegistry, builtin_registry
from repro.cli import main


class FakeResult:
    def __init__(self, tag):
        self.tag = tag

    def as_table(self):
        return f"TABLE<{self.tag}>"

    def as_csv(self):
        return f"col\n{self.tag}"


@pytest.fixture
def stub_registry(monkeypatch):
    """A tiny fast registry: two artifacts, one with CSV support."""
    reg = ArtifactRegistry()
    calls = []

    @reg.artifact("alpha", csv=True, description="first")
    def alpha(seed=None):
        calls.append(("alpha", seed))
        return FakeResult(f"alpha-{seed}")

    @reg.artifact("beta", description="second")
    def beta(seed=None):
        calls.append(("beta", seed))
        return FakeResult(f"beta-{seed}")

    monkeypatch.setattr(cli, "builtin_registry", lambda: reg)
    reg.calls = calls
    return reg


# -- artifact selection ------------------------------------------------------

def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out and "table2" in out
    assert "run --workload" in out


def test_unknown_artifact(capsys):
    assert main(["nope"]) == 2
    assert "unknown artifact" in capsys.readouterr().err


def test_unknown_artifact_aborts_before_rendering(stub_registry, capsys):
    assert main(["alpha", "nope"]) == 2
    assert stub_registry.calls == []  # nothing ran


@pytest.mark.parametrize("argv,flag", [
    (["trace", "fig1", "--mtbf", "nan"], "--mtbf"),
    (["trace", "--num-jobs", "0"], "--num-jobs"),
    (["trace", "--max-spans", "0"], "--max-spans"),
    (["bench", "sched", "--sizes", "0"], "--sizes"),
    (["serve", "--workers", "0"], "--workers"),
    (["loadgen", "--clients", "0"], "--clients"),
    (["resilience", "--mtbf", "fast,slow"], "--mtbf"),
])
def test_bad_flag_value_is_a_one_line_usage_error(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag,handler", [
    (["trace", "fig1", "--quick", "--out"], "--out", "_trace_mode"),
    (["bench", "--quick", "--out"], "--out", "_bench_mode"),
    (["bench", "sched", "--quick", "--out"], "--out", "_bench_sched_mode"),
    (["bench", "sched", "--trace"], "--trace", "_bench_sched_mode"),
    (["bench", "sched", "--profile"], "--profile", "_bench_sched_mode"),
    (["sweep", "--artifact", "fig1", "--trace"], "--trace", "_sweep_mode"),
    (["loadgen", "--out"], "--out", "_loadgen_mode"),
])
def test_output_path_in_missing_directory_fails_before_the_run(
        argv, flag, handler, tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, handler, lambda args: ran.append(args) or 0)
    missing = tmp_path / "nodir" / "out.json"
    assert main([*argv, str(missing)]) == 2
    assert ran == []  # the verb's handler never started
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"argument {flag}:" in err and "does not exist" in err
    # The same command with an existing directory reaches the handler.
    assert main([*argv, str(tmp_path / "out.json")]) == 0
    assert len(ran) == 1


def test_serve_and_loadgen_help_state_the_service_defaults(capsys):
    """The parser leaves these defaults to repro.serve; its help repeats
    them."""
    from repro.serve.app import DEFAULT_HOST, DEFAULT_PORT
    from repro.serve.jobs import DEFAULT_QUEUE_LIMIT, DEFAULT_WORKERS
    from repro.serve.loadgen import (
        DEFAULT_CLIENTS,
        DEFAULT_NUM_JOBS,
        DEFAULT_REQUESTS,
    )

    assert main(["serve", "--help"]) == 0
    serve = " ".join(capsys.readouterr().out.split())
    assert main(["loadgen", "--help"]) == 0
    loadgen = " ".join(capsys.readouterr().out.split())
    for text in (serve, loadgen):
        assert f"address (default {DEFAULT_HOST})" in text
        assert f"port (default {DEFAULT_PORT};" in text
    assert f"threads (default {DEFAULT_WORKERS})" in serve
    assert f"before 429 (default {DEFAULT_QUEUE_LIMIT})" in serve
    assert f"sessions (default {DEFAULT_CLIENTS})" in loadgen
    assert f"submissions (default {DEFAULT_REQUESTS})" in loadgen
    assert f"workload (default {DEFAULT_NUM_JOBS})" in loadgen


def test_single_artifact(stub_registry, capsys):
    assert main(["alpha"]) == 0
    assert "TABLE<alpha-None>" in capsys.readouterr().out


def test_all_selects_everything_once(stub_registry, capsys):
    assert main(["all", "alpha"]) == 0
    out = capsys.readouterr().out
    assert out.count("TABLE<alpha-None>") == 1
    assert out.count("TABLE<beta-None>") == 1


def test_multiple_artifacts_deduplicated(stub_registry, capsys):
    assert main(["alpha", "alpha"]) == 0
    assert capsys.readouterr().out.count("TABLE<alpha") == 1
    assert stub_registry.calls == [("alpha", None)]


def test_seed_is_plumbed_to_producers(stub_registry, capsys):
    assert main(["alpha", "--seed", "7"]) == 0
    assert stub_registry.calls == [("alpha", 7)]
    assert "TABLE<alpha-7>" in capsys.readouterr().out


def test_fig1_prints_table(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "C/R spawning" in out
    assert "48-24" in out


def test_scalability_artifact(capsys):
    assert main(["scalability"]) == 0
    assert "sweet spot" in capsys.readouterr().out


def test_registry_covers_every_eval_artifact():
    expected = {f"fig{i}" for i in (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)}
    expected |= {"table2", "scalability", "resilience"}
    assert set(builtin_registry().names()) == expected


# -- CSV emission ------------------------------------------------------------

def test_csv_output(tmp_path, capsys):
    out = tmp_path / "csvs"
    assert main(["fig1", "--csv", str(out)]) == 0
    written = out / "fig1.csv"
    assert written.exists()
    header = written.read_text().splitlines()[0]
    assert header.startswith("initial_procs,")
    assert "csv written" in capsys.readouterr().out


def test_csv_skipped_for_unsupported_artifact(stub_registry, tmp_path, capsys):
    out = tmp_path / "csvs"
    assert main(["beta", "--csv", str(out)]) == 0
    assert not (out / "beta.csv").exists()


def test_csv_written_only_for_supporting_artifacts(stub_registry, tmp_path):
    out = tmp_path / "csvs"
    assert main(["all", "--csv", str(out)]) == 0
    assert (out / "alpha.csv").read_text() == "col\nalpha-None"
    assert not (out / "beta.csv").exists()


def test_csv_render_reuses_cached_result(stub_registry, tmp_path):
    assert main(["alpha", "--csv", str(tmp_path)]) == 0
    # One producer call serves both the table and the CSV.
    assert stub_registry.calls == [("alpha", None)]


# -- run mode ----------------------------------------------------------------

TINY_SWF = """\
; two tiny jobs
1 0 -1 8 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1
2 1 -1 8 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
"""


@pytest.fixture
def swf_file(tmp_path):
    path = tmp_path / "tiny.swf"
    path.write_text(TINY_SWF)
    return path


def test_run_flexible(swf_file, capsys):
    assert main(["run", "--workload", str(swf_file), "--flexible"]) == 0
    out = capsys.readouterr().out
    assert "SWF replay" in out
    assert "flexible" in out


def test_run_rigid_with_nodes_and_seed(swf_file, capsys):
    assert main(["run", "--workload", str(swf_file), "--rigid",
                 "--nodes", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "rigid" in out
    assert "(4 nodes)" in out
    # Replays are deterministic; the CLI says so instead of silently
    # swallowing the flag.
    assert "--seed has no effect" in out


def test_run_rejects_unusable_swf(tmp_path, capsys):
    bad = tmp_path / "bad.swf"
    bad.write_text("; comments only, no jobs\n")
    assert main(["run", "--workload", str(bad)]) == 2
    assert "invalid workload" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "x 0 -1 5 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1",
    "1 nan -1 5 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1",
    "1 0 -1 5 1 -1 -1 2.5 10 -1 1 -1 -1 -1 -1 -1 -1 -1",
])
def test_run_rejects_a_malformed_swf_field_in_one_line(tmp_path, capsys, line):
    bad = tmp_path / "bad.swf"
    bad.write_text(line + "\n")
    assert main(["run", "--workload", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid workload: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_run_writes_csv(swf_file, tmp_path, capsys):
    out_dir = tmp_path / "csvs"
    assert main(["run", "--workload", str(swf_file), "--csv", str(out_dir)]) == 0
    text = (out_dir / "run.csv").read_text()
    assert text.startswith("jobs,rendition,")


def test_run_requires_workload(capsys):
    assert main(["run"]) == 2
    assert "--workload" in capsys.readouterr().err


def test_run_rejects_flexible_and_rigid(swf_file, capsys):
    assert main(["run", "--workload", str(swf_file),
                 "--flexible", "--rigid"]) == 2
    assert "not allowed with argument --flexible" in capsys.readouterr().err


def test_run_rejects_extra_artifacts(swf_file, capsys):
    assert main(["run", "fig1", "--workload", str(swf_file)]) == 2
    assert "unrecognized arguments: fig1" in capsys.readouterr().err


def test_run_unreadable_workload(tmp_path, capsys):
    assert main(["run", "--workload", str(tmp_path / "missing.swf")]) == 2
    assert "cannot read workload" in capsys.readouterr().err


def test_workload_flag_requires_run_mode(swf_file, capsys):
    assert main(["fig1", "--workload", str(swf_file)]) == 2
    assert "unrecognized arguments: --workload" in capsys.readouterr().err


# -- backends mode + run --backend -------------------------------------------

def _fake_slurm_env(monkeypatch, tmp_path):
    """Point the slurm backend at the hermetic fake CLI."""
    import shlex
    import sys as _sys

    from repro.backend.fake_slurmd import SPOOL_ENV

    monkeypatch.setenv(SPOOL_ENV, str(tmp_path / "spool"))
    for tool in ("sbatch", "scancel", "squeue", "sacct", "scontrol"):
        monkeypatch.setenv(
            f"REPRO_SLURM_{tool.upper()}",
            f"{shlex.quote(_sys.executable)} -m repro.backend.fake_slurmd "
            f"{tool}",
        )


class TestBackendsMode:
    def test_lists_backends_with_flags(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "sim" in out and "slurm" in out
        assert "clock" in out and "resize" in out

    def test_json_listing(self, capsys):
        assert main(["backends", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        assert by_name["sim"]["available"] is True
        assert by_name["sim"]["resize"] is True
        assert by_name["slurm"]["clock"] == "wall"
        assert by_name["slurm"]["resize"] is False

    def test_probe_reflects_fake_commands(self, monkeypatch, tmp_path, capsys):
        _fake_slurm_env(monkeypatch, tmp_path)
        assert main(["backends", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        slurm = next(row for row in rows if row["name"] == "slurm")
        assert slurm["available"] is True


class TestRunBackend:
    def test_unknown_backend(self, swf_file, capsys):
        assert main(["run", "--workload", str(swf_file),
                     "--backend", "pbs"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_time_scale_needs_wall_backend(self, swf_file, capsys):
        assert main(["run", "--workload", str(swf_file),
                     "--time-scale", "0.1"]) == 2
        assert "wall-clock" in capsys.readouterr().err

    def test_time_scale_must_be_positive(self, swf_file, capsys):
        assert main(["run", "--workload", str(swf_file),
                     "--backend", "slurm", "--time-scale", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_backend_flag_requires_run_mode(self, capsys):
        assert main(["fig1", "--backend", "slurm"]) == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_run_over_fake_slurm(self, swf_file, monkeypatch, tmp_path, capsys):
        _fake_slurm_env(monkeypatch, tmp_path)
        assert main(["run", "--workload", str(swf_file), "--rigid",
                     "--nodes", "4", "--backend", "slurm",
                     "--time-scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "[backend=slurm]" in out
        assert "rigid" in out


# -- sweep / bench / cache modes ---------------------------------------------

class TestSweepMode:
    def test_artifact_ensemble_reports_mean_ci(self, capsys):
        assert main(["sweep", "--artifact", "fig1", "--seeds", "2",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "mean ± 95% CI" in out
        assert "artifact=fig1" in out
        assert "2 cells over seeds 2017..2018" in out

    def test_second_invocation_is_served_from_the_store(self, capsys):
        args = ["sweep", "--artifact", "fig1", "--seeds", "3", "--quiet"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "3 cached, 0 computed" in out
        assert "served 3/3 lookups from cache" in out

    def test_csv_to_stdout(self, capsys):
        assert main(["sweep", "--artifact", "fig1", "--seeds", "2",
                     "--quiet", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "group,metric,n,mean,ci95_half" in out

    def test_csv_to_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["sweep", "--artifact", "fig1", "--seeds", "2",
                     "--quiet", "--csv", str(out_dir)]) == 0
        text = (out_dir / "sweep.csv").read_text()
        assert text.startswith("group,metric,")

    def test_workload_grid(self, capsys):
        assert main(["sweep", "--workload", "fs", "--num-jobs", "4",
                     "--nodes", "8", "--seeds", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "workload=fs;num_jobs=4;nodes=8" in out
        assert "flexible_makespan_s" in out

    def test_progress_streams_to_stderr(self, capsys):
        assert main(["sweep", "--artifact", "fig1", "--seeds", "2"]) == 0
        err = capsys.readouterr().err
        assert "run    artifact=fig1;seed=2017" in err
        assert "done   artifact=fig1;seed=2018" in err

    def test_unknown_artifact_rejected(self, capsys):
        assert main(["sweep", "--artifact", "nope", "--seeds", "2"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_invalid_grid_rejected(self, capsys):
        assert main(["sweep", "--seeds", "2"]) == 2
        assert "invalid sweep" in capsys.readouterr().err

    def test_artifact_without_metrics_fails_cleanly(self, capsys):
        assert main(["sweep", "--artifact", "fig4", "--seeds", "1",
                     "--quiet"]) == 1
        assert "no CSV metric form" in capsys.readouterr().err

    def test_invalid_jobs_fails_cleanly(self, capsys):
        assert main(["sweep", "--artifact", "fig1", "--seeds", "1",
                     "--jobs", "0", "--quiet"]) == 2
        assert "argument --jobs: must be a positive integer" in \
            capsys.readouterr().err

    def test_aggregate_csv_stays_single_delimiter(self, capsys):
        """Fig. 1 metric keys span two axis columns; the CSV must keep
        one comma-separated field count on every row."""
        assert main(["sweep", "--artifact", "fig1", "--seeds", "2",
                     "--quiet", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index("group,metric,n,mean,ci95_half,ci_low,ci_high,median,stdev")
        csv_lines = [ln for ln in lines[header:] if ln]
        assert len(csv_lines) > 1
        assert all(len(ln.split(",")) == 9 for ln in csv_lines)
        assert any("[initial_procs=48;target_procs=12]" in ln for ln in csv_lines)


class TestBenchMode:
    def test_quick_bench_writes_well_formed_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_sweep.json"
        assert main(["bench", "--quick", "--quiet", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["bench"] == "sweep"
        assert set(data["artifacts"]) == {"fig1", "fig3", "table2"}
        for entry in data["artifacts"].values():
            assert entry["cells"] == 2
            assert entry["metrics"]
        assert "[bench written to" in capsys.readouterr().out

    def test_bench_sched_writes_well_formed_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_sched.json"
        assert main(["bench", "sched", "--sizes", "300", "--quiet",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["bench"] == "sched"
        assert list(data["traces"]) == ["300"]
        entry = data["traces"]["300"]
        assert entry["incremental"]["jobs_started"] == 300
        # Same schedule, asymptotically less work.
        assert entry["legacy"]["makespan_s"] == entry["incremental"]["makespan_s"]
        assert entry["speedup"]["comparisons_ratio"] > 1.0
        assert "300" in data["swf_roundtrip"]
        assert "[bench written to" in capsys.readouterr().out

    def test_sched_takes_quick_quiet_and_out_on_either_side(self):
        from repro.cli import parse_command

        for argv in (["bench", "--quick", "--quiet", "--out", "f", "sched"],
                     ["bench", "sched", "--quick", "--quiet", "--out", "f"]):
            args = parse_command(argv)
            assert (args.quick, args.quiet, args.out) == (True, True, "f")
        args = parse_command(["bench", "sched"])
        assert (args.quick, args.quiet, args.out) == (False, False, None)

    def test_bench_sched_no_legacy(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_sched.json"
        assert main(["bench", "sched", "--sizes", "200", "--no-legacy",
                     "--quiet", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        entry = data["traces"]["200"]
        assert "legacy" not in entry and "speedup" not in entry


class TestCacheMode:
    def test_ls_empty(self, capsys):
        assert main(["cache", "ls"]) == 0
        assert "0 record(s)" in capsys.readouterr().out

    def test_ls_after_sweep_shows_records(self, capsys):
        assert main(["sweep", "--artifact", "fig1", "--seeds", "2",
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "artifact=fig1" in out

    def test_clear(self, capsys):
        assert main(["sweep", "--artifact", "fig1", "--seeds", "2",
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "removed 2 record(s)" in capsys.readouterr().out
        assert main(["cache", "ls"]) == 0
        assert "0 record(s)" in capsys.readouterr().out

    def test_ls_json(self, capsys):
        assert main(["sweep", "--artifact", "fig1", "--seeds", "2",
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["records"]) == 2
        assert {"hits", "misses", "puts"} <= set(listing["stats"])
        assert all(r["spec"]["artifact"] == "fig1"
                   for r in listing["records"])

    def test_clear_rejects_json(self, capsys):
        assert main(["cache", "clear", "--json"]) == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestArtifactStoreCache:
    def test_repeat_fig1_skips_the_producer(self, capsys, monkeypatch):
        """Repeated `repro figN` invocations are served from disk."""
        import repro.experiments.fig01_cr_vs_dmr as fig01

        assert main(["fig1"]) == 0
        first = capsys.readouterr().out

        def boom(*a, **kw):
            raise AssertionError("producer re-ran despite the store")

        monkeypatch.setattr(fig01, "run_fig01", boom)
        builtin_registry().clear_cache()  # drop the in-memory result too
        assert main(["fig1"]) == 0
        assert capsys.readouterr().out == first

    def test_no_cache_flag_bypasses_the_store(self, capsys, monkeypatch):
        import repro.experiments.fig01_cr_vs_dmr as fig01

        assert main(["fig1"]) == 0
        capsys.readouterr()
        calls = []
        real = fig01.run_fig01
        monkeypatch.setattr(
            fig01, "run_fig01", lambda *a, **kw: calls.append(1) or real()
        )
        builtin_registry().clear_cache()
        assert main(["fig1", "--no-cache"]) == 0
        assert calls == [1]


# -- resilience mode ----------------------------------------------------------

def test_resilience_quick_check_passes(tmp_path, capsys):
    out = tmp_path / "csvs"
    assert main(["resilience", "--quick", "--check", "--csv", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "DMR strictly ahead" in printed
    csv_text = (out / "resilience.csv").read_text()
    assert "work_fraction" in csv_text.splitlines()[0]


def test_resilience_custom_mtbf_list(capsys):
    assert main(["resilience", "--quick", "--mtbf", "500"]) == 0
    assert "MTBF 500s" in capsys.readouterr().out


def test_resilience_rejects_bad_mtbf_list():
    assert main(["resilience", "--mtbf", "fast,slow"]) == 2


def test_resilience_rejects_empty_mtbf_list(capsys):
    assert main(["resilience", "--mtbf", ","]) == 2
    assert "at least one value" in capsys.readouterr().err


def test_resilience_rejects_nonpositive_values(capsys):
    assert main(["resilience", "--quick", "--mtbf", "-100"]) == 2
    assert "positive" in capsys.readouterr().err
    assert main(["resilience", "--quick", "--repair-time", "0"]) == 2
    assert main(["resilience", "--quick", "--num-jobs", "0"]) == 2


def test_resilience_rejects_nan_values(capsys):
    assert main(["resilience", "--quick", "--mtbf", "nan"]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["resilience", "--quick", "--repair-time", "nan"]) == 2


# -- trace mode ----------------------------------------------------------------

def test_trace_fig1_writes_valid_perfetto_file(tmp_path, capsys):
    from repro.obs.perfetto import validate_trace_file

    out = tmp_path / "trace.json"
    assert main(["trace", "fig1", "--quick", "--num-jobs", "6",
                 "--out", str(out)]) == 0
    summary = validate_trace_file(str(out))
    # The acceptance triad: scheduler passes, reconfigurations, faults.
    assert summary["names"]["sched.pass"] > 0
    assert summary["names"]["runtime.reconfig"] > 0
    assert summary["names"]["fault.inject"] > 0
    stdout = capsys.readouterr().out
    assert "cid trace-fig1-2017" in stdout
    assert "written to" in stdout


def test_trace_unknown_scenario_rejected(tmp_path, capsys):
    assert main(["trace", "nope", "--out", str(tmp_path / "t.json")]) == 2
    assert "unknown trace scenario" in capsys.readouterr().err


def test_sweep_trace_flag_exports_cell_spans(tmp_path, capsys):
    from repro.obs.perfetto import validate_trace_file

    out = tmp_path / "sweep-trace.json"
    assert main(["sweep", "--workload", "fs", "--num-jobs", "4",
                 "--seeds", "1", "--quiet", "--trace", str(out)]) == 0
    summary = validate_trace_file(str(out))
    assert summary["names"]["sweep.cell"] == 1
    assert summary["names"]["sched.pass"] > 0
    assert any(name.startswith("sweep/0/") for name in summary["track_names"])
    assert "trace events" in capsys.readouterr().out


def test_bench_sched_trace_flag_exports_replay_spans(tmp_path, capsys):
    from repro.obs.perfetto import validate_trace_file

    out = tmp_path / "BENCH_sched.json"
    trace_out = tmp_path / "sched-trace.json"
    assert main(["bench", "sched", "--sizes", "200", "--no-legacy",
                 "--quiet", "--out", str(out),
                 "--trace", str(trace_out)]) == 0
    summary = validate_trace_file(str(trace_out))
    assert summary["names"]["sched.pass"] > 0
    import json

    stats = json.loads(out.read_text())["traces"]["200"]["incremental"]
    assert stats["spans_recorded"] == summary["names"]["sched.pass"]
    assert stats["spans_dropped"] == 0
