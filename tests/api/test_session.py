"""Tests for the Session builder and execution API."""

import pytest

from repro.api import Session, SimulationTimeout
from repro.cluster import ClusterConfig, marenostrum_preliminary
from repro.errors import ReproError
from repro.runtime import RuntimeConfig
from repro.slurm import SlurmConfig
from repro.slurm.reconfig import PolicyConfig
from repro.workload import FSWorkloadConfig, fs_workload

SMALL_FS = FSWorkloadConfig(steps=4)


class TestBuilder:
    def test_with_steps_return_new_sessions(self):
        base = Session()
        seeded = base.with_seed(5)
        clustered = seeded.with_cluster(ClusterConfig(num_nodes=8))
        assert base.seed is None
        assert seeded.seed == 5
        assert seeded.cluster is None
        assert clustered.cluster.num_nodes == 8
        # The intermediate stages are untouched (immutability).
        assert base is not seeded is not clustered

    def test_with_runtime_and_slurm(self):
        session = (
            Session()
            .with_runtime(RuntimeConfig(async_mode=True))
            .with_slurm(SlurmConfig(backfill_interval=0.2))
        )
        assert session.runtime.async_mode is True
        assert session.slurm.backfill_interval == 0.2

    def test_with_policy_merges_into_slurm_config(self):
        policy = PolicyConfig(expand_with_pending=True)
        session = Session().with_slurm(SlurmConfig(backfill_interval=0.2)).with_policy(policy)
        assert session.slurm.policy is policy
        assert session.slurm.backfill_interval == 0.2
        # The other composition order also preserves both settings.
        flipped = Session().with_policy(policy).with_slurm(SlurmConfig(backfill_interval=0.2))
        assert flipped.slurm.backfill_interval == 0.2

    def test_observe_accumulates(self):
        from repro.api import SessionObserver

        a, b = SessionObserver(), SessionObserver()
        session = Session().observe(a).observe(b)
        assert session.observers == (a, b)
        assert Session().observers == ()

    def test_effective_seed_defaults_to_2017(self):
        assert Session().effective_seed == 2017
        assert Session().with_seed(9).effective_seed == 9

    def test_seeded_workload_helpers(self):
        session = Session().with_seed(5)
        spec = session.fs_workload(4, config=SMALL_FS)
        assert spec.seed == 5
        assert "seed5" in spec.name

    def test_streams_are_deterministic(self):
        a = Session().with_seed(3).streams().uniform("x")
        b = Session().with_seed(3).streams().uniform("x")
        assert a == b


class TestExecution:
    def test_build_defaults_to_production_testbed(self):
        sim = Session().build()
        assert sim.machine.num_nodes == 65
        assert sim.controller.launcher is not None

    def test_run_produces_workload_result(self):
        session = Session(cluster=marenostrum_preliminary())
        spec = fs_workload(4, seed=1, config=SMALL_FS)
        result = session.run(spec, flexible=True)
        assert result.flexible is True
        assert result.summary.num_jobs == 4
        assert result.makespan > 0

    @pytest.mark.no_invariants
    def test_plain_submit_installs_no_trace_subscriber(self):
        # A run without session observers pays nothing per trace record.
        session = Session(cluster=marenostrum_preliminary())
        run = session.submit(fs_workload(2, seed=1, config=SMALL_FS))
        assert run.sim.dispatch is None
        assert run.sim.controller.trace._subscribers == []

    def test_run_is_deterministic(self):
        session = Session(cluster=marenostrum_preliminary())
        spec = fs_workload(5, seed=2, config=SMALL_FS)
        a = session.run(spec, flexible=True)
        b = session.run(spec, flexible=True)
        assert a.makespan == b.makespan
        assert len(a.trace) == len(b.trace)

    def test_run_paired_flags(self):
        session = Session(cluster=marenostrum_preliminary())
        pair = session.run_paired(fs_workload(4, seed=1, config=SMALL_FS))
        assert pair.fixed.flexible is False
        assert pair.flexible.flexible is True

    def test_submit_then_execute(self):
        session = Session(cluster=marenostrum_preliminary())
        run = session.submit(fs_workload(3, seed=1, config=SMALL_FS))
        assert run.jobs == []  # nothing has executed yet
        result = run.execute()
        assert len(run.jobs) == 3
        assert result.summary.num_jobs == 3

    def test_finished_jobs_release_their_processes(self):
        session = Session(cluster=marenostrum_preliminary())
        run = session.submit(fs_workload(6, seed=1, config=SMALL_FS))
        result = run.execute()
        assert result.summary.num_jobs == 6
        assert run.sim.controller.job_processes == {}

    @pytest.mark.no_invariants
    def test_finished_run_is_freed_without_the_cyclic_collector(self):
        import gc
        import weakref

        session = Session(cluster=marenostrum_preliminary())
        run = session.submit(fs_workload(4, seed=1, config=SMALL_FS))
        gc.disable()
        try:
            result = run.execute()
            controller = weakref.ref(run.sim.controller)
            del run, result
            assert controller() is None
        finally:
            gc.enable()

    def test_default_backend_is_the_simulator(self):
        assert Session().backend == Session().with_backend("sim").backend
        assert Session().backend.name == "sim"


class TestSimulationTimeout:
    def test_timeout_carries_job_state(self):
        session = Session(cluster=marenostrum_preliminary())
        spec = fs_workload(5, seed=1, config=SMALL_FS)
        with pytest.raises(SimulationTimeout, match="did not finish") as info:
            session.run(spec, flexible=False, max_sim_time=1.0)
        exc = info.value
        assert exc.workload_name == spec.name
        assert exc.max_sim_time == 1.0
        stuck = exc.unsubmitted + len(exc.pending_job_ids) + len(exc.running_job_ids)
        assert stuck > 0
        assert isinstance(exc.pending_job_ids, tuple)
        assert isinstance(exc.running_job_ids, tuple)

    def test_timeout_is_a_repro_error(self):
        # Pre-facade callers caught ReproError; the subclass keeps working.
        assert issubclass(SimulationTimeout, ReproError)

    def test_session_level_horizon(self):
        session = Session(cluster=marenostrum_preliminary()).with_max_sim_time(1.0)
        with pytest.raises(SimulationTimeout):
            session.run(fs_workload(5, seed=1, config=SMALL_FS))


class TestSessionSpec:
    """A session without observers is its own picklable spec: it crosses
    a process boundary as is and compares equal on the other side."""

    def test_spec_round_trip_rebuilds_equivalent_session(self):
        import pickle

        from repro.api import TelemetryConfig

        session = (
            Session(cluster=marenostrum_preliminary())
            .with_runtime(RuntimeConfig(async_mode=True))
            .with_seed(9)
            .with_max_sim_time(123.0)
            .with_telemetry(TelemetryConfig(correlation_id="pickled"))
            .with_backend("slurm", poll_interval=0.5)
        )
        clone = pickle.loads(pickle.dumps(session))
        assert clone == session
        assert clone.cluster == session.cluster
        assert clone.runtime == session.runtime
        assert clone.seed == 9
        assert clone.max_sim_time == 123.0
        assert clone.telemetry == TelemetryConfig(correlation_id="pickled")
        assert clone.backend == session.backend

    def test_spec_runs_reproduce_the_original(self):
        import pickle

        session = Session(cluster=marenostrum_preliminary()).with_seed(3)
        spec = fs_workload(4, seed=3, config=SMALL_FS)
        original = session.run(spec)
        replayed = pickle.loads(pickle.dumps(session)).run(spec)
        assert replayed.makespan == original.makespan
        assert replayed.summary.as_dict() == original.summary.as_dict()
