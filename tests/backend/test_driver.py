"""run_workload and Session routing through the backend seam."""

import shlex
import sys
from collections import Counter

import pytest

from repro.api.observers import SessionObserver
from repro.api.session import Session
from repro.backend import BackendSpec, JobRequest, run_workload
from repro.backend.fake_slurmd import SPOOL_ENV
from repro.backend.sim import SimBackend
from repro.cluster.configs import ClusterConfig
from repro.errors import BackendError
from repro.metrics.trace import EventKind
from repro.slurm.controller import SlurmController


def small_session():
    return Session(cluster=ClusterConfig(num_nodes=20)).with_seed(7)


def _fake(tool):
    return f"{shlex.quote(sys.executable)} -m repro.backend.fake_slurmd {tool}"


FAKE_COMMANDS = {
    tool: _fake(tool)
    for tool in ("sbatch", "scancel", "squeue", "sacct", "scontrol")
}


@pytest.fixture()
def fake_spool(tmp_path, monkeypatch):
    monkeypatch.setenv(SPOOL_ENV, str(tmp_path))
    return tmp_path


class TestDriverOverSim:
    def test_workload_runs_and_accounts(self):
        session = small_session()
        spec = session.fs_workload(5)
        backend = SimBackend(session)
        result = run_workload(backend, spec, flexible=False, session=session)
        backend.close()

        assert result.backend == "sim"
        assert result.accounting is not None and len(result.accounting) == 5
        assert result.summary.num_jobs == 5
        assert result.makespan > 0
        assert all(j.is_terminal for j in result.jobs)
        assert all(j.end_time is not None for j in result.jobs)

    def test_observers_see_synthetic_trace(self):
        session = small_session()
        spec = session.fs_workload(4)
        seen = []
        observer = SessionObserver()
        observer.on_event = seen.append
        observed = session.observe(observer)
        backend = SimBackend(session)
        run_workload(backend, spec, flexible=False, session=observed)
        backend.close()

        kinds = Counter(event.kind for event in seen)
        assert kinds[EventKind.JOB_SUBMIT] == 4
        assert kinds[EventKind.JOB_START] == 4
        assert kinds[EventKind.JOB_END] == 4
        assert len(seen) > 8  # plus alloc changes

    def test_observer_of_the_backend_session_sees_each_event_once(self):
        attached = []
        seen = []
        observer = SessionObserver()
        observer.on_attach = attached.append
        observer.on_event = seen.append
        session = small_session().observe(observer)
        spec = session.fs_workload(3)
        backend = SimBackend(session)
        try:
            run_workload(backend, spec, session=session)
        finally:
            backend.close()

        assert len(attached) == 1
        assert isinstance(attached[0], SlurmController)
        kinds = Counter(event.kind for event in seen)
        assert kinds[EventKind.JOB_SUBMIT] == 3
        assert kinds[EventKind.JOB_END] == 3

    def test_invariant_observer_watches_a_backend_routed_run(self):
        from repro.testing import InvariantObserver

        session = small_session()
        spec = session.fs_workload(4)
        observer = InvariantObserver()
        backend = SimBackend(session)
        try:
            result = run_workload(
                backend, spec, flexible=False, session=session.observe(observer)
            )
        finally:
            backend.close()

        # No in-process controller on this path: the observer checks the
        # synthetic event stream only, and sees all of it.
        assert observer.checks == len(result.trace) == 20
        assert observer.verify_final() == 20

    def test_time_scale_must_be_positive(self):
        session = small_session()
        backend = SimBackend(session)
        with pytest.raises(ValueError, match="time_scale"):
            run_workload(backend, session.fs_workload(2), time_scale=0.0)
        backend.close()


class TestSessionRouting:
    def test_with_backend_name_and_spec(self):
        session = Session().with_backend("slurm", poll_interval=0.5)
        assert session.backend == BackendSpec.of("slurm", poll_interval=0.5)
        spec = BackendSpec.of("sim")
        assert Session().with_backend(spec).backend is spec
        with pytest.raises(ValueError):
            Session().with_backend(spec, extra=1)

    def test_spec_round_trip_carries_backend(self):
        import pickle

        session = Session().with_backend("slurm", poll_interval=0.5)
        rebuilt = pickle.loads(pickle.dumps(session))
        assert rebuilt.backend == session.backend
        assert rebuilt == session

    def test_build_refuses_non_sim_backend(self):
        with pytest.raises(BackendError, match="cannot build"):
            Session().with_backend("slurm").build()

    def test_default_and_sim_backend_build_normally(self):
        Session(cluster=ClusterConfig(num_nodes=4)).build()
        Session(cluster=ClusterConfig(num_nodes=4)).with_backend("sim").build()

    def test_run_routes_through_slurm_backend(self, fake_spool, monkeypatch):
        for tool, command in FAKE_COMMANDS.items():
            monkeypatch.setenv(f"REPRO_SLURM_{tool.upper()}", command)
        session = small_session().with_backend(
            "slurm", poll_interval=0.05, time_scale=0.002
        )
        spec = session.fs_workload(3)
        result = session.run(spec, flexible=False, max_sim_time=60.0)
        assert result.backend == "slurm"
        assert result.summary.num_jobs == 3
        assert all(j.state.value == "completed" for j in result.jobs)
        assert result.accounting is not None and len(result.accounting) == 3

    def test_execution_backend_instantiates_configured(self):
        backend = small_session().execution_backend()
        try:
            assert backend.name == "sim"
        finally:
            backend.close()
