"""Unit tests for the backend contract plumbing (specs, registry, drain)."""

import pickle

import pytest

from repro.backend.base import (
    AccountingRecord,
    BackendCapabilities,
    BackendSpec,
    ExecutionBackend,
    JobRequest,
    backend_class,
    backend_names,
    create_backend,
)
from repro.errors import BackendError, BackendUnavailableError
from repro.slurm.job import JobState


class TestJobRequest:
    def test_validation(self):
        with pytest.raises(BackendError):
            JobRequest(name="x", num_nodes=0, duration=1.0, time_limit=10.0)
        with pytest.raises(BackendError):
            JobRequest(name="x", num_nodes=1, duration=-1.0, time_limit=10.0)
        with pytest.raises(BackendError):
            JobRequest(name="x", num_nodes=1, duration=1.0, time_limit=0.0)

    def test_flexible_flag(self):
        rigid = JobRequest(name="x", num_nodes=2, duration=1.0, time_limit=10.0)
        flex = JobRequest(
            name="x", num_nodes=2, duration=1.0, time_limit=10.0,
            min_nodes=1, max_nodes=4,
        )
        assert not rigid.flexible
        assert flex.flexible


class TestBackendSpec:
    def test_of_sorts_options(self):
        spec = BackendSpec.of("slurm", poll_interval=0.5, partition="debug")
        assert spec.options == (("partition", "debug"), ("poll_interval", 0.5))
        assert spec.option("partition") == "debug"
        assert spec.option("missing", 42) == 42

    def test_picklable_and_hashable(self):
        spec = BackendSpec.of("slurm", poll_interval=0.5)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(BackendSpec.of("slurm", poll_interval=0.5))

    def test_as_dict(self):
        assert BackendSpec.of("sim").as_dict() == {"name": "sim"}
        assert BackendSpec.of("slurm", partition="p").as_dict() == {
            "name": "slurm",
            "partition": "p",
        }


class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        assert "sim" in names and "slurm" in names

    def test_unknown_backend(self):
        with pytest.raises(BackendUnavailableError, match="unknown backend"):
            backend_class("pbs")

    def test_create_backend_sim(self):
        backend = create_backend(BackendSpec.of("sim"))
        try:
            assert backend.name == "sim"
            assert backend.capabilities.supports_resize
        finally:
            backend.close()

    def test_driver_options_not_passed_to_constructor(self):
        # time_scale belongs to run_workload, not the backend constructor.
        backend = create_backend(BackendSpec.of("sim", time_scale=0.01))
        backend.close()


class _StuckBackend(ExecutionBackend):
    """A fake whose single job never terminates (drain must time out)."""

    name = "stuck"

    def __init__(self):
        self._now = 0.0

    @property
    def capabilities(self):
        return BackendCapabilities()

    def now(self):
        return self._now

    def wait(self, seconds):
        self._now += seconds

    def submit(self, request):
        return "1"

    def cancel(self, job_id):
        raise NotImplementedError

    def update_nodes(self, job_id, num_nodes):
        raise NotImplementedError

    def update_time_limit(self, job_id, time_limit):
        raise NotImplementedError

    def query_jobs(self, job_ids=None):
        return {
            "1": AccountingRecord(
                job_id="1", name="stuck", state=JobState.RUNNING, num_nodes=1
            )
        }


class TestDrain:
    def test_drain_times_out_with_live_jobs(self):
        backend = _StuckBackend()
        backend.submit(None)
        with pytest.raises(BackendError, match="drain timed out.*'1'"):
            backend.drain(timeout=5.0)
        # The clock advanced past the deadline, in poll_interval steps.
        assert backend.now() >= 5.0


class TestAccountingRecord:
    def test_terminal_flag(self):
        done = AccountingRecord(
            job_id="1", name="a", state=JobState.COMPLETED, num_nodes=1
        )
        live = AccountingRecord(
            job_id="2", name="b", state=JobState.RUNNING, num_nodes=1
        )
        preempted = AccountingRecord(
            job_id="3", name="c", state=JobState.PREEMPTED, num_nodes=1
        )
        assert done.is_terminal
        assert preempted.is_terminal
        assert not live.is_terminal
