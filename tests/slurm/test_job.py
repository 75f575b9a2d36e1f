"""Tests for the job descriptor and its state machine."""

import pytest

from repro.core import ResizeRequest
from repro.errors import JobStateError
from repro.slurm import Job, JobClass, JobState, make_resizer


def make_job(**kw):
    defaults = dict(name="j", num_nodes=4, time_limit=100.0)
    defaults.update(kw)
    return Job(**defaults)


def test_job_validation():
    with pytest.raises(JobStateError):
        make_job(num_nodes=0)
    with pytest.raises(JobStateError):
        make_job(time_limit=0)


def test_flexible_job_requires_request():
    with pytest.raises(JobStateError):
        make_job(job_class=JobClass.MALLEABLE)
    job = make_job(
        job_class=JobClass.MALLEABLE,
        resize_request=ResizeRequest(min_procs=1, max_procs=8),
    )
    assert job.is_flexible


def test_job_class_flexibility():
    assert not JobClass.RIGID.is_flexible
    assert not JobClass.MOLDABLE.is_flexible
    assert JobClass.MALLEABLE.is_flexible
    assert JobClass.EVOLVING.is_flexible


def test_legal_lifecycle():
    job = make_job()
    job.transition(JobState.RUNNING)
    job.transition(JobState.COMPLETING)
    job.transition(JobState.COMPLETED)
    assert job.is_terminal


def test_illegal_transition_rejected():
    job = make_job()
    with pytest.raises(JobStateError):
        job.transition(JobState.COMPLETED)  # PENDING -> COMPLETED is illegal


def test_terminal_states_frozen():
    job = make_job()
    job.transition(JobState.CANCELLED)
    with pytest.raises(JobStateError):
        job.transition(JobState.RUNNING)


def test_record_resize_tracks_history():
    job = make_job(num_nodes=8)
    job.record_resize(10.0, 4)
    job.record_resize(20.0, 16)
    assert job.num_nodes == 16
    assert job.resizes == [(10.0, 8, 4), (20.0, 4, 16)]
    assert job.submitted_nodes == 8


def test_paper_metrics():
    job = make_job()
    job.submit_time, job.start_time, job.end_time = 5.0, 15.0, 115.0
    assert job.wait_time == 10.0
    assert job.execution_time == 100.0


def test_metrics_require_timestamps():
    job = make_job()
    with pytest.raises(JobStateError):
        _ = job.wait_time
    with pytest.raises(JobStateError):
        _ = job.execution_time
    with pytest.raises(JobStateError):
        _ = job.expected_end


def test_expected_end_uses_limit():
    job = make_job(time_limit=50.0)
    job.start_time = 100.0
    assert job.expected_end == 150.0


def test_make_resizer_properties():
    parent = make_job(num_nodes=4)
    parent.job_id = 7
    rj = make_resizer(parent, extra_nodes=4)
    assert rj.is_resizer
    assert rj.num_nodes == 4
    assert rj.parent_id == 7
    assert rj.dependency == 7
    assert rj.priority_boost == float("inf")


def test_make_resizer_validation():
    parent = make_job()
    with pytest.raises(JobStateError):
        make_resizer(parent, extra_nodes=0)
