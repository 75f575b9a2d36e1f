"""Job record pins: a replayed job holds its data, not scaffolding.

``Job``, ``JobSpec`` and ``AppModel`` are slotted dataclasses, an SWF
job's application factory is one slotted :class:`SwfAppFactory` rather
than a closure, the model parts that do not vary (the linear curve, each
distinct resize request) are shared, a rigid job's runtime builds no DMR
state, and the controller drops a start event once it has fired.  These
are pinned by count and by bytes, not by wall clock:

* a parsed SWF spec holds at most :data:`PARSE_OBJECTS_PER_JOB` objects
  per job that the cyclic collector tracks (the ``JobSpec`` and its
  factory), and at most :data:`MAX_PARSE_BYTES_PER_JOB` bytes per job,
  measured with :mod:`tracemalloc`;
* its retained rigid replay holds at most
  :data:`REPLAY_OBJECTS_PER_JOB` tracked objects per job (adding the
  ``Job``, its ``resizes`` list and its ``AppModel``; trace rows are
  untracked, ``tests/perf/test_trace_rows.py``).

Before these records were slotted, the same log read 6.0 tracked
objects and about 715 B per job after the parse, and 10.0 objects per
job after the replay.

Run as a script, it prints the same footprint for a larger log (CI
prints the 20,000-job figures)::

    PYTHONPATH=src python tests/perf/test_job_records.py 20000
"""

from __future__ import annotations

import gc
import pickle
import sys
import tracemalloc
from dataclasses import replace
from typing import NamedTuple

import pytest

from repro.api.session import Session
from repro.apps.base import LinearScalability
from repro.cluster.configs import ClusterConfig
from repro.core.dmr import DMRSession
from repro.runtime.nanos import NanosRuntime
from repro.sim.engine import Environment
from repro.slurm.controller import SlurmController
from repro.slurm.job import Job
from repro.sweep.bench import autosize_cluster
from repro.workload.generator import sched_trace
from repro.workload.swf import export_sched_trace, parse_swf

SEED = 2017
JOBS = 2_000
#: Tracked objects per parsed job: the ``JobSpec`` and its factory.
PARSE_OBJECTS_PER_JOB = 2
#: Tracked objects per replayed job: the above, plus the ``Job``, its
#: ``resizes`` list and the ``AppModel`` built at submission.
REPLAY_OBJECTS_PER_JOB = 5
#: What does not grow with the log: the ``WorkloadSpec`` and its list,
#: one resize request per distinct size (14 objects at 2,000 jobs) ...
PARSE_FIXED_OBJECTS = 64
#: ... and the session, controller, machine and nodes of the replay
#: (65 objects at 2,000 jobs on 45 nodes).
REPLAY_FIXED_OBJECTS = 256
#: 325 B measured at 2,000 jobs on CPython 3.11 (the two records, the
#: name string, three floats and one list slot); about 23% headroom for
#: other interpreter versions' object layouts.
MAX_PARSE_BYTES_PER_JOB = 400.0
#: One SWF line: job 7, submitted at 3 s, 50 s on 4 processors.
LINE = "7 3 -1 50 4 -1 -1 4 60 -1 1 -1 -1 -1 -1 -1 -1 -1"


class Footprint(NamedTuple):
    jobs: int
    parse_bytes: int
    parse_objects: int
    replay_bytes: int
    replay_objects: int


def footprint(jobs: int, seed: int = SEED) -> Footprint:
    """What a ``jobs``-job SWF log holds once parsed, and once replayed
    rigid with every finished job retained: bytes (:mod:`tracemalloc`)
    and objects the cyclic collector tracks, each over what existed
    before the parse."""
    trace = sched_trace(jobs, seed=seed)
    text, nodes = export_sched_trace(trace), autosize_cluster(trace)
    # Replay a few jobs first, so that lazy imports and one-time caches
    # are not counted as the log's.
    _replay(parse_swf(export_sched_trace(trace[:10])), nodes)
    del trace
    gc.collect()
    baseline = len(gc.get_objects())
    tracemalloc.start()
    try:
        spec = parse_swf(text)
        gc.collect()
        parse_bytes = tracemalloc.get_traced_memory()[0]
        parse_objects = len(gc.get_objects()) - baseline
        result = _replay(spec, nodes)
        gc.collect()
        replay_bytes = tracemalloc.get_traced_memory()[0]
        replay_objects = len(gc.get_objects()) - baseline
    finally:
        tracemalloc.stop()
    assert len(spec.jobs) == len(result.jobs) == jobs
    return Footprint(jobs, parse_bytes, parse_objects, replay_bytes,
                     replay_objects)


def _replay(spec, nodes: int):
    session = Session(cluster=ClusterConfig(num_nodes=nodes))
    return session.submit(spec, flexible=False).execute()


@pytest.fixture(scope="module")
def measured() -> Footprint:
    return footprint(JOBS)


@pytest.mark.no_invariants
def test_a_parsed_swf_job_is_two_tracked_objects(measured):
    jobs = measured.jobs
    assert measured.parse_objects <= (
        PARSE_OBJECTS_PER_JOB * jobs + PARSE_FIXED_OBJECTS
    ), f"{measured.parse_objects / jobs:.2f} tracked objects per job"
    per_job = measured.parse_bytes / jobs
    assert per_job <= MAX_PARSE_BYTES_PER_JOB, f"{per_job:.0f} B per job"


@pytest.mark.no_invariants
def test_a_replayed_rigid_job_is_five_tracked_objects(measured):
    jobs = measured.jobs
    assert measured.replay_objects <= (
        REPLAY_OBJECTS_PER_JOB * jobs + REPLAY_FIXED_OBJECTS
    ), f"{measured.replay_objects / jobs:.2f} tracked objects per job"


def _controller(nodes: int = 8):
    env = Environment()
    cluster = ClusterConfig(num_nodes=nodes)
    return env, cluster, SlurmController(env, cluster.build_machine())


def test_only_a_flexible_job_builds_dmr_state():
    _, cluster, ctl = _controller()
    spec = parse_swf(LINE).jobs[0]
    rigid, flexible = spec.build_job(False), spec.build_job(True)
    assert NanosRuntime(ctl, rigid, rigid.payload, cluster).session is None
    runtime = NanosRuntime(ctl, flexible, flexible.payload, cluster)
    assert isinstance(runtime.session, DMRSession)


def test_a_fired_start_event_is_dropped():
    env, _, ctl = _controller(nodes=2)
    job = ctl.submit(Job(name="a", num_nodes=2, time_limit=100.0))
    queued = ctl.submit(Job(name="b", num_nodes=2, time_limit=100.0))
    waited = ctl.started_event(job)
    env.run(until=1.0)
    assert job.is_running and waited.processed and waited.value is job
    assert job.job_id not in ctl._start_events
    # A job that never started still has its untriggered event.
    assert not ctl.started_event(queued).triggered

    late = ctl.started_event(job)
    assert late.processed and late.value is job
    resumed = []

    def waiter():
        resumed.append((env.now, (yield late)))

    env.process(waiter())
    env.run(until=2.0)
    assert resumed == [(1.0, job)]


def test_an_swf_spec_and_its_app_survive_pickling():
    spec = parse_swf(LINE).jobs[0]
    clone = pickle.loads(pickle.dumps(spec))
    assert replace(clone, app_factory=spec.app_factory) == spec
    assert clone.app_factory() == spec.app_factory()

    app = spec.app_factory()
    app.advance(3)
    restored = pickle.loads(pickle.dumps(app))
    assert type(restored.scalability) is LinearScalability
    assert replace(restored, scalability=app.scalability) == app
    assert restored.completed_steps == 3


if __name__ == "__main__":
    measured_now = footprint(int(sys.argv[1]) if len(sys.argv) > 1 else 20_000)
    n = measured_now.jobs
    print(f"SWF parse, {n} jobs: "
          f"{measured_now.parse_bytes / n:.0f} B and "
          f"{measured_now.parse_objects / n:.2f} tracked objects per job")
    print(f"rigid replay, {n} jobs retained: "
          f"{measured_now.replay_bytes / n:.0f} B and "
          f"{measured_now.replay_objects / n:.2f} tracked objects per job")
