"""Fig. 1 prices what the runtime charges.

``repro.checkpoint.cr`` tabulates one reconfiguration phase by phase;
``NanosRuntime`` yields the same phases in every simulation.  These tests
run workloads with telemetry and hold each recorded window to the Fig. 1
tables, so a cost constant changed on one side only fails here.
"""

import pytest

from repro.api import Session
from repro.checkpoint import CheckpointRestart, DMRReconfiguration
from repro.cluster.configs import marenostrum_preliminary, marenostrum_production
from repro.experiments.resilience import CHECKPOINT_PERIOD_STEPS
from repro.faults import FaultPlan
from repro.metrics import EventKind
from repro.runtime import RuntimeConfig

#: Virtual-time rounding allowed between a span and its table.
TOL = 1e-9


def _spans(result, name):
    return [s for s in result.telemetry.spans if s.name == name]


def test_resizes_last_what_the_dmr_table_prices():
    session = (
        Session(cluster=marenostrum_production()).with_seed(2017).with_telemetry()
    )
    result = session.run(session.realapp_workload(24))
    dmr = DMRReconfiguration(session.cluster)
    apps = {job.job_id: job.payload for job in result.jobs}
    expanded_at = {}
    for event in result.trace.of_kind(EventKind.RESIZE_EXPAND):
        expanded_at.setdefault(event.job_id, []).append(event.time)

    expands = shrinks = 0
    for span in _spans(result, "runtime.reconfig"):
        a = span.attrs
        state = apps[a["job_id"]].state_bytes
        assert state > 0
        cost = dmr.reconfigure(state, a["old_procs"], a["new_procs"])
        if a["action"] == "shrink":
            charged = cost["shrink_acks"] + cost["spawn"] + cost["redistribution"]
            assert span.duration == pytest.approx(charged, abs=TOL)
            shrinks += 1
        else:
            # The protocol's wait for the resizer job is not Fig. 1's; the
            # runtime's charge starts when Slurm grows the job.
            (grown,) = [
                t for t in expanded_at[a["job_id"]] if span.start <= t <= span.end
            ]
            charged = cost["spawn"] + cost["redistribution"]
            assert span.end - grown == pytest.approx(charged, abs=TOL)
            expands += 1
    assert expands > 0 and shrinks > 0


def test_restarts_and_checkpoints_last_what_the_cr_table_prices():
    session = (
        Session(cluster=marenostrum_preliminary())
        .with_seed(2017)
        .with_telemetry()
        .with_runtime(RuntimeConfig(checkpoint_period_steps=CHECKPOINT_PERIOD_STEPS))
    )
    spec = session.fs_workload(14)
    plan = FaultPlan.from_mtbf(
        mtbf=500.0, horizon=3000.0, num_nodes=session.cluster.num_nodes,
        seed=2017, repair_time=600.0,
    )
    result = session.with_faults(plan).run(spec, flexible=False)
    cr = CheckpointRestart(session.cluster)
    jobs = {job.job_id: job for job in result.jobs}

    restarts = _spans(result, "runtime.restart")
    from_checkpoint = 0
    for span in restarts:
        job = jobs[span.attrs["job_id"]]
        n = job.num_nodes
        cost = cr.reconfigure(job.payload.state_bytes, n, n)
        charged = cost["relaunch"]
        if span.attrs["from_steps"] > 0:
            charged += cost["checkpoint_read"]
            from_checkpoint += 1
        assert span.duration == pytest.approx(charged, abs=TOL)
    assert from_checkpoint > 0

    writes = _spans(result, "checkpoint.write_window")
    for span in writes:
        job = jobs[span.attrs["job_id"]]
        n = job.num_nodes
        cost = cr.reconfigure(job.payload.state_bytes, n, n)
        assert span.duration == pytest.approx(cost["checkpoint_write"], abs=TOL)
    assert writes
