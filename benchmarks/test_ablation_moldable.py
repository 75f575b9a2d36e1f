"""Extension: flexible (moldable) submission — the paper's future work.

The conclusions propose that "resource utilization could still be
improved if the job submission was not rigid, but flexible by giving a
range of number of nodes required instead of a fixed value".  This bench
implements it: Section IX jobs submitted with a [min, max] range start
shrunk when the machine is busy instead of queueing for their maximum,
on top of runtime malleability.
"""

from dataclasses import replace

from conftest import emit

from repro.api import Session
from repro.cluster import marenostrum_production
from repro.metrics.report import format_table
from repro.runtime import RuntimeConfig
from repro.workload import realapp_workload


def run_moldable_study(num_jobs: int = 50, seed: int = 2017):
    session = Session(cluster=marenostrum_production(), runtime=RuntimeConfig())

    spec = realapp_workload(num_jobs, seed=seed)
    fixed = session.run(spec, flexible=False)
    flexible = session.run(spec, flexible=True)

    mold_spec = realapp_workload(num_jobs, seed=seed)
    mold_spec.jobs = [replace(s, moldable=True) for s in mold_spec.jobs]
    moldable = session.run(mold_spec, flexible=True)

    rows = []
    for label, result in [
        ("fixed (rigid submission)", fixed),
        ("flexible (paper)", flexible),
        ("flexible + moldable submission (future work)", moldable),
    ]:
        s = result.summary
        rows.append(
            [label, s.makespan, s.avg_wait_time, s.avg_completion_time,
             100 * s.utilization_rate]
        )
    table = format_table(
        ["configuration", "makespan (s)", "avg wait (s)",
         "avg completion (s)", "utilization (%)"],
        rows,
        title=f"Future work: moldable submission ({num_jobs}-job real-app workload)",
    )
    return {"fixed": fixed, "flexible": flexible, "moldable": moldable}, table


def test_ablation_moldable_submission(benchmark):
    results, table = benchmark.pedantic(run_moldable_study, rounds=1, iterations=1)
    emit(table)

    fixed = results["fixed"].summary
    flexible = results["flexible"].summary
    moldable = results["moldable"].summary

    # The paper's malleability already wins big.
    assert flexible.makespan < 0.6 * fixed.makespan
    # Moldable submission removes the wait-for-maximum bottleneck: jobs
    # start (shrunk) as soon as their minimum fits, cutting waits further.
    assert moldable.avg_wait_time < flexible.avg_wait_time
    # And it must not cost makespan.
    assert moldable.makespan < 1.1 * flexible.makespan
