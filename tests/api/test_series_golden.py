"""Golden digests of the paper's evolution series (Figs. 4, 5 and 12).

Pins the ``(times, values)`` of :meth:`WorkloadResult.allocation_series`,
:meth:`~WorkloadResult.running_series` and
:meth:`~WorkloadResult.completed_series` for both renditions of each
evolution figure at the paper's seed, plus one rigid run under node
failures, whose ``JOB_REQUEUE`` events take a running job off the
running-jobs series until its restart.
"""

import pytest

from repro.api import Session
from repro.cluster.configs import marenostrum_preliminary
from repro.experiments.fig04_05_evolution import run_fig04, run_fig05
from repro.experiments.fig10_12_realapps import run_realapps
from repro.experiments.resilience import HORIZON_FACTOR, REPAIR_TIME
from repro.faults import FaultPlan
from repro.metrics.trace import EventKind, text_digest

SEED = 2017

#: (fixed, flexible) digests per figure.
EVOLUTION_GOLDENS = {
    "fig4": (
        "0f5705c6069e470a36a6925c9251fa430d16e125b18f7d7843807c3178ca0bec",
        "b297a26bc713036cf99821224c4aee116a4bbac21f6c3834c3b4ce87073f233c",
    ),
    "fig5": (
        "8cf65f4ea88d32c0899872740c3c76621a28bff7b30e1dca13ac79723c47414f",
        "6001175aea83b13185ae45bf84d15b125117a1fd51b9368a49f09b16b6d514e6",
    ),
    "fig12": (
        "5cafef814cd1bef02fc7a7af89ea17152a7cb0030a0ae7dfdd588ab79956101d",
        "6fa0a70b91336029a3d8b66e9a1cb5adcd0fc2a4fd76870ab499830035dc89e0",
    ),
}

FAULTED_RIGID_GOLDEN = (
    "7c2d3dc2284ee94d2c9ffff00443506df307faf983dd83efcd2b9cb17ae2678d"
)


def series_digest(result) -> str:
    parts = []
    for series in (
        result.allocation_series(),
        result.running_series(),
        result.completed_series(),
    ):
        parts.append(repr((series.times, series.values)))
    return text_digest("\n".join(parts))


def evolution_pair(name):
    if name == "fig4":
        return run_fig04(SEED).pair
    if name == "fig5":
        return run_fig05(SEED).pair
    # Fig. 12 renders the 50-job row; each row is an independent pair.
    return run_realapps(job_counts=(50,), seed=SEED).row(50).pair


@pytest.mark.parametrize("name", sorted(EVOLUTION_GOLDENS))
def test_evolution_series_match_golden(name):
    pair = evolution_pair(name)
    assert (series_digest(pair.fixed), series_digest(pair.flexible)) == (
        EVOLUTION_GOLDENS[name]
    )


def test_faulted_rigid_series_match_golden():
    # Built as experiments/resilience.py builds its quick rendition.
    base = Session(cluster=marenostrum_preliminary()).with_seed(SEED)
    spec = base.fs_workload(14)
    horizon = HORIZON_FACTOR * base.run(spec, flexible=False).summary.makespan
    plan = FaultPlan.from_mtbf(
        mtbf=500.0,
        horizon=horizon,
        num_nodes=base.cluster.num_nodes,
        seed=SEED,
        repair_time=REPAIR_TIME,
    )
    result = base.with_faults(plan).run(spec, flexible=False)
    assert len(result.trace.of_kind(EventKind.JOB_REQUEUE)) >= 1
    assert series_digest(result) == FAULTED_RIGID_GOLDEN
