"""Multi-seed ensembles with the sweep engine.

Reproduces the Fig. 3 headline ("flexible workloads finish 10-15%
faster") as a *band* instead of a point estimate: five seeds per grid
point, executed through the sweep engine with an on-disk store, then
aggregated into mean ± 95% CI per metric.

Run from the repository root::

    PYTHONPATH=src python examples/sweep_ensemble.py
"""

from repro.store import default_store
from repro.sweep import Sweep, SweepRunner


def main() -> None:
    # 2 sizes x 2 policy presets x 5 seeds = 20 independent cells.
    sweep = Sweep.over(
        seeds=5,
        workloads=["fs"],
        num_jobs=[25, 50],
        policies=["default", "deepest"],
    )

    store = default_store()  # .repro-cache: the second run is instant
    runner = SweepRunner(jobs=2, store=store)
    result = runner.run(sweep)

    aggregate = result.aggregate()
    print(aggregate.as_table())
    print(
        f"{len(result)} cells ({result.cached_cells} served from "
        f"{store.root}), compute {result.compute_wall_time:.1f}s"
    )

    # The aggregate is also a plain nested dict for post-processing.
    for group, metrics in aggregate.as_dict().items():
        gain = metrics["makespan_gain_pct"]
        print(f"{group}: flexible gains {gain['mean']:.1f}% "
              f"± {gain['ci95_half']:.1f} (n={gain['n']})")
        assert gain["n"] == 5 and gain["mean"] > 0, f"{group}: no gain"


if __name__ == "__main__":
    main()
