"""Tests for the ``repro bench`` ensemble emitter."""

import json

from repro.store import ResultStore
from repro.sweep import run_bench, runner, write_bench


def _quick_bench(store=None):
    # fig1 only: analytic, so the bench machinery is exercised in
    # milliseconds; the full artifact list is covered by the CLI smoke.
    return run_bench(quick=True, artifacts=("fig1",), store=store)


class TestRunBench:
    def test_payload_shape(self):
        data = _quick_bench()
        assert data["bench"] == "sweep"
        assert data["quick"] is True
        assert data["seeds"] == [2017, 2018]
        entry = data["artifacts"]["fig1"]
        assert entry["cells"] == 2
        assert entry["cached_cells"] == 0
        assert entry["ensemble_wall_s"] >= 0
        # Two cells back no tail quantile: order statistics only.
        wall = entry["cell_wall"]
        assert set(wall) == {"n", "min", "median", "max"}
        assert wall["n"] == 2
        assert 0 <= wall["min"] <= wall["median"] <= wall["max"]
        metrics = entry["metrics"]["artifact=fig1"]
        factor = metrics["factor[initial_procs=48;target_procs=12]"]
        assert factor["n"] == 2
        assert factor["mean"] > 1.0
        assert data["total_wall_s"] >= entry["ensemble_wall_s"]

    def test_store_feeds_second_bench(self, tmp_path):
        store = ResultStore(tmp_path)
        _quick_bench(store=store)
        # The untimed warm-up cell stays out of the store.
        assert (store.stats()["puts"], len(store.entries())) == (2, 2)
        data = _quick_bench(store=store)
        assert data["artifacts"]["fig1"]["cached_cells"] == 2

    def test_first_timed_cell_is_not_the_first_computed(self, monkeypatch):
        # The spy stamps the first cell this process computes as cold;
        # the bench must have run that one untimed.
        cold_s = 60.0
        computed = []
        execute = runner.execute_cell

        def spy(spec, *args, **kwargs):
            payload = execute(spec, *args, **kwargs)
            computed.append(spec)
            if len(computed) == 1:
                payload = dict(payload, wall_time=cold_s)
            return payload

        monkeypatch.setattr(runner, "execute_cell", spy)
        data = run_bench(quick=True, artifacts=("fig1",))
        assert computed[0].seed not in data["seeds"]
        assert data["artifacts"]["fig1"]["cell_wall"]["max"] < cold_s

    def test_full_defaults_to_five_seeds(self):
        data = run_bench(artifacts=("fig1",))
        assert len(data["seeds"]) == 5
        assert data["quick"] is False


class TestWriteBench:
    def test_emits_well_formed_json(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        written = write_bench(_quick_bench(), str(path))
        assert written == str(path)
        data = json.loads(path.read_text())
        assert data["bench"] == "sweep"
        assert data["artifacts"]["fig1"]["metrics"]
