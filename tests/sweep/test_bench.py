"""Tests for the ``repro bench`` ensemble emitter."""

import json

from repro.store import ResultStore
from repro.sweep import run_bench, write_bench


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
        data = _quick_bench(store=store)
        assert data["artifacts"]["fig1"]["cached_cells"] == 2

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
