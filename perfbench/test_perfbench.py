"""Tests for the benchmark's own helpers (no workload is run here)."""

import json
import math
import os
import time
from types import SimpleNamespace

import pytest

from perfbench.common import (
    END_TO_END,
    REFERENCE_S,
    ROOT,
    MachineSpeed,
    Result,
    add_timed,
    derive_seed,
)
from perfbench.layers import PER_LAYER, overhead_metrics
from perfbench.serve_fs import Request, max_queue_depth
from perfbench.simruns import EventClock
from perfbench.stats import (
    OpenLoop,
    backed,
    backed_percentile,
    highest_backed_fraction,
    percentile,
    samples_beyond,
)
from perfbench.tracer import Tracer


# -- the percentile rule ------------------------------------------------------------

def test_highest_backed_percentile_leaves_ten_samples_beyond():
    assert highest_backed_fraction(10) is None
    assert highest_backed_fraction(100) == pytest.approx(0.90)
    assert highest_backed_fraction(1000) == pytest.approx(0.99)
    for count in (11, 57, 100, 999, 1000):
        fraction = highest_backed_fraction(count)
        assert samples_beyond(count, fraction) == 10


def test_p90_needs_a_hundred_samples():
    assert backed(100, 0.90)
    assert not backed(99, 0.90)
    assert backed(1000, 0.99) and not backed(999, 0.99)
    with pytest.raises(ValueError):
        backed_percentile(list(range(99)), 0.90)
    assert backed_percentile(list(range(1, 101)), 0.90) == 90


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.2) == 1.0
    assert percentile(values, 0.21) == 2.0
    assert percentile(values, 1.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- self time ----------------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_timed_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        ns.inner()
        clock.now += 3.0

    ns = SimpleNamespace(inner=inner, outer=outer)
    tracer.wrap(ns, "inner", "metrics.record")
    tracer.wrap(ns, "outer", "sim.run")
    ns.outer()
    tracer.restore()

    assert ns.inner is inner and ns.outer is outer
    assert tracer.inclusive["sim.run"] == 6.0
    assert tracer.self_time["sim.run"] == 4.0
    assert tracer.self_time["metrics.record"] == 2.0
    assert tracer.layer_self_time() == {"sim": 4.0, "metrics": 2.0}
    (outer_span, inner_span) = tracer.spans
    assert inner_span[3] == 0 and outer_span[3] == -1


def test_pass_adopts_only_children_that_ran_inside_it():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def record():
        clock.now += 1.0

    def run():
        clock.now = 1.0
        ns.record()                  # 1 -> 2, before the pass
        clock.now = 4.0
        ns.record()                  # 4 -> 5, inside the pass [3, 6]
        clock.now = 6.0
        tracer.adopt_pass(3.0)
        clock.now = 7.0

    ns = SimpleNamespace(record=record, run=run)
    tracer.wrap(ns, "record", "metrics.record")
    tracer.wrap(ns, "run", "sim.run")
    ns.run()
    tracer.restore()

    assert tracer.inclusive["slurm.pass"] == 3.0
    assert tracer.self_time["slurm.pass"] == 2.0
    assert tracer.self_time["metrics.record"] == 2.0
    assert tracer.self_time["sim.run"] == 3.0
    assert sum(tracer.layer_self_time().values()) == 7.0
    names = [span[0] for span in tracer.spans]
    pass_index = names.index("slurm.pass")
    first, second = [s for s in tracer.spans if s[0] == "metrics.record"]
    assert second[3] == pass_index
    assert first[3] == names.index("sim.run")


def test_wrap_refuses_an_inherited_method():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().wrap(Child, "f", "sim.run")


def test_overhead_is_the_median_of_paired_ratios():
    # The third pair ran in a slow phase: both sides doubled, so the
    # pair still reads 10% and the phase does not move the overhead.
    pairs = [(1.1, 1.0), (1.05, 1.0), (2.2, 2.0)]
    values = overhead_metrics(pairs)
    assert values["trace.overhead_pct"] == pytest.approx(10.0)
    assert values["trace.wall_s"] == pytest.approx(4.35)
    assert values["trace.untraced_wall_s"] == pytest.approx(4.0)
    assert overhead_metrics([])["trace.overhead_pct"] == 0.0


# -- reference speed ----------------------------------------------------------------

def test_timed_metrics_are_reported_at_reference_speed():
    speed = MachineSpeed()
    speed.samples = [2 * REFERENCE_S, 2 * REFERENCE_S, 9.0]  # half speed
    result = Result("w")
    wall = {"ops_per_s": 50.0, "latency_p50_ms": 20.0,
            "latency_p90_ms": 40.0, "setup_s": 1.0}
    add_timed(result, speed, wall, dict.fromkeys(wall, 7))
    values = {name: m.value for name, m in result.metrics.items()}
    assert values == pytest.approx({"ops_per_s": 100.0, "latency_p50_ms": 10.0,
                                    "latency_p90_ms": 20.0, "setup_s": 0.5})
    assert result.metrics["setup_s"].samples == 7
    assert result.notes[0].startswith("wall clock: ops_per_s=50 ")


def test_event_clock_leaves_its_speed_samples_out_of_the_gaps():
    class SlowSpeed:
        def sample(self):
            time.sleep(0.05)

    clock = EventClock(SlowSpeed())
    for _ in range(3):
        clock(None)                  # the first event takes a sample
    clock.close_unit()
    assert clock.paused >= 0.05
    assert clock.count == 2 and max(clock.sketch) < 0.05


# -- open-loop accounting -----------------------------------------------------------

def test_open_loop_charges_lateness_to_the_request():
    loop = OpenLoop(rate=10.0, count=4, start=100.0)
    assert [loop.due(i) for i in range(4)] == pytest.approx(
        [100.0, 100.1, 100.2, 100.3])
    loop.record_sent(0, 100.0)
    loop.record_sent(1, 100.15)      # the generator ran 50 ms late
    loop.record_sent(2, 100.2)
    loop.record_sent(3, 100.3)
    loop.record_done(0, 100.05)
    loop.record_done(1, 100.25)
    loop.record_done(2, 100.4)
    loop.record_refused()

    assert loop.lateness() == pytest.approx([0.0, 0.05, 0.0, 0.0])
    # Latency runs from the due time, not from when the request left.
    latencies = loop.latencies()
    assert latencies[:3] == pytest.approx([0.05, 0.15, 0.2])
    assert math.isinf(latencies[3])
    assert loop.refused == 1
    assert loop.completed_per_s() == pytest.approx(3 / 0.4)


def test_unsent_requests_count_as_never_done():
    loop = OpenLoop(rate=1.0, count=3)
    loop.record_sent(0, 0.0)
    loop.record_done(0, 0.5)
    assert loop.latencies()[0] == 0.5
    assert all(math.isinf(x) for x in loop.latencies()[1:])


def test_max_queue_depth_from_submit_and_start_stamps():
    reqs = []
    for submitted, started in ((0.0, 1.0), (0.5, 2.0), (0.6, 0.7), (3.0, 3.5)):
        req = Request(len(reqs))
        req.snapshot = {"submitted_unix": submitted, "started_unix": started}
        reqs.append(req)
    assert max_queue_depth(reqs) == 3


# -- inputs and the benchmark definition --------------------------------------------

def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(2017, "dmr_fs", 0) == derive_seed(2017, "dmr_fs", 0)
    seeds = {derive_seed(2017, "dmr_fs", i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2 ** 31 for s in seeds)


def test_benchmark_json_matches_the_metrics_the_runs_emit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in PER_LAYER
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
