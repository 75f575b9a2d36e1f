"""Tests for the metrics registry, exposition and publish bridges."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
    parse_prometheus,
    publish_sched_stats,
    publish_store_stats,
)


class TestScalars:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == pytest.approx(3.0)


class TestFamilies:
    def test_labels_get_or_create(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", labels=("route",))
        child = family.labels(route="GET /health")
        assert family.labels(route="GET /health") is child
        family.inc(route="GET /health")
        family.inc(route="GET /metrics")
        assert len(list(family.samples())) == 2

    def test_label_name_mismatch_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", labels=("route",))
        with pytest.raises(ValueError):
            family.labels(method="GET")

    def test_re_registration_must_agree(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labels=("route",))
        assert registry.counter("repro_x_total", labels=("route",))
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", labels=("route",))
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", labels=("method",))


class TestSnapshotDiff:
    def test_snapshot_and_diff(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc()
        before = registry.snapshot()
        registry.counter("repro_a_total").inc(2)
        registry.histogram("repro_lat_seconds").observe(0.5)
        delta = MetricsRegistry.diff(before, registry.snapshot())
        assert delta["repro_a_total"] == pytest.approx(2.0)
        assert delta["repro_lat_seconds_count"] == pytest.approx(1.0)
        assert delta["repro_lat_seconds_sum"] == pytest.approx(0.5)

    def test_failing_collector_is_counted_not_fatal(self):
        registry = MetricsRegistry()

        def bad(_registry):
            raise RuntimeError("scrape-time bug")

        registry.register_collector(bad)
        snap = registry.snapshot()
        assert snap["repro_collector_errors_total"] == 1.0
        assert registry.snapshot()["repro_collector_errors_total"] == 2.0

    def test_collector_runs_at_render_time(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda r: r.gauge("repro_up").set(1)
        )
        assert "repro_up 1" in registry.render_prometheus()


class TestExposition:
    def test_render_parses_back(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_http_requests_total", "Requests.", labels=("route",)
        ).inc(route='GET "/x"\nweird')
        registry.gauge("repro_queue_depth", "Depth.").set(3)
        registry.histogram("repro_lat_seconds", labels=("route",)).observe(
            0.01, route="GET /x"
        )
        text = registry.render_prometheus()
        samples, types = parse_prometheus(text)
        assert types["repro_http_requests_total"] == "counter"
        assert types["repro_lat_seconds"] == "histogram"
        assert samples["repro_queue_depth"] == 3.0
        assert any(
            name.startswith("repro_lat_seconds_bucket{") for name in samples
        )

    def test_childless_family_still_has_type_line(self):
        registry = MetricsRegistry()
        registry.counter("repro_observer_errors_total", "Observer errors.")
        _, types = parse_prometheus(registry.render_prometheus())
        assert types["repro_observer_errors_total"] == "counter"

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_lat_seconds", first_bound=1.0, buckets=2
        )
        for value in (0.5, 0.6, 1.5):
            hist.observe(value)
        samples, _ = parse_prometheus(registry.render_prometheus())
        assert samples['repro_lat_seconds_bucket{le="1"}'] == 2.0
        assert samples['repro_lat_seconds_bucket{le="2"}'] == 3.0
        assert samples['repro_lat_seconds_bucket{le="+Inf"}'] == 3.0
        assert samples["repro_lat_seconds_count"] == 3.0

    def test_parser_rejects_malformed_lines(self):
        for bad in ("no_value_here", "1leading_digit 3", "unbalanced{a=\"x\" 1",
                    "name not_a_number"):
            with pytest.raises(ValueError):
                parse_prometheus(bad)

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()


class TestPublishBridges:
    def test_publish_sched_stats(self):
        registry = MetricsRegistry()
        publish_sched_stats(registry, {"fifo_passes": 3, "key_evals": 10,
                                       "backfill_skips": 2,
                                       "decisions_reused": 5,
                                       "irrelevant": 7})
        snap = registry.snapshot()
        assert snap['repro_sched_ops_total{op="fifo_passes"}'] == 3.0
        assert snap['repro_sched_ops_total{op="key_evals"}'] == 10.0
        assert snap['repro_sched_ops_total{op="backfill_skips"}'] == 2.0
        assert snap['repro_sched_ops_total{op="decisions_reused"}'] == 5.0
        assert not any("irrelevant" in key for key in snap)

    def test_publish_store_stats_uses_deltas(self):
        registry = MetricsRegistry()
        publish_store_stats(
            registry,
            {"hits": 1, "misses": 2, "puts": 2},
            {"hits": 4, "misses": 2, "puts": 5},
        )
        snap = registry.snapshot()
        assert snap['repro_store_lookups_total{result="hit"}'] == 3.0
        assert 'repro_store_lookups_total{result="miss"}' not in snap
        assert snap["repro_store_puts_total"] == 3.0
