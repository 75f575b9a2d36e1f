"""Tests for the fixed-bucket latency histogram."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import LatencyHistogram


class TestObserve:
    def test_empty_histogram(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.total == 0.0
        assert sum(h.counts) == 0

    def test_counts_and_sum(self):
        h = LatencyHistogram()
        for value in (0.001, 0.002, 0.004):
            h.observe(value)
        assert h.count == 3
        assert h.total == pytest.approx(0.007)
        assert sum(h.counts) == 3

    def test_negative_values_clamp_to_zero(self):
        h = LatencyHistogram()
        h.observe(-5.0)
        assert h.count == 1
        assert h.counts[0] == 1
        assert h.total == 0.0

    def test_overflow_bucket_catches_huge_values(self):
        h = LatencyHistogram()
        h.observe(10_000.0)
        assert h.counts[-1] == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(first_bound=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_value_lands_in_first_bucket_bounding_it(self, value):
        # The Prometheus ``le`` rule: bucket i holds bounds[i-1] < v <= bounds[i].
        h = LatencyHistogram()
        h.observe(value)
        index = h.counts.index(1)
        if index < len(h.bounds):
            assert value <= h.bounds[index]
        if index > 0:
            assert value > h.bounds[index - 1]
