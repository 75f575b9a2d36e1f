"""Tests for the Feitelson '96 workload model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.sim import RandomStreams
from repro.workload import FeitelsonConfig, FeitelsonModel


def model(seed=0, **kw):
    return FeitelsonModel(FeitelsonConfig(**kw), RandomStreams(seed))


class TestConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            FeitelsonConfig(min_size=0)
        with pytest.raises(WorkloadError):
            FeitelsonConfig(min_size=10, max_size=5)
        with pytest.raises(WorkloadError):
            FeitelsonConfig(runtime_short_mean=0)
        with pytest.raises(WorkloadError):
            FeitelsonConfig(long_prob_small=1.5)
        with pytest.raises(WorkloadError):
            FeitelsonConfig(arrival_mean=0)


class TestSizes:
    def test_sizes_within_bounds(self):
        m = model(max_size=20)
        sizes = [m.sample_size() for _ in range(500)]
        assert min(sizes) >= 1
        assert max(sizes) <= 20

    def test_small_jobs_dominate(self):
        m = model(max_size=20)
        sizes = [m.sample_size() for _ in range(3000)]
        small = sum(1 for s in sizes if s <= 4)
        assert small > len(sizes) / 2

    def test_powers_of_two_emphasized(self):
        m = model(max_size=20)
        sizes = [m.sample_size() for _ in range(5000)]
        count = np.bincount(sizes, minlength=21)
        # 16 is boosted: more frequent than its harmonic neighbours 15, 17.
        assert count[16] > count[15]
        assert count[16] > count[17]

    def test_deterministic_with_seed(self):
        a = [model(seed=7).sample_size() for _ in range(5)]
        b = [model(seed=7).sample_size() for _ in range(5)]
        assert a == b


class TestRuntimes:
    def test_positive_runtimes(self):
        m = model()
        assert all(m.sample_runtime(4) > 0 for _ in range(200))

    def test_long_branch_probability_grows_with_size(self):
        m = model(max_size=20, long_prob_small=0.05, long_prob_large=0.35)
        assert m.long_branch_probability(1) == pytest.approx(0.05)
        assert m.long_branch_probability(20) == pytest.approx(0.35)
        assert m.long_branch_probability(10) < m.long_branch_probability(15)

    def test_runtime_correlates_with_size(self):
        m = model()
        small = np.mean([m.sample_runtime(1) for _ in range(4000)])
        big = np.mean([m.sample_runtime(20) for _ in range(4000)])
        assert big > small

    def test_runtime_cap(self):
        m = model(runtime_cap=50.0)
        assert all(m.sample_runtime(20) <= 50.0 for _ in range(300))

    def test_single_size_support(self):
        m = model(min_size=4, max_size=4)
        assert m.long_branch_probability(4) == pytest.approx(0.05)
        assert m.sample_size() == 4


class TestRepetitionsAndArrivals:
    def test_arrival_times_monotone(self):
        times = model().arrival_times(100)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_arrival_mean(self):
        times = model(arrival_mean=10.0).arrival_times(4000)
        gaps = np.diff([0.0] + times)
        assert 9.0 < gaps.mean() < 11.0

    def test_arrival_count_validation(self):
        with pytest.raises(WorkloadError):
            model().arrival_times(-1)
        assert model().arrival_times(0) == []


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_property_model_deterministic(seed):
    m1, m2 = model(seed=seed), model(seed=seed)
    assert m1.sample_size() == m2.sample_size()
    assert m1.sample_runtime(8) == m2.sample_runtime(8)
    assert m1.sample_interarrival() == m2.sample_interarrival()
