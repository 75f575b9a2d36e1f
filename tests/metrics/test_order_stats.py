"""The nearest-rank rule for wall-time reports (``repro.metrics``).

``src/`` must not import ``perfbench``, so the rule has two copies:
``repro.metrics.summary`` and ``perfbench/stats.py``.  The properties
below hold them to one definition.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import stats as perfbench_stats
from repro.metrics import backed, order_stats, percentile

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1, max_size=300,
)
fractions = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(samples, fractions)
def test_percentile_matches_perfbench(values, fraction):
    assert percentile(values, fraction) == perfbench_stats.percentile(
        values, fraction
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=5000), fractions)
def test_backed_matches_perfbench(count, fraction):
    assert backed(count, fraction) == perfbench_stats.backed(count, fraction)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=1200))
def test_order_stats_reports_a_tail_quantile_only_when_backed(values):
    stats = order_stats(values)
    n = len(values)
    assert stats["n"] == n
    assert stats["min"] == min(values) and stats["max"] == max(values)
    assert stats["median"] == percentile(values, 0.5)
    for name, fraction in (("p90", 0.9), ("p99", 0.99)):
        assert (name in stats) == backed(n, fraction)
        if name in stats:
            assert stats[name] == percentile(values, fraction)


def test_tail_quantiles_need_ten_samples_beyond():
    assert set(order_stats(range(99))) == {"n", "min", "median", "max"}
    assert "p90" in order_stats(range(100))
    assert "p99" not in order_stats(range(999))
    assert order_stats(range(1000))["p99"] == 989


def test_rejects_empty_samples_and_bad_fractions():
    with pytest.raises(ValueError):
        order_stats([])
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
