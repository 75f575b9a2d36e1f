"""Tests for named reproducible RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams


def test_same_seed_same_draws():
    a, b = RandomStreams(7), RandomStreams(7)
    assert [a.uniform("x") for _ in range(5)] == [b.uniform("x") for _ in range(5)]


def test_different_seeds_differ():
    a, b = RandomStreams(1), RandomStreams(2)
    assert a.uniform("x") != b.uniform("x")


def test_streams_are_independent_of_creation_order():
    a, b = RandomStreams(42), RandomStreams(42)
    # Interleave stream creation differently; named streams must not care.
    a_x = [a.uniform("x") for _ in range(3)]
    a_y = [a.uniform("y") for _ in range(3)]
    b_y = [b.uniform("y") for _ in range(3)]
    b_x = [b.uniform("x") for _ in range(3)]
    assert a_x == b_x
    assert a_y == b_y


def test_exponential_mean_validation():
    with pytest.raises(ValueError):
        RandomStreams(0).exponential("e", 0.0)


def test_exponential_rough_mean():
    rs = RandomStreams(3)
    samples = [rs.exponential("e", 10.0) for _ in range(4000)]
    assert 9.0 < np.mean(samples) < 11.0


def test_hyperexponential_validation():
    rs = RandomStreams(0)
    with pytest.raises(ValueError):
        rs.hyperexponential("h", [1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        rs.hyperexponential("h", [1.0, 2.0], [0.7, 0.7])


#: The totals either side of np.isclose's edge at 1.0 (atol 1e-8, rtol 1e-5).
_EDGES = [
    edge
    for bound in (1.0 - 1e-8 - 1e-5, 1.0 + 1e-8 + 1e-5)
    for edge in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, 2.0))
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.floats(),
    st.floats(min_value=1.0 - 3e-5, max_value=1.0 + 3e-5),
    st.sampled_from(_EDGES).map(float),
))
def test_hyperexponential_total_check_is_np_isclose(total):
    rs = RandomStreams(0)
    if np.isclose(total, 1.0):
        assert rs.hyperexponential("h", [2.0], [total]) >= 0.0
    else:
        with pytest.raises(ValueError, match="must sum to 1"):
            rs.hyperexponential("h", [2.0], [total])


def test_hyperexponential_mean_mixture():
    rs = RandomStreams(11)
    samples = [rs.hyperexponential("h", [1.0, 100.0], [0.9, 0.1]) for _ in range(8000)]
    expected = 0.9 * 1.0 + 0.1 * 100.0
    assert 0.8 * expected < np.mean(samples) < 1.2 * expected


def test_integers_inclusive_bounds():
    rs = RandomStreams(5)
    draws = {rs.integers("i", 1, 3) for _ in range(200)}
    assert draws == {1, 2, 3}


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        RandomStreams(0).bernoulli("b", 1.5)


def test_bernoulli_extremes():
    rs = RandomStreams(0)
    assert not any(rs.bernoulli("b0", 0.0) for _ in range(50))
    assert all(rs.bernoulli("b1", 1.0) for _ in range(50))


def test_choice_uniform_covers_options():
    rs = RandomStreams(9)
    opts = ["a", "b", "c"]
    seen = {rs.choice("c", opts) for _ in range(200)}
    assert seen == set(opts)


def test_spawn_derives_independent_registry():
    rs = RandomStreams(100)
    child1, child2 = rs.spawn("cell-1"), rs.spawn("cell-2")
    again = RandomStreams(100).spawn("cell-1")
    assert child1.uniform("x") == again.uniform("x")
    assert child1.base_seed != child2.base_seed


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_property_stream_determinism(seed, name):
    a = RandomStreams(seed).uniform(name)
    b = RandomStreams(seed).uniform(name)
    assert a == b
    assert 0.0 <= a < 1.0
