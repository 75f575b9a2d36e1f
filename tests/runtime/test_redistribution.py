"""Tests for the Listing 3 redistribution planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RedistributionError
from repro.runtime import (
    plan_block_remap,
    plan_expand,
    plan_for_resize,
    plan_shrink,
)


class TestExpandPlan:
    def test_factor2_mapping(self):
        plan = plan_expand(2, 4, total_bytes=400.0)
        # Old rank r offloads to new ranks 2r, 2r+1, 100 bytes each.
        pairs = {(t.src, t.dst): t.nbytes for t in plan.transfers}
        assert pairs == {
            (0, 0): 100.0,
            (0, 1): 100.0,
            (1, 2): 100.0,
            (1, 3): 100.0,
        }

    def test_all_data_moves_once(self):
        plan = plan_expand(4, 16, total_bytes=1600.0)
        assert plan.bytes_moved == pytest.approx(1600.0)

    def test_per_rank_balance(self):
        plan = plan_expand(4, 8, total_bytes=800.0)
        assert all(v == pytest.approx(200.0) for v in plan.bytes_out.values())
        assert all(v == pytest.approx(100.0) for v in plan.bytes_in.values())

    def test_non_multiple_rejected(self):
        with pytest.raises(RedistributionError):
            plan_expand(4, 6, 100.0)
        with pytest.raises(RedistributionError):
            plan_expand(4, 4, 100.0)
        with pytest.raises(RedistributionError):
            plan_expand(8, 4, 100.0)

    def test_validation(self):
        with pytest.raises(RedistributionError):
            plan_expand(0, 4, 100.0)
        with pytest.raises(RedistributionError):
            plan_expand(2, 4, -1.0)


class TestShrinkPlan:
    def test_listing3_sender_receiver_mapping(self):
        # 4 -> 2, factor 2: rank 0 sends to 1; rank 2 sends to 3.
        plan = plan_shrink(4, 2, total_bytes=400.0)
        pairs = {(t.src, t.dst): t.nbytes for t in plan.transfers}
        assert pairs == {(0, 1): 100.0, (2, 3): 100.0}

    def test_factor4_grouping(self):
        # 8 -> 2, factor 4: groups {0,1,2,3}->3 and {4,5,6,7}->7.
        plan = plan_shrink(8, 2, total_bytes=800.0)
        dsts = {t.dst for t in plan.transfers}
        assert dsts == {3, 7}
        assert plan.bytes_in[3] == pytest.approx(300.0)  # 3 senders x 100

    def test_only_senders_transfer(self):
        plan = plan_shrink(4, 2, total_bytes=400.0)
        # Receivers (ranks 1, 3) send nothing over the network.
        assert 1 not in plan.bytes_out
        assert 3 not in plan.bytes_out

    def test_moved_fraction(self):
        # Shrink p -> q moves (p-q)/p of the data across the network.
        plan = plan_shrink(16, 4, total_bytes=1600.0)
        assert plan.bytes_moved == pytest.approx(1600.0 * 12 / 16)

    def test_non_divisor_rejected(self):
        with pytest.raises(RedistributionError):
            plan_shrink(6, 4, 100.0)
        with pytest.raises(RedistributionError):
            plan_shrink(4, 8, 100.0)


class TestBlockRemap:
    def test_same_size_no_transfers(self):
        assert plan_block_remap(4, 4, 400.0).transfers == []

    def test_zero_bytes_no_transfers(self):
        assert plan_block_remap(2, 8, 0.0).transfers == []

    def test_non_multiple_resize(self):
        plan = plan_block_remap(2, 3, total_bytes=600.0)
        # New blocks of 200: rank0 keeps [0,200) locally; rank1 gets
        # [200,300) from old 0 and keeps [300,400) locally (same rank
        # index -> same node, no transfer); rank2 gets [400,600) from old 1.
        pairs = {(t.src, t.dst): t.nbytes for t in plan.transfers}
        assert pairs == {
            (0, 1): pytest.approx(100.0),
            (1, 2): pytest.approx(200.0),
        }

    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_remap_conserves_data(self, old, new):
        """Every new rank ends with exactly its block's bytes."""
        total = 240240.0  # divisible by many counts, avoids fp noise
        plan = plan_block_remap(old, new, total)
        if old == new:
            assert plan.transfers == []
            return
        received = plan.bytes_in
        for new_rank in range(new):
            block = total / new
            # Local (same-rank) data does not travel; compute the overlap
            # the rank already holds.
            lo, hi = new_rank * block, (new_rank + 1) * block
            o_lo, o_hi = new_rank * total / old, (new_rank + 1) * total / old
            local = max(0.0, min(hi, o_hi) - max(lo, o_lo)) if new_rank < old else 0.0
            assert received.get(new_rank, 0.0) + local == pytest.approx(block)


class TestPlanForResize:
    def test_homogeneous_expand_uses_listing3_mapping(self):
        plan = plan_for_resize(2, 8, 800.0)
        assert plan.kind == "expand"
        assert {t.dst for t in plan.transfers} == set(range(8))

    def test_homogeneous_shrink_uses_listing3_mapping(self):
        plan = plan_for_resize(8, 2, 800.0)
        assert plan.kind == "shrink"
        # Only sender->receiver transfers cross the network.
        assert all(t.dst in (3, 7) for t in plan.transfers)

    def test_equal_sizes_migrate(self):
        assert plan_for_resize(4, 4, 400.0).kind == "migrate"

    def test_non_homogeneous_falls_back_to_remap(self):
        assert plan_for_resize(2, 3, 600.0).kind == "remap"
        assert plan_for_resize(3, 2, 600.0).kind == "remap"
