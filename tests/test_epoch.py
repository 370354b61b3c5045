"""Unit tests for the epoch bit layouts."""

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.epoch import (
    DEFAULT_LAYOUT,
    TINY_LAYOUT,
    WIDE_CLOCK_LAYOUT,
    EpochLayout,
)


class TestLayoutGeometry:
    def test_default_is_32_bits(self):
        assert DEFAULT_LAYOUT.width_bits == 32
        assert DEFAULT_LAYOUT.width_bytes == 4

    def test_default_components(self):
        assert DEFAULT_LAYOUT.clock_bits == 23
        assert DEFAULT_LAYOUT.tid_bits == 8
        assert DEFAULT_LAYOUT.reserve_expanded_bit

    def test_wide_clock_is_32_bits(self):
        assert WIDE_CLOCK_LAYOUT.width_bits == 32
        assert WIDE_CLOCK_LAYOUT.clock_bits == 28

    def test_tiny_is_8_bits(self):
        assert TINY_LAYOUT.width_bits == 8
        assert TINY_LAYOUT.width_bytes == 1

    def test_clock_max(self):
        assert DEFAULT_LAYOUT.clock_max == 2**23 - 1
        assert WIDE_CLOCK_LAYOUT.clock_max == 2**28 - 1

    def test_max_tid(self):
        assert DEFAULT_LAYOUT.max_tid == 255
        assert WIDE_CLOCK_LAYOUT.max_tid == 7

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            EpochLayout(clock_bits=0)
        with pytest.raises(ValueError):
            EpochLayout(tid_bits=0)

    def test_derived_masks_are_not_fields(self):
        # The masks are computed once per layout; equality, hashing,
        # replace() and pickling still go by the three parameters.
        layout = EpochLayout(clock_bits=4, tid_bits=8, reserve_expanded_bit=False)
        assert layout == EpochLayout(4, 8, False)
        assert hash(layout) == hash(EpochLayout(4, 8, False))
        assert [f.name for f in dataclasses.fields(layout)] == [
            "clock_bits", "tid_bits", "reserve_expanded_bit",
        ]
        wider = dataclasses.replace(layout, clock_bits=5, reserve_expanded_bit=True)
        masks = (wider.clock_max, wider.max_tid, wider.expanded_mask)
        assert masks == (31, 255, 1 << 13)
        copy = pickle.loads(pickle.dumps(layout))
        assert (copy.clock_max, copy.expanded_mask) == (15, 0)


class TestPacking:
    def test_pack_zero(self):
        assert DEFAULT_LAYOUT.pack(0, 0) == 0

    def test_pack_unpack(self):
        epoch = DEFAULT_LAYOUT.pack(7, 1234)
        assert DEFAULT_LAYOUT.tid(epoch) == 7
        assert DEFAULT_LAYOUT.clock(epoch) == 1234

    def test_pack_max_values(self):
        layout = DEFAULT_LAYOUT
        epoch = layout.pack(layout.max_tid, layout.clock_max)
        assert layout.tid(epoch) == layout.max_tid
        assert layout.clock(epoch) == layout.clock_max

    def test_pack_rejects_out_of_range_tid(self):
        with pytest.raises(ValueError):
            DEFAULT_LAYOUT.pack(256, 0)
        with pytest.raises(ValueError):
            DEFAULT_LAYOUT.pack(-1, 0)

    def test_pack_rejects_out_of_range_clock(self):
        with pytest.raises(ValueError):
            DEFAULT_LAYOUT.pack(0, DEFAULT_LAYOUT.clock_max + 1)
        with pytest.raises(ValueError):
            DEFAULT_LAYOUT.pack(0, -1)

    @given(
        tid=st.integers(min_value=0, max_value=255),
        clock=st.integers(min_value=0, max_value=2**23 - 1),
    )
    def test_roundtrip_property(self, tid, clock):
        epoch = DEFAULT_LAYOUT.pack(tid, clock)
        assert DEFAULT_LAYOUT.tid(epoch) == tid
        assert DEFAULT_LAYOUT.clock(epoch) == clock
        assert not DEFAULT_LAYOUT.is_expanded(epoch)

    @given(
        clock_bits=st.integers(min_value=1, max_value=28),
        tid_bits=st.integers(min_value=1, max_value=10),
        reserved=st.booleans(),
    )
    def test_roundtrip_any_layout(self, clock_bits, tid_bits, reserved):
        layout = EpochLayout(clock_bits, tid_bits, reserved)
        epoch = layout.pack(layout.max_tid, layout.clock_max)
        assert layout.tid(epoch) == layout.max_tid
        assert layout.clock(epoch) == layout.clock_max


class TestExpandedBit:
    def test_set_and_clear(self):
        epoch = DEFAULT_LAYOUT.pack(3, 99)
        expanded = DEFAULT_LAYOUT.set_expanded(epoch)
        assert DEFAULT_LAYOUT.is_expanded(expanded)
        assert DEFAULT_LAYOUT.clear_expanded(expanded) == epoch

    def test_expanded_preserves_components(self):
        epoch = DEFAULT_LAYOUT.pack(3, 99)
        expanded = DEFAULT_LAYOUT.set_expanded(epoch)
        assert DEFAULT_LAYOUT.tid(expanded) == 3
        assert DEFAULT_LAYOUT.clock(expanded) == 99

    def test_expanded_mask_is_top_bit(self):
        assert DEFAULT_LAYOUT.expanded_mask == 1 << 31

    def test_no_expanded_bit_layout(self):
        assert TINY_LAYOUT.expanded_mask == 0
        with pytest.raises(ValueError):
            TINY_LAYOUT.set_expanded(0)


class TestRollover:
    def test_would_rollover_at_max(self):
        assert DEFAULT_LAYOUT.would_rollover(DEFAULT_LAYOUT.clock_max)

    def test_no_rollover_below_max(self):
        assert not DEFAULT_LAYOUT.would_rollover(DEFAULT_LAYOUT.clock_max - 1)
        assert not DEFAULT_LAYOUT.would_rollover(0)

    def test_wide_layout_rolls_later(self):
        c = DEFAULT_LAYOUT.clock_max
        assert DEFAULT_LAYOUT.would_rollover(c)
        assert not WIDE_CLOCK_LAYOUT.would_rollover(c)
