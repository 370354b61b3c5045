"""Unit tests for the epoch shadow-memory stores."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.shadow import DenseShadow, FlatShadow, SparseShadow


@pytest.fixture(params=["sparse", "dense", "flat"])
def shadow(request):
    if request.param == "sparse":
        return SparseShadow()
    if request.param == "flat":
        return FlatShadow(capacity=4)  # small, so the tests grow it
    return DenseShadow(base=0, size=4096)


class TestCommonBehaviour:
    def test_default_epoch_is_zero(self, shadow):
        assert shadow.load(100) == 0

    def test_store_load(self, shadow):
        shadow.store(10, 0xABC)
        assert shadow.load(10) == 0xABC

    def test_store_range_uniform(self, shadow):
        shadow.store_range(64, 8, 7)
        assert shadow.load_range(64, 8) == [7] * 8

    def test_load_range_mixed(self, shadow):
        shadow.store(0, 1)
        shadow.store(2, 3)
        assert shadow.load_range(0, 4) == [1, 0, 3, 0]

    def test_cas_success(self, shadow):
        shadow.store(5, 10)
        assert shadow.compare_and_swap(5, 10, 20)
        assert shadow.load(5) == 20

    def test_cas_failure_leaves_value(self, shadow):
        shadow.store(5, 10)
        assert not shadow.compare_and_swap(5, 999, 20)
        assert shadow.load(5) == 10

    def test_cas_on_untouched_location(self, shadow):
        assert shadow.compare_and_swap(123, 0, 42)
        assert shadow.load(123) == 42

    def test_reset_clears_everything(self, shadow):
        shadow.store_range(0, 16, 9)
        shadow.reset()
        assert shadow.load_range(0, 16) == [0] * 16
        assert shadow.resets == 1

    def test_touched_bytes(self, shadow):
        shadow.store(1, 5)
        shadow.store(2, 5)
        shadow.store(1, 6)  # overwrite, not a new byte
        assert shadow.touched_bytes == 2

    def test_metadata_footprint_is_4x(self, shadow):
        shadow.store_range(0, 10, 3)
        assert shadow.metadata_bytes == 40

    def test_items_roundtrip(self, shadow):
        shadow.store(3, 7)
        shadow.store(9, 8)
        assert dict(shadow.items()) == {3: 7, 9: 8}


class TestDenseBounds:
    def test_out_of_window_rejected(self):
        shadow = DenseShadow(base=0x1000, size=64)
        with pytest.raises(IndexError):
            shadow.load(0xFFF)
        with pytest.raises(IndexError):
            shadow.load(0x1040)

    def test_range_crossing_boundary_rejected(self):
        shadow = DenseShadow(base=0, size=8)
        with pytest.raises(IndexError):
            shadow.load_range(4, 8)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            DenseShadow(base=0, size=0)

    def test_base_offset_addressing(self):
        shadow = DenseShadow(base=0x4000, size=32)
        shadow.store(0x4010, 77)
        assert shadow.load(0x4010) == 77


def test_flat_scatter_takes_one_epoch_per_address():
    # Addresses on both sides of the flat window: array and spill dict.
    shadow = FlatShadow(capacity=4, window=16)
    addresses = np.array([3, 15, 16, 40])
    shadow.scatter(addresses, np.array([5, 6, 7, 8]))
    assert [shadow.peek(a) for a in (3, 15, 16, 40)] == [5, 6, 7, 8]
    assert shadow.gather(addresses).tolist() == [5, 6, 7, 8]
    shadow.scatter(addresses, 9)
    assert shadow.gather(addresses).tolist() == [9, 9, 9, 9]
    assert shadow.stores == shadow.loads == 0  # the batch surface is uncounted


def test_flat_scalar_and_batch_surfaces_share_one_buffer():
    # The scalar surface works through a view of the epoch array; growth
    # and reset replace the array, and the view must follow it.
    shadow = FlatShadow(capacity=4, window=64)
    shadow.store(2, 7)
    shadow.store(40, 8)  # grows the array
    assert shadow.gather(np.array([2, 40])).tolist() == [7, 8]
    shadow.scatter(np.array([3, 41]), 9)
    assert shadow.load_range(2, 2) == [7, 9]
    assert shadow.compare_and_swap(41, 9, 10) and shadow.peek(41) == 10
    shadow.reset()
    shadow.scatter(np.array([5]), 11)
    assert (shadow.load(5), shadow.load(40)) == (11, 0)
    shadow.store(6, 12)
    assert shadow.gather(np.array([5, 6])).tolist() == [11, 12]


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=2**32 - 1),
        ),
        max_size=50,
    )
)
def test_sparse_and_dense_agree(writes):
    """Both stores are observationally equivalent on any write sequence."""
    sparse = SparseShadow()
    dense = DenseShadow(base=0, size=256)
    for address, epoch in writes:
        sparse.store(address, epoch)
        dense.store(address, epoch)
    for address in range(256):
        assert sparse.load(address) == dense.load(address)
