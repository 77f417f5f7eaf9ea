"""records.distinct_bits: both grouping routes return what np.unique returns."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from skellam_lab.records import distinct_bits


def _unique_bits(values):
    """np.unique of the signed view: the contract of distinct_bits."""
    bits, inverse = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
    return bits.view(values.dtype), inverse


def _assert_as_unique(values):
    distinct, inverse = distinct_bits(values)
    want_distinct, want_inverse = _unique_bits(values)
    assert distinct.dtype == want_distinct.dtype and inverse.dtype == want_inverse.dtype
    assert distinct.tolist() == want_distinct.tolist()
    assert inverse.tolist() == want_inverse.tolist()
    assert distinct[inverse].tolist() == values.tolist()


@st.composite
def _integer_columns(draw):
    """A signed integer column whose values span about 0.5, 1 or 2 times its length."""
    dtype = np.dtype(draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64])))
    info = np.iinfo(dtype)
    size = draw(st.integers(0, 2000))
    span = min(int(size * draw(st.sampled_from([0.5, 1.0, 2.0]))) + draw(st.integers(-1, 1)),
               int(info.max) - int(info.min))
    span = max(span, 0)
    low = draw(st.integers(int(info.min), int(info.max) - span))
    offsets = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, span + 1, size)
    return (offsets + low).astype(dtype)


@seed(38)
@settings(max_examples=200, deadline=None)
@given(_integer_columns())
def test_integer_columns_group_as_np_unique_does(values):
    _assert_as_unique(values)


_NEAR_TOP = 2**63 - 1


@pytest.mark.parametrize("values", [
    # offsets taken in int8 wrap: this grouped to [-100, 0, 5, 45]
    np.tile(np.array([-100, 100, 0, 5], dtype=np.int8), 100),
    np.array([_NEAR_TOP, _NEAR_TOP - 2, _NEAR_TOP, _NEAR_TOP - 1], dtype=np.int64),
    np.array([-2**63, -2**63 + 2, -2**63, -2**63 + 1], dtype=np.int64),
    np.full(7, -3, dtype=np.int32),
    np.array([], dtype=np.int64),
    np.arange(-50, 50, dtype=np.int16)[::-3],
    # unsigned columns keep np.unique, which orders them by their signed view
    np.array([0, 255, 7, 255, 128, 1], dtype=np.uint8),
    np.array([127, 128, 129, 128, 127, 130], dtype=np.uint8),
    np.array([2**63, 2**63 - 1, 2**63 + 1, 0, 2**64 - 1, 2**63], dtype=np.uint64),
    np.array([2**63, 2**63 - 1, 2**63 + 1, 2**63 - 2, 2**63, 2**63 + 1], dtype=np.uint64),
    np.array([1.0, -0.0, 0.0, 1.0]),
], ids=lambda v: f"{v.dtype}-{v.size}")
def test_edge_columns_group_as_np_unique_does(values):
    _assert_as_unique(values)


def test_counting_route_matches_the_sort_on_a_lattice_batch():
    values = np.random.default_rng(5).poisson(3.0, 20000) - np.random.default_rng(6).poisson(2.0, 20000)
    _assert_as_unique(values)
