"""records.distinct_bits: both grouping routes return what np.unique returns.

records.table_draws: the guide-table inversion returns what searchsorted
returns at every uniform, and what Generator.choice draws, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from skellam_lab.records import choice_cdf, distinct_bits, table_draws


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


class _FixedUniforms:
    """Stands in for a Generator whose next ``random(n)`` is the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


@st.composite
def _probability_tables(draw):
    """A probability vector of 1-300 entries, some of them of mass 0 (never all)."""
    size = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    weights = rng.random(size) ** draw(st.sampled_from([1.0, 12.0]))
    weights[rng.random(size) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if not weights.any():
        weights[rng.integers(size)] = 1.0
    return weights / weights.sum()


def _adversarial_uniforms(cdf):
    """Each cdf entry and its two neighbouring floats, each guide boundary b / g and
    the float below it, 0.0 and the largest float below 1.0: those in [0, 1)."""
    g = 1 << (4 * cdf.size - 1).bit_length()
    bounds = np.arange(g) / g
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), bounds,
                        np.nextafter(bounds, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
    return u[(u >= 0.0) & (u < 1.0)]


def _assert_as_choice(probs, n, seed):
    values = np.arange(probs.size) * 1.5 - 7.0
    mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    labels = table_draws(mine, choice_cdf(probs), n)
    assert labels.dtype == np.int64
    assert np.array_equal(values[labels], numpys.choice(values, n, p=probs))
    assert mine.bit_generator.state == numpys.bit_generator.state


def _assert_as_searchsorted(cdf):
    u = _adversarial_uniforms(cdf)
    assert np.array_equal(table_draws(_FixedUniforms(u), cdf, u.size),
                          cdf.searchsorted(u, side="right"))


@seed(44)
@settings(max_examples=150, deadline=None)
@given(_probability_tables(), st.integers(0, 3000), st.integers(0, 2**32))
def test_table_draws_are_generator_choice(probs, n, rng_seed):
    _assert_as_choice(probs, n, rng_seed)


@seed(44)
@settings(max_examples=150, deadline=None)
@given(_probability_tables())
def test_table_draws_invert_the_cdf_at_adversarial_uniforms(probs):
    _assert_as_searchsorted(choice_cdf(probs))


@pytest.mark.parametrize("probs", [
    [1.0],
    [0.0, 1.0],
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [1e-300, 1.0 - 1e-300],
    [1.0 - 2.0**-53, 2.0**-53],
    # 200 entries crowd into the last guide bucket, so a walk there is long
    [1.0 - 200 * 2.0**-60] + [2.0**-60] * 200,
    # a Poisson table's long tail under 1e-16
    [np.exp(-9.99 + k * np.log(9.99) - sum(np.log(np.arange(1, k + 1)))) for k in range(60)],
], ids=["one", "zero-one", "one-zeros", "zeros-around", "tiny-head", "ulp-tail",
        "crowded-top", "poisson-tail"])
def test_edge_tables_draw_as_choice_and_searchsorted(probs):
    probs = np.array(probs) / np.sum(probs)
    _assert_as_choice(probs, 5000, 3)
    _assert_as_searchsorted(choice_cdf(probs))
