"""Multiparameter Poisson process: exact law and moments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skellam_lab import mpp_covariance, mpp_pmf


def test_pmf_at_origin():
    assert mpp_pmf(0, (1.0, 2.0), (0.0, 0.0)) == 1.0
    assert mpp_pmf(4, (1.0, 2.0), (0.0, 0.0)) == 0.0


def test_pmf_direct_value():
    assert mpp_pmf(1, (1.0, 2.0), (1.0, 1.0)) == pytest.approx(3 * math.exp(-3), rel=1e-14)


def test_pmf_one_parameter_reduction():
    # rate 0.5 over time 2 is a Poisson(1) count
    assert mpp_pmf(5, (0.5,), (2.0,)) == pytest.approx(math.exp(-1) / math.factorial(5), rel=1e-14)


def test_pmf_dimension_mismatch():
    with pytest.raises(ValueError):
        mpp_pmf(0, (1.0, 2.0), (1.0,))


def test_pmf_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        mpp_pmf(0, (1.0, 0.0), (1.0, 1.0))


def test_covariance_examples():
    assert mpp_covariance((1.0, 2.0), (0.0, 0.0), (0.0, 0.0)) == 0.0
    assert mpp_covariance((1.0, 2.0), (1.0, 3.0), (2.0, 1.0)) == pytest.approx(3.0)
    t = (1.5, 0.5)
    assert mpp_covariance((1.0, 2.0), t, t) == pytest.approx(np.dot((1.0, 2.0), t))


@given(
    st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_covariance_symmetric_and_bounded(rates, data):
    m = len(rates)
    s = data.draw(st.lists(st.floats(0.0, 4.0), min_size=m, max_size=m))
    t = data.draw(st.lists(st.floats(0.0, 4.0), min_size=m, max_size=m))
    c_st = mpp_covariance(rates, s, t)
    assert c_st == pytest.approx(mpp_covariance(rates, t, s))
    assert c_st <= mpp_covariance(rates, s, s) + 1e-12 or c_st <= mpp_covariance(rates, t, t) + 1e-12


@pytest.mark.parametrize("call", [
    lambda: mpp_covariance([1e308, 1e308], [10.0, 10.0], [10.0, 10.0]),
], ids=["covariance"])
def test_overflowing_means_are_refused(call):
    # 1e308 * 10 leaves the float range: the covariance used to be inf after a
    # numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="means must be finite"):
            call()
