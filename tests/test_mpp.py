"""Multiparameter Poisson process: exact law, grid sampler, moments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skellam_lab import mpp_covariance, mpp_pmf, mpp_sample_grid
from skellam_lab.records import LatticePMF, SampleBatch
from skellam_lab.stats import lattice_chi2


def poisson_table(mu, n_max):
    return np.array([math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1)) for n in range(n_max)])


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


def test_grid_at_time_zero_is_zero():
    path = mpp_sample_grid((1.0, 2.0), [[0.0], [0.0]], seed=1)
    assert path.values.shape == (1, 1)
    assert path.values[0, 0] == 0


def test_grid_reproducible_and_monotone():
    axes = [np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.0, 5)]
    a = mpp_sample_grid((1.5, 0.7), axes, seed=42)
    b = mpp_sample_grid((1.5, 0.7), axes, seed=42)
    assert np.array_equal(a.values, b.values)
    assert a.values[0, 0] == 0
    for seed in range(25):
        path = mpp_sample_grid((1.5, 0.7), axes, seed=seed)
        assert np.all(np.diff(path.values, axis=0) >= 0)
        assert np.all(np.diff(path.values, axis=1) >= 0)


def test_grid_rejects_bad_axes():
    with pytest.raises(ValueError):
        mpp_sample_grid((1.0,), [[]], seed=0)
    with pytest.raises(ValueError):
        mpp_sample_grid((1.0,), [[0.0, 0.0]], seed=0)
    with pytest.raises(ValueError):
        mpp_sample_grid((1.0, 1.0), [[0.0, 1.0]], seed=0)


def test_grid_batch_leads_with_the_single_path():
    axes = [np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.0, 5)]
    batch = mpp_sample_grid((1.5, 0.7), axes, seed=42, n_paths=30)
    assert batch.values.shape == (30, 9, 5) and batch.dim == 2
    assert np.array_equal(batch.values[0], mpp_sample_grid((1.5, 0.7), axes, seed=42).values)
    assert np.all(np.diff(batch.values, axis=1) >= 0)
    assert np.all(np.diff(batch.values, axis=2) >= 0)


def test_grid_marginal_is_poisson_chi2():
    n = 20_000
    draws = mpp_sample_grid((1.2,), [np.array([0.0, 0.5, 1.0])], seed=0, n_paths=n).values[:, -1]
    pmf = LatticePMF(start=0, probs=poisson_table(1.2, 12))
    report = lattice_chi2(SampleBatch(draws, seed=0), pmf)
    assert report.verdict, f"p={report.p_value}"


def test_grid_corner_adds_axis_marginals_chi2():
    # on {0,1}x{0,1} the corner value is the sum of the two edge values,
    # distributed Poisson(2) for unit rates
    n = 20_000
    v = mpp_sample_grid((1.0, 1.0), [[0.0, 1.0], [0.0, 1.0]], seed=0, n_paths=n).values
    assert np.array_equal(v[:, 1, 1], v[:, 1, 0] + v[:, 0, 1])
    pmf = LatticePMF(start=0, probs=poisson_table(2.0, 16))
    report = lattice_chi2(SampleBatch(v[:, 1, 1], seed=0), pmf)
    assert report.verdict, f"p={report.p_value}"


def test_stationary_increments_chi2():
    # N(t) - N(s) must follow the law of N(t - s)
    n = 20_000
    rates = (0.8, 1.1)
    s, t = np.array([0.3, 0.7]), np.array([1.0, 1.2])
    axes = [np.array([s[k], t[k]]) for k in range(2)]
    v = mpp_sample_grid(rates, axes, seed=0, n_paths=n).values
    draws = v[:, 1, 1] - v[:, 0, 0]
    mu = float(np.dot(rates, t - s))
    pmf = LatticePMF(start=0, probs=poisson_table(mu, 14))
    report = lattice_chi2(SampleBatch(draws, seed=0), pmf)
    assert report.verdict, f"p={report.p_value}"


def test_disjoint_increments_uncorrelated():
    n = 20_000
    axes = [np.array([0.0, 0.6, 1.4]), np.array([0.0, 0.5, 1.0])]
    v = mpp_sample_grid((1.0, 0.5), axes, seed=0, n_paths=n).values
    first = v[:, 1, 1] - v[:, 0, 0]
    second = v[:, 2, 2] - v[:, 1, 1]
    rho = np.corrcoef(first, second)[0, 1]
    assert abs(rho) < 4.0 / math.sqrt(n)


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
    lambda: mpp_sample_grid([1e308], [[10.0]], 0),
], ids=["covariance", "sample_grid"])
def test_overflowing_means_are_refused(call):
    # 1e308 * 10 leaves the float range: the covariance used to be inf after a
    # numpy warning, and the grid sampler ended in numpy's "lam value too large"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="means must be finite"):
            call()
