"""Series and quadrature evaluations against brute-force and library oracles."""

import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from skellam_lab import (
    FracSkellamSpec,
    TruncationError,
    bessel_i,
    frac_poisson_pmf,
    frac_poisson_table,
    frac_skellam_pmf,
    frac_skellam_pmf_wright,
    inv_stable_marginal_sample,
    wright_psi23,
)
from skellam_lab import special
from skellam_lab.gmsp import skellam_pmf_table
from skellam_lab.special import (frac_poisson_entries, grow_table, log_bessel_i, poisson_entries,
                                 poisson_pmf, sum_rows, sum_series)


def test_sum_series_stops_after_three_consecutive_small_terms():
    terms = iter([1.0, 0.5, 0.0, 1e-20, 0.0, 99.0])
    assert sum_series(terms) == (1.5, True)
    assert next(terms) == 99.0  # the term after the stop is never drawn


def test_sum_series_does_not_stop_at_a_single_small_term():
    assert sum_series([1.0, 0.0, 2.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0]) == (7.0, True)


def test_sum_series_cap_returns_the_partial_sum_unconverged(monkeypatch):
    monkeypatch.setattr(special, "_MAX_TERMS", 4)
    terms = itertools.count(1.0)
    assert sum_series(terms) == (10.0, False)
    assert next(terms) == 5.0  # the cap draws no term past _MAX_TERMS


def test_sum_series_exhausted_iterable_is_unconverged():
    assert sum_series([1.0, 0.0, 0.0]) == (1.0, False)
    assert sum_series([]) == (0.0, False)


def _fixed_rows(logs):
    """log_terms for sum_rows over fixed rows, each padded with log 0 past its end."""
    logs = [list(row) for row in logs]

    def log_terms(rows, width):
        return np.array([(logs[r] + [-math.inf] * width)[:width] for r in rows])
    return log_terms


def test_sum_rows_is_sum_series_row_by_row():
    rng = np.random.default_rng(5)
    logs = [np.cumsum(rng.normal(-1.0, 2.0, 200)) for _ in range(6)]
    sums, width = sum_rows(_fixed_rows(logs), 6, 4, "rows")
    assert sums == [sum_series(math.exp(x) for x in row)[0] for row in logs]
    assert width >= 4


def test_sum_rows_refuses_an_overflow_only_up_to_the_stop():
    # row 0 stops at its term 3 and overflows after it; row 1 overflows first
    logs = [[0.0, -50.0, -50.0, -50.0, 800.0], [0.0, 800.0, -50.0, -50.0, -50.0]]
    sums, _ = sum_rows(_fixed_rows(logs), 2, 5, "rows")
    assert sums[0] == 1.0 + 3 * math.exp(-50.0)
    assert isinstance(sums[1], TruncationError)
    assert str(sums[1]) == "rows has a term above the float range (partial sum inf)"


def test_sum_rows_cap_gives_the_partial_sum_of_the_capped_terms(monkeypatch):
    monkeypatch.setattr(special, "_MAX_TERMS", 5)
    sums, width = sum_rows(_fixed_rows([[0.0] * 10]), 1, 2, "rows")
    assert width == 5
    assert isinstance(sums[0], TruncationError) and sums[0].partial == 5.0
    assert str(sums[0]) == "rows did not converge in 5 terms (partial sum 5.0)"


def test_sum_rows_returns_the_terms_its_longest_row_read():
    # row 0 stops at its term 3, row 1 at its term 4; the block is 16 terms wide
    logs = [[0.0, -50.0, -50.0, -50.0], [0.0, 0.0, -50.0, -50.0, -50.0]]
    assert sum_rows(_fixed_rows(logs), 2, 16, "rows")[1] == 5


@pytest.mark.parametrize("width", [1, 2])
def test_sum_rows_below_three_terms_widens_until_a_row_can_stop(width):
    # a block narrower than the three-term run stops no row: it is read to its
    # end and recomputed at twice the width
    logs = [[0.0, -50.0, -50.0, -50.0], [0.0, 0.0, -50.0, -50.0, -50.0]]
    sums, read = sum_rows(_fixed_rows(logs), 2, width, "rows")
    assert sums == [sum_series(math.exp(x) for x in row)[0] for row in logs]
    assert read == 5


def test_sum_rows_refuses_an_infinite_log_only_up_to_the_stop():
    # math.exp(inf) is inf with no OverflowError: a log of +inf before the
    # stop refuses its row, one past the stop does not
    logs = [[0.0, math.inf, -50.0, -50.0, -50.0], [0.0, -50.0, -50.0, -50.0, math.inf]]
    sums, _ = sum_rows(_fixed_rows(logs), 2, 5, "rows")
    assert isinstance(sums[0], TruncationError)
    assert str(sums[0]) == "rows has a term above the float range (partial sum inf)"
    assert sums[1] == 1.0 + 3 * math.exp(-50.0)


def test_sum_rows_runs_a_nan_row_to_the_cap(monkeypatch):
    # no nan term is small, so the row never stops; its partial sum is nan,
    # as sum_series gives for the same terms
    monkeypatch.setattr(special, "_MAX_TERMS", 8)
    sums, read = sum_rows(_fixed_rows([[math.nan] * 8, [0.0, -50.0, -50.0, -50.0]]), 2, 2,
                          "rows")
    assert read == 8
    assert isinstance(sums[0], TruncationError) and math.isnan(sums[0].partial)
    assert str(sums[0]) == "rows did not converge in 8 terms (partial sum nan)"
    assert math.isnan(sum_series(math.exp(x) for x in [math.nan] * 8)[0])
    assert sums[1] == 1.0 + 3 * math.exp(-50.0)


def test_sum_rows_takes_exp_through_the_module_global(monkeypatch):
    # the full-grid CI step swaps special._exp for math.exp one entry at a
    # time; that comparison means something only if sum_rows calls it there
    calls = []

    def counting(x):
        calls.append(x.size)
        return math_exp_map(x)

    monkeypatch.setattr(special, "_exp", counting)
    logs = [[0.0, -50.0, -50.0, -50.0]]
    assert sum_rows(_fixed_rows(logs), 1, 4, "rows")[0] == [1.0 + 3 * math.exp(-50.0)]
    assert calls == [4]


def math_exp_map(x: np.ndarray) -> np.ndarray:
    """math.exp of each entry, one at a time, inf where it raises OverflowError."""
    def one(v):
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf
    return np.fromiter(map(one, x.ravel().tolist()), float, x.size).reshape(x.shape)


def test_exp_is_math_exp_bit_for_bit():
    # np.exp differs from math.exp in the last bit on about 4.5 % of these
    rng = np.random.default_rng(35)
    for _ in range(8):
        x = rng.uniform(-745.2, 709.0, 500_000)
        assert np.array_equal(special._exp(x).view(np.int64), math_exp_map(x).view(np.int64))
    edges = np.concatenate([
        [709.0, np.nextafter(709.0, 0.0), np.nextafter(709.0, 1e308), 1e308,
         -np.inf, np.inf, 0.0, -0.0, np.nan, -745.2, -745.13, 710.0],
        rng.uniform(709.0, 710.0, 1000),
    ]).reshape(4, -1)
    assert np.array_equal(special._exp(edges).view(np.int64), math_exp_map(edges).view(np.int64))


# The Wright rows are values of the series taken before they shared
# sum_series, reproduced bit for bit (0 ulps).  The first two Bessel rows
# held bit for bit when the series moved to the peak-outward sum; the third
# and the fractional pmfs (quadratures) hold mpmath values, to be met within
# four ulps.
_PSI_PARAMS = ((1.0, 1.0), (2.0, 1.0), (1.0, 0.5), (1.0, 0.5), (1.0, 1.0))
_FRAC_SPEC = FracSkellamSpec(1.0, 1.0, 0.7, 0.9)
_GOLDEN = [
    (lambda: bessel_i(0, 1.0), 1.2660658777520082, 0),
    (lambda: bessel_i(3, -2.5), -0.4743704087780355, 0),
    (lambda: bessel_i(5, 40.0), 1.0858318337624282e+16, 4),
    (lambda: wright_psi23(*_PSI_PARAMS, -0.5), 0.25759764238321387, 0),
    (lambda: wright_psi23(*_PSI_PARAMS, 2.0), 100.69442310662781, 0),
    (lambda: frac_poisson_pmf(3, 2.0, 1.0, 0.5), 0.12368510211432802, 4),
    (lambda: frac_poisson_pmf(0, 0.5, 1.0, 0.8), 0.6030237158628037, 4),
    (lambda: frac_poisson_pmf(7, 4.0, 1.0, 0.8), 0.0754790926109585, 4),
    (lambda: frac_skellam_pmf(_FRAC_SPEC, 1.0, 1.0, -3), 0.03548511384501484, 4),
    (lambda: frac_skellam_pmf(_FRAC_SPEC, 1.0, 1.0, 0), 0.2909740353134137, 4),
    (lambda: frac_skellam_pmf(_FRAC_SPEC, 1.0, 1.0, 5), 0.005717146500531716, 4),
    (lambda: frac_skellam_pmf_wright(FracSkellamSpec(1.0, 1.0, 0.5, 0.5), 1.07, 1.0, -2),
     0.09372040848970485, 0),
    (lambda: frac_skellam_pmf_wright(FracSkellamSpec(1.0, 1.0, 0.5, 0.5), 1.07, 1.0, 1),
     0.17575815906471162, 0),
]


@pytest.mark.parametrize("index", range(len(_GOLDEN)))
def test_series_golden_values(index):
    value, expected, ulps = _GOLDEN[index]
    assert abs(value() - expected) <= ulps * math.ulp(expected)


def brute_bessel(n, x, terms=200):
    """Direct summation of the defining series, no truncation logic."""
    return math.fsum(
        math.exp((2 * m + n) * math.log(x / 2.0) - math.lgamma(m + n + 1) - math.lgamma(m + 1))
        for m in range(terms)
    )


def test_bessel_trivial_values():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0
    assert bessel_i(3, 0.0) == 0.0


def test_bessel_matches_brute_force_at_two():
    oracle = brute_bessel(0, 2.0)
    assert oracle == pytest.approx(2.2795853023360673, abs=1e-12)
    assert bessel_i(0, 2.0) == pytest.approx(oracle, abs=1e-14 * (1 + oracle))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 20, 40, 60])
@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 50.0, 200.0])
def test_bessel_matches_scipy(n, x):
    # (60, 20.0) has three leading terms below 1e-14: a sum that stops on an
    # absolute rule there returns 21 % low
    assert bessel_i(n, x) == pytest.approx(float(scipy.special.iv(n, x)), rel=1e-12)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("x", [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
def test_bessel_parity(n, x):
    sign = 1.0 if n % 2 == 0 else -1.0
    assert bessel_i(n, -x) == pytest.approx(sign * bessel_i(n, x), abs=1e-15)


def test_bessel_negative_order_uses_absolute_value():
    assert bessel_i(-2, 1.5) == bessel_i(2, 1.5)


def test_bessel_rejects_non_finite():
    with pytest.raises(ValueError):
        bessel_i(0, math.inf)
    with pytest.raises(ValueError):
        bessel_i(0, math.nan)


def test_bessel_cap_carries_partial_sum(monkeypatch):
    # past the cap, the error carries the log of the partial sum
    full = log_bessel_i(0, 6.0)
    monkeypatch.setattr(special, "_MAX_TERMS", 2)
    with pytest.raises(TruncationError) as exc:
        bessel_i(0, 6.0)
    assert 0 < exc.value.partial < full


def test_log_bessel_i_rejects_bad_arguments():
    for n, x in [(-1, 1.0), (0, 0.0), (0, -1.0), (0, math.inf), (0, math.nan)]:
        with pytest.raises(ValueError):
            log_bessel_i(n, x)


@pytest.mark.parametrize("n, x", [(0, 2.0), (3, 50.0), (60, 20.0), (100, 1.5)])
def test_log_bessel_i_matches_brute_force(n, x):
    assert log_bessel_i(n, x) == pytest.approx(math.log(brute_bessel(n, x, terms=300)),
                                               rel=1e-14)


def test_bessel_above_the_float_range_is_truncation():
    # I_0(720) is about e^716; its log against the large-x expansion
    # x - log(2 pi x)/2 + log(1 + 1/(8x) + 9/(128x^2) + ...)
    x = 720.0
    with pytest.raises(TruncationError, match="float range"):
        bessel_i(0, x)
    expansion = x - 0.5 * math.log(2 * math.pi * x) + math.log1p(1 / (8 * x) + 9 / (128 * x**2))
    assert log_bessel_i(0, x) == pytest.approx(expansion, abs=1e-9)


@given(st.integers(0, 8), st.floats(0.0, 15.0))
@settings(max_examples=60, deadline=None)
def test_bessel_nonnegative_for_nonnegative_argument(n, x):
    assert bessel_i(n, x) >= 0.0


def test_wright_single_term_at_zero_argument():
    a1, a2 = (1.5, 1.0), (2.0, 1.0)
    b1, b2, b3 = (1.2, 0.5), (0.7, 0.5), (3.0, 1.0)
    expected = (math.gamma(1.5) * math.gamma(2.0)
                / (math.gamma(1.2) * math.gamma(0.7) * math.gamma(3.0)))
    assert wright_psi23(a1, a2, b1, b2, b3, 0.0) == pytest.approx(expected, rel=1e-14)


def test_wright_collapses_to_bessel_series():
    # all weights 1 and unit parameters: sum_m z^m / (m!)^2, at z=1 this is I_0(2)
    one = (1.0, 1.0)
    value = wright_psi23(one, one, one, one, one, 1.0)
    assert value == pytest.approx(bessel_i(0, 2.0), abs=1e-12)


def test_wright_unit_weight_factorial_series_oracle():
    params = ((2.0, 1.0), (3.0, 1.0), (1.0, 1.0), (4.0, 1.0), (2.0, 1.0))
    z = 0.7
    oracle = math.fsum(
        math.gamma(2 + m) * math.gamma(3 + m)
        / (math.gamma(1 + m) * math.gamma(4 + m) * math.gamma(2 + m))
        * z**m / math.factorial(m)
        for m in range(55)
    )
    assert wright_psi23(*params, z) == pytest.approx(oracle, abs=1e-10)


def test_wright_cap_keeps_leading_term(monkeypatch):
    one = (1.0, 1.0)
    monkeypatch.setattr(special, "_MAX_TERMS", 1)
    with pytest.raises(TruncationError) as exc:
        wright_psi23(one, one, one, one, one, 1.0)
    assert exc.value.partial == pytest.approx(1.0)  # the m=0 term


def test_wright_term_above_float_range_is_truncation():
    # term m is z^m / Gamma(m/2 + 1)^2, near e^5000 at m = 5000 for z = 2500
    one, half = (1.0, 1.0), (1.0, 0.5)
    with pytest.raises(TruncationError, match="float range"):
        wright_psi23(one, one, half, half, one, 2500.0)


def test_wright_numerator_pole_is_domain_error():
    with pytest.raises(ValueError, match="pole"):
        wright_psi23((0.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 0.5)


def test_wright_alternating_argument():
    one = (1.0, 1.0)
    oracle = math.fsum((-0.8) ** m / math.factorial(m) ** 2 for m in range(60))
    assert wright_psi23(one, one, one, one, one, -0.8) == pytest.approx(oracle, abs=1e-12)


def test_frac_poisson_at_time_zero():
    assert frac_poisson_pmf(0, 1.0, 0.0, 0.7) == 1.0
    assert frac_poisson_pmf(3, 1.0, 0.0, 0.7) == 0.0


def test_frac_poisson_classical_branch():
    assert frac_poisson_pmf(2, 1.5, 1.0, 1.0) == pytest.approx(
        math.exp(-1.5) * 1.5**2 / 2.0, rel=1e-14
    )
    for n in range(31):
        assert frac_poisson_pmf(n, 0.8, 2.5, 1.0) == pytest.approx(
            poisson_pmf(n, 2.0), abs=1e-12
        )


@pytest.mark.parametrize("lam,t,alpha", [(1.0, 1.0, 0.5), (1.0, 1.0, 0.7), (2.0, 1.5, 0.6)])
def test_frac_poisson_normalizes(lam, t, alpha):
    total = 0.0
    for n in range(400):
        total += frac_poisson_pmf(n, lam, t, alpha)
        if 1.0 - total < 1e-8:
            break
    assert total == pytest.approx(1.0, abs=1e-6)


def test_frac_poisson_count_weighted_mean():
    # sum_n n pmf(n) must reproduce lam t^alpha / Gamma(alpha+1)
    lam, t, alpha = 1.2, 1.5, 0.6
    mean = math.fsum(n * frac_poisson_pmf(n, lam, t, alpha) for n in range(1, 300))
    assert mean == pytest.approx(lam * t**alpha / math.gamma(alpha + 1), abs=1e-8)


def test_frac_poisson_zero_count_is_mittag_leffler():
    # P{N(L(t)) = 0} = E exp(-lam L(t)); Monte Carlo over the inverse clock
    lam, t, alpha = 1.0, 1.0, 0.5
    clock = inv_stable_marginal_sample(alpha, t, 200_000, seed=2024).values
    weights = np.exp(-lam * clock)
    mc, se = weights.mean(), weights.std() / np.sqrt(weights.size)
    assert abs(frac_poisson_pmf(0, lam, t, alpha) - mc) < 3 * se


def test_frac_poisson_rejects_bad_arguments():
    with pytest.raises(ValueError):
        frac_poisson_pmf(-1, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        frac_poisson_pmf(0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        frac_poisson_pmf(0, 1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        frac_poisson_pmf(0, 1.0, 1.0, 1.2)


def test_frac_poisson_table_refuses_an_overflowing_mean():
    # 1e308 * 10**0.5 leaves the float range: this used to be [nan] * 4 after a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            frac_poisson_table(3, 1e308, 10.0, 0.5)


@given(st.integers(0, 60), st.floats(0.0, 100.0, exclude_min=True), st.floats(0.1, 1.5),
       st.floats(0.0, 1.0, exclude_min=True))
@settings(max_examples=80, deadline=None)
def test_frac_poisson_is_a_probability(n, lam, t, alpha):
    p = frac_poisson_pmf(n, lam, t, alpha)
    assert 0.0 <= p <= 1.0


def test_frac_poisson_zero_count_where_the_series_diverged():
    # p_0 = E_alpha(-lam t^alpha); the alternating series for it has terms
    # near 1e887 here.  Mittag-Leffler value from mpmath at 967 digits.
    assert frac_poisson_pmf(0, 4.0, 2.0, 0.2) == pytest.approx(0.1593023375113451, abs=1e-15)


def _golden_cells():
    path = os.path.join(os.path.dirname(__file__), "frac_poisson_golden.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["cells"]


@pytest.mark.parametrize("cell", _golden_cells(), ids=lambda c: f"a{c['alpha']}-x{c['x']}")
def test_frac_poisson_table_matches_mpmath(cell):
    # the grid spans alpha 0.1..0.99 at lam t^alpha 0.5..10, and alpha
    # 0.001..0.05 at lam t^alpha 0.5..1 (the series' reach there), n <= 40,
    # including (0.3, 10), where the series needs about 1,100 digits
    # (make_frac_poisson_golden.py)
    table = frac_poisson_table(len(cell["p"]) - 1, cell["x"], 1.0, cell["alpha"])
    assert np.max(np.abs(np.array(table) - cell["p"])) <= 1e-13


@pytest.mark.parametrize("x", [100.0, 300.0, 1000.0])
def test_frac_poisson_table_mass_and_mean_at_large_means(x):
    # e^(-mean) underflows at many nodes here; a recurrence started from it
    # in linear space loses 8 % of the mass at 300 and 60 % at 1000
    table = np.array(frac_poisson_table(int(12 * x), x, 1.0, 0.5))
    assert abs(math.fsum(table) - 1.0) <= 1e-12
    mean = math.fsum(np.arange(table.size) * table)
    assert mean == pytest.approx(x / math.gamma(1.5), rel=1e-12)


@pytest.mark.parametrize("x, alpha", [(100.0, 0.5), (300.0, 0.7), (1000.0, 0.9)])
def test_frac_poisson_table_run_to_its_tail_holds_its_mass_and_mean(x, alpha):
    # 1,318 to 2,164 entries: the carried products run 15 steps past restarts
    # up to n of about 2,150, where each falling factorial is near 2000**15
    table = np.array(grow_table([], frac_poisson_entries(x, 1.0, alpha)))
    assert abs(math.fsum(table) - 1.0) <= 1e-12
    mean = math.fsum(np.arange(table.size) * table)
    assert mean == pytest.approx(x / math.gamma(1.0 + alpha), rel=1e-12)


def test_poisson_entries_at_the_largest_mean_below_the_cap():
    # 8 carried steps past the restart at 8,992: the entry's sum is divided by
    # 8,993 * ... * 9,000, about 4.3e31
    mu = 9000.0
    p = next(itertools.islice(poisson_entries(mu), 9000, None))
    assert p == pytest.approx(math.exp(-mu + 9000 * math.log(mu) - math.lgamma(9001.0)), rel=1e-10)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble has no more precision than a float here")
@pytest.mark.parametrize("alpha, x", [(0.3, 2.0), (0.6, 10.0), (0.9, 40.0)])
def test_frac_poisson_entries_match_an_extended_precision_sum_on_the_same_nodes(alpha, x):
    # every entry in np.longdouble, each node's pmf in log form from its own
    # log-factorial, on the same means and weights: no recurrence, no restarts
    table = np.array(grow_table([], frac_poisson_entries(x, 1.0, alpha)))
    nodes, weight = special._kanter_nodes(alpha)
    mean = special.clock_means(x, 1.0, alpha, nodes).astype(np.longdouble)
    log_mean = np.log(mean)
    ref, log_factorial = [], np.longdouble(0.0)
    for n in range(table.size):
        log_factorial += np.log(np.longdouble(max(n, 1)))
        ref.append(np.sum(weight * np.exp(n * log_mean - mean - log_factorial)))
    ref = np.array(ref)
    big = ref > 1e-15
    assert big.sum() > 40
    assert np.max(np.abs(table[big] - ref[big]) / ref[big]) <= 1e-13


# The Bessel pmf's domain map (README): (largest a + b, relative tolerance),
# with x in place of a + b for I_n(x).  The error is the rounding of the
# log-space exponents, which grow with the means.  Past x = 2 sqrt(ab) of
# about 1.44e6 the series needs more than 10,000 terms and refuses.
_SKELLAM_REGIONS = ((20.0, 1e-13), (2_000.0, 5e-12), (25_000.0, 1e-10), (1.1e6, 3e-9))
_SKELLAM_CAP_X = 1.44e6


def test_skellam_pmf_and_bessel_match_the_golden_map():
    # make_skellam_golden.py: mpmath at 40 and 60 digits
    path = os.path.join(os.path.dirname(__file__), "skellam_golden.json")
    with open(path, encoding="utf-8") as fh:
        points = json.load(fh)["points"]
    wrong = []
    for p in points:
        if p["kind"] == "pmf":
            size, x = p["a"] + p["b"], 2.0 * math.sqrt(p["a"] * p["b"])
            fn, args = lambda n, a, b: skellam_pmf_table([n], a, b)[0], (p["n"], p["a"], p["b"])
        else:
            size = x = p["x"]
            fn, args = bessel_i, (p["n"], p["x"])
        refuses = p["value"] is None or x > _SKELLAM_CAP_X
        try:
            value = fn(*args)
        except TruncationError:
            if not refuses:
                wrong.append((p, "refused"))
            continue
        if refuses:
            wrong.append((p, value))
            continue
        tol = next(t for top, t in _SKELLAM_REGIONS if size <= top)
        if not abs(value - p["value"]) <= tol * p["value"]:
            wrong.append((p, value))
    assert len(points) == 205 and not wrong


def test_frac_poisson_tables_share_one_read_only_weight_grid():
    # the node weights do not depend on alpha: they are built once, and each
    # table scales only its own means in place
    weight = special._node_grid()[3]
    before = weight.copy()
    for alpha in (0.3, 0.8):
        frac_poisson_table(40, 4.0, 1.3, alpha)
        assert special._kanter_nodes(alpha)[1] is weight
    assert not weight.flags.writeable and np.array_equal(weight, before)


def test_frac_poisson_table_is_its_entries():
    table = frac_poisson_table(12, 3.0, 1.3, 0.6)
    assert table == [frac_poisson_pmf(n, 3.0, 1.3, 0.6) for n in range(13)]
    with pytest.raises(ValueError):
        frac_poisson_table(-1, 3.0, 1.3, 0.6)
