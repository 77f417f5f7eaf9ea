"""Stable clocks and the fractional two-parameter Skellam process."""

import json
import math
import os
import time

import numpy as np
import pytest
import scipy.stats

from skellam_lab import (
    FracSkellamSpec,
    frac_skellam_moments,
    frac_skellam_pmf,
    frac_skellam_pmf_table,
    frac_skellam_pmf_wright,
    frac_skellam_sample,
    inv_stable_marginal_sample,
    stable_subordinator_sample,
    twoparam_skellam_pmf,
)
from skellam_lab.identities import run_identity
from skellam_lab import fractional, special
from skellam_lab.records import LatticePMF
from skellam_lab.special import TruncationError
from skellam_lab.stats import lattice_chi2


def test_spec_validation():
    with pytest.raises(ValueError):
        FracSkellamSpec(0.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        FracSkellamSpec(1.0, 1.0, 1.5, 0.5)
    with pytest.raises(ValueError):
        FracSkellamSpec(1.0, 1.0, 0.5, 0.0)


_SPEC = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda x: FracSkellamSpec(x, 1.0, 0.5, 0.5),
    lambda x: FracSkellamSpec(1.0, x, 0.5, 0.5),
    lambda x: stable_subordinator_sample(0.5, x, 3, seed=0),
    lambda x: inv_stable_marginal_sample(0.5, x, 3, seed=0),
    lambda x: frac_skellam_sample(_SPEC, x, 1.0, 3, seed=0),
    lambda x: frac_skellam_sample(_SPEC, 1.0, x, 3, seed=0),
    lambda x: frac_skellam_moments(_SPEC, x, 1.0),
    lambda x: frac_skellam_moments(_SPEC, 1.0, x),
    lambda x: frac_skellam_pmf_wright(_SPEC, x, 1.0, 0),
    lambda x: frac_skellam_pmf_table(_SPEC, 1.0, x, [0]),
    lambda x: special.frac_poisson_entries(x, 1.0, 0.5),
    lambda x: special.frac_poisson_entries(1.0, x, 0.5),
], ids=["spec-lam1", "spec-lam2", "stable", "inv-stable", "sample-t1", "sample-t2",
        "moments-t1", "moments-t2", "wright", "table", "entries-lam", "entries-t"])
def test_non_finite_times_and_rates_are_refused(call, bad):
    # NaN and +-inf pass a `< 0` or `> 0` check; downstream they become nan
    # or inf draws, an all-zero table, or a quadrature that never converges
    with pytest.raises(ValueError, match="finite"):
        call(bad)


def test_stable_zero_time_and_degenerate_index():
    assert np.all(stable_subordinator_sample(0.7, 0.0, 10, seed=0).values == 0)
    batch = stable_subordinator_sample(1.0, 2.5, 10, seed=0)
    assert np.all(batch.values == 2.5)


@pytest.mark.parametrize("alpha,t", [(0.4, 1.0), (0.7, 2.0)])
def test_stable_laplace_transform(alpha, t):
    batch = stable_subordinator_sample(alpha, t, 200_000, seed=31)
    w = np.exp(-batch.values)
    se = w.std() / math.sqrt(w.size)
    assert abs(w.mean() - math.exp(-t)) < 4 * se


def test_stable_reproducible():
    a = stable_subordinator_sample(0.6, 1.0, 50, seed=8)
    b = stable_subordinator_sample(0.6, 1.0, 50, seed=8)
    assert np.array_equal(a.values, b.values)


def test_inverse_stable_zero_time_and_degenerate_index():
    assert np.all(inv_stable_marginal_sample(0.5, 0.0, 10, seed=0).values == 0)
    assert np.all(inv_stable_marginal_sample(1.0, 1.5, 10, seed=0).values == 1.5)


def test_inverse_stable_mean():
    batch = inv_stable_marginal_sample(0.5, 1.0, 200_000, seed=37)
    se = batch.values.std() / math.sqrt(batch.n)
    assert abs(batch.values.mean() - 1.1283791670955126) < 5 * se  # 1/Gamma(1.5)


def test_inverse_stable_stochastically_increasing_in_t():
    a = inv_stable_marginal_sample(0.6, 1.0, 50_000, seed=41).values
    b = inv_stable_marginal_sample(0.6, 2.0, 50_000, seed=43).values
    grid = np.quantile(np.concatenate([a, b]), np.linspace(0.02, 0.98, 25))
    ecdf_a = np.searchsorted(np.sort(a), grid, side="right") / a.size
    ecdf_b = np.searchsorted(np.sort(b), grid, side="right") / b.size
    # L(1) <=st L(2): its CDF dominates, up to one-sided sampling noise
    assert np.all(ecdf_a >= ecdf_b - 4.0 / math.sqrt(a.size))


def test_frac_sample_zero_times():
    spec = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
    assert np.all(frac_skellam_sample(spec, 0.0, 0.0, 20, seed=0).values == 0)


def test_frac_sample_classical_branch_chi2():
    spec = FracSkellamSpec(1.2, 0.8, 1.0, 1.0)
    batch = frac_skellam_sample(spec, 1.0, 1.5, 100_000, seed=47)
    probs = np.array([twoparam_skellam_pmf(n, 1.2, 0.8, 1.0, 1.5) for n in range(-12, 13)])
    report = lattice_chi2(batch, LatticePMF(-12, probs))
    assert report.verdict, f"p={report.p_value}"


def test_frac_sample_symmetric_case():
    spec = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
    batch = frac_skellam_sample(spec, 1.0, 1.0, 100_000, seed=53)
    values = batch.values
    for n in (1, 2, 3):
        p_pos = np.mean(values == n)
        p_neg = np.mean(values == -n)
        se = math.sqrt((p_pos * (1 - p_pos) + p_neg * (1 - p_neg)) / values.size)
        assert abs(p_pos - p_neg) < 4 * max(se, 1e-4)


def test_frac_pmf_classical_branch_matches_closed_form():
    spec = FracSkellamSpec(1.5, 0.8, 1.0, 1.0)
    for n in range(-10, 11):
        assert frac_skellam_pmf(spec, 1.0, 2.0, n) == pytest.approx(
            twoparam_skellam_pmf(n, 1.5, 0.8, 1.0, 2.0), abs=1e-9
        )


def test_frac_pmf_classical_branch_at_large_means():
    # e^(-1000) underflows, so the side tables start with zeros that must not
    # read as their tail; the old convolution returned 0.0 here
    ns = [-20, 0, 10, 50]
    table = frac_skellam_pmf_table(FracSkellamSpec(1000.0, 990.0, 1.0, 1.0), 1.0, 1.0, ns)
    assert table == pytest.approx(scipy.stats.skellam.pmf(ns, 1000.0, 990.0), rel=1e-11)


_TABLE_CASES = [
    (FracSkellamSpec(1.0, 1.0, 0.5, 0.5), 1.0, 1.0),
    (FracSkellamSpec(2.0, 0.5, 0.3, 0.9), 1.5, 0.7),
    (FracSkellamSpec(4.0, 3.0, 0.5, 1.0), 1.0, 2.0),
    (FracSkellamSpec(0.5, 0.2, 0.7, 0.4), 0.0, 3.0),
]


def _entry_by_entry(spec, t1, t2, ns):
    try:
        return [frac_skellam_pmf(spec, t1, t2, k) for k in ns]
    except TruncationError as exc:
        return str(exc)


@pytest.mark.parametrize("spec,t1,t2", _TABLE_CASES)
@pytest.mark.parametrize("ctl", [{}, {"_MAX_TERMS": 5}, {"_MAX_TERMS": 40}])
def test_frac_pmf_table_equals_its_entries(monkeypatch, spec, t1, t2, ctl):
    # a one-entry table runs its side tables less far; each entry is an
    # exactly rounded sum, so that changes no bit.  Under a side-table cap
    # that some requests pass, both raise at a full table: the same text.
    # special.grow_table reads the cap, so that is the module to patch.
    for name, value in ctl.items():
        monkeypatch.setattr(special, name, value)
    ns = range(-20, 21)
    try:
        table = frac_skellam_pmf_table(spec, t1, t2, ns)
    except TruncationError as exc:
        table = str(exc)
    if ctl.get("_MAX_TERMS") == 5:
        assert isinstance(table, str) and "would pass 5 entries" in table
    assert table == _entry_by_entry(spec, t1, t2, ns)


def test_frac_pmf_table_evaluates_each_factor_once(monkeypatch):
    calls = []
    original = fractional.frac_poisson_entries

    def counted(lam, t, alpha):
        calls.append((lam, t, alpha))
        return original(lam, t, alpha)

    monkeypatch.setattr(fractional, "frac_poisson_entries", counted)
    frac_skellam_pmf_table(FracSkellamSpec(1.0, 2.0, 0.5, 0.7), 1.0, 1.0, range(-20, 21))
    assert calls == [(1.0, 1.0, 0.5), (2.0, 1.0, 0.7)]


def test_frac_pmf_side_table_cap():
    # lam t^alpha = 1e5 needs side tables far past the 10,000-entry cap; it
    # raises after that many quadrature steps (0.2 s on 2 vCPUs)
    spec = FracSkellamSpec(1e5, 1.0, 0.5, 0.5)
    start = time.perf_counter()
    with pytest.raises(TruncationError, match=str(special._MAX_TERMS)):
        frac_skellam_pmf(spec, 1.0, 1.0, 0)
    assert time.perf_counter() - start < 10.0


def test_frac_pmf_normalizes():
    spec = FracSkellamSpec(1.0, 1.0, 0.6, 0.6)
    total = math.fsum(frac_skellam_pmf(spec, 1.0, 1.0, n) for n in range(-40, 41))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_frac_pmf_matches_sampler_chi2():
    spec = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
    batch = frac_skellam_sample(spec, 1.0, 1.0, 100_000, seed=59)
    # lattice_chi2 charges all untabulated mass to the top cell; |k| <= 40
    # leaves a two-sided tail under 1e-13
    probs = np.array([frac_skellam_pmf(spec, 1.0, 1.0, n) for n in range(-40, 41)])
    report = lattice_chi2(batch, LatticePMF(-40, probs))
    assert report.verdict, f"p={report.p_value}"


def test_frac_pmf_matches_sampler_chi2_at_larger_means():
    # lam t^alpha = 4 on both sides, where the alternating series raised;
    # |k| <= 150 leaves a two-sided tail under 1e-13
    spec = FracSkellamSpec(4.0, 4.0, 0.5, 0.5)
    batch = frac_skellam_sample(spec, 1.0, 1.0, 100_000, seed=61)
    probs = np.array(frac_skellam_pmf_table(spec, 1.0, 1.0, range(-150, 151)))
    report = lattice_chi2(batch, LatticePMF(-150, probs))
    assert report.verdict, f"p={report.p_value}"


def test_frac_pmf_identity_holds_at_two_million_draws():
    # a table of |k| <= 10 charged its 7.1e-5 two-sided tail to the top cell;
    # this sample size then rejected the correct sampler (p = 1.5e-6)
    report = run_identity("frac-pmf", seed=0, n=2_000_000)
    assert report.verdict, f"p={report.p_value}"


def test_wright_form_cross_check():
    spec = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
    for n in range(-2, 3):
        conv = frac_skellam_pmf(spec, 1.0, 1.0, n)
        wright = frac_skellam_pmf_wright(spec, 1.0, 1.0, n)
        assert wright == pytest.approx(conv, abs=1e-6)


def test_wright_form_asymmetric_mirror():
    # asymmetric rates and indices exercise the n < 0 swap for real
    spec = FracSkellamSpec(1.3, 0.6, 0.5, 0.7)
    for n in (-3, -1, 2):
        conv = frac_skellam_pmf(spec, 1.2, 0.8, n)
        wright = frac_skellam_pmf_wright(spec, 1.2, 0.8, n)
        assert wright == pytest.approx(conv, abs=1e-8)


@pytest.mark.parametrize("t1", [0.9, 1.1])
def test_wright_guard_is_silent_at_unit_rate(t1):
    # the benchmark's Wright points: lam = 1, t1 in [0.9, 1.1], |k| <= 2
    spec = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
    for k in range(-2, 3):
        wright = frac_skellam_pmf_wright(spec, t1, 1.0, k)
        assert wright == pytest.approx(frac_skellam_pmf(spec, t1, 1.0, k), abs=1e-9)


@pytest.mark.parametrize("lam", [2.0, 4.0])
def test_wright_form_refuses_where_rounding_loses_the_sum(lam):
    # unguarded, the series returns a value 8.3e-3 off at lam = 2, and a Wright
    # term overflows at lam = 4
    spec = FracSkellamSpec(lam, lam, 0.5, 0.5)
    for k in (-2, 0, 3):
        with pytest.raises(TruncationError):
            frac_skellam_pmf_wright(spec, 1.0, 1.0, k)


_WRIGHT_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "wright_golden.json")


def test_wright_golden_map():
    # the values and refusals of the scalar series (make_wright_golden.py):
    # the block sum adds the same terms in the same order, so 0 ulps
    with open(_WRIGHT_GOLDEN, encoding="utf-8") as fh:
        points = json.load(fh)["points"]
    assert len(points) > 90
    wrong = []
    for p in points:
        spec = FracSkellamSpec(p["lam1"], p["lam2"], p["alpha"], p["beta"])
        try:
            got = repr(frac_skellam_pmf_wright(spec, p["t1"], p["t2"], p["k"]))
            ok = "value" in p and float(got) == float(p["value"])
        except TruncationError as err:
            got = str(err)
            ok = "refusal" in p and got.startswith(p["refusal"] + " ")
        if not ok:
            wrong.append((p, got))
    assert not wrong


def test_wright_golden_values_are_the_law():
    # the map pins bits; every value it holds is also within _WRIGHT_TOL of the quadrature
    with open(_WRIGHT_GOLDEN, encoding="utf-8") as fh:
        points = [p for p in json.load(fh)["points"] if "value" in p]
    for p in points:
        spec = FracSkellamSpec(p["lam1"], p["lam2"], p["alpha"], p["beta"])
        exact = frac_skellam_pmf(spec, p["t1"], p["t2"], p["k"])
        assert abs(float(p["value"]) - exact) <= fractional._WRIGHT_TOL, p


def test_wright_refuses_where_the_layers_rounding_adds_up():
    # no layer's bound passes 1e-9 alone (the largest is 8.2e-10), but the
    # bounds sum to 1.7e-8; unrefused, the value was 1.34e-9 off mpmath
    with pytest.raises(TruncationError, match="^Wright double series layer 17 "):
        frac_skellam_pmf_wright(FracSkellamSpec(1.5, 1.35, 0.3, 0.8), 1.2, 1.0, -3)


@pytest.mark.parametrize("point, message, partial", [
    ((1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 0), "wright_psi23 did not converge in 20 terms",
     4.21701906032743),
    ((1.3, 0.6, 0.5, 0.7, 1.2, 0.8, -1), "wright_psi23 did not converge in 20 terms",
     265811.5383747329),
    ((0.7, 0.7, 1.0, 0.6, 1.0, 1.0, 2), "Wright double series did not converge",
     0.07157940408374641),
])
def test_wright_refusal_at_the_term_cap(monkeypatch, point, message, partial):
    # the scalar series' refusals at a cap of 20 terms: a row of the block
    # that does not stop gives the partial sum of its first 20 terms
    monkeypatch.setattr(special, "_MAX_TERMS", 20)
    with pytest.raises(TruncationError) as err:
        frac_skellam_pmf_wright(FracSkellamSpec(*point[:4]), *point[4:])
    assert err.value.partial == partial
    assert str(err.value) == f"{message} (partial sum {partial!r})"


def test_wright_terms_past_a_row_stop_may_overflow(monkeypatch):
    # at k = 1040 every row starts below 1e-14 and stops at its third term;
    # the block computes terms past the stop, some above the float range
    overflowed = []

    def spy(log_terms, nrows, width, name):
        overflowed.append(bool((log_terms(np.arange(nrows), width) > 710.0).any()))
        return special.sum_rows(log_terms, nrows, width, name)

    monkeypatch.setattr(fractional, "sum_rows", spy)
    spec = FracSkellamSpec(1.0, 1e13, 0.05, 0.05)
    assert frac_skellam_pmf_wright(spec, 1.0, 1.0, 1040) == 5.451580553243722e-16
    assert any(overflowed)


@pytest.mark.parametrize("k", [10**20, -10**20])
def test_wright_form_at_a_k_past_int64(k):
    # every term underflows, as in the scalar series; a gamma argument past
    # int64 is formed in Python arithmetic, not as a numpy integer
    assert frac_skellam_pmf_wright(FracSkellamSpec(1.0, 0.5, 0.5, 0.5), 1.0, 1.0, k) == 0.0


@pytest.mark.parametrize("n, alpha, beta, z", [(0, 0.5, 0.5, 1.0), (3, 0.3, 0.8, 2.3),
                                               (1, 1.0, 0.6, 0.05), (2, 0.7, 0.4, 0.0)])
def test_wright_rows_are_the_scalar_series(n, alpha, beta, z):
    # each row of a layer block is the float wright_psi23 returns for its parameters
    log_terms = fractional._wright_log_terms(n, alpha, beta, z)
    for deg in (0, 1, 7, 30):
        rows, _ = special.sum_rows(lambda r1s, w: log_terms(deg, r1s, w), deg + 1, 4, "psi")
        assert rows == [special.wright_psi23(
            (n + r1 + 1.0, 1.0), ((deg - r1) + 1.0, 1.0),
            (alpha * (n + r1) + 1.0, alpha), (beta * (deg - r1) + 1.0, beta), (n + 1.0, 1.0), z)
            for r1 in range(deg + 1)]


def test_wright_form_needs_positive_times():
    spec = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        frac_skellam_pmf_wright(spec, 0.0, 1.0, 0)


def test_moments_symmetry_and_classical_branch():
    spec = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
    mean, _ = frac_skellam_moments(spec, 1.3, 1.3)
    assert mean == pytest.approx(0.0, abs=1e-15)

    classical = FracSkellamSpec(1.5, 0.4, 1.0, 1.0)
    mean, var = frac_skellam_moments(classical, 2.0, 1.0)
    assert mean == pytest.approx(1.5 * 2.0 - 0.4 * 1.0)
    assert var == pytest.approx(1.5 * 2.0 + 0.4 * 1.0)
    _, var_q = frac_skellam_moments(classical, 2.0, 1.0, "quadratic")
    assert var_q == pytest.approx(var)


def test_moment_forms_coincide_at_unit_scale():
    # lam t^alpha = 1 makes the printed and quadratic second-order terms equal
    spec = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
    assert frac_skellam_moments(spec, 1.0, 1.0, "printed")[1] == pytest.approx(
        frac_skellam_moments(spec, 1.0, 1.0, "quadratic")[1]
    )
    with pytest.raises(ValueError):
        frac_skellam_moments(spec, 1.0, 1.0, "bogus")


def test_moments_default_to_quadratic_form():
    # away from lam t^alpha = 1 the two forms differ; the default is the one
    # the library's own frac-variance identities support
    spec = FracSkellamSpec(1.3, 0.6, 0.6, 0.6)
    quadratic = frac_skellam_moments(spec, 1.5, 1.5, "quadratic")
    assert frac_skellam_moments(spec, 1.5, 1.5) == quadratic
    assert quadratic[1] != frac_skellam_moments(spec, 1.5, 1.5, "printed")[1]


def test_single_sided_mean_monte_carlo():
    # lam2 -> 0 limit checked against the one-sided fractional mean
    spec = FracSkellamSpec(1.0, 1e-12, 0.5, 0.5)
    batch = frac_skellam_sample(spec, 1.0, 1.0, 200_000, seed=61)
    x = batch.values.astype(float)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - 1.1283791670955126) < 5 * se
