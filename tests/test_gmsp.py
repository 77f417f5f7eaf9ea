"""GMSP samplers and closed forms against convolution / DP oracles."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from skellam_lab import (
    AltSpec,
    JumpSpec,
    TriangularArraySpec,
    alt_increment_cf,
    alt_pgf,
    alt_sample,
    gmsp_array_sample,
    gmsp_cf,
    gmsp_compound_equalrate_sample,
    gmsp_compound_peraxis_sample,
    gmsp_lattice_pmf,
    gmsp_moments,
    gmsp_pgf,
    gmsp_sample,
    msp_pmf,
    scaled_poisson_convolution,
)
from skellam_lab.gmsp import array_law, array_sums, compound_sums, poisson_counts
from skellam_lab.records import LatticePMF, SampleBatch, choice_cdf, make_rng
from skellam_lab.special import TruncationError, grow_table, poisson_entries, poisson_pmf
from skellam_lab.stats import lattice_chi2, lattice_chi2_two_sample


def skellam_conv(n, a, b, terms=400):
    """Brute-force convolution sum_l Pois_a(l + n+) Pois_b(l + n-)."""
    n_plus, n_minus = max(n, 0), max(-n, 0)
    return math.fsum(
        poisson_pmf(n_plus + l, a) * poisson_pmf(n_minus + l, b) for l in range(terms)
    )


SPEC2 = JumpSpec({1: (1.0, 2.0), -1: (0.5, 0.5)})


def test_jump_spec_validation():
    with pytest.raises(ValueError):
        JumpSpec({})
    with pytest.raises(ValueError):
        JumpSpec({0: (1.0,)})
    with pytest.raises(ValueError):
        JumpSpec({1: (1.0,), 2: (1.0, 1.0)})
    with pytest.raises(ValueError):
        JumpSpec({1: (0.0,)})


def test_sample_at_time_zero():
    batch = gmsp_sample(SPEC2, (0.0, 0.0), 50, seed=3)
    assert np.all(batch.values == 0)


def test_sample_reproducible():
    a = gmsp_sample(SPEC2, (1.0, 1.0), 100, seed=9)
    b = gmsp_sample(SPEC2, (1.0, 1.0), 100, seed=9)
    assert np.array_equal(a.values, b.values)


def test_single_jump_is_poisson_chi2():
    spec = JumpSpec({1: (1.0,)})
    batch = gmsp_sample(spec, (1.0,), 100_000, seed=11)
    probs = np.array([poisson_pmf(k, 1.0) for k in range(12)])
    report = lattice_chi2(batch, LatticePMF(0, probs))
    assert report.verdict, f"p={report.p_value}"


def test_symmetric_spec_has_zero_mean():
    spec = JumpSpec({1: (1.0, 0.5), -1: (1.0, 0.5)})
    batch = gmsp_sample(spec, (1.0, 1.0), 100_000, seed=5)
    _, var, _ = gmsp_moments(spec, (1.0, 1.0), (1.0, 1.0))
    se = math.sqrt(var / batch.n)
    assert abs(batch.values.mean()) < 4 * se


def test_pgf_examples():
    assert gmsp_pgf(SPEC2, (1.0, 1.0), 1.0) == pytest.approx(1.0)
    assert gmsp_pgf(SPEC2, (0.0, 0.0), 0.37) == pytest.approx(1.0)
    spec = JumpSpec({1: (1.0, 2.0)})
    assert gmsp_pgf(spec, (1.0, 1.0), 0.5) == pytest.approx(math.exp(-1.5), rel=1e-14)
    with pytest.raises(ValueError):
        gmsp_pgf(SPEC2, (1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        gmsp_pgf(SPEC2, (1.0, 1.0), 1.5)


def test_pgf_above_the_float_range_raises():
    # exponent 1e-3 - 1 + 1e3 - 1 = 998: e^998 is past the float range
    spec = JumpSpec({1: (1.0,), -1: (1.0,)})
    with pytest.raises(TruncationError, match="above the float range"):
        gmsp_pgf(spec, [1.0], 1e-3)
    with pytest.raises(TruncationError, match="above the float range"):
        alt_pgf(AltSpec({1: 1.0, -1: 1.0}), {1: 1.0, -1: 1.0}, 1e-3)
    # a jump with mean 0 contributes nothing, even where u^j overflows
    assert gmsp_pgf(JumpSpec({1: (1.0,), -200: (1.0,)}), [0.0], 0.01) == 1.0
    # e^708 is still a float
    assert gmsp_pgf(spec, [1.0], 1.0 / 710.0) == pytest.approx(
        math.exp(1.0 / 710.0 - 1.0 + 709.0), rel=1e-12)


def test_cf_examples():
    assert gmsp_cf(SPEC2, (1.0, 1.0), 0.0) == pytest.approx(1.0)
    spec = JumpSpec({1: (1.0,), -1: (1.0,)})
    for u in (0.3, 1.0, 2.2):
        value = gmsp_cf(spec, (1.0,), u)
        assert value.imag == pytest.approx(0.0, abs=1e-15)
        assert value.real == pytest.approx(math.exp(2 * (math.cos(u) - 1)), rel=1e-12)
    z = gmsp_cf(SPEC2, (1.0, 1.0), 0.7)
    assert gmsp_cf(SPEC2, (1.0, 1.0), -0.7) == pytest.approx(z.conjugate())


def test_cf_is_product_over_jumps():
    # exp(sum_j mu_j (e^{iuj}-1)) must equal the product of per-jump factors
    specs = [
        SPEC2,
        JumpSpec({1: (0.5,), -1: (0.25,), 2: (0.4,)}),
        JumpSpec({0.5: (1.0, 0.2), -1.5: (0.3, 0.3)}),  # non-integer jump
    ]
    for spec in specs:
        t = np.full(spec.dim, 0.8)
        for u in np.arange(-3.0, 3.01, 0.25):
            product = 1.0 + 0.0j
            for j, lam in spec.jumps.items():
                product *= np.exp(np.dot(lam, t) * (np.exp(1j * u * j) - 1.0))
            assert abs(gmsp_cf(spec, t, u) - product) < 1e-12


def test_moments_examples():
    mean, var, cov = gmsp_moments(SPEC2, (1.0, 1.0), (1.0, 1.0))
    assert (mean, var) == (pytest.approx(2.0), pytest.approx(4.0))
    assert cov == pytest.approx(var)
    mean0, var0, cov0 = gmsp_moments(SPEC2, (0.0, 0.0), (0.0, 0.0))
    assert (mean0, var0, cov0) == (0.0, 0.0, 0.0)


def test_msp_pmf_center_value():
    # Lam1.t = Lam2.t = 1: e^{-2} I_0(2), against the convolution oracle
    p = msp_pmf(0, (1.0,), (1.0,), (1.0,))
    assert p == pytest.approx(0.308508322553671, abs=1e-10)
    assert p == pytest.approx(skellam_conv(0, 1.0, 1.0), abs=1e-10)


def test_msp_pmf_symmetry():
    for n in range(11):
        assert msp_pmf(n, (1.0, 0.5), (1.0, 0.5), (1.0, 2.0)) == pytest.approx(
            msp_pmf(-n, (1.0, 0.5), (1.0, 0.5), (1.0, 2.0)), rel=1e-12
        )


def test_msp_pmf_convolution_oracle():
    for a_rate in (0.5, 3.0):
        for b_rate in (1.0, 3.0):
            for t in ((1.0, 1.0), (2.0, 0.5)):
                r1 = (a_rate, a_rate)
                r2 = (b_rate, b_rate)
                a = np.dot(r1, t)
                b = np.dot(r2, t)
                for n in range(-20, 21):
                    assert msp_pmf(n, r1, r2, t) == pytest.approx(
                        skellam_conv(n, a, b), abs=1e-10
                    )


def test_identity_oracle_stops_early_at_the_same_sum():
    # msp-bessel-oracle compares with the lattice convolution, whose Poisson
    # tables stop at their tail; the full 400-term sum is the reference
    for a in (0.5, 1.2, 3.0, 6.0, 40.0):
        for b in (0.01, 1.0, 6.0, 50.0):
            table = scaled_poisson_convolution({1: a, -1: b})
            for n in range(-25, 26):
                assert table.prob(n) == pytest.approx(skellam_conv(n, a, b), rel=0, abs=1e-15)


def test_msp_pmf_degenerate_branches():
    # zero time on one component reduces to a plain (negated) Poisson
    assert msp_pmf(3, (1.0, 1.0), (2.0, 2.0), (0.0, 0.0)) == poisson_pmf(3, 0.0)
    spec_t = (1.5, 0.0)
    p = msp_pmf(2, (1.0, 1.0), (1e-12, 1.0), spec_t)
    assert p == pytest.approx(poisson_pmf(2, 1.5), rel=1e-9)


def test_msp_pmf_normalizes():
    total = math.fsum(msp_pmf(n, (2.0, 1.0), (0.5, 1.5), (1.0, 1.0)) for n in range(-80, 81))
    assert total >= 1 - 1e-9


def test_lattice_pmf_matches_closed_forms():
    poisson_spec = JumpSpec({1: (0.7, 0.5)})
    table = gmsp_lattice_pmf(poisson_spec, (1.0, 2.0))
    assert table.tail_mass <= 1e-12
    for n in range(10):
        assert table.prob(n) == pytest.approx(poisson_pmf(n, 1.7), abs=1e-12)

    skellam_spec = JumpSpec({1: (1.0, 0.5), -1: (0.5, 0.5)})
    table = gmsp_lattice_pmf(skellam_spec, (1.0, 1.0))
    for n in range(-12, 13):
        assert table.prob(n) == pytest.approx(
            msp_pmf(n, (1.0, 0.5), (0.5, 0.5), (1.0, 1.0)), abs=1e-10
        )


def test_lattice_pmf_at_the_edge_of_the_float_range():
    # e^-mu is subnormal from mu = 709 and 0 from 745.14; the table starts
    # wherever its log-space restarts find the pmf in the float range.  At
    # 9000 the head is subnormal for thousands of entries: a table that took
    # that for its tail would fail the sum.
    for mu in (0.5, 1.0, 10.0, 100.0, 700.0, 730.0, 744.0, 745.0, 746.0,
               1000.0, 3000.0, 5000.0, 9000.0):
        table = gmsp_lattice_pmf(JumpSpec({1: (mu,)}), (1.0,))
        exact = scipy.stats.poisson.pmf(table.support, mu)
        assert np.max(np.abs(table.probs - exact)) <= 1e-12, mu
        mode = int(mu)
        assert table.prob(mode) == pytest.approx(scipy.stats.poisson.pmf(mode, mu), rel=1e-10)
        assert abs(math.fsum(table.probs) + table.tail_mass - 1.0) <= 1e-11, mu


@pytest.mark.parametrize("mean", [9200.0, 1e5])
def test_lattice_pmf_refuses_instead_of_hanging(mean):
    # past a mean of about 9,100 the table would pass its 10,000-entry cap
    # before its tail; run it where a timeout can stop a loop that
    # does not end
    code = ("import sys; from skellam_lab import JumpSpec, TruncationError, gmsp_lattice_pmf\n"
            f"try: gmsp_lattice_pmf(JumpSpec({{1: ({mean},)}}), (1.0,))\n"
            "except TruncationError: sys.exit(0)\n"
            "sys.exit(1)")
    subprocess.run([sys.executable, "-c", code], timeout=30, check=True)


def test_msp_pmf_term_overflow_raises_truncation():
    # a Bessel series of more than 10,000 terms: x = 4e6 needs about 16,700
    with pytest.raises(TruncationError, match="10000 terms"):
        msp_pmf(0, (1e6, 1e6), (1e6, 1e6), (1.0, 1.0))


def test_msp_pmf_refuses_non_finite_means():
    # finite rates whose mean overflows
    with pytest.raises(ValueError, match="finite"):
        msp_pmf(0, (1e308,), (1.0,), (10.0,))
    with pytest.raises(ValueError, match="finite"):
        msp_pmf(0, (1e308,), (0.0,), (10.0,))


def test_lattice_pmf_requires_integer_jumps():
    with pytest.raises(ValueError):
        gmsp_lattice_pmf(JumpSpec({0.5: (1.0,)}), (1.0,))


def test_sample_matches_lattice_pmf_chi2():
    spec = JumpSpec({1: (0.6, 0.4), -1: (0.3, 0.2), 2: (0.2, 0.3)})
    t = (1.0, 1.0)
    batch = gmsp_sample(spec, t, 100_000, seed=17)
    report = lattice_chi2(batch, gmsp_lattice_pmf(spec, t))
    assert report.verdict, f"p={report.p_value}"


def direct_poisson_law(mean):
    """Pois(k; mean) from math.exp and lgamma alone, k = 0, 1, ... until past the
    mean and below 1e-18."""
    probs = []
    for k in range(10_000):
        probs.append(math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0)))
        if k > mean and probs[-1] < 1e-18:
            return LatticePMF(0, np.array(probs))
    raise AssertionError("the table did not end")


# 300.0 is the first mean that poisson_counts hands to rng.poisson
POISSON_LAW_MEANS = (0.3, 9.99, 299.9, 300.0)


def _lattice_samplers_of(jump_rates):
    """The four samplers of one law: sum_j j Poisson(2 lam_j), as a GMSP with rates
    (lam_j, lam_j) at t = (1, 1), both compound forms, and the alternate process."""
    spec = JumpSpec({j: (lam, lam) for j, lam in jump_rates.items()})
    return spec, {
        "gmsp": lambda n, seed: gmsp_sample(spec, (1.0, 1.0), n, seed),
        "peraxis": lambda n, seed: gmsp_compound_peraxis_sample(spec, (1.0, 1.0), n, seed),
        "equalrate": lambda n, seed: gmsp_compound_equalrate_sample(jump_rates, 2, (1.0, 1.0),
                                                                    n, seed),
        "alt": lambda n, seed: alt_sample(AltSpec({j: 2 * lam for j, lam in jump_rates.items()}),
                                          {j: 1.0 for j in jump_rates}, n, seed),
    }


# every Poisson mean below 10, and means from 6.75 (the per-axis clocks) to 13.5
# (the equal-rate clock): all on the table
LAW_RATES = {"table": {1: 0.7, -1: 0.5, 2: 0.2}, "mid": {1: 5.5, -1: 1.0, 3: 0.25}}
# gmsp_sample and alt_sample draw jump 1 (mean 310) by rng.poisson and jump -1
# (mean 2) by the table; a compound form there would draw about 310 jumps a draw
BOTH_SIDES_RATES = {1: 155.0, -1: 1.0}


def lattice_law_reports(n, seeds):
    """(label, lattice_chi2 report) of poisson_counts at each POISSON_LAW_MEANS against
    direct_poisson_law, of every sampler of each LAW_RATES law and of gmsp_sample
    and alt_sample of BOTH_SIDES_RATES against gmsp_lattice_pmf, at each seed:
    tier-1 runs them at n = 100,000, CI at 1,000,000."""
    laws = {**LAW_RATES, "both-sides": BOTH_SIDES_RATES}
    for seed in seeds:
        for mean in POISSON_LAW_MEANS:
            batch = SampleBatch(poisson_counts(make_rng(seed), mean, n), seed)
            yield f"poisson-{mean}-seed{seed}", lattice_chi2(batch, direct_poisson_law(mean))
        for name, rates in laws.items():
            spec, samplers = _lattice_samplers_of(rates)
            law = gmsp_lattice_pmf(spec, (1.0, 1.0))
            for sampler, draw in samplers.items():
                if name == "both-sides" and sampler in ("peraxis", "equalrate"):
                    continue
                yield f"{sampler}-{name}-seed{seed}", lattice_chi2(draw(n, seed), law)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lattice_draws_follow_their_exact_law(seed):
    rejected = [(label, report.p_value) for label, report in lattice_law_reports(100_000, [seed])
                if not report.verdict]
    assert not rejected


@pytest.mark.parametrize("mean", [1e-8, 0.3, 9.99, 299.9])
def test_poisson_table_inversion_has_the_poisson_law(mean):
    # a uniform is k 2**-53 for k < 2**53, so the inversion draws count i with
    # probability 2**-53 times the number of grid points in [cdf[i-1], cdf[i]);
    # at mean 1e-8 a chi-square has one bin at any n a test can draw.  The log
    # forms k log(mean) - mean - lgamma(k + 1) of both laws round at exponents
    # near 2,000 at mean 300, so the laws there agree to about 1e-13
    cdf = choice_cdf(grow_table([], poisson_entries(mean)))
    drawn = np.diff(np.ceil(np.ldexp(cdf, 53)), prepend=0.0) / 2.0**53
    exact = direct_poisson_law(mean).probs
    size = max(drawn.size, exact.size)
    drawn, exact = np.pad(drawn, (0, size - drawn.size)), np.pad(exact, (0, size - exact.size))
    assert drawn.sum() == 1.0 and np.all(np.abs(drawn - exact) <= (1e-14 if mean < 10 else 1e-13))


def test_compound_jump_labels_are_generator_choice():
    jumps, probs = np.array([-1.0, 1.0, 2.0]), np.array([0.5, 0.3, 0.2])
    got = compound_sums(make_rng(4), make_rng(5), 2.5, 3000, jumps, probs)
    counts = poisson_counts(make_rng(4), 2.5, 3000)
    x = make_rng(5).choice(jumps, size=int(counts.sum()), p=probs)
    want = np.bincount(np.repeat(np.arange(3000), counts), weights=x, minlength=3000)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 9])
def test_array_sums_draw_what_generator_choice_drew(seed):
    # the stream these draws took before the guide-table inversion
    law = array_law(100, {0: 1.0, 1: 1.0}, lambda l, k, j: {1: 0.04, -1: 0.025}[j],
                    np.array([-1.0, 1.0]))
    probs = law.probs / law.probs.sum()
    want = law.start + make_rng(seed).choice(probs.size, 20_000, p=probs)
    assert np.array_equal(array_sums(law, 20_000, seed), want)


def test_compound_peraxis_at_zero():
    batch = gmsp_compound_peraxis_sample(SPEC2, (0.0, 0.0), 25, seed=0)
    assert np.all(batch.values == 0)


def test_compound_peraxis_matches_direct_sampler():
    spec = JumpSpec({1: (0.7, 0.4), -1: (0.5, 0.6), 2: (0.2, 0.1)})
    t = (1.0, 1.5)
    a = gmsp_sample(spec, t, 100_000, seed=101)
    b = gmsp_compound_peraxis_sample(spec, t, 100_000, seed=202)
    report = lattice_chi2_two_sample(a, b)
    assert report.verdict, f"p={report.p_value}"


def test_compound_peraxis_single_jump_is_poisson():
    spec = JumpSpec({1: (0.8, 0.7)})
    batch = gmsp_compound_peraxis_sample(spec, (1.0, 1.0), 100_000, seed=7)
    probs = np.array([poisson_pmf(k, 1.5) for k in range(14)])
    report = lattice_chi2(batch, LatticePMF(0, probs))
    assert report.verdict, f"p={report.p_value}"


def test_compound_equalrate_at_zero():
    batch = gmsp_compound_equalrate_sample({1: 1.0, -1: 1.0}, 2, (0.0, 0.0), 25, seed=0)
    assert np.all(batch.values == 0)


def test_compound_equalrate_matches_skellam_pmf():
    # unit rates over two axes: Lam1.t = Lam2.t = 2
    batch = gmsp_compound_equalrate_sample({1: 1.0, -1: 1.0}, 2, (1.0, 1.0), 100_000, seed=23)
    probs = np.array([skellam_conv(n, 2.0, 2.0) for n in range(-14, 15)])
    report = lattice_chi2(batch, LatticePMF(-14, probs))
    assert report.verdict, f"p={report.p_value}"


def test_compound_equalrate_pgf_check():
    jump_rates = {1: 0.8, -1: 0.4, 2: 0.3}
    t = (0.8, 0.6)
    spec = JumpSpec({j: (r, r) for j, r in jump_rates.items()})
    batch = gmsp_compound_equalrate_sample(jump_rates, 2, t, 100_000, seed=31)
    u = 0.5
    emp = np.mean(u ** batch.values.astype(float))
    se = np.std(u ** batch.values.astype(float)) / math.sqrt(batch.n)
    assert abs(emp - gmsp_pgf(spec, t, u)) < 4 * se


def test_moment_invariant_for_every_sampler():
    spec = JumpSpec({1: (0.7, 0.4), -1: (0.5, 0.6)})
    t = (1.0, 1.5)
    mean, var, _ = gmsp_moments(spec, t, t)
    batches = [
        gmsp_sample(spec, t, 100_000, seed=41),
        gmsp_compound_peraxis_sample(spec, t, 100_000, seed=43),
    ]
    eq_rates = {1: 0.7, -1: 0.5}
    eq_spec = JumpSpec({j: (r, r) for j, r in eq_rates.items()})
    eq_mean, eq_var, _ = gmsp_moments(eq_spec, t, t)
    eq_batch = gmsp_compound_equalrate_sample(eq_rates, 2, t, 100_000, seed=47)
    for batch, m, v in [(b, mean, var) for b in batches] + [(eq_batch, eq_mean, eq_var)]:
        x = batch.values.astype(float)
        se_mean = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - m) < 5 * se_mean
        s2 = x.var(ddof=1)
        m4 = np.mean((x - x.mean()) ** 4)
        se_var = math.sqrt(max(m4 - s2**2, 0.0) / x.size)
        assert abs(s2 - v) < 5 * se_var


def test_integer_jump_sets_sum_the_same_counts_in_int64():
    # one poisson_counts per jump in jump order, added as int(j) * counts: the
    # draws are the exact integer sums of the stream the float loop drew
    spec = JumpSpec({1: (0.7, 0.4), -1: (0.5, 0.6), 2: (0.2, 0.3)})
    batch = gmsp_sample(spec, (1.0, 1.5), 5000, seed=8)
    rng = make_rng(8)
    want = sum(j * poisson_counts(rng, mu, 5000) for j, mu in zip((-1, 1, 2), (1.4, 1.3, 0.65)))
    assert batch.values.dtype == np.int64 and np.array_equal(batch.values, want)
    # a non-integer jump set draws the same counts and sums them in float64
    floats = gmsp_sample(JumpSpec({1: (0.7, 0.4), -1: (0.5, 0.6), 2.5: (0.2, 0.3)}),
                         (1.0, 1.5), 5000, seed=8)
    rng = make_rng(8)
    counts = [poisson_counts(rng, mu, 5000) for mu in (1.4, 1.3, 0.65)]
    assert floats.values.dtype == np.float64
    assert np.array_equal(floats.values, -1.0 * counts[0] + 1.0 * counts[1] + 2.5 * counts[2])


_PAST_2_53 = r"lattice draws are exact only below 2\*\*53"


def _lattice_samplers(jump_rates, n, seed):
    """The lattice samplers on one axis, each at ``jump_rates``, keyed by name."""
    spec = JumpSpec({j: (rate,) for j, rate in jump_rates.items()})
    return {
        "gmsp": lambda: gmsp_sample(spec, (1.0,), n, seed),
        "alt": lambda: alt_sample(AltSpec(jump_rates), {j: 1.0 for j in jump_rates}, n, seed),
        "peraxis": lambda: gmsp_compound_peraxis_sample(spec, (1.0,), n, seed),
        "equalrate": lambda: gmsp_compound_equalrate_sample(jump_rates, 1, (1.0,), n, seed),
    }


@pytest.mark.parametrize("jump_rates", [{1e300: 1.0}, {2.0**53: 1.0, 1.0: 1.0}],
                         ids=["1e300", "2^53-and-1"])
@pytest.mark.parametrize("sampler", ["gmsp", "alt", "peraxis", "equalrate"])
def test_lattice_draws_that_could_reach_2_53_are_refused(jump_rates, sampler):
    # these wrote INT64_MIN (after a numpy cast warning), or a sum that lost
    # the count of jump 1, and exited 0
    with pytest.raises(ValueError, match=_PAST_2_53):
        _lattice_samplers(jump_rates, 4, 0)[sampler]()


@pytest.mark.parametrize("sampler", [
    lambda: gmsp_compound_peraxis_sample(JumpSpec({0.5: (1.0, 1.0), 1e308: (1.0, 1.0)}),
                                         (1.0, 1.0), 5, 0),
    # axis sums of +inf and -inf add to nan
    lambda: gmsp_compound_peraxis_sample(
        JumpSpec({0.5: (1.0, 1.0), 1e308: (3.0, 1.0), -1e308: (1.0, 3.0)}), (1.0, 1.0), 20, 0),
    lambda: gmsp_compound_equalrate_sample({0.5: 1.0, 1e308: 3.0}, 1, (1.0,), 5, 0),
    lambda: gmsp_sample(JumpSpec({0.5: (1.0, 1.0), 1e308: (3.0, 1.0)}), (1.0, 1.0), 5, 0),
    lambda: alt_sample(AltSpec({0.5: 1.0, 1e308: 3.0}), {0.5: 1.0, 1e308: 1.0}, 5, 0),
    # products of +inf and -inf add to nan
    lambda: gmsp_sample(JumpSpec({0.5: (1.0, 1.0), 1e308: (3.0, 1.0), -1e308: (1.0, 3.0)}),
                        (1.0, 1.0), 20, 0),
], ids=["peraxis", "peraxis-both-signs", "equalrate", "gmsp", "alt", "gmsp-both-signs"])
def test_float_compound_draws_past_the_float_range_are_refused(sampler):
    # a jump set with a non-integer jump draws floats: these returned inf or
    # nan draws after a numpy warning (peraxis-both-signs and each gmsp_sample
    # case) or with none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range"):
            sampler()


def test_a_frequency_past_the_float_range_is_refused():
    # u times the jump 2 past 1.8e308 made e^{iuj} a NaN after numpy's warning,
    # and the CLI then refused to write it
    spec = JumpSpec({2: (0.7, 0.4), -1: (0.5, 0.6)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cf in (lambda u: gmsp_cf(spec, (1.0, 1.0), u),
                   lambda u: alt_increment_cf(AltSpec({2: 0.7}), {2: 0.0}, {2: 1.0}, u)):
            with pytest.raises(ValueError, match=r"^u = 1e\+308 times a jump leaves the float range$"):
                cf(1e308)
        # 1e308 times each jump of a set below 1.7 stays finite
        assert abs(gmsp_cf(JumpSpec({1.5: (1.0,), -1: (1.0,)}), (1.0,), 1e308)) <= 1.0


def test_lattice_draws_just_below_2_53_are_exact():
    # at seed 14 every count of either jump is at most 1, and the compound forms
    # draw at most one jump per draw: the bounds are 2**53 - 1 and 2**53 - 2
    big = 2**53 - 2
    batches = {name: draw() for name, draw in _lattice_samplers({big: 0.3, 1: 0.3}, 6, 14).items()}
    rng = make_rng(14)
    want = sum(j * poisson_counts(rng, 0.3, 6).astype(object) for j in (1, big))
    assert batches["gmsp"].values.tolist() == want.tolist()
    assert 2**53 - 1 in want.tolist()  # one draw sits at the bound itself
    assert np.array_equal(batches["alt"].values, batches["gmsp"].values)
    assert set(batches["peraxis"].values.tolist()) == {0, 1, big}
    assert np.array_equal(batches["equalrate"].values, batches["peraxis"].values)
    assert all(b.values.dtype == np.int64 for b in batches.values())
    # one more unit of jump reaches 2**53 at the same counts: refused
    for name, draw in _lattice_samplers({big + 2: 0.3, 1: 0.3}, 6, 14).items():
        with pytest.raises(ValueError, match=_PAST_2_53):
            draw()


def test_array_sample_zero_scale_window():
    spec = TriangularArraySpec(n=3, probs=lambda l, j, n: 0.1)
    batch = gmsp_array_sample(spec, [1, -1], (0.1, 0.2), 10, seed=0)
    assert np.all(batch.values == 0)


def test_array_sample_rejects_bad_rule():
    spec = TriangularArraySpec(n=10, probs=lambda l, j, n: 0.6)
    with pytest.raises(ValueError):
        gmsp_array_sample(spec, [1, -1], (1.0,), 10, seed=0)  # sums to 1.2
    with pytest.raises(ValueError):
        TriangularArraySpec(n=0, probs=lambda l, j, n: 0.1)


def test_array_single_jump_poisson_binomial_oracle():
    # l-dependent success probabilities over two axes; count law by exact DP
    n_scale, t = 10, (1.0, 1.0)
    rule = lambda l, j, n: (0.04 + 0.02 * ((l * 7) % 3)) if j == 1 else 0.0
    probs_seq = []
    for _ in range(2):  # two axes, [n t_k] = 10 summands each
        probs_seq.extend(0.04 + 0.02 * ((l * 7) % 3) for l in range(1, 11))
    dist = np.array([1.0])
    for p in probs_seq:
        dist = np.convolve(dist, [1 - p, p])
    spec = TriangularArraySpec(n=n_scale, probs=rule)
    batch = gmsp_array_sample(spec, [1], t, 50_000, seed=53)
    report = lattice_chi2(batch, LatticePMF(0, dist))
    assert report.verdict, f"p={report.p_value}"


def test_array_two_axis_law_is_the_convolution_power():
    # array-gmsp's rule at scale 100: 2 axes x 100 iid three-point summands,
    # all one distinct row; the exact law is the 200-fold power
    lam, scale = {1: 4.0, -1: 2.5}, 100
    step = np.array([lam[-1] / scale, 1.0 - (lam[1] + lam[-1]) / scale, lam[1] / scale])
    law, power = np.array([1.0]), 2 * scale
    while power:  # binary powering with np.convolve
        if power & 1:
            law = np.convolve(law, step)
        step = np.convolve(step, step)
        power >>= 1
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    spec = TriangularArraySpec(n=scale, probs=lambda l, j, n: lam[j] / n)
    # 1e6 draws reject a kernel that drops one of the 200 summands
    batch = gmsp_array_sample(spec, [1, -1], (1.0, 1.0), 1_000_000, seed=61)
    report = lattice_chi2(batch, LatticePMF(-2 * scale, law))
    assert report.verdict, f"p={report.p_value}"


@given(st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_cf_modulus_bounded(u):
    spec = JumpSpec({1: (0.5,), -2: (0.3,), 0.7: (0.2,)})
    assert abs(gmsp_cf(spec, (1.3,), u)) <= 1.0 + 1e-12
