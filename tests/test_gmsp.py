"""GMSP samplers and closed forms against convolution / DP oracles."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skellam_lab import (
    JumpSpec,
    TriangularArraySpec,
    gmsp_array_sample,
    gmsp_cf,
    gmsp_compound_equalrate_sample,
    gmsp_compound_peraxis_sample,
    gmsp_lattice_pmf,
    gmsp_moments,
    gmsp_pgf,
    gmsp_sample,
    msp_pmf,
)
from skellam_lab.records import LatticePMF
from skellam_lab.special import TruncationError, poisson_pmf
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
    # the msp-bessel-oracle convolution stops at the first product that
    # underflows past both modes; the full 400-term sum is the reference
    from skellam_lab.identities import _skellam_conv

    for a in (0.5, 1.2, 3.0, 6.0, 40.0):
        for b in (0.01, 1.0, 6.0, 50.0):
            for n in range(-25, 26):
                assert _skellam_conv(n, a, b) == skellam_conv(n, a, b)


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
    table = gmsp_lattice_pmf(JumpSpec({1: (700.0,)}), (1.0,))
    assert abs(math.fsum(table.probs) + table.tail_mass - 1.0) <= 1e-12
    assert table.prob(700) == pytest.approx(poisson_pmf(700, 700.0), rel=1e-9)
    # e^-709 is subnormal: the recurrence would start from a value with lost digits
    with pytest.raises(TruncationError):
        gmsp_lattice_pmf(JumpSpec({1: (709.0,)}), (1.0,))


@pytest.mark.parametrize("mean, tail_mass", [(746.0, 1e-12), (10.0, 1e-18)])
def test_lattice_pmf_refuses_instead_of_hanging(mean, tail_mass):
    # e^-746 is 0 and a tail of 1e-18 is below the rounding of 1 - sum: without
    # its guards the table loop never ends, so run it where a timeout can stop it
    code = ("import sys; from skellam_lab import JumpSpec, TruncationError, gmsp_lattice_pmf\n"
            f"try: gmsp_lattice_pmf(JumpSpec({{1: ({mean},)}}), (1.0,), tail_mass={tail_mass})\n"
            "except TruncationError: sys.exit(0)\n"
            "sys.exit(1)")
    subprocess.run([sys.executable, "-c", code], timeout=30, check=True)


def test_msp_pmf_term_overflow_raises_truncation():
    with pytest.raises(TruncationError):
        msp_pmf(0, (400.0,), (400.0,), (1.0,))


def test_lattice_pmf_requires_integer_jumps():
    with pytest.raises(ValueError):
        gmsp_lattice_pmf(JumpSpec({0.5: (1.0,)}), (1.0,))


def test_sample_matches_lattice_pmf_chi2():
    spec = JumpSpec({1: (0.6, 0.4), -1: (0.3, 0.2), 2: (0.2, 0.3)})
    t = (1.0, 1.0)
    batch = gmsp_sample(spec, t, 100_000, seed=17)
    report = lattice_chi2(batch, gmsp_lattice_pmf(spec, t))
    assert report.verdict, f"p={report.p_value}"


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
    # all grouped into one multinomial; the exact law is the 200-fold power
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
