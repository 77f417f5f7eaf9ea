"""Named distributional-identity checks behind `verify` and the acceptance suite.

Each identity runs a fixed protocol (parameters pinned here) at a caller-chosen
seed and sample count and returns a :class:`TestReport`.  Exact identities
compare against a critical gap; statistical ones report a p-value at the one
level :data:`skellam_lab.stats.LEVEL`.  Each identity imports the modules it
runs when it runs, so `verify` loads only those.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .records import LatticePMF, TestReport, as_count, as_scales, as_times, make_rng
from .special import frac_poisson_entries, grow_table

__all__ = ["IDENTITIES", "array_tvs", "run_identity"]

# jump -> per-axis rates of the three-jump spec of the compound-representation checks
_SPEC3 = {1: (0.7, 0.4), -1: (0.5, 0.6), 2: (0.2, 0.3)}
_EQ_RATES = {1: 0.7, -1: 0.5, 2: 0.2}
_EQ_SPEC = {j: (r, r) for j, r in _EQ_RATES.items()}
_T2 = (1.0, 1.0)


def _exact_report(identity, seed, n, gap, critical):
    return TestReport(identity=identity, statistic=float(gap), p_value=None,
                      n_samples=int(n), seed=as_count(seed, "seeds"), verdict=gap <= critical,
                      critical=critical)


def msp_bessel_oracle(seed=0, n=0):
    """Bessel pmf vs the Poisson convolution of its two sides, |n| <= 20."""
    from .altskellam import twoparam_skellam_pmf_table
    from .gmsp import msp_pmf_table, scaled_poisson_convolution
    gap = 0.0
    count = 0
    for la in (0.5, 1.0, 3.0):
        for lb in (0.5, 1.0, 3.0):
            for t in ((1.0, 1.0), (2.0, 0.5)):
                msp = scaled_poisson_convolution({1: la * sum(t), -1: lb * sum(t)})
                twoparam = scaled_poisson_convolution({1: la * t[0], -1: lb * t[1]})
                ks = range(-20, 21)
                for k, p_msp, p_twoparam in zip(ks, msp_pmf_table(ks, (la, la), (lb, lb), t),
                                                twoparam_skellam_pmf_table(ks, la, lb, t[0], t[1])):
                    gap = max(gap, abs(p_msp - msp.prob(k)))
                    gap = max(gap, abs(p_twoparam - twoparam.prob(k)))
                    count += 2
    return _exact_report("msp-bessel-oracle", seed, count, gap, 1e-10)


def cf_product(seed=0, n=0):
    """exp-sum CF equals the product of per-jump factors on a u-grid."""
    from .gmsp import JumpSpec, gmsp_cf
    specs = [
        JumpSpec({1: (1.0, 2.0), -1: (0.5, 0.5)}),
        JumpSpec({1: (0.5,), -1: (0.25,), 2: (0.4,)}),
        JumpSpec({0.5: (1.0, 0.2), -1.5: (0.3, 0.3)}),
    ]
    gap = 0.0
    count = 0
    for spec in specs:
        t = np.full(spec.dim, 0.8)
        for u in np.arange(-3.0, 3.0 + 1e-9, 0.25):
            product = 1.0 + 0.0j
            for j, lam in spec.jumps.items():
                product *= np.exp(np.dot(lam, t) * (np.exp(1j * u * j) - 1.0))
            gap = max(gap, abs(gmsp_cf(spec, t, u) - product))
            count += 1
    return _exact_report("cf-product", seed, count, gap, 1e-12)


def compound_peraxis(seed=0, n=100_000):
    from .gmsp import JumpSpec, gmsp_compound_peraxis_sample, gmsp_lattice_pmf
    from .stats import lattice_chi2
    spec = JumpSpec(_SPEC3)
    batch = gmsp_compound_peraxis_sample(spec, _T2, n, seed=seed)
    return lattice_chi2(batch, gmsp_lattice_pmf(spec, _T2), identity="compound-peraxis")


def compound_equalrate(seed=0, n=100_000):
    from .gmsp import JumpSpec, gmsp_compound_equalrate_sample, gmsp_lattice_pmf
    from .stats import lattice_chi2
    batch = gmsp_compound_equalrate_sample(_EQ_RATES, 2, _T2, n, seed=seed)
    return lattice_chi2(batch, gmsp_lattice_pmf(JumpSpec(_EQ_SPEC), _T2),
                        identity="compound-equalrate")


def array_tvs(spec, t, scales, n: int, seed: int) -> list[float]:
    """TV to the GMSP law of ``spec`` at t of ``n`` triangular-array draws at each of ``scales``.

    ``spec`` is a :class:`~skellam_lab.gmsp.JumpSpec` or an
    :class:`~skellam_lab.altskellam.AltSpec` (rate matrix diag(lam), t in jump
    order).  At scale s a summand on axis k takes jump j with probability
    rate_matrix[j, k] / s, and the limit is :func:`~skellam_lab.gmsp.gmsp_lattice_pmf`.
    The histogram of n iid draws from a lattice law p is Multinomial(n, p):
    scale i draws it as one multinomial of make_rng(seed + 7 i) over the exact
    :func:`~skellam_lab.gmsp.array_law` (n < 1 is an "empty batch").
    """
    from .gmsp import array_law, gmsp_lattice_pmf
    from .stats import tv_from_counts
    pmf = gmsp_lattice_pmf(spec, t)
    if n < 1:
        raise ValueError("empty batch")
    as_scales(scales, "array scales", integer=False)
    # Python floats: the rule runs once per summand and jump
    rates = dict(zip(spec.jump_values.tolist(), spec.rate_matrix.tolist()))
    axes = dict(enumerate(as_times(t).tolist()))
    tvs = []
    for i, scale in enumerate(scales):
        exact = array_law(scale, axes, lambda l, k, j: rates[j][k] / scale, spec.jump_values)
        counts = make_rng(seed + 7 * i).multinomial(n, exact.probs / exact.probs.sum())
        tvs.append(tv_from_counts(counts, exact.start, pmf))
    return tvs


def _array_report(identity, seed, n, tvs):
    """Passes when the TVs at scales 10, 100, 1000 decrease and the last is at most 0.02.

    When they do not decrease the report fails with no critical value: the
    statistic (the scale-1000 TV) can then be small, and it did not decide the
    verdict.
    """
    decreasing = tvs[0] > tvs[1] > tvs[2]
    return TestReport(identity=identity, statistic=float(tvs[2]), p_value=None,
                      n_samples=int(n), seed=int(seed), verdict=decreasing and tvs[2] <= 0.02,
                      critical=0.02 if decreasing else None)


def array_gmsp(seed=0, n=4_000_000):
    """Triangular-array law approaches the GMSP law in total variation.

    Equal rate columns: rule p = lam_j / scale on both axes over scales 10, 100, 1000.  The
    sample count, free since :func:`array_tvs` draws one multinomial per scale, keeps
    the TV noise floor (~ sqrt(atoms / n) / 2) below the scale-100 vs 1000 gap.
    """
    from .gmsp import JumpSpec
    spec = JumpSpec({1: (4.0, 4.0), -1: (2.5, 2.5)})
    return _array_report("array-gmsp", seed, n, array_tvs(spec, _T2, (10, 100, 1000), n, seed))


def array_alt(seed=0, n=1_000_000):
    """Triangular array approaches the alternate Skellam law (rate matrix diag(lam)) in TV."""
    from .altskellam import AltSpec
    spec = AltSpec({1: 2.0, -1: 1.5})
    return _array_report("array-alt", seed, n, array_tvs(spec, _T2, (10, 100, 1000), n, seed))


def integral_cf(seed=0, n=20_000):
    """Empirical CF of the lattice integral within 4/sqrt(n) of the closed form.

    Case i draws at seed + i.
    """
    from .integrals import RectDomain, integral_cf_mpp, integral_sample
    from .stats import empirical_cf
    cases = [(np.array([1.0]), np.array([2.0])), (np.array([1.0, 0.5]), np.array([1.5, 1.0]))]
    gap = 0.0
    for i, (lam, t) in enumerate(cases):
        batch = integral_sample(lam, RectDomain(t=t, resolution=512), n, seed=seed + i)
        table = empirical_cf(batch, [0.25, 0.5, 1.0])
        for u, v in zip(table.u, table.values):
            gap = max(gap, abs(v - integral_cf_mpp(lam, t, u)))
    return _exact_report("integral-cf", seed, n, gap, 4.0 / math.sqrt(n))


def _uniform_compound(identity, integrand, compound, t, seed, n):
    """KS of the rectangle integral of ``integrand`` against t * sum X_r U_r in ``compound``'s form."""
    from .integrals import RectDomain, integral_sample, uniform_compound_sample
    from .stats import ks_two_sample
    a = integral_sample(integrand, RectDomain(t=t, resolution=512), n, seed=seed)
    b = uniform_compound_sample(compound, t, n, seed=seed + 1)
    return ks_two_sample(a, b, identity=identity)


def uniform_compound_mpp(seed=0, n=20_000):
    # one axis only: at M >= 2 the compound integral and t * sum X_r U_r differ in law
    from .integrals import CompoundSpec
    spec = CompoundSpec([1.3], [1.0, -1.0, 2.0], [0.5, 0.3, 0.2])
    return _uniform_compound("uniform-compound-mpp", spec, spec, (1.2,), seed, n)


def uniform_compound_peraxis(seed=0, n=20_000):
    from .gmsp import JumpSpec
    spec = JumpSpec({1: (0.7, 0.4), -1: (0.5, 0.6)})
    return _uniform_compound("uniform-compound-peraxis", spec, spec, (1.2, 1.0), seed, n)


def uniform_compound_equalrate(seed=0, n=20_000):
    from .gmsp import JumpSpec
    return _uniform_compound("uniform-compound-equalrate", JumpSpec(_EQ_SPEC), _EQ_RATES,
                             (1.2, 1.0), seed, n)


# (lam1, lam2, alpha, beta) of a FracSkellamSpec
_FRAC = (1.0, 1.0, 0.5, 0.5)
# (spec parameters, t) points of the moment identities and of frac-pmf, at t1 = t2 = t
_MOMENT_GRID = [((1.3, 0.6, a, a), t) for a in (0.4, 0.6, 0.8) for t in (0.5, 1.5, 3.0)]
# lattice_chi2 charges untabulated mass to the top cell; |k| <= 60 leaves none at any point
_FRAC_KMAX = 60


def frac_pmf(seed=0, n=100_000):
    """One chi-square of ``n`` draws per point at _FRAC and the grid; point i draws at seed 10 seed + i.

    Every side here has mean lam t^alpha below 30, so the sampler inverts the
    side tables this law convolves: the report checks the inversion and the
    convolution, and the clock route is checked against the same tables by
    ``clock_law_reports`` in tests/test_fractional.py.
    """
    from .fractional import FracSkellamSpec, frac_skellam_pmf_table, frac_skellam_sample
    from .stats import lattice_chi2_pooled
    ks = range(-_FRAC_KMAX, _FRAC_KMAX + 1)
    points = [(FracSkellamSpec(*params), t) for params, t in [(_FRAC, 1.0), *_MOMENT_GRID]]
    pairs = ((frac_skellam_sample(spec, t, t, n, seed=10 * seed + i),
              LatticePMF(-_FRAC_KMAX, np.array(frac_skellam_pmf_table(spec, t, t, ks))))
             for i, (spec, t) in enumerate(points))
    return lattice_chi2_pooled(pairs, seed, identity="frac-pmf")


def frac_wright(seed=0, n=0):
    from .fractional import FracSkellamSpec, frac_skellam_pmf_table, frac_skellam_pmf_wright
    spec = FracSkellamSpec(*_FRAC)
    gap = 0.0
    ks = range(-2, 3)
    for k, p in zip(ks, frac_skellam_pmf_table(spec, 1.0, 1.0, ks)):
        gap = max(gap, abs(p - frac_skellam_pmf_wright(spec, 1.0, 1.0, k)))
    return _exact_report("frac-wright", seed, 5, gap, 1e-6)


def _moment_report(identity, variance_form, which, seed=0, n=0):
    """Largest relative gap of the formula's mean (``which`` 0) or variance (1) to the exact law's.

    The report's n counts the entries of both sides' tables, each run into
    its tail; the ``n`` argument is not read.
    """
    from .fractional import FracSkellamSpec, frac_skellam_moments
    gaps, count = [], 0
    for params, t in _MOMENT_GRID:
        spec = FracSkellamSpec(*params)
        exact = np.zeros(2)
        for sign, lam, alpha in ((1, spec.lam1, spec.alpha), (-1, spec.lam2, spec.beta)):
            p = np.array(grow_table([], frac_poisson_entries(lam, t, alpha)))
            k = np.arange(p.size)
            mean = math.fsum(k * p)
            exact += (sign * mean, math.fsum((k - mean) ** 2 * p))
            count += p.size
        formula = frac_skellam_moments(spec, t, t, variance_form)[which]
        gaps.append(abs(formula - exact[which]) / abs(exact[which]))
    return _exact_report(identity, seed, count, float(np.max(gaps)), 1e-12)


frac_mean = partial(_moment_report, "frac-mean", "printed", 0)
frac_variance_printed = partial(_moment_report, "frac-variance-printed", "printed", 1)
frac_variance_quadratic = partial(_moment_report, "frac-variance-quadratic", "quadratic", 1)


def inverse_subordinator_mean(seed=0, n=100_000):
    from .fractional import inv_stable_marginal_sample
    if n < 2:
        raise ValueError(f"a z-score needs at least 2 draws, got n={n}")
    z = []
    for i, alpha in enumerate((0.3, 0.5, 0.8)):
        batch = inv_stable_marginal_sample(alpha, 1.0, n, seed=seed + i)
        se = batch.values.std() / math.sqrt(batch.n)
        z.append(abs(batch.values.mean() - 1.0 / math.gamma(alpha + 1.0)) / se)
    return _exact_report("inverse-subordinator-mean", seed, n, float(np.max(z)), 5.0)


def alt_twoparam(seed=0, n=100_000):
    from .altskellam import AltSpec, alt_sample, twoparam_skellam_pmf_table
    from .stats import lattice_chi2
    spec = AltSpec({1: 1.0, -1: 1.0})
    t = {1: 1.2, -1: 0.7}
    batch = alt_sample(spec, t, n, seed=seed)
    probs = np.array(twoparam_skellam_pmf_table(range(-12, 13), 1.0, 1.0, 1.2, 0.7))
    pmf = LatticePMF(-12, probs)
    return lattice_chi2(batch, pmf, identity="alt-twoparam")


IDENTITIES = {
    "msp-bessel-oracle": msp_bessel_oracle,
    "cf-product": cf_product,
    "compound-peraxis": compound_peraxis,
    "compound-equalrate": compound_equalrate,
    "array-gmsp": array_gmsp,
    "array-alt": array_alt,
    "integral-cf": integral_cf,
    "uniform-compound-mpp": uniform_compound_mpp,
    "uniform-compound-peraxis": uniform_compound_peraxis,
    "uniform-compound-equalrate": uniform_compound_equalrate,
    "frac-pmf": frac_pmf,
    "frac-wright": frac_wright,
    "frac-mean": frac_mean,
    "frac-variance-printed": frac_variance_printed,
    "frac-variance-quadratic": frac_variance_quadratic,
    "inverse-subordinator-mean": inverse_subordinator_mean,
    "alt-twoparam": alt_twoparam,
}


def run_identity(name: str, seed: int = 0, n: int | None = None) -> TestReport:
    if name not in IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(sorted(IDENTITIES))}")
    func = IDENTITIES[name]
    if n is None:
        return func(seed=seed)
    return func(seed=seed, n=n)
