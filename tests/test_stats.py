"""Calibration and power of the verification engine itself.

The identity suites lean on these tests: a chi-square or KS verdict is only
trustworthy once its size (under the null) and power (under a wrong law) have
been checked on known inputs.
"""

import math
import warnings

import numpy as np
import pytest

from skellam_lab import empirical_cf, ks_two_sample, lattice_chi2, stats, tv_distance
from skellam_lab.records import CFTable, LatticePMF, SampleBatch
from skellam_lab.special import poisson_pmf
from skellam_lab.stats import TestReport, _chi2_sf, lattice_chi2_two_sample


def poisson_table(mu, n_max):
    probs = np.array([poisson_pmf(n, mu) for n in range(n_max)])
    return LatticePMF(0, probs)


def test_empirical_cf_at_zero_is_one():
    batch = SampleBatch(np.array([1.0, 2.0, -3.0]), seed=0)
    table = empirical_cf(batch, [0.0, 1.0])
    assert table.values[0] == 1.0


def test_empirical_cf_of_constant_zero():
    batch = SampleBatch(np.zeros(100), seed=0)
    table = empirical_cf(batch, [-2.0, 0.3, 5.0])
    assert np.allclose(table.values, 1.0)


def _count_weighted_sum(values, ui):
    """The per-draw sum taken value by value: sum_v c_v e^{iuv} over N, v increasing."""
    counts = {}
    for v in values.astype(float).tolist():
        counts[v + 0.0] = counts.get(v + 0.0, 0) + 1  # -0.0 is the value 0.0
    x = np.array(sorted(counts))
    total = np.sum(np.array([counts[v] for v in x], dtype=float) * np.exp(1j * ui * x))
    return total.real / values.size, total.imag / values.size


@pytest.mark.parametrize("values", [
    np.random.default_rng(1).poisson(2.0, 5000) - np.random.default_rng(2).poisson(1.5, 5000),
    np.random.default_rng(3).integers(-300, 300, 5000) / 64.0,  # a lattice integral's grid
    np.random.default_rng(4).standard_normal(5000),  # every value distinct
    np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.0, -0.0]),
    np.array([0.0, 0.0]),
    np.array([-0.0, -0.0]),
])
def test_empirical_cf_matches_the_per_draw_sum_bit_for_bit(values):
    # the per-draw sum is taken as numpy's pairwise sum of the count-weighted
    # terms of the distinct values, in increasing order, then divided by N
    u = [-3.0, -0.25, -0.0, 0.0, 0.05, 1.0, 2.5]
    table = empirical_cf(SampleBatch(values, seed=0), u)
    for ui, got in zip(u, table.values):
        want = _count_weighted_sum(values, ui)
        assert (got.real.hex(), got.imag.hex()) == (want[0].hex(), want[1].hex())


@pytest.mark.parametrize("values", [
    np.random.default_rng(5).poisson(3.0, 100_000) - np.random.default_rng(6).poisson(2.0, 100_000),
    np.random.default_rng(7).integers(-300, 300, 20_000) / 64.0,  # ties on a 1/64 grid
    np.random.default_rng(8).standard_normal(20_000),  # every value distinct
], ids=["int64-lattice", "grid-64", "normal"])
def test_empirical_cf_is_within_1e_14_of_the_exactly_rounded_sum(values):
    # the bound README states: each part within 1e-14 of math.fsum of the
    # per-draw cosines (sines) over N, the exactly rounded sum of the same terms
    u = [-3.0, -0.25, 0.05, 1.0, 2.5]
    table = empirical_cf(SampleBatch(values, seed=0), u)
    x = values.astype(float).tolist()
    for ui, got in zip(u, table.values):
        assert abs(got.real - math.fsum(math.cos(ui * v) for v in x) / len(x)) <= 1e-14
        assert abs(got.imag - math.fsum(math.sin(ui * v) for v in x) / len(x)) <= 1e-14


@pytest.mark.parametrize("values", [
    np.random.default_rng(7).poisson(2.0, 20000) - 2 * np.random.default_rng(8).poisson(1.0, 20000),
    np.array([3, -2**40, 0, 2**52, 3, -1, 0], dtype=np.int64),  # spans far past its length
    np.full(9, -5, dtype=np.int64),
    np.array([2**53, 2**53 + 1, -3, 0, 0], dtype=np.int64),  # the cast makes two values one
], ids=["lattice", "wide", "constant", "cast-merge"])
def test_empirical_cf_of_an_int64_batch_is_that_of_its_float_cast(values):
    # the batch is cast to float before it is grouped, so int64 values that the
    # cast makes equal (2**53 + 1 reads as 2**53) are one value with their two counts
    u = np.arange(-4.0, 4.0, 0.35)
    got = empirical_cf(SampleBatch(values, seed=0), u)
    want = empirical_cf(SampleBatch(values.astype(float), seed=0), u)
    assert [(v.real.hex(), v.imag.hex()) for v in got.values] == \
        [(v.real.hex(), v.imag.hex()) for v in want.values]


def test_integer_batches_enter_the_lattice_tests_as_they_are():
    values = np.array([2, -1, 0, 2], dtype=np.int32)
    got = stats._integer_values(SampleBatch(values, seed=0))
    assert got.dtype == np.int64 and got.tolist() == [2, -1, 0, 2]
    assert stats._integer_values(SampleBatch(values.astype(float), seed=0)).dtype == np.int64
    with pytest.raises(ValueError, match="integer-valued"):
        stats._integer_values(SampleBatch(np.array([0.5]), seed=0))


def test_empirical_cf_refuses_a_frequency_past_the_float_range():
    # u times a draw past 1.8e308 made e^{iuv} a NaN, after numpy's warning
    batch = SampleBatch(np.array([2.0, -1.0, 0.5]), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^u = 1e\+308 times a draw leaves the float range$"):
            empirical_cf(batch, [0.5, -1e308])
        with pytest.raises(ValueError, match="float range"):
            empirical_cf(batch, [math.nan])
        # 1e308 times each draw of a batch below 1.7 stays finite
        table = empirical_cf(SampleBatch(np.array([1.5, -1.0, 0.0]), seed=0), [1e308])
    assert np.isfinite(table.values).all()


def test_empirical_cf_rejects_empty():
    with pytest.raises(ValueError):
        empirical_cf(SampleBatch(np.array([]), seed=0), [0.0])


def test_empirical_cf_calibration_poisson():
    # |emp - exact| < 4/sqrt(N) should hold in almost every replication
    n, exact = 100_000, np.exp(np.exp(1j) - 1)
    hits = 0
    for seed in range(100):
        draws = np.random.default_rng(seed).poisson(1.0, n)
        table = empirical_cf(SampleBatch(draws, seed=seed), [1.0])
        hits += abs(table.values[0] - exact) < table.radius[0]
    assert hits >= 95


def test_chi2_on_one_bin_is_refused():
    # a point mass, or one draw whose cells all merge, leaves 0 degrees of
    # freedom: such a chi-square used to pass with p = 1
    zeros = SampleBatch(np.zeros(1000, dtype=int), seed=0)
    one = SampleBatch(np.array([2]), seed=0)
    for run in (lambda: lattice_chi2(zeros, LatticePMF(0, np.array([1.0]))),
                lambda: lattice_chi2(one, poisson_table(2.0, 20)),
                lambda: lattice_chi2_two_sample(zeros, zeros),
                lambda: lattice_chi2_two_sample(one, zeros)):
        with pytest.raises(ValueError, match="0 degrees of freedom"):
            run()


def test_chi2_refuses_an_empty_batch():
    empty = SampleBatch(np.array([], dtype=int), seed=0)
    full = SampleBatch(np.random.default_rng(5).poisson(2.0, 1000), seed=5)
    for run in (lambda: lattice_chi2(empty, poisson_table(2.0, 20)),
                lambda: stats.lattice_chi2_pooled([(full, poisson_table(2.0, 20)),
                                                   (empty, poisson_table(2.0, 20))], 0),
                lambda: lattice_chi2_two_sample(empty, full),
                lambda: lattice_chi2_two_sample(full, empty)):
        with pytest.raises(ValueError, match="^empty batch$"):
            run()


def test_chi2_size_calibration():
    pmf = poisson_table(3.0, 20)
    good = 0
    for seed in range(100):
        draws = np.random.default_rng(seed).poisson(3.0, 5000)
        report = lattice_chi2(SampleBatch(draws, seed=seed), pmf)
        good += report.p_value > 0.01
    assert good >= 90


def test_chi2_sf_matches_scipy():
    from scipy import stats

    for dof in [*range(1, 61), 80, 100, 150, 200, 300, 500]:
        x = np.concatenate([np.geomspace(1e-8, 10 * dof + 200, 300),
                            np.linspace(0.0, 10 * dof + 200, 301)[1:]])
        ref = stats.chi2.sf(x, dof)
        got = np.array([_chi2_sf(float(v), dof) for v in x])
        keep = ref > 1e-300
        rel = np.abs(got[keep] - ref[keep]) / ref[keep]
        assert rel.max() <= 1e-12, f"dof={dof}: worst relative error {rel.max():.3g}"


def test_chi2_sf_edges():
    for dof in (1, 2, 7, 500):
        assert _chi2_sf(0.0, dof) == 1.0
        assert _chi2_sf(-3.0, dof) == 1.0
        assert _chi2_sf(1e6, dof) == 0.0  # underflows, never overflows
        assert 0.0 <= _chi2_sf(1e-12, dof) <= 1.0


def test_chi2_power():
    draws = np.random.default_rng(7).poisson(1.0, 100_000)
    report = lattice_chi2(SampleBatch(draws, seed=7), poisson_table(2.0, 25))
    assert report.p_value < 1e-6
    assert not report.verdict


def test_chi2_two_sample_same_seed_is_exactly_equal():
    draws = np.random.default_rng(3).poisson(2.0, 10_000)
    a = SampleBatch(draws, seed=3)
    report = lattice_chi2_two_sample(a, a)
    assert report.statistic == pytest.approx(0.0, abs=1e-20)


def test_chi2_two_sample_power():
    a = SampleBatch(np.random.default_rng(1).poisson(1.0, 50_000), seed=1)
    b = SampleBatch(np.random.default_rng(2).poisson(1.3, 50_000), seed=2)
    assert not lattice_chi2_two_sample(a, b).verdict


def test_chi2_requires_integer_values():
    with pytest.raises(ValueError):
        lattice_chi2(SampleBatch(np.array([0.5, 1.0]), seed=0), poisson_table(1.0, 5))


_TWO_CELLS = LatticePMF(0, np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("test", [
    lambda batch: tv_distance(batch, _TWO_CELLS),
    lambda batch: lattice_chi2(batch, _TWO_CELLS),
    lambda batch: lattice_chi2_two_sample(batch, SampleBatch(np.zeros(3), seed=0)),
    lambda batch: lattice_chi2_two_sample(SampleBatch(np.zeros(3), seed=0), batch),
    lambda batch: empirical_cf(batch, [1.0]),
], ids=["tv", "chi2", "two-sample-a", "two-sample-b", "ecf"])
def test_lattice_tests_refuse_a_non_finite_draw(test, bad):
    # inf equals its own round: it was cast to INT64_MIN with a RuntimeWarning,
    # tv_distance of [1, inf, 0] returned 0.3333, and the empirical CF was
    # nan+nanj after two numpy warnings; the batch itself now refuses the draw,
    # so no statistic sees it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="a draw left the float range"):
            test(SampleBatch(np.array([1.0, bad, 0.0]), seed=0))


def test_ks_identical_batches():
    draws = np.random.default_rng(11).normal(size=500)
    a = SampleBatch(draws, seed=11)
    report = ks_two_sample(a, a)
    assert report.statistic == 0.0
    assert report.verdict


def test_ks_size_calibration():
    good = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = SampleBatch(rng.random(20_000), seed=seed)
        b = SampleBatch(rng.random(20_000), seed=seed)
        good += ks_two_sample(a, b).p_value > 0.01
    assert good >= 90


def test_ks_power():
    rng = np.random.default_rng(13)
    a = SampleBatch(rng.random(20_000), seed=13)
    b = SampleBatch(2.0 * rng.random(20_000), seed=13)
    report = ks_two_sample(a, b)
    assert report.p_value < 1e-6


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample(SampleBatch(np.array([]), seed=0), SampleBatch(np.array([1.0]), seed=0))
    with pytest.raises(ValueError, match="empty"):
        ks_two_sample(SampleBatch(np.array([1.0]), seed=0), SampleBatch(np.array([]), seed=0))


def test_ks_two_single_draws_give_the_limit_at_one_half():
    # D = 1 at n_a n_b / (n_a + n_b) = 1/2, where the limit law still has a p-value
    report = ks_two_sample(SampleBatch(np.array([0.0]), seed=0), SampleBatch(np.array([1.0]), seed=0))
    assert report.statistic == 1.0
    assert report.p_value == stats._kolmogorov_sf(math.sqrt(0.5))


def _ks_cases():
    rng = np.random.default_rng(31)
    same = rng.normal(size=400)
    return {
        # D is the bottom gap here and the top gap for the shifted integers
        "continuous": (rng.normal(0.1, 1.0, size=700), rng.normal(size=500)),
        "tied-integers": (rng.poisson(3.0, 3000), rng.poisson(3.2, 2000)),
        "shifted-integers": (rng.poisson(3.0, 20_000), rng.poisson(3.0, 20_000) + 1),
        "unequal-sizes": (rng.random(7), rng.random(20_000)),
        "one-draw": (np.array([0.5]), rng.random(50)),
        "identical": (same, same),
    }


_KS_CASES = _ks_cases()
# the p-value tolerance against scipy: relative, with an absolute floor where
# the tail underflows to subnormal floats
_P_REL, _P_ABS = 1e-13, 1e-300


@pytest.mark.parametrize("case", sorted(_KS_CASES))
def test_ks_matches_scipy_ks_2samp(case):
    from scipy.special import kolmogorov
    from scipy.stats import ks_2samp

    x, y = _KS_CASES[case]
    report = ks_two_sample(SampleBatch(x, seed=0), SampleBatch(y, seed=1))
    stat = float(ks_2samp(x, y, method="asymp").statistic)
    ref = float(kolmogorov(math.sqrt(x.size * y.size / (x.size + y.size)) * stat))
    assert report.statistic == stat
    assert abs(report.p_value - ref) <= _P_REL * ref + _P_ABS


def test_kolmogorov_sf_matches_scipy_kolmogorov():
    from scipy.special import kolmogorov

    # both sides of the switch at x = 1, from p = 1 down past the smallest subnormal
    xs = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999999, 1.0,
          1.000001, 1.01, 1.1, 1.2, 1.36, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 18.0, 18.5, 19.0,
          19.2, 19.4, 25.0]
    refs = []
    for x in xs:
        ref = float(kolmogorov(x))
        p = stats._kolmogorov_sf(x)
        assert abs(p - ref) <= _P_REL * ref + _P_ABS, (x, p, ref)
        refs.append(ref)
    assert max(refs) == 1.0 and min(refs) == 0.0 and 0.0 < min(r for r in refs if r) < 1e-300


def _equal_size_sf(n):
    """P{D_{n,n} >= h/n} at h = 0..n, the exact two-sample law at equal sizes.

    2 sum_k (-1)^(k-1) C(2n, n - kh) / C(2n, n), with each binomial ratio
    read off one running product of (n - j) / (n + j + 1).
    """
    ratio = np.cumprod(np.concatenate(([1.0], (n - np.arange(n)) / (n + np.arange(n) + 1.0))))
    signs = np.array([1.0, -1.0])
    return [1.0] + [2.0 * float(np.sum(ratio[h::h] * np.resize(signs, n // h))) for h in range(1, n + 1)]


def test_ks_p_value_is_near_the_exact_two_sample_law():
    """At n = m = 1000 the limit law is within 3 % of the exact law wherever that exceeds 1e-6.

    Over every attainable D = h/n it is never farther from the exact law than
    the one-sample law at the rounded size (scipy's "asymp"), and it is 2.8 %
    off at p = 1.1e-6, the worst point.  Ten shifted uniform batches put
    ``ks_two_sample`` itself against scipy's ``method="exact"``.
    """
    from scipy.stats import ks_2samp, kstwo

    n = 1000
    exact = _equal_size_sf(n)
    for h in range(1, n + 1):
        if exact[h] <= 1e-6:
            break
        limit = stats._kolmogorov_sf(math.sqrt(n / 2) * h / n)
        assert abs(limit - exact[h]) <= 0.03 * exact[h], (h, limit, exact[h])
        assert abs(limit - exact[h]) <= abs(float(kstwo.sf(h / n, n // 2)) - exact[h]), h
    assert h > 100  # the sweep reached the tail
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x, y = rng.random(n), rng.random(n) + 0.01 * seed
        report = ks_two_sample(SampleBatch(x, seed=seed), SampleBatch(y, seed=seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no silent fall-back from the exact law
            ref = ks_2samp(x, y, method="exact").pvalue
        if ref > 1e-6:
            assert abs(report.p_value - ref) <= 0.03 * ref, (seed, report.p_value, ref)


def test_tv_from_own_law_is_small():
    pmf = poisson_table(10.0, 50)
    draws = np.random.default_rng(17).poisson(10.0, 1_000_000)
    tv = tv_distance(SampleBatch(draws, seed=17), pmf)
    assert tv < 0.01


def test_tv_point_masses():
    zeros = SampleBatch(np.zeros(1000, dtype=int), seed=0)
    point0 = LatticePMF(0, np.array([1.0]))
    point1 = LatticePMF(1, np.array([1.0]))
    assert tv_distance(zeros, point0) == pytest.approx(0.0)
    assert tv_distance(zeros, point1) == pytest.approx(1.0)


def test_tv_from_counts_is_tv_distance_of_the_same_draws():
    # the counts-based core reads a histogram as tv_distance reads its draws,
    # including counts on either side of the table; both match the statistic
    # written out per draw
    pmf = poisson_table(3.0, 12)
    counts = np.random.default_rng(23).multinomial(50_000, np.full(20, 0.05))
    draws = np.repeat(np.arange(-4, 16), counts)
    idx = draws - pmf.start
    inside = (idx >= 0) & (idx < pmf.probs.size)
    emp = np.bincount(idx[inside], minlength=pmf.probs.size) / draws.size
    per_draw = 0.5 * (np.abs(emp - pmf.probs).sum() + np.mean(~inside) + pmf.tail_mass)
    tv = stats.tv_from_counts(counts, -4, pmf)
    assert abs(tv - per_draw) <= 1e-15
    assert abs(tv - tv_distance(SampleBatch(draws, seed=23), pmf)) <= 1e-15
    with pytest.raises(ValueError, match="empty batch"):
        tv_distance(SampleBatch(np.zeros(0, dtype=np.int64), seed=23), pmf)
    with pytest.raises(ValueError, match="empty batch"):
        stats.tv_from_counts(np.zeros(3, dtype=np.int64), 0, pmf)


def test_reports_are_deterministic():
    draws = np.random.default_rng(19).poisson(2.0, 20_000)
    batch = SampleBatch(draws, seed=19)
    pmf = poisson_table(2.0, 18)
    first = lattice_chi2(batch, pmf)
    second = lattice_chi2(batch, pmf)
    assert first == second
    a = SampleBatch(np.random.default_rng(23).random(5000), seed=23)
    b = SampleBatch(np.random.default_rng(29).random(5000), seed=29)
    assert ks_two_sample(a, b) == ks_two_sample(a, b)


def test_report_validation():
    with pytest.raises(ValueError):
        TestReport("x", 1.0, 2.0, 10, 0, verdict=True)
    with pytest.raises(ValueError):
        TestReport("x", 1.0, 0.5, 10, 0, verdict=False, level=1e-3)
    report = TestReport("x", 1.0, 0.5, 10, 0, verdict=True, level=1e-3)
    assert report.to_json_dict()["verdict"] == "pass"


def test_cftable_shape_validation():
    with pytest.raises(ValueError):
        CFTable(u=np.array([0.0, 1.0]), values=np.array([1.0 + 0j]))
