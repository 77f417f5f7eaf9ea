"""Alternate Skellam process (one time per jump) and its closed forms."""

import math
import warnings

import numpy as np
import pytest

from skellam_lab import (
    AltSpec,
    JumpSpec,
    TriangularArraySpec,
    alt_array_sample,
    alt_increment_cf,
    alt_lattice_pmf,
    alt_moments,
    alt_pgf,
    alt_sample,
    gmsp_array_sample,
    gmsp_lattice_pmf,
    gmsp_sample,
    msp_pmf,
    twoparam_skellam_pmf,
)
from skellam_lab import altskellam, gmsp, identities
from skellam_lab.identities import array_tvs, run_identity
from skellam_lab.records import LatticePMF
from skellam_lab.special import poisson_pmf
from skellam_lab.stats import lattice_chi2

SPEC = AltSpec({1: 1.0, -1: 1.0})


def test_spec_validation():
    with pytest.raises(ValueError):
        AltSpec({})
    with pytest.raises(ValueError):
        AltSpec({0: 1.0})
    with pytest.raises(ValueError):
        AltSpec({1: 0.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_refuses_non_finite_rates(bad):
    # with an infinite rate alt_increment_cf would return 0j
    with pytest.raises(ValueError, match="finite"):
        AltSpec({1: bad})
    with pytest.raises(ValueError, match="finite"):
        AltSpec({1: 1.0, -1: bad})


@pytest.mark.parametrize("call", [
    lambda spec, t: alt_sample(spec, t, 3, seed=0),
    lambda spec, t: alt_moments(spec, t, t),
    lambda spec, t: alt_increment_cf(spec, {j: 0.0 for j in t}, t, 1.0),
    lambda spec, t: alt_pgf(spec, t, 0.5),
    lambda spec, t: alt_lattice_pmf(spec, t),
], ids=["sample", "moments", "increment_cf", "pgf", "lattice_pmf"])
def test_overflowing_means_are_refused(call):
    # lam t = 1e309 overflows: alt_increment_cf used to return 0j, alt_pgf 0.0
    # and alt_moments (inf, inf, 1e308), after a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            call(AltSpec({1: 1e308, -1: 1.0}), {1: 10.0, -1: 1.0})


def test_sample_zero_times():
    batch = alt_sample(SPEC, {1: 0.0, -1: 0.0}, 20, seed=1)
    assert np.all(batch.values == 0)


def test_sample_key_mismatch():
    with pytest.raises(ValueError):
        alt_sample(SPEC, {1: 1.0, 2: 1.0}, 10, seed=0)
    with pytest.raises(ValueError):
        alt_sample(SPEC, {1: 1.0}, 10, seed=0)


def test_constant_time_matches_lattice_oracle():
    # with all t_j equal the law is the one-parameter generalized Skellam
    spec = AltSpec({1: 0.8, -1: 0.5, 2: 0.3})
    t = {1: 1.0, -1: 1.0, 2: 1.0}
    batch = alt_sample(spec, t, 100_000, seed=7)
    report = lattice_chi2(batch, alt_lattice_pmf(spec, t))
    assert report.verdict, f"p={report.p_value}"


def test_equal_times_alt_is_a_one_axis_gmsp():
    # with t_j = t for every jump the process is the GMSP with rates_j = (lam_j,):
    # the same seed gives the same draws and the same lattice pmf
    rates = {1: 0.8, -1: 0.5, 2: 0.3, -3: 0.1}
    spec = AltSpec(rates)
    gspec = JumpSpec({j: (lam,) for j, lam in rates.items()})
    t = {j: 1.7 for j in rates}
    assert np.array_equal(alt_sample(spec, t, 5000, seed=3).values,
                          gmsp_sample(gspec, (1.7,), 5000, seed=3).values)
    alt_pmf = alt_lattice_pmf(spec, t)
    gmsp_pmf = gmsp_lattice_pmf(gspec, (1.7,))
    assert alt_pmf.start == gmsp_pmf.start
    assert np.array_equal(alt_pmf.probs, gmsp_pmf.probs)
    assert alt_pmf.tail_mass == gmsp_pmf.tail_mass


def test_equal_times_alt_array_is_a_gmsp_array():
    # diagonal rule on a single jump axis: the same rows as the GMSP array
    lam, scale = 1.5, 50
    diag = alt_array_sample(scale, lambda l, ja, j: lam / scale if ja == j else 0.0, [2],
                            {2: 1.3}, 4000, seed=17)
    arr = TriangularArraySpec(n=scale, probs=lambda l, j, n: lam / n)
    assert np.array_equal(diag.values, gmsp_array_sample(arr, [2], (1.3,), 4000, seed=17).values)
    # an axis-free rule over two jumps is the GMSP array with one axis per jump
    rates = {1: 2.0, -1: 1.5}
    free = alt_array_sample(scale, lambda l, ja, j: rates[j] / scale, [1, -1],
                            {1: 0.8, -1: 0.8}, 4000, seed=5)
    arr = TriangularArraySpec(n=scale, probs=lambda l, j, n: rates[j] / n)
    assert np.array_equal(free.values,
                          gmsp_array_sample(arr, [1, -1], (0.8, 0.8), 4000, seed=5).values)


def test_equal_times_twoparam_pmf_is_msp_pmf():
    for l1, l2, t in ((1.0, 2.0, 0.7), (3.0, 0.5, 1.9), (0.4, 1.1, 0.0)):
        for n in range(-15, 16):
            assert twoparam_skellam_pmf(n, l1, l2, t, t) == msp_pmf(n, (l1,), (l2,), (t,))


def test_two_jump_case_matches_twoparam_pmf_chi2():
    t = {1: 1.2, -1: 0.7}
    batch = alt_sample(SPEC, t, 100_000, seed=13)
    probs = np.array([twoparam_skellam_pmf(n, 1.0, 1.0, 1.2, 0.7) for n in range(-12, 13)])
    report = lattice_chi2(batch, LatticePMF(-12, probs))
    assert report.verdict, f"p={report.p_value}"


def test_moments_examples():
    zero = {1: 0.0, -1: 0.0}
    assert alt_moments(SPEC, zero, zero) == (0.0, 0.0, 0.0)
    mean, var, _ = alt_moments(SPEC, {1: 2.0, -1: 1.0}, {1: 2.0, -1: 1.0})
    assert mean == pytest.approx(1.0)
    assert var == pytest.approx(3.0)
    t = {1: 1.5, -1: 0.5}
    m, v, c = alt_moments(SPEC, t, t)
    assert c == pytest.approx(v)


def test_increment_cf_examples():
    t = {1: 1.5, -1: 1.2}
    s = {1: 0.5, -1: 0.2}
    assert alt_increment_cf(SPEC, s, t, 0.0) == pytest.approx(1.0)
    assert alt_increment_cf(SPEC, t, t, 2.3) == pytest.approx(1.0)
    for z in (0.4, 1.0, 2.0):
        value = alt_increment_cf(SPEC, s, t, z)  # gaps are (1.0, 1.0)
        assert value == pytest.approx(math.exp(2 * (math.cos(z) - 1)), rel=1e-12)
    with pytest.raises(ValueError):
        alt_increment_cf(SPEC, t, s, 1.0)


def test_increment_cf_agrees_with_pgf_continuation():
    spec = AltSpec({1: 0.9, -1: 0.4, 3: 0.2})
    t = {1: 1.0, -1: 2.0, 3: 0.5}
    zero = {j: 0.0 for j in t}
    assert alt_pgf(spec, t, 1.0) == pytest.approx(1.0)
    for z in np.arange(-3.0, 3.01, 0.5):
        u = np.exp(1j * z)
        continued = np.exp(sum(lam * t[j] * (u**j - 1.0) for j, lam in spec.rates.items()))
        assert abs(alt_increment_cf(spec, zero, t, z) - continued) < 1e-12


def test_disjoint_increments_uncorrelated():
    # coupled path values at 0 <= t1 <= t2 from per-jump Poisson increments
    # (the process definition); successive increments must decorrelate
    n = 100_000
    t1 = {1: 0.5, -1: 0.4}
    t2 = {1: 1.0, -1: 0.9}
    rng = np.random.default_rng(19)
    s_t1 = np.zeros(n)
    s_t2 = np.zeros(n)
    for j, lam in SPEC.rates.items():
        block1 = rng.poisson(lam * t1[j], n)
        block2 = rng.poisson(lam * (t2[j] - t1[j]), n)
        s_t1 += j * block1
        s_t2 += j * (block1 + block2)
    rho = np.corrcoef(s_t1, s_t2 - s_t1)[0, 1]
    assert abs(rho) < 4 / math.sqrt(n)


def test_array_zero_window():
    batch = alt_array_sample(3.0, lambda l, ja, j: 0.1, [1, -1],
                             {1: 0.1, -1: 0.2}, 10, seed=0)
    assert np.all(batch.values == 0)


def test_array_kronecker_rule_single_axis_poisson_binomial():
    # mass only on the diagonal jump: each axis is a plain Bernoulli sum
    lam = {1: 0.7, -1: 0.4}
    beta = 10.0
    rule = lambda l, ja, j: (lam[ja] / beta) if ja == j else 0.0
    t = {1: 1.0, -1: 1.0}
    batch = alt_array_sample(beta, rule, [1, -1], t, 50_000, seed=29)
    dist = np.array([1.0])
    start = 0
    for j, p in ((1, lam[1] / beta), (-1, lam[-1] / beta)):
        axis = np.array([1.0])
        for _ in range(10):
            axis = np.convolve(axis, [1 - p, p])
        if j > 0:
            dist = np.convolve(dist, axis)
        else:
            dist = np.convolve(dist, axis[::-1])
            start -= axis.size - 1
    report = lattice_chi2(batch, LatticePMF(start, dist))
    assert report.verdict, f"p={report.p_value}"


def test_array_identity_fails_cleanly_when_tvs_do_not_decrease(monkeypatch):
    # the scale-1000 TV is below 0.02 but the TVs do not decrease: the report
    # fails (it used to raise) with a finite statistic and no critical value
    with monkeypatch.context() as patch:
        patch.setattr(identities, "array_tvs", lambda *args: [0.03, 0.004, 0.005])
        report = run_identity("array-alt", seed=2, n=20_000)
    assert not report.verdict and report.critical is None
    assert report.statistic == 0.005
    assert report.to_json_dict()["verdict"] == "fail"
    # the pinned n decides the verdict on the real draws
    passing = run_identity("array-alt", seed=0)
    assert passing.verdict and passing.critical == 0.02
    assert passing.statistic <= passing.critical


def test_array_rejects_invalid_rule():
    with pytest.raises(ValueError):
        alt_array_sample(10.0, lambda l, ja, j: 0.6, [1, -1], {1: 1.0, -1: 1.0}, 10, seed=0)
    with pytest.raises(ValueError):
        alt_array_sample(-1.0, lambda l, ja, j: 0.1, [1], {1: 1.0}, 10, seed=0)


# the spec each converge scheme passes to array_tvs, at rates {1: 2.0, -1: 1.5}
_ARRAY_SPECS = {"gmsp-array": JumpSpec({1: (2.0, 2.0), -1: (1.5, 1.5)}),
                "alt-array": AltSpec({1: 2.0, -1: 1.5})}


@pytest.mark.parametrize("scheme, t", [("gmsp-array", (1.0, 1.0)), ("alt-array", (1.0, 1.0))])
@pytest.mark.parametrize("n", [0, -3])
def test_array_tvs_refuse_fewer_than_one_draw(monkeypatch, scheme, t, n):
    # refused before any histogram is drawn, so a multinomial of -3 draws
    # cannot end in numpy's own message
    monkeypatch.setattr(identities, "make_rng", None)
    with pytest.raises(ValueError, match="^empty batch$"):
        array_tvs(_ARRAY_SPECS[scheme], t, (10, 100), n, seed=0)


@pytest.mark.parametrize("name", ["array-gmsp", "array-alt"])
def test_array_identities_draw_nothing_per_draw(monkeypatch, name):
    # the identities draw each scale's histogram as one multinomial over the
    # exact array law, so an array kernel that cannot draw leaves the report as it is
    def no_draws(*args):
        raise AssertionError("an array identity drew per draw")

    expected = run_identity(name)
    monkeypatch.setattr(gmsp, "array_sums", no_draws)
    monkeypatch.setattr(altskellam, "array_sums", no_draws)
    assert run_identity(name) == expected
    assert expected.verdict


def test_twoparam_pmf_center_and_symmetry():
    p0 = twoparam_skellam_pmf(0, 1.0, 1.0, 1.0, 1.0)
    assert p0 == pytest.approx(0.308508322553671, abs=1e-10)
    for n in range(-10, 11):
        assert twoparam_skellam_pmf(n, 2.0, 1.0, 0.5, 1.0) == pytest.approx(
            twoparam_skellam_pmf(-n, 2.0, 1.0, 0.5, 1.0), rel=1e-12
        )  # lam1 t1 = lam2 t2 = 1 here


def test_twoparam_pmf_degenerate_times():
    assert twoparam_skellam_pmf(2, 1.5, 2.0, 1.0, 0.0) == pytest.approx(
        poisson_pmf(2, 1.5), rel=1e-14
    )
    assert twoparam_skellam_pmf(-3, 1.5, 2.0, 0.0, 1.0) == pytest.approx(
        poisson_pmf(3, 2.0), rel=1e-14
    )


def test_twoparam_pmf_normalizes():
    total = math.fsum(twoparam_skellam_pmf(n, 3.0, 0.5, 1.0, 2.0) for n in range(-60, 61))
    assert total >= 1 - 1e-9


def test_twoparam_pmf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        twoparam_skellam_pmf(0, math.nan, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        twoparam_skellam_pmf(0, 1.0, -1.0, 1.0, 1.0)
