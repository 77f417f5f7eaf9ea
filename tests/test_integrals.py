"""Rectangle integrals: samplers, closed-form CFs, uniform-compound identities."""

import math
import warnings

import numpy as np
import pytest

from skellam_lab import (
    CompoundSpec,
    JumpSpec,
    RectDomain,
    empirical_cf,
    integral_cf_gmsp,
    integral_cf_levy,
    integral_cf_mpp,
    integral_sample,
    ks_two_sample,
    lattice_chi2_two_sample,
    uniform_compound_sample,
)
from skellam_lab.integrals import _unit_interval_cf_factor
from skellam_lab.records import SampleBatch, spawn_rngs


def test_rect_domain_validation():
    dom = RectDomain(t=[1.0, 2.0], resolution=4)
    assert dom.resolution.tolist() == [4, 4]
    with pytest.raises(ValueError):
        RectDomain(t=[1.0], resolution=[0])
    with pytest.raises(ValueError):
        RectDomain(t=[1.0], resolution=[2, 2])


def test_zero_volume_gives_exact_zeros():
    dom = RectDomain(t=[1.0, 0.0], resolution=8)
    batch = integral_sample([1.0, 1.0], dom, 30, seed=0)
    assert np.all(batch.values == 0.0)


@pytest.mark.parametrize("process", [[1.0, 2.0, 3.0], JumpSpec({1: (1.0, 2.0, 3.0)}),
                                     CompoundSpec([1.0, 2.0, 3.0], [1.0], [1.0])])
@pytest.mark.parametrize("t", [[1.0, 0.0], [1.0, 1.0]])
def test_process_dimension_is_checked_before_the_zero_volume_shortcut(process, t):
    with pytest.raises(ValueError, match="must match the domain"):
        integral_sample(process, RectDomain(t=t, resolution=4), 3, seed=0)


def test_integral_mean_one_dimensional():
    dom = RectDomain(t=[2.0], resolution=256)
    batch = integral_sample([1.0], dom, 20_000, seed=5)
    # Var of the integral is lam t^3 / 3; the lattice sum has upper bias lam t^2 / (2r)
    se = math.sqrt(8.0 / 3.0 / batch.n)
    assert abs(batch.values.mean() - 2.0) < 5 * se + 2.0 / 256


def test_integral_mean_two_dimensional():
    lam, t = [1.0, 0.5], [1.5, 1.0]
    dom = RectDomain(t=t, resolution=128)
    batch = integral_sample(lam, dom, 20_000, seed=6)
    exact = sum(lam[k] * t[k] ** 2 * np.prod(np.delete(t, k)) / 2 for k in range(2))
    se = batch.values.std() / math.sqrt(batch.n)
    assert abs(batch.values.mean() - exact) < 5 * se + 0.05


@pytest.mark.parametrize("process", [[0.9, 0.4, 1.7],
                                     JumpSpec({1: (0.7, 0.4, 0.5), -1: (0.5, 0.6, 0.3),
                                               2.5: (0.2, 0.1, 0.4)})])
def test_three_axis_integral_matches_exact_lattice_moments(process):
    # axis k adds prod(t) * sum_e X_e V_e / r_k over Poisson(t_k sum_j lam_jk) events
    # with V_e uniform on {1..r_k}: E[V/r] = (r+1)/(2r), E[(V/r)^2] = (r+1)(2r+1)/(6r^2)
    spec = process if isinstance(process, JumpSpec) else JumpSpec({1: process})
    t, r = np.array([1.1, 0.7, 1.3]), np.array([8, 5, 11])
    batch = integral_sample(process, RectDomain(t=t, resolution=r), 100_000, seed=21)
    jumps, rates = spec.jump_values[:, None], spec.rate_matrix
    mean = np.prod(t) * np.sum(t * np.sum(rates * jumps, axis=0) * (r + 1) / (2 * r))
    var = np.prod(t) ** 2 * np.sum(
        t * np.sum(rates * jumps**2, axis=0) * (r + 1) * (2 * r + 1) / (6 * r**2))
    x = batch.values
    assert abs(x.mean() - mean) < 5 * x.std() / math.sqrt(x.size)
    s2 = x.var(ddof=1)
    se_var = math.sqrt(np.mean((x - x.mean()) ** 4) - s2**2) / math.sqrt(x.size)
    assert abs(s2 - var) < 5 * se_var


def test_integral_sample_chunking_is_stream_stable():
    dom = RectDomain(t=[1.0, 1.0], resolution=32)
    long = integral_sample([1.0, 0.5], dom, 5000, seed=9)
    longer = integral_sample([1.0, 0.5], dom, 8192, seed=9)
    assert np.array_equal(long.values, longer.values[:5000])


def _grid_paths(rates, axes, n, seed):
    """n MPP paths on the lattice ``axes``: axis k adds the cumulative Poisson
    increments drawn from child k of spawn_rngs(seed, M), broadcast along it."""
    values = np.zeros((n, *(ax.size for ax in axes)), dtype=np.int64)
    for k, (rng, lam, ax) in enumerate(zip(spawn_rngs(seed, len(axes)), rates, axes)):
        shape = [n] + [1] * len(axes)
        shape[k + 1] = ax.size
        incs = rng.poisson(lam * np.diff(ax, prepend=0.0), size=(n, ax.size))
        values = values + np.cumsum(incs, axis=1).reshape(shape)
    return values


def _lattice_sum(values, t, r):
    """The literal lattice Riemann sum of each path: the cell volume times the
    sum over lattice points whose every index is >= 1."""
    inner = values[(slice(None), *(slice(1, None) for _ in t))]
    return float(np.prod(np.asarray(t) / r)) * inner.reshape(len(inner), -1).sum(axis=1)


GMSP_NEG = JumpSpec({1: (0.7, 0.4), -1: (0.5, 0.6)})


@pytest.mark.parametrize("r", [4, 16])
def test_integral_sample_matches_literal_riemann_sum_in_law(r):
    # compound-Poisson kernel vs the literal lattice sum of sum_j j * MPP_j paths
    t, n = [1.2, 1.0], 5000
    dom = RectDomain(t=t, resolution=r)
    kernel = np.round(integral_sample(GMSP_NEG, dom, n, seed=31).values / dom.cell_volume)
    axes = [np.linspace(0.0, tk, r + 1) for tk in t]
    values = sum(j * _grid_paths(lam, axes, n, seed=1000 + m)
                 for m, (j, lam) in enumerate(GMSP_NEG.jumps.items()))
    literal = np.round(_lattice_sum(values, t, r) / dom.cell_volume)
    report = lattice_chi2_two_sample(SampleBatch(kernel, seed=31), SampleBatch(literal, seed=0))
    assert report.verdict, f"chi2 p={report.p_value}"


COMPOUND_VALS, COMPOUND_PROBS = [1.0, -1.0, 2.0], [0.5, 0.3, 0.2]


@pytest.mark.parametrize("rates, t, r", [([1.3], [1.2], 8), ([0.8, 0.5], [1.2, 1.0], 4)])
def test_compound_integral_matches_literal_riemann_sum_in_law(rates, t, r):
    # sorted-cell kernel vs the literal lattice sum of S_X(N(g)) on an MPP grid path
    n = 5000
    dom = RectDomain(t=t, resolution=r)
    spec = CompoundSpec(rates, COMPOUND_VALS, COMPOUND_PROBS)
    kernel = np.round(integral_sample(spec, dom, n, seed=41).values / dom.cell_volume)
    axes = [np.linspace(0.0, tk, r + 1) for tk in t]
    # 40 jumps per draw is far past any count these rates reach on the grid
    jumps = np.random.default_rng(7).choice(COMPOUND_VALS, size=(n, 40), p=COMPOUND_PROBS)
    s_x = np.hstack([np.zeros((n, 1)), np.cumsum(jumps, axis=1)])
    counts = _grid_paths(rates, axes, n, seed=2000)
    values = np.take_along_axis(s_x, counts.reshape(n, -1), axis=1).reshape(counts.shape)
    literal = np.round(_lattice_sum(values, t, r) / dom.cell_volume)
    report = lattice_chi2_two_sample(SampleBatch(kernel, seed=41), SampleBatch(literal, seed=0))
    assert report.verdict, f"chi2 p={report.p_value}"


@pytest.mark.parametrize("rates, t", [([1.3], [1.2]), ([0.8, 0.5], [1.2, 1.0])])
def test_compound_integral_is_prefix_stable_across_chunks(rates, t):
    spec = CompoundSpec(rates, COMPOUND_VALS, COMPOUND_PROBS)
    dom = RectDomain(t=t, resolution=64)
    long = integral_sample(spec, dom, 5000, seed=9)
    longer = integral_sample(spec, dom, 8192, seed=9)
    assert np.array_equal(long.values, longer.values[:5000])


def test_compound_integral_refuses_a_lattice_past_int64():
    # 2**32 * 2**31 lattice points wrapped the int64 counts, and the draw
    # ended in a numpy boolean-assignment error; 2**62 points still draw
    spec = CompoundSpec([1.0, 1.0], [1.0], [1.0])
    draws = integral_sample(spec, RectDomain(t=[1.0, 1.0], resolution=[2**31, 2**31]), 2000, 0)
    # the integral of N_1(s_1) + N_2(s_2) over the unit square has mean 1
    assert draws.values.min() >= 0.0 and abs(draws.values.mean() - 1.0) < 0.1
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        integral_sample(spec, RectDomain(t=[1.0, 1.0], resolution=[2**32, 2**31]), 2000, 0)


def test_cf_at_zero_and_modulus():
    assert integral_cf_mpp([1.0, 2.0], [1.0, 0.5], 0.0) == 1.0
    for u in np.arange(-3.0, 3.01, 0.5):
        assert abs(integral_cf_mpp([1.0, 2.0], [1.0, 0.5], u)) <= 1.0 + 1e-12


def test_cf_derivative_reproduces_mean():
    lam, t = [1.0, 0.5], [1.5, 1.0]
    h = 1e-5
    fd = (integral_cf_mpp(lam, t, h) - integral_cf_mpp(lam, t, -h)) / (2 * h)
    mean = sum(lam[k] * t[k] ** 2 * np.prod(np.delete(t, k)) / 2 for k in range(2))
    assert (fd / 1j).real == pytest.approx(mean, abs=1e-6)


def test_cf_against_quadrature_oracle():
    x = np.linspace(0.0, 1.0, 10_001)
    oracle = np.exp(np.trapezoid(np.exp(1j * x) - 1.0, x))
    assert abs(integral_cf_mpp([1.0], [1.0], 1.0) - oracle) < 1e-8


# integral_0^1 (e^{icx} - 1) dx = (sin(c)/c - 1) + i (1 - cos c)/c, each part
# from mpmath at 50 digits, rounded to the nearest double
_CF_FACTOR_GOLDEN = [
    (1e-9, -1.666666666666667e-19, 5e-10),
    (1e-5, -1.6666666666583335e-11, 4.999999999958334e-06),
    (0.05, -0.00041661458643342417, 0.02499479210067507),
    (-0.3, -0.014932644462201414, -0.14887836958131326),
    (0.99, -0.15552931454492877, 0.4558688276953661),
    (1.0, -0.1585290151921035, 0.4596976941318603),
    (2.5, -0.7606111423584174, 0.7204574462187735),
    (-7.0, -0.9061447716116016, -0.035156820808099336),
    (40.0, -0.9813721709880163, 0.04167345154130655),
]


@pytest.mark.parametrize("c, real, imag", _CF_FACTOR_GOLDEN)
def test_unit_interval_cf_factor_keeps_both_parts_at_small_c(c, real, imag):
    # the closed form (e^{ic} - 1)/(ic) - 1 returned -1.1e-16 + 0j at c = 1e-9
    value = _unit_interval_cf_factor(c)
    assert value.real == pytest.approx(real, rel=2e-15)
    assert value.imag == pytest.approx(imag, rel=2e-15)


@pytest.mark.parametrize("c", [math.inf, -math.inf])
def test_unit_interval_cf_factor_takes_its_limit_at_infinite_c(c):
    # math.sin of an infinite c raised "math domain error"
    assert _unit_interval_cf_factor(c) == -1.0 + 0.0j
    assert abs(_unit_interval_cf_factor(math.copysign(1e308, c)) - (-1.0)) < 1e-300


@pytest.mark.parametrize("cf", [lambda t, u: integral_cf_mpp([1.0, 1.0], t, u),
                                lambda t, u: integral_cf_gmsp(GMSP_NEG, t, u)],
                         ids=["mpp", "gmsp"])
def test_cf_where_the_time_product_leaves_the_float_range(cf):
    # prod t = 1e400 warned; u = 0 then gave c = 0 * inf = nan and a nan CF, and
    # u = 1 ended in "math domain error"
    t = [1e200, 1e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cf(t, 0.0) == 1.0
        assert cf(t, 1.0) == 0.0  # exp(-(sum of the means)), each mean about 1e200


def test_levy_cf_at_zero_where_the_time_product_leaves_the_float_range():
    # prod t = 1e400 warned, and c = 0 * inf = nan ended in "quadrature failed"
    psi = lambda v: np.exp(1j * v) - 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert integral_cf_levy([psi, psi], [1e200, 1e200], 0.0) == 1.0


def test_cf_where_a_jump_times_c_leaves_the_float_range():
    # c j = 1e310 ended in "math domain error"; the factor is -1, so the CF is e^{-mean}
    assert integral_cf_gmsp(JumpSpec({1e300: (1.0,)}), [1.0], 1e10) == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize("cf", [lambda: integral_cf_mpp([10.0], [1e308], 1.0),
                                lambda: integral_cf_gmsp(JumpSpec({1: (1.0,), -1: (10.0,)}),
                                                         [1e308], 1.0)],
                         ids=["mpp", "gmsp"])
def test_cf_refuses_a_mean_past_the_float_range(cf):
    # the mean 10 * 1e308 warned of an overflow, and the CF read 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="means must be finite"):
            cf()


def test_levy_route_matches_poisson_closed_form():
    lam, t = [1.0, 0.5], [1.5, 1.0]
    psis = [lambda v, l=l: l * (np.exp(1j * v) - 1.0) for l in lam]
    for u in (0.0, 0.3, 1.0, 2.0):
        assert abs(integral_cf_levy(psis, t, u) - integral_cf_mpp(lam, t, u)) < 1e-9


def test_levy_route_drift():
    value = integral_cf_levy([lambda v: 1j * v], [1.0], 1.0)
    assert value == pytest.approx(np.exp(1j * 0.5), abs=1e-10)


def test_levy_route_rejects_nonvanishing_logcf():
    with pytest.raises(ValueError):
        integral_cf_levy([lambda v: 1.0 + 0j], [1.0], 1.0)


def test_gmsp_cf_closed_form_matches_levy_quadrature():
    t = [1.2, 1.0]
    psis = [lambda v, k=k: sum(lam[k] * (np.exp(1j * v * j) - 1.0)
                               for j, lam in GMSP_NEG.jumps.items()) for k in range(2)]
    for u in (0.0, 0.3, -1.0, 2.5):
        assert abs(integral_cf_gmsp(GMSP_NEG, t, u) - integral_cf_levy(psis, t, u)) < 1e-9


def test_empirical_cf_of_integral_matches_closed_form():
    dom = RectDomain(t=[2.0], resolution=512)
    batch = integral_sample([1.0], dom, 20_000, seed=7)
    table = empirical_cf(batch, [0.25, 0.5, 1.0])
    for u, v, rad in zip(table.u, table.values, table.radius):
        assert abs(v - integral_cf_mpp([1.0], [2.0], u)) < rad


def test_uniform_compound_zero_time():
    batch = uniform_compound_sample(CompoundSpec([1.0], [1.0], [1.0]), [0.0], 20, seed=0)
    assert np.all(batch.values == 0.0)


def test_uniform_compound_equal_rate_map_at_a_zero_time_draws_positive_zeros():
    # prod(t) = 0 scales each axis sum, as in the JumpSpec branch: 0.0 times a
    # negative sum was a -0.0 draw, 805 of these 3000
    jumps = {1: 0.7, -1: 0.5, 2: 0.2}
    values = uniform_compound_sample(jumps, (0.0, 1.5), 3000, 0).values
    peraxis = uniform_compound_sample(JumpSpec({j: (lam, lam) for j, lam in jumps.items()}),
                                      (0.0, 1.5), 3000, 0).values
    assert np.all(values == 0.0) and not np.signbit(values).any()
    assert values.tobytes() == peraxis.tobytes()


def test_uniform_compound_rejects_mismatched_params():
    with pytest.raises(ValueError, match="dimension"):
        uniform_compound_sample(CompoundSpec([1.0], [1.0], [1.0]), [1.0, 1.0], 5, seed=0)
    with pytest.raises(ValueError, match="unknown process type"):
        uniform_compound_sample("nope", [1.0], 5, seed=0)
    with pytest.raises(ValueError, match="unknown process type"):
        uniform_compound_sample([1.0], [1.0], 5, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        uniform_compound_sample(JumpSpec({1: (1.0,)}), [1.0, 1.0], 5, seed=0)
    with pytest.raises(ValueError, match="nonzero"):
        uniform_compound_sample({0: 1.0, 1: 0.5}, [1.0], 5, seed=0)


@pytest.mark.parametrize("draw", [
    lambda: integral_sample(JumpSpec({1e308: (1.0, 1.0)}), RectDomain([1, 1], 4), 5, 0),
    lambda: integral_sample(CompoundSpec([3.0], [1e308], [1.0]), RectDomain([1.0], 4), 5, 0),
    # a uniform form's draw is 1e308 times a sum of U(0,1) over Poisson(8) jumps,
    # finite with probability 0.0757: all 20 draws are, with probability 3.8e-23
    lambda: uniform_compound_sample(JumpSpec({1e308: (4.0, 4.0)}), [1.0, 1.0], 20, 0),
    lambda: uniform_compound_sample(CompoundSpec([8.0], [1e308], [1.0]), [1.0], 20, 0),
    lambda: uniform_compound_sample({1e308: 8.0}, [1.0], 20, 0),
], ids=["integral-gmsp", "integral-compound", "uniform-gmsp", "uniform-compound",
        "uniform-equalrate"])
def test_float_compound_draws_past_the_float_range_are_refused(draw):
    # each returned inf draws to the caller; two also warned of a numpy overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range"):
            draw()


def test_uniform_compound_matches_compound_integral_ks():
    rates, t = [1.3], [1.2]
    vals, probs = [1.0, -1.0, 2.0], [0.5, 0.3, 0.2]
    dom = RectDomain(t=t, resolution=512)
    a = integral_sample(CompoundSpec(rates, vals, probs), dom, 20_000, seed=11)
    b = uniform_compound_sample(CompoundSpec(rates, vals, probs), t, 20_000, seed=12)
    report = ks_two_sample(a, b)
    assert report.verdict, f"KS p={report.p_value}"


def test_uniform_compound_mpp_rejects_two_rates():
    # at M = 2 the integral of S_X(N_1(s_1) + N_2(s_2)) has a larger variance
    # than (t_1 t_2) sum X_r U_r, so the form is offered for one rate only
    spec = CompoundSpec([0.8, 0.5], [1.0, -1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="one rate"):
        uniform_compound_sample(spec, [1.2, 1.0], 10, seed=0)


GMSP_EQ = JumpSpec({1: (0.7, 0.7), -1: (0.5, 0.5), 2: (0.2, 0.2)})


def test_gmsp_integral_matches_uniform_forms_ks():
    t = [1.2, 1.0]
    dom = RectDomain(t=t, resolution=512)
    g = integral_sample(GMSP_EQ, dom, 20_000, seed=13)
    f3 = uniform_compound_sample(GMSP_EQ, t, 20_000, seed=14)
    f2 = uniform_compound_sample({1: 0.7, -1: 0.5, 2: 0.2}, t, 20_000, seed=15)
    assert ks_two_sample(g, f3).verdict
    assert ks_two_sample(g, f2).verdict


def test_gmsp_integral_matches_per_axis_one_parameter_integrals():
    # integral of the GMSP vs sum_k prod_{k'!=k} t_k' * (1-d integral of GSP_k)
    t = [1.2, 1.0]
    dom = RectDomain(t=t, resolution=512)
    g = integral_sample(GMSP_EQ, dom, 20_000, seed=13)
    per_axis = np.zeros(20_000)
    for k in range(2):
        spec_k = JumpSpec({j: (lam[k],) for j, lam in GMSP_EQ.jumps.items()})
        axis_dom = RectDomain(t=[t[k]], resolution=512)
        draws = integral_sample(spec_k, axis_dom, 20_000, seed=100 + k)
        per_axis += float(np.prod(np.delete(t, k))) * draws.values
    report = ks_two_sample(g, SampleBatch(per_axis, seed=0))
    assert report.verdict, f"KS p={report.p_value}"


def test_cf_refinement_convergence():
    # the empirical CF of the lattice integral approaches the exact CF as r
    # doubles; coarse resolutions keep discretization above sampling noise
    lam, t = [1.0], [2.0]
    u_grid = [0.25, 0.5, 1.0]
    gaps = []
    for r in (8, 16, 32):
        batch = integral_sample(lam, RectDomain(t=t, resolution=r), 40_000, seed=21)
        table = empirical_cf(batch, u_grid)
        exact = np.array([integral_cf_mpp(lam, t, u) for u in u_grid])
        gaps.append(float(np.max(np.abs(table.values - exact))))
    assert gaps[0] > gaps[1] > gaps[2]
