"""Parameter domains: every public entry point refuses a value outside its kind's domain.

One table sends each kind's bad values (NaN, +-inf, a negative value, zero
where it is not allowed, a non-integer where a whole scale or a count is required) to
every public entry point that takes that kind.  Every case is a ValueError.
"""

import math
import warnings

import numpy as np
import pytest

from skellam_lab import fractional, identities, special
from skellam_lab.altskellam import (
    AltSpec,
    alt_array_sample,
    alt_increment_cf,
    alt_lattice_pmf,
    alt_moments,
    alt_pgf,
    alt_sample,
    twoparam_skellam_pmf,
)
from skellam_lab.fractional import (
    FracSkellamSpec,
    frac_skellam_moments,
    frac_skellam_pmf,
    frac_skellam_pmf_table,
    frac_skellam_pmf_wright,
    frac_skellam_sample,
    inv_stable_marginal_sample,
    stable_subordinator_sample,
)
from skellam_lab.gmsp import (
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
    scaled_poisson_convolution,
)
from skellam_lab.integrals import (
    CompoundSpec,
    RectDomain,
    integral_cf_gmsp,
    integral_cf_mpp,
    integral_sample,
    uniform_compound_sample,
)
from skellam_lab.mpp import mpp_covariance, mpp_pmf
from skellam_lab.records import SampleBatch

_NON_FINITE = [math.nan, math.inf, -math.inf]
BAD = {
    "rate": [*_NON_FINITE, -1.0, 0.0],
    "time": [*_NON_FINITE, -1.0],
    "jump": [*_NON_FINITE, 0.0],
    "jump value": _NON_FINITE,
    "stable index": [*_NON_FINITE, -0.5, 0.0, 1.5],
    # 2**53 + 1 reads as the float 2**53, and 2**63 leaves int64
    "whole scale": [*_NON_FINITE, -1.0, 0.0, 2.7, 2**53 + 1, 2**63],
    "scale": [*_NON_FINITE, -1.0, 0.0],
    "count": [*_NON_FINITE, -1.0, 2.7],
}

_SPEC = JumpSpec({1: (1.0,)})
_ALT = AltSpec({1: 1.0})
_FRAC = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
_ARRAY = TriangularArraySpec(n=10, probs=lambda l, j, n: 0.1)


def _alt_rule(l, axis, j):
    return 0.1


_DOM = RectDomain(t=[1.0], resolution=4)
_COMPOUND = CompoundSpec([1.0], [1.0], [1.0])

# each sampler as a call of (draw count, seed)
SAMPLERS = [
    ("gmsp_sample", lambda n, seed: gmsp_sample(_SPEC, [1.0], n, seed)),
    ("compound-peraxis", lambda n, seed: gmsp_compound_peraxis_sample(_SPEC, [1.0], n, seed)),
    ("compound-equalrate",
     lambda n, seed: gmsp_compound_equalrate_sample({1: 1.0}, 1, [1.0], n, seed)),
    ("gmsp_array_sample", lambda n, seed: gmsp_array_sample(_ARRAY, [1], [1.0], n, seed)),
    ("alt_sample", lambda n, seed: alt_sample(_ALT, {1: 1.0}, n, seed)),
    ("alt_array_sample", lambda n, seed: alt_array_sample(10, _alt_rule, [1], {1: 1.0}, n, seed)),
    ("frac_skellam_sample", lambda n, seed: frac_skellam_sample(_FRAC, 1.0, 1.0, n, seed)),
    ("stable", lambda n, seed: stable_subordinator_sample(0.5, 1.0, n, seed)),
    ("stable-drift", lambda n, seed: stable_subordinator_sample(1.0, 1.0, n, seed)),
    ("inv-stable", lambda n, seed: inv_stable_marginal_sample(0.5, 1.0, n, seed)),
    ("integral-mpp", lambda n, seed: integral_sample([1.0], _DOM, n, seed)),
    ("integral-gmsp", lambda n, seed: integral_sample(_SPEC, _DOM, n, seed)),
    ("integral-compound", lambda n, seed: integral_sample(_COMPOUND, _DOM, n, seed)),
    ("integral-zero-volume",
     lambda n, seed: integral_sample([1.0], RectDomain(t=[0.0], resolution=4), n, seed)),
    ("uniform-compound", lambda n, seed: uniform_compound_sample(_COMPOUND, [1.0], n, seed)),
]


ENTRY_POINTS = [
    # rates
    ("rate", "mpp_pmf", lambda x: mpp_pmf(0, [x], [1.0])),
    ("rate", "mpp_covariance", lambda x: mpp_covariance([x], [1.0], [1.0])),
    ("rate", "JumpSpec", lambda x: JumpSpec({1: (x,)})),
    ("rate", "msp_pmf", lambda x: msp_pmf(0, [x], [1.0], [1.0])),
    ("rate", "AltSpec", lambda x: AltSpec({1: 1.0, -1: x})),
    ("rate", "twoparam-lam1", lambda x: twoparam_skellam_pmf(0, x, 1.0, 1.0, 1.0)),
    ("rate", "twoparam-lam2", lambda x: twoparam_skellam_pmf(0, 1.0, x, 1.0, 1.0)),
    ("rate", "FracSkellamSpec", lambda x: FracSkellamSpec(1.0, x, 0.5, 0.5)),
    ("rate", "frac_poisson_table", lambda x: special.frac_poisson_table(3, x, 1.0, 0.5)),
    ("rate", "compound-equalrate", lambda x: gmsp_compound_equalrate_sample({1: x}, 1, [1.0], 3, 0)),
    ("rate", "uniform-equalrate",
     lambda x: uniform_compound_sample({1: x}, [1.0], 3, 0)),
    ("rate", "CompoundSpec", lambda x: CompoundSpec([x], [1.0], [1.0])),
    ("rate", "integral_cf_mpp", lambda x: integral_cf_mpp([x], [1.0], 1.0)),
    # times
    ("time", "mpp_pmf", lambda x: mpp_pmf(0, [1.0], [x])),
    ("time", "mpp_covariance", lambda x: mpp_covariance([1.0], [x], [1.0])),
    ("time", "gmsp_sample", lambda x: gmsp_sample(_SPEC, [x], 3, 0)),
    ("time", "gmsp_pgf", lambda x: gmsp_pgf(_SPEC, [x], 0.5)),
    ("time", "gmsp_cf", lambda x: gmsp_cf(_SPEC, [x], 1.0)),
    ("time", "gmsp_moments", lambda x: gmsp_moments(_SPEC, [x], [1.0])),
    ("time", "gmsp_lattice_pmf", lambda x: gmsp_lattice_pmf(_SPEC, [x])),
    ("time", "msp_pmf", lambda x: msp_pmf(0, [1.0], [1.0], [x])),
    ("time", "compound-peraxis", lambda x: gmsp_compound_peraxis_sample(_SPEC, [x], 3, 0)),
    ("time", "compound-equalrate", lambda x: gmsp_compound_equalrate_sample({1: 1.0}, 1, [x], 3, 0)),
    ("time", "gmsp_array_sample", lambda x: gmsp_array_sample(_ARRAY, [1], [x], 3, 0)),
    ("time", "alt_sample", lambda x: alt_sample(_ALT, {1: x}, 3, 0)),
    ("time", "alt_moments", lambda x: alt_moments(_ALT, {1: x}, {1: 1.0})),
    ("time", "alt_increment_cf", lambda x: alt_increment_cf(_ALT, {1: 0.0}, {1: x}, 1.0)),
    ("time", "alt_pgf", lambda x: alt_pgf(_ALT, {1: x}, 0.5)),
    ("time", "alt_lattice_pmf", lambda x: alt_lattice_pmf(_ALT, {1: x})),
    ("time", "alt_array_sample", lambda x: alt_array_sample(10, _alt_rule, [1], {1: x}, 3, 0)),
    ("time", "twoparam-t1", lambda x: twoparam_skellam_pmf(0, 1.0, 1.0, x, 1.0)),
    ("time", "twoparam-t2", lambda x: twoparam_skellam_pmf(0, 1.0, 1.0, 1.0, x)),
    ("time", "stable", lambda x: stable_subordinator_sample(0.5, x, 3, 0)),
    ("time", "inv-stable", lambda x: inv_stable_marginal_sample(0.5, x, 3, 0)),
    ("time", "frac_skellam_sample", lambda x: frac_skellam_sample(_FRAC, 1.0, x, 3, 0)),
    ("time", "frac_skellam_pmf", lambda x: frac_skellam_pmf(_FRAC, x, 1.0, 0)),
    ("time", "frac_skellam_pmf_table", lambda x: frac_skellam_pmf_table(_FRAC, 1.0, x, [0])),
    ("time", "frac_skellam_pmf_wright", lambda x: frac_skellam_pmf_wright(_FRAC, x, 1.0, 0)),
    ("time", "frac_skellam_moments", lambda x: frac_skellam_moments(_FRAC, 1.0, x)),
    ("time", "frac_poisson_table", lambda x: special.frac_poisson_table(3, 1.0, x, 0.5)),
    ("time", "RectDomain", lambda x: RectDomain(t=[1.0, x], resolution=4)),
    ("time", "integral_cf_gmsp", lambda x: integral_cf_gmsp(_SPEC, [x], 1.0)),
    ("time", "uniform-compound-mpp",
     lambda x: uniform_compound_sample(CompoundSpec([1.0], [1.0], [1.0]), [x], 3, 0)),
    ("time", "uniform-equalrate",
     lambda x: uniform_compound_sample({1: 1.0}, [x], 3, 0)),
    # jumps
    ("jump", "JumpSpec", lambda x: JumpSpec({1: (1.0,), x: (1.0,)})),
    ("jump", "AltSpec", lambda x: AltSpec({x: 1.0})),
    ("jump", "compound-equalrate",
     lambda x: gmsp_compound_equalrate_sample({x: 1.0}, 1, [1.0], 3, 0)),
    ("jump", "uniform-equalrate",
     lambda x: uniform_compound_sample({x: 1.0}, [1.0], 3, 0)),
    ("jump", "gmsp_array_sample", lambda x: gmsp_array_sample(_ARRAY, [x], [1.0], 3, 0)),
    ("jump", "alt_array_sample", lambda x: alt_array_sample(10, _alt_rule, [x], {x: 1.0}, 3, 0)),
    ("jump", "scaled_poisson_convolution", lambda x: scaled_poisson_convolution({x: 1.0})),
    # jump values
    ("jump value", "CompoundSpec", lambda x: CompoundSpec([1.0], [0.0, x], [0.5, 0.5])),
    ("jump value", "uniform-compound-mpp",
     lambda x: uniform_compound_sample(CompoundSpec([1.0], [x], [1.0]), [1.0], 3, 0)),
    # stable indices
    ("stable index", "FracSkellamSpec", lambda x: FracSkellamSpec(1.0, 1.0, 0.5, x)),
    ("stable index", "stable", lambda x: stable_subordinator_sample(x, 1.0, 3, 0)),
    ("stable index", "inv-stable", lambda x: inv_stable_marginal_sample(x, 1.0, 3, 0)),
    ("stable index", "frac_poisson_table", lambda x: special.frac_poisson_table(3, 1.0, 1.0, x)),
    # scales and resolutions
    ("whole scale", "RectDomain", lambda x: RectDomain(t=[1.0], resolution=x)),
    ("whole scale", "RectDomain-axis", lambda x: RectDomain(t=[1.0, 1.0], resolution=[4, x])),
    ("whole scale", "TriangularArraySpec", lambda x: TriangularArraySpec(n=x, probs=_ARRAY.probs)),
    ("scale", "alt_array_sample", lambda x: alt_array_sample(x, _alt_rule, [1], {1: 1.0}, 3, 0)),
    # counts: an infinite count used to be an OverflowError
    ("count", "frac_poisson_table", lambda x: special.frac_poisson_table(x, 1.0, 1.0, 0.5)),
    ("count", "compound-equalrate", lambda x: gmsp_compound_equalrate_sample({1: 1.0}, x, [1.0], 3, 0)),
    # a seed of 2.7 used to draw at seed 2, inf to raise OverflowError and -1
    # numpy's own error; a draw count ended in numpy's "negative dimensions"
    # or a TypeError
    *[("count", f"seed-{name}", lambda x, draw=draw: draw(3, x)) for name, draw in SAMPLERS],
    *[("count", f"draws-{name}", lambda x, draw=draw: draw(x, 0)) for name, draw in SAMPLERS],
    # an exact identity draws nothing, and recorded int(seed)
    ("count", "seed-cf-product", lambda x: identities.run_identity("cf-product", seed=x)),
]

CASES = [pytest.param(call, bad, id=f"{kind}-{name}-{bad}")
         for kind, name, call in ENTRY_POINTS for bad in BAD[kind]]


@pytest.mark.parametrize("call, bad", CASES)
def test_values_outside_the_domain_are_refused(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(bad)


def test_integers_past_the_float_range_are_refused():
    # a count and a rate of 10**400 ended in a bare OverflowError; a seed that
    # large is refused with them
    for call in (lambda: special.frac_poisson_table(10**400, 1.0, 1.0, 0.5),
                 lambda: mpp_pmf(0, [10**400], [1.0]),
                 lambda: gmsp_sample(_SPEC, [1.0], 3, 10**400)):
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("call", [
    lambda rates: gmsp_compound_equalrate_sample(rates, 1, [1.0], 3, 0),
    lambda rates: uniform_compound_sample(rates, [1.0], 3, 0),
], ids=["compound-equalrate", "uniform-equalrate"])
def test_an_equal_rate_map_is_refused_one_jump_at_a_time(call):
    # the map is a one-axis JumpSpec, which checks each jump's rate on its own;
    # the message used to quote every rate, "got [-0.5, 0.3]"
    with pytest.raises(ValueError, match=r"^rates must be finite and strictly positive, "
                                         r"got \(-0\.5,\)$"):
        call({1: -0.5, 2: 0.3})
    with pytest.raises(ValueError, match="^a JumpSpec needs at least one jump$"):
        call({})


@pytest.mark.parametrize("call", [
    lambda t: gmsp_compound_equalrate_sample({1: 1.0}, len(t), t, 3, 0),
    lambda t: uniform_compound_sample({1: 1.0}, t, 3, 0),
], ids=["compound-equalrate", "uniform-equalrate"])
def test_an_equal_rate_time_sum_past_the_float_range_names_the_times_passed(call):
    # two finite times of 1e308 sum to inf: compound-equalrate refused them as
    # "got [inf]", a time never passed, and uniform-equalrate with numpy's
    # "lam value too large"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call([1e308, 1e308])
    assert str(err.value) == "times must have a finite sum, got [1e+308, 1e+308]"


def test_whole_scales_keep_their_value():
    # a resolution of 2.7 used to be truncated to 2
    assert RectDomain(t=[1.0], resolution=4.0).resolution.tolist() == [4]
    # float64 holds every whole number up to 2**53
    assert RectDomain(t=[1.0], resolution=2**53).resolution.tolist() == [2**53]
    # scale 2.5 at t = 0.8 takes floor(2.5 * 0.8) = 2 summands, each equal to 1;
    # a scale truncated to 2 would take floor(2 * 0.8) = 1
    draws = alt_array_sample(2.5, lambda l, axis, j: 0.9999, [1], {1: 0.8}, 2000, 0).values
    assert draws.max() == 2


@pytest.mark.parametrize("name, sampler", [
    ("inverse-subordinator-mean", "inv_stable_marginal_sample"),
])
def test_nan_draws_fail_the_z_score_identities(monkeypatch, name, sampler):
    # max(z, nan) dropped a NaN z, so NaN draws used to pass with statistic 0;
    # now the sampler's batch refuses them.  The sampler takes the draw count
    # last and the seed by keyword
    monkeypatch.setattr(fractional, sampler,
                        lambda *args, seed: SampleBatch(np.full(args[-1], math.nan), seed=seed))
    with pytest.raises(ValueError, match="a draw left the float range"):
        identities.run_identity(name, n=50)


def test_nan_draws_make_frac_pmf_raise(monkeypatch):
    monkeypatch.setattr(fractional, "frac_skellam_sample",
                        lambda *args, seed: SampleBatch(np.full(args[-1], math.nan), seed=seed))
    with pytest.raises(ValueError, match="a draw left the float range"):
        identities.run_identity("frac-pmf", n=50)


@pytest.mark.parametrize("name", ["inverse-subordinator-mean"])
@pytest.mark.parametrize("n", [0, 1])
def test_z_score_identities_refuse_fewer_than_two_draws(name, n):
    with pytest.raises(ValueError, match="at least 2 draws"):
        identities.run_identity(name, n=n)


@pytest.mark.parametrize("name", ["frac-mean", "frac-variance-printed", "frac-variance-quadratic"])
def test_moment_identities_draw_nothing(monkeypatch, name):
    # they sum the exact tables, so a sampler that cannot draw and any n
    # leave the report as it is
    def no_draws(*args, seed):
        raise AssertionError("a moment identity drew")

    expected = identities.run_identity(name)
    monkeypatch.setattr(fractional, "frac_skellam_sample", no_draws)
    for n in (None, 0, 1):
        assert identities.run_identity(name, n=n) == expected


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.02])
def test_small_stable_indices_give_finite_values_or_refuse(alpha):
    # stable indices near 0 are inside the domain: every entry point returns
    # finite values there, or the stable subordinator refuses a draw that
    # leaves the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clock = inv_stable_marginal_sample(alpha, 2.0, 100_000, 0).values
        assert np.all((clock > 0.0) & (clock < math.inf))
        draws = frac_skellam_sample(FracSkellamSpec(1.0, 1.0, alpha, alpha), 1.0, 2.0,
                                    100_000, 0).values
        assert draws.dtype == np.int64
        table = frac_skellam_pmf_table(FracSkellamSpec(1.0, 1.0, alpha, alpha), 1.0, 2.0,
                                       range(-3, 4))
        assert all(0.0 < p < 1.0 for p in table)
        assert all(0.0 < p < 1.0 for p in special.frac_poisson_table(5, 1.0, 2.0, alpha))
        try:
            d = stable_subordinator_sample(alpha, 1.0, 1_000, 0).values
        except special.TruncationError:
            return
    assert np.all((d > 0.0) & (d < math.inf))
