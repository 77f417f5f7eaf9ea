"""Stable clocks and the fractional two-parameter Skellam process."""

import contextlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

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
from skellam_lab import fractional, identities, special
from skellam_lab.records import (LatticePMF, SampleBatch, choice_cdf, make_rng, spawn_rngs,
                                 table_draws)
from skellam_lab.special import TruncationError, grow_table
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


def test_inverse_stable_clock_stays_in_range_at_small_index():
    # the clock used to take a 1/alpha power: at alpha 0.01 these draws held
    # 2,340 zeros, 87 infinities and 259 NaNs
    clock = inv_stable_marginal_sample(0.01, 1.0, 2_000_000, seed=0).values
    assert np.all((clock > 0.0) & (clock < math.inf))


def test_stable_draws_past_the_float_range_are_refused():
    # D(1) at alpha 0.01 passes 1e308; no numpy warning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError, match="float range"):
            stable_subordinator_sample(0.01, 1.0, 1_000, seed=0)


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05])
def test_frac_sample_chi2_at_small_index(alpha):
    # |k| <= 60 leaves no tail: the law is near geometric with ratio 1/2
    spec = FracSkellamSpec(1.0, 1.0, alpha, alpha)
    batch = frac_skellam_sample(spec, 1.0, 1.0, 200_000, seed=67)
    probs = np.array(frac_skellam_pmf_table(spec, 1.0, 1.0, range(-60, 61)))
    report = lattice_chi2(batch, LatticePMF(-60, probs))
    assert report.verdict, f"p={report.p_value}"


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


def _sequential_sample(spec, t1, t2, n, seed):
    """The clock route drawn side 1 then side 2, with the clock written as one expression."""
    sides = []
    for rng, lam, alpha, t in zip(spawn_rngs(seed, 2), (spec.lam1, spec.lam2),
                                  (spec.alpha, spec.beta), (t1, t2)):
        if t == 0.0:
            clock = np.zeros(n)
        elif alpha == 1.0:
            clock = np.full(n, float(t))
        else:
            theta = rng.uniform(0.0, np.pi, n)
            w = rng.standard_exponential(n)
            a, s, b = np.sin(alpha * theta), np.sin(theta), np.sin((1.0 - alpha) * theta) / w
            clock = t**alpha * s / (a**alpha * b ** (1 - alpha))
        sides.append(rng.poisson(lam * clock).astype(np.int64))
    return sides[0] - sides[1]


def _sides(spec, t1, t2):
    return [(spec.lam1, spec.alpha, t1), (spec.lam2, spec.beta, t2)]


def _clock_sample(spec, t1, t2, n, seed):
    """The sampler's clock route on both sides, side 1 then side 2, on their child streams."""
    one, two = (fractional._clock_side(rng, lam, alpha, t, n)
                for rng, (lam, alpha, t) in zip(spawn_rngs(seed, 2), _sides(spec, t1, t2)))
    return one - two


def _table_sample(spec, t1, t2, n, seed):
    """Each side by table_draws over its exact table on its child stream; a side at t = 0 is 0."""
    def side(rng, lam, alpha, t):
        if t == 0.0:
            return np.zeros(n, np.int64)
        table = grow_table([], special.frac_poisson_entries(lam, t, alpha))
        return table_draws(rng, choice_cdf(table), n)

    rngs = spawn_rngs(seed, 2)
    one, two = (side(rng, *params) for rng, params in zip(rngs, _sides(spec, t1, t2)))
    return one - two


@pytest.mark.parametrize("spec, t1, t2, n", [
    (FracSkellamSpec(1.0, 1.0, 0.5, 0.5), 1.0, 1.0, 1000),  # the square-root fast path
    (FracSkellamSpec(1.3, 0.6, 0.6, 0.8), 1.5, 1.0, 200_000),
    (FracSkellamSpec(1.2, 0.8, 1.0, 0.7), 1.0, 1.5, 1000),
    (FracSkellamSpec(1.2, 0.8, 0.3, 1.0), 2.0, 1.5, 1000),
    (FracSkellamSpec(1.2, 0.8, 0.4, 0.9), 0.0, 1.5, 1000),
    (FracSkellamSpec(1.2, 0.8, 0.4, 0.9), 1.5, 0.0, 1000),
    (FracSkellamSpec(1.2, 0.8, 0.4, 0.9), 1.5, 1.0, 1),
    (FracSkellamSpec(1.2, 0.8, 0.4, 0.9), 1.5, 1.0, 0),
])
def test_frac_sample_is_the_sequential_draw(spec, t1, t2, n):
    # side 1, then side 2, each from its own child stream: the clock route is
    # the one-expression clock, and the sampler, every mean here below 30,
    # inverts each side's exact table
    assert np.array_equal(_clock_sample(spec, t1, t2, n, seed=11),
                          _sequential_sample(spec, t1, t2, n, seed=11))
    batch = frac_skellam_sample(spec, t1, t2, n, seed=11)
    assert batch.values.dtype == np.int64 and batch.values.shape == (n,)
    assert np.array_equal(batch.values, _table_sample(spec, t1, t2, n, seed=11))


def test_concurrent_frac_samples_are_each_the_sequential_draw():
    # four callers at once, each drawing both sides on its own thread
    spec = FracSkellamSpec(1.3, 0.6, 0.6, 0.8)
    results = {}

    def call(seed):
        for _ in range(5):
            batch = frac_skellam_sample(spec, 1.5, 1.0, 5000, seed)
            results.setdefault(seed, []).append(batch.values)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for seed in range(4):
        want = _table_sample(spec, 1.5, 1.0, 5000, seed)
        assert len(results[seed]) == 5 and all(np.array_equal(v, want) for v in results[seed])


def _route_log(monkeypatch):
    """Patch both routes of fractional._draw_side to log which one each side takes."""
    routes = []
    for name, route in (("table_draws", "table"), ("_clock_side", "clock")):
        def logged(*args, _original=getattr(fractional, name), _route=route):
            routes.append(_route)
            return _original(*args)
        monkeypatch.setattr(fractional, name, logged)
    return routes


@pytest.mark.parametrize("lam2, route", [(29.99, "table"), (30.0, "clock"), (1e5, "clock")])
def test_frac_sample_route_does_not_depend_on_the_draw_count(monkeypatch, lam2, route):
    # side 1 has mean 1.3 * 1.5^0.6; side 2 mean lam2, at t2 = 1
    routes = _route_log(monkeypatch)
    spec = FracSkellamSpec(1.3, lam2, 0.6, 0.3)
    for n in (1, 200_000):
        frac_skellam_sample(spec, 1.5, 1.0, n, seed=5)
    assert routes == ["table", route] * 2


def test_frac_sample_on_the_table_route_is_prefix_stable_in_the_draw_count():
    spec = FracSkellamSpec(1.3, 0.6, 0.6, 0.8)
    short = frac_skellam_sample(spec, 1.5, 1.0, 1000, seed=9).values
    long = frac_skellam_sample(spec, 1.5, 1.0, 200_000, seed=9).values
    assert np.array_equal(short, long[:1000])


@pytest.mark.parametrize("lam1, t1", [(30.0, 1.0), (40.0, 2.0), (1e308, 10.0)])
def test_a_side_past_the_rule_builds_no_table(monkeypatch, lam1, t1):
    # mean 30, 40 * 2^0.5 and a mean past the float range take the clock route
    # before any table is built: at mean 1e5 a table would cost 0.2 s and then
    # pass the 10,000-entry cap
    calls = []
    original = fractional.frac_poisson_entries

    def counted(lam, t, alpha):
        calls.append((lam, t, alpha))
        return original(lam, t, alpha)

    monkeypatch.setattr(fractional, "frac_poisson_entries", counted)
    # numpy's "lam value too large" at mean 1e308 * 10^0.5
    with pytest.raises(ValueError) if lam1 == 1e308 else contextlib.nullcontext():
        frac_skellam_sample(FracSkellamSpec(lam1, 1.0, 0.5, 0.7), t1, 2.0, 100, seed=0)
    assert calls == ([] if lam1 == 1e308 else [(1.0, 2.0, 0.7)])


def test_classical_side_below_the_rule_is_the_poisson_count():
    # at alpha = 1 the exact table is the Poisson table that poisson_counts inverts
    from skellam_lab.gmsp import poisson_counts
    for lam, t in ((2.5, 1.2), (29.0, 1.0)):
        got = fractional._draw_side(make_rng(3), lam, 1.0, t, 5000)
        assert np.array_equal(got, poisson_counts(make_rng(3), lam * t, 5000))


def test_frac_sample_draws_both_sides_on_the_calling_thread_under_the_callers_errstate(monkeypatch):
    seen = []

    def side(rng, lam, alpha, t, n):
        seen.append((t, threading.get_ident(), np.geterr()))
        return np.full(n, int(t))

    monkeypatch.setattr(fractional, "_draw_side", side)
    threads = threading.active_count()
    with np.errstate(all="raise"):
        frac_skellam_sample(_SPEC, 1.0, 2.0, 10, seed=0)
    assert threading.active_count() == threads
    # side 1, then side 2, each on this thread, under the caller's setting
    err = {"divide": "raise", "over": "raise", "under": "raise", "invalid": "raise"}
    assert seen == [(1.0, threading.get_ident(), err), (2.0, threading.get_ident(), err)]
    # the clock route puts its own overflow setting on top: an overflow of
    # lam * L(t) is numpy's one error
    with np.errstate(all="raise"), pytest.raises(ValueError) as exc:
        fractional._clock_side(make_rng(0), 1e308, 1.0, 10.0, 10)
    assert type(exc.value) is ValueError and str(exc.value) == _poisson_overflow_message()


def _poisson_overflow_message():
    with pytest.raises(ValueError) as exc:
        np.random.default_rng(0).poisson(np.array([math.inf]))
    return str(exc.value)


@pytest.mark.parametrize("lam1, lam2", [(1.0, 1e308), (1e308, 1.0), (1e308, 1e308)])
def test_frac_sample_overflow_on_either_side_is_numpys_error(lam1, lam2):
    threads = threading.active_count()
    with pytest.raises(ValueError) as exc:
        frac_skellam_sample(FracSkellamSpec(lam1, lam2, 0.5, 0.3), 1.0, 1.0, 1000, seed=3)
    assert type(exc.value) is ValueError and str(exc.value) == _poisson_overflow_message()
    assert threading.active_count() == threads


@pytest.mark.parametrize("fail", [(1,), (2,), (1, 2)])
def test_frac_sample_raises_side_ones_error_first(monkeypatch, fail):
    # the sequential order: side 1's error, and side 2 is never drawn; else side 2's
    drawn = []

    def side(rng, lam, alpha, t, n):
        drawn.append(t)
        if int(t) in fail:
            raise ArithmeticError(f"side {int(t)}")
        return np.full(n, int(t))

    monkeypatch.setattr(fractional, "_draw_side", side)
    with pytest.raises(ArithmeticError, match=f"side {fail[0]}"):
        frac_skellam_sample(_SPEC, 1.0, 2.0, 10, seed=0)
    assert drawn == ([1.0] if 1 in fail else [1.0, 2.0])


# frac-pmf draws every point by table inversion, so its verdict no longer
# decides the subordination construction: the clock route is checked here, at
# frac-pmf's ten points and at two stable indices near 0, where the law is
# near geometric with ratio 1/2 and |k| <= 60 leaves no tail
CLOCK_LAW_POINTS = [(identities._FRAC, 1.0), *identities._MOMENT_GRID,
                    ((1.0, 1.0, 0.01, 0.01), 1.0), ((1.0, 1.0, 0.05, 0.05), 1.0)]


def clock_law_reports(n, seeds):
    """(label, lattice_chi2 report) of n clock-route draws at each CLOCK_LAW_POINTS point
    against frac_skellam_pmf_table, point i at seed 100 seed + i: tier-1 runs them at
    n = 100,000, CI at 1,000,000."""
    ks = range(-60, 61)
    for seed in seeds:
        for i, (params, t) in enumerate(CLOCK_LAW_POINTS):
            spec = FracSkellamSpec(*params)
            batch = SampleBatch(_clock_sample(spec, t, t, n, 100 * seed + i), seed)
            law = LatticePMF(-60, np.array(frac_skellam_pmf_table(spec, t, t, ks)))
            yield f"clock-{params}-t{t}-seed{seed}", lattice_chi2(batch, law)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clock_route_draws_follow_the_exact_law(seed):
    reports = list(clock_law_reports(100_000, [seed]))
    assert len(reports) == 12
    assert not [(label, report.p_value) for label, report in reports if not report.verdict]


_BLAS_PROBE = """
import sys
from skellam_lab import FracSkellamSpec, frac_skellam_pmf_table
from skellam_lab.identities import run_identity
from skellam_lab.special import frac_poisson_table
rows = [frac_poisson_table(20, 4.0, 1.0, 0.3), frac_poisson_table(20, 0.5, 1.0, 0.8),
        frac_skellam_pmf_table(FracSkellamSpec(1.0, 1.0, 0.7, 0.9), 1.0, 1.0, range(-20, 21)),
        [run_identity("frac-mean", seed=0).statistic]]
print("\\n".join(" ".join(map(float.hex, row)) for row in rows))
"""


def test_fractional_tables_do_not_depend_on_the_blas_thread_count():
    # a BLAS dot product of the ~11,500 quadrature nodes used to round
    # differently when OpenBLAS split it over two threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 4


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


def test_frac_pmf_tables_leave_no_tail_mass():
    # lattice_chi2 charges untabulated mass to the top cell: a table of |k| <= 10
    # left 3.4e-8 to 6.2e-3 there, which 2,000,000 draws rejected (p = 1.5e-6)
    ks = range(-identities._FRAC_KMAX, identities._FRAC_KMAX + 1)
    for params, t in [(identities._FRAC, 1.0), *identities._MOMENT_GRID]:
        spec = FracSkellamSpec(*params)
        assert abs(1.0 - math.fsum(frac_skellam_pmf_table(spec, t, t, ks))) <= 1e-15, (spec, t)


def _shifted(spec):
    return FracSkellamSpec(spec.lam1, spec.lam2, spec.alpha + 0.02, spec.beta + 0.02)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frac_pmf_rejects_a_sampler_with_shifted_indices(monkeypatch, seed):
    # p = 6.4e-26, 3.0e-21 and 1.4e-14; a chi-square at one point read 0.28,
    # 0.005 and 0.03
    monkeypatch.setattr(fractional, "frac_skellam_sample", lambda spec, t1, t2, n, seed:
                        frac_skellam_sample(_shifted(spec), t1, t2, n, seed=seed))
    assert not run_identity("frac-pmf", seed=seed).verdict


def test_frac_mean_rejects_a_mean_with_shifted_indices(monkeypatch):
    monkeypatch.setattr(fractional, "frac_skellam_moments", lambda spec, t1, t2, form:
                        frac_skellam_moments(_shifted(spec), t1, t2, form))
    report = run_identity("frac-mean")
    assert not report.verdict and report.statistic > 0.02


def test_frac_variance_quadratic_rejects_the_printed_form(monkeypatch):
    monkeypatch.setattr(fractional, "frac_skellam_moments", lambda spec, t1, t2, form:
                        frac_skellam_moments(spec, t1, t2, "printed"))
    assert not run_identity("frac-variance-quadratic").verdict


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


# (alpha, beta) pairs of the Wright grids: equal, each side larger, both near 1, and alpha = 1
WRIGHT_INDICES = ((0.5, 0.5), (0.3, 0.8), (0.7, 0.4), (0.9, 0.9), (1.0, 0.6), (0.4, 0.9))
WRIGHT_GRID = ((0.3, 1.0, 1.45, 1.55, 2.0), (0.8, 1.2), (-3, 0, 3))
# the whole grid, run in CI: 1,008 points
WRIGHT_FULL_GRID = ((0.3, 0.7, 1.0, 1.3, 1.45, 1.5, 1.55, 2.0), (0.8, 1.0, 1.2), range(-3, 4))


def wright_grid_points(lams, t1s, ks):
    """(spec, t1, k) of each grid point, in order.

    Each point is lam1 = lam, lam2 = 0.9 lam, an (alpha, beta) of
    WRIGHT_INDICES, t = (t1, 1) and one k.
    """
    for lam in lams:
        for alpha, beta in WRIGHT_INDICES:
            spec = FracSkellamSpec(lam, 0.9 * lam, alpha, beta)
            for t1 in t1s:
                for k in ks:
                    yield spec, t1, k


def wright_grid_misses(lams, t1s, ks):
    """(misses, values, refusals) of the Wright form against the quadrature over a grid.

    A miss is a value more than 1e-9 from frac_skellam_pmf.
    """
    misses, values, refusals = [], 0, 0
    for spec, t1, k in wright_grid_points(lams, t1s, ks):
        try:
            wright = frac_skellam_pmf_wright(spec, t1, 1.0, k)
        except TruncationError:
            refusals += 1
            continue
        values += 1
        gap = abs(wright - frac_skellam_pmf(spec, t1, 1.0, k))
        if not gap <= 1e-9:
            misses.append((spec.lam1, spec.alpha, spec.beta, t1, k, gap))
    return misses, values, refusals


def wright_grid_outcomes(lams, t1s, ks):
    """The Wright form at each grid point, in order: its value's repr or its refusal's text."""
    outcomes = []
    for spec, t1, k in wright_grid_points(lams, t1s, ks):
        try:
            outcomes.append(repr(frac_skellam_pmf_wright(spec, t1, 1.0, k)))
        except TruncationError as err:
            outcomes.append(str(err))
    return outcomes


def test_wright_form_is_the_quadrature_or_refuses_over_a_grid():
    # every point of the grid, not only the pinned ones: a value or a refusal,
    # never a silently wrong number
    misses, values, refusals = wright_grid_misses(*WRIGHT_GRID)
    assert values + refusals == 180
    assert not misses


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
    # each row of a block of layers is the float wright_psi23 returns for its parameters
    log_terms = fractional._wright_log_terms(n, alpha, beta, z)
    degs = (0, 1, 7, 30)
    r1s = np.concatenate([np.arange(deg + 1) for deg in degs])
    r2s = np.concatenate([np.arange(deg, -1, -1) for deg in degs])
    rows, _ = special.sum_rows(lambda rows, w: log_terms(r1s[rows], r2s[rows], w), len(r1s), 4,
                               "psi")
    assert rows == [special.wright_psi23(
        (n + r1 + 1.0, 1.0), (r2 + 1.0, 1.0),
        (alpha * (n + r1) + 1.0, alpha), (beta * r2 + 1.0, beta), (n + 1.0, 1.0), z)
        for r1, r2 in zip(r1s.tolist(), r2s.tolist())]


def _overflowing_from(layer):
    """A _wright_log_terms whose rows in layers >= ``layer`` overflow at their first term."""
    make = fractional._wright_log_terms

    def make_overflowing(*args):
        log_terms = make(*args)

        def overflowing(r1s, r2s, width):
            logs = log_terms(r1s, r2s, width)
            logs[r1s + r2s >= layer] = math.inf
            return logs
        return overflowing
    return make_overflowing


def test_wright_refusal_past_the_outer_stop_is_never_raised(monkeypatch):
    # this series stops after layer 16, inside the block of layers 16-19:
    # a refusal in layers 17-19 is computed but never raised, one in layer
    # 16 is raised as the scalar order raises it
    spec = FracSkellamSpec(0.3, 0.27, 0.9, 0.9)
    assert frac_skellam_pmf_wright(spec, 0.8, 1.0, -3) == 0.002679133963762556
    monkeypatch.setattr(fractional, "_wright_log_terms", _overflowing_from(17))
    assert frac_skellam_pmf_wright(spec, 0.8, 1.0, -3) == 0.002679133963762556
    monkeypatch.setattr(fractional, "_wright_log_terms", _overflowing_from(16))
    with pytest.raises(TruncationError) as err:
        frac_skellam_pmf_wright(spec, 0.8, 1.0, -3)
    assert str(err.value) == "wright_psi23 has a term above the float range (partial sum inf)"


def test_wright_refusal_inside_a_block_keeps_its_text_and_partial():
    # layer 17 is the second layer of its block; the layers before it are
    # added to the partial sum, the ones after it are not
    with pytest.raises(TruncationError) as err:
        frac_skellam_pmf_wright(FracSkellamSpec(1.5, 1.35, 0.3, 0.8), 1.2, 1.0, -3)
    assert err.value.partial == 40317.55740850564
    assert str(err.value) == ("Wright double series layer 17 (-8.93e+04) loses the sum to "
                              "rounding (partial sum 40317.55740850564)")


def test_wright_refuses_a_coefficient_above_the_float_range(monkeypatch):
    # no point of the grids reaches one (it needs x1 + x2 above 709), so one
    # is forced: block 0 holds the rows (0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
    # ..., and the fifth is layer 2, r1 = 1
    def overflowing(x):
        out = special._exp(x)
        out[4] = math.inf
        return out

    monkeypatch.setattr(fractional, "_exp", overflowing)
    with pytest.raises(TruncationError) as err:
        frac_skellam_pmf_wright(FracSkellamSpec(1.0, 0.9, 0.5, 0.5), 1.0, 1.0, 0)
    assert str(err.value) == ("Wright double series coefficient of layer 2, row 1 is above "
                              "the float range (partial sum inf)")


def test_wright_form_refuses_a_power_of_x1_above_the_float_range():
    # 50^200 overflows; this ended in a bare OverflowError
    spec = FracSkellamSpec(50.0, 1.0, 0.5, 0.5)
    assert frac_skellam_pmf(spec, 1.0, 1.0, 200) == pytest.approx(2.177e-4, rel=1e-3)
    with pytest.raises(TruncationError, match=r"^Wright double series factor x1\^n = 50.0\^200 "
                                              r"is above the float range"):
        frac_skellam_pmf_wright(spec, 1.0, 1.0, 200)


@pytest.mark.parametrize("lam", [1e200, 1e160])
@pytest.mark.parametrize("k", [-1, 0, 1])
def test_wright_form_refuses_z_above_the_float_range(lam, k):
    # x1 = x2 = lam are finite but z = x1 x2 is not: this ended in a bare
    # ValueError ("z must be finite, got inf")
    spec = FracSkellamSpec(lam, lam, 0.5, 0.5)
    message = f"Wright double series argument z = {lam!r} * {lam!r} is above the float range"
    with pytest.raises(TruncationError, match="^" + re.escape(message)):
        frac_skellam_pmf_wright(spec, 1.0, 1.0, k)
    if k == 0:  # the convolution form refuses there too
        with pytest.raises(TruncationError):
            frac_skellam_pmf(spec, 1.0, 1.0, k)


@pytest.mark.parametrize("spec, t1, t2", [
    (FracSkellamSpec(1e-200, 1e-200, 0.9, 0.9), 1e-200, 1.0),  # x1 underflows to 0
    (FracSkellamSpec(1e-200, 1e-200, 0.9, 0.9), 1e-200, 1e-200),  # both do
    (FracSkellamSpec(1e-200, 3.0, 0.9, 0.7), 1e-200, 1.0),
    (FracSkellamSpec(3.0, 1e-200, 0.9, 0.7), 1.0, 1e-200),
])
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_wright_form_where_lam_t_alpha_underflows(spec, t1, t2, k):
    # a side whose lam t^alpha underflows to 0 ended in a bare ValueError
    # (math domain error); its powers are now those of 0, and the pmf holds
    assert abs(frac_skellam_pmf_wright(spec, t1, t2, k)
               - frac_skellam_pmf(spec, t1, t2, k)) <= fractional._WRIGHT_TOL


@pytest.mark.parametrize("spec, t1, t2, mean", [
    (FracSkellamSpec(1e300, 1.0, 0.5, 0.5), 1e300, 1, "1e+300 * 1e+300**0.5"),
    (FracSkellamSpec(1.0, 1e300, 0.5, 0.7), 1, 1e300, "1e+300 * 1e+300**0.7"),
    (FracSkellamSpec(1e300, 1e300, 0.5, 0.9), 1e300, 1e300, "1e+300 * 1e+300**0.5"),  # side 1 first
])
@pytest.mark.parametrize("k", [-1, 0, 1])
def test_wright_form_refuses_an_infinite_mean_with_the_convolution_forms_text(spec, t1, t2, mean, k):
    # the Wright form raised "z must be finite, got inf" here, and the
    # moments gave the product alone, "lam * t**alpha = inf"
    for call in (lambda: frac_skellam_pmf(spec, t1, t2, k),
                 lambda: frac_skellam_pmf_wright(spec, t1, t2, k),
                 lambda: frac_skellam_moments(spec, t1, t2)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"means must be finite, got lam * t**alpha = {mean}"


def test_wright_form_needs_positive_times():
    spec = FracSkellamSpec(1.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        frac_skellam_pmf_wright(spec, 0.0, 1.0, 0)


def test_moments_refuse_an_overflowing_mean():
    # lam t^alpha = 1e308 * 10**0.5 leaves the float range: this used to be (inf, inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="means must be finite"):
            frac_skellam_moments(FracSkellamSpec(1e308, 1.0, 0.5, 0.5), 10.0, 1.0)


@pytest.mark.parametrize("spec, form", [
    # (lam t^alpha)^2 overflows: this ended in OverflowError
    (FracSkellamSpec(1e200, 1.0, 0.5, 0.5), "quadratic"),
    (FracSkellamSpec(1e308, 1.0, 0.5, 0.5), "printed"),  # lam t^alpha / alpha overflows
    (FracSkellamSpec(1.5e308, 1.5e308, 1.0, 1.0), "printed"),  # each side is finite, their sum is not
])
def test_moments_refuse_an_overflowing_variance(spec, form):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="means must be finite"):
            frac_skellam_moments(spec, 1.0, 1.0, form)


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
