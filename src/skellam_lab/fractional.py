"""Inverse-stable time changes and the fractional two-parameter Skellam process.

The process is N_1(L_1(t1)) - N_2(L_2(t2)) where L_1, L_2 are independent
inverse stable subordinators with indices alpha and beta.  Only fixed-time
marginals are needed downstream, so subordinators are sampled marginally:
a positive stable draw D with E[e^{-uD}] = e^{-u^alpha} gives
L(t) =d (t / D)^alpha.

A side N(L(t)) of rate lam is drawn by one of two routes, picked on its
mean lam t^alpha alone, never on the number of draws.  Below mean 30 it
inverts its exact law table, ``special.frac_poisson_entries`` run into its
tail, with one uniform a draw; every other side takes the clock route, a
Poisson draw on each draw of L(t).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .records import (SampleBatch, as_count, as_indices, as_rates, as_times, choice_cdf,
                      make_rng, spawn_rngs, table_draws)
from .special import (TruncationError, _exp, clock_means, frac_poisson_entries, grow_table,
                      sum_rows, sum_series)

__all__ = [
    "FracSkellamSpec",
    "stable_subordinator_sample",
    "inv_stable_marginal_sample",
    "frac_skellam_sample",
    "frac_skellam_pmf",
    "frac_skellam_pmf_table",
    "frac_skellam_pmf_wright",
    "frac_skellam_moments",
]


# The Wright double series alternates in its layer degree, and its layers grow
# far above the sum as lam t^alpha grows.  A layer L carries a rounding error of
# about 16 eps |L| x1^n, and the layers' errors add up; once their sum passes
# this absolute error the value is refused.
_WRIGHT_TOL = 1e-9
_WRIGHT_BLOCK = 4  # layers of the Wright double series summed in one block
_WRIGHT_WIDTH = 32  # terms per Wright row in the first block; doubled while a row runs on
_WRIGHT_MARGIN = 4  # a block starts this many terms wider than the longest row of the last

# Below this mean lam t^alpha a side inverts its exact table; from it up, it
# draws on the clock.  On a 2 vCPU Xeon (numpy 2.4), 100,000 draws of a side
# cost 8.5-12 ms by the clock (3.5-7 ms at alpha = 1), and 1.4-7 ms by the
# table up to mean 30, where a table holds at most about 1,300 entries (the
# alpha -> 0 limit is geometric, with ratio mean / (1 + mean)).  An entry
# costs about 4 us to build, so at mean 100 and alpha <= 0.3 (2,500-4,100
# entries) the table loses, 12-18 ms against 10 ms, and at mean 300 and
# alpha 0.05 it passes the 10,000-entry cap after 0.04 s.  Fewer draws favour
# the clock, but a rule on the mean alone keeps draws prefix-stable in n
# (BENCH_47.json).
_TABLE_MEANS_BELOW = 30.0


@dataclass(frozen=True)
class FracSkellamSpec:
    """Rates of the two Poisson components and their stable time-change indices."""

    lam1: float
    lam2: float
    alpha: float
    beta: float

    def __post_init__(self):
        as_rates((self.lam1, self.lam2))
        as_indices((self.alpha, self.beta))


def _kanter(rng, alpha: float, n: int):
    """sin(alpha theta), sin(theta) and sin((1 - alpha) theta) / w of Kanter's stable draw.

    Three fresh arrays, each computed in place, for the callers to reuse.
    """
    theta = rng.uniform(0.0, np.pi, n)
    w = rng.standard_exponential(n)
    a = alpha * theta
    np.sin(a, out=a)
    s = np.sin(theta)
    theta *= 1.0 - alpha
    b = np.sin(theta, out=theta)
    b /= w
    return a, s, b


def _inv_stable_clock(rng, alpha: float, t: float, n: int) -> np.ndarray:
    """``n`` draws of L(t) =d (t / D(1))^alpha; no draw is taken at t = 0 or alpha = 1.

    Each draw is t^alpha s / (a^alpha b^(1 - alpha)), in that order of
    operations, computed in the arrays of :func:`_kanter`.  Augmented powers
    keep numpy's scalar-power fast paths (a square root at alpha = 1/2).
    """
    if t == 0.0:
        return np.zeros(n)
    if alpha == 1.0:
        return np.full(n, float(t))
    a, s, b = _kanter(rng, alpha, n)
    s *= t**alpha
    a **= alpha
    b **= 1.0 - alpha
    a *= b
    s /= a  # no 1/alpha power to overflow
    return s


def stable_subordinator_sample(alpha: float, t: float, n_draws: int, seed: int) -> SampleBatch:
    """Draws of D(t) with E[e^{-uD(t)}] = e^{-t u^alpha}; alpha = 1 is drift t.

    A draw past the float range (at small alpha) raises :class:`TruncationError`.
    """
    n_draws = as_count(n_draws, "draw counts")
    alpha = as_indices(alpha).item()
    as_times(t)
    if t == 0.0:
        values = np.zeros(n_draws)
    elif alpha == 1.0:
        values = np.full(n_draws, float(t))
    else:
        a, s, b = _kanter(make_rng(seed), alpha, n_draws)
        with np.errstate(all="ignore"):  # a numpy power overflows to inf, refused below
            values = np.float64(t) ** (1.0 / alpha) * (a / s ** (1.0 / alpha) * b ** ((1.0 - alpha) / alpha))
        if not np.all((values > 0.0) & (values < np.inf)):
            raise TruncationError(f"a stable draw at alpha {alpha!r} leaves the float range", 0.0)
    return SampleBatch(values=values, seed=as_count(seed, "seeds"))


def inv_stable_marginal_sample(alpha: float, t: float, n_draws: int, seed: int) -> SampleBatch:
    """Draws of the first-passage clock L(t), via L(t) =d (t / D(1))^alpha."""
    n_draws = as_count(n_draws, "draw counts")
    alpha = as_indices(alpha).item()
    as_times(t)
    return SampleBatch(values=_inv_stable_clock(make_rng(seed), alpha, t, n_draws), seed=int(seed))


def frac_skellam_sample(spec: FracSkellamSpec, t1: float, t2: float,
                        n_draws: int, seed: int) -> SampleBatch:
    """Draws of N_1(L_1(t1)) - N_2(L_2(t2)), all four components independent.

    Each side draws from its own child stream of the root seed, by the route
    its mean lam t^alpha picks (:func:`_draw_side`): below 30 it inverts its
    exact law table, from 30 up, at mean 0 or at a mean past the float range
    it conditions a Poisson draw on its own inverse-subordinator draw.  Side 1
    is drawn, then side 2; an error in side 1 is raised before side 2 draws.
    """
    n_draws = as_count(n_draws, "draw counts")
    as_times((t1, t2))
    rng1, rng2 = spawn_rngs(seed, 2)
    values = _draw_side(rng1, spec.lam1, spec.alpha, t1, n_draws)
    values -= _draw_side(rng2, spec.lam2, spec.beta, t2, n_draws)
    return SampleBatch(values=values, seed=int(seed))


def _draw_side(rng, lam: float, alpha: float, t: float, n: int) -> np.ndarray:
    """``n`` int64 draws of N(L(t)) for rate ``lam``, by the route its mean picks.

    A mean lam t^alpha in (0, 30) inverts the exact table of N(L(t)), whose
    tail is below 1e-20, with one uniform a draw
    (:func:`~skellam_lab.records.table_draws`).  Any other mean, 0, from 30
    up or not finite, takes the clock route (:func:`_clock_side`) and builds
    no table.
    """
    # in Python floats, a mean past the float range is inf with no numpy warning
    if 0.0 < float(lam) * float(t) ** float(alpha) < _TABLE_MEANS_BELOW:
        return table_draws(rng, choice_cdf(grow_table([], frac_poisson_entries(lam, t, alpha))), n)
    return _clock_side(rng, lam, alpha, t, n)


def _clock_side(rng, lam: float, alpha: float, t: float, n: int) -> np.ndarray:
    """``n`` int64 draws of N(L(t)) for rate ``lam``: a Poisson draw on each clock draw."""
    with np.errstate(over="ignore"):  # an overflow is numpy's one "lam value too large"
        clock = _inv_stable_clock(rng, alpha, t, n)
        clock *= lam
        return rng.poisson(clock)


def frac_skellam_pmf_table(spec: FracSkellamSpec, t1: float, t2: float, ns) -> list[float]:
    """Pmf of the fractional Skellam difference at each n of ``ns``, in order.

    P{S = n} = sum_l P{N_1(L_1(t1)) = n+ + l} P{N_2(L_2(t2)) = n- + l} where
    n+ = max(n, 0) and n- = max(-n, 0).  Each side is one quadrature table,
    run into its tail (K_1, K_2 entries) and on as far as ``ns`` reaches.  An
    entry sums l < K_2 for n >= 0 and l < K_1 for n < 0, exactly rounded, so
    it does not depend on the other entries asked for.  The Wright double
    series is the cross-check (:func:`frac_skellam_pmf_wright`).
    """
    ns = [int(n) for n in ns]
    entries1 = frac_poisson_entries(spec.lam1, t1, spec.alpha)
    entries2 = frac_poisson_entries(spec.lam2, t2, spec.beta)
    p1, p2 = grow_table([], entries1), grow_table([], entries2)
    k1, k2 = len(p1), len(p2)
    p1 = np.array(grow_table(p1, entries1, max([0, *ns]) + k2))
    p2 = np.array(grow_table(p2, entries2, max([0, *(-n for n in ns)]) + k1))
    table = []
    for n in ns:
        if n >= 0:
            table.append(math.fsum(p1[n:n + k2] * p2[:k2]))
        else:
            table.append(math.fsum(p1[:k1] * p2[-n:k1 - n]))
    return table


def frac_skellam_pmf(spec: FracSkellamSpec, t1: float, t2: float, n: int) -> float:
    """Pmf of the fractional Skellam difference at n: the one-entry table."""
    return frac_skellam_pmf_table(spec, t1, t2, [n])[0]


def frac_skellam_pmf_wright(spec: FracSkellamSpec, t1: float, t2: float, n: int) -> float:
    """Pmf at n through the double series of generalized Wright functions.

    For n >= 0 and x1 = lam1 t1^alpha, x2 = lam2 t2^beta, z = x1 x2:

        x1^n sum_{r1,r2} [(-x1)^r1 (-x2)^r2 / (r1! r2!)]
             * 2Psi3[(n+r1+1, 1), (r2+1, 1);
                     (alpha(n+r1)+1, alpha), (beta r2+1, beta), (n+1, 1) | z]

    Negative n mirrors the formula with the two components swapped.  Requires
    t1, t2 > 0 (at a degenerate time use the convolution form).  Where the
    summed rounding errors of the layers pass _WRIGHT_TOL (at alpha = beta =
    1/2, t = (1, 1), from lam near 1.5), or z, a Wright term, a coefficient
    or x1^n leaves the float range, it raises :class:`TruncationError`.  An x1
    or x2 that underflows to 0 is taken as 0; one above the float range is
    refused with the ``ValueError`` of :func:`frac_skellam_pmf`.
    """
    n = int(n)
    as_times((t1, t2))
    if t1 == 0 or t2 == 0:
        raise ValueError("the Wright form needs strictly positive times")
    # side 1 first, as frac_skellam_pmf checks them, whatever the sign of n
    x1 = clock_means(spec.lam1, t1, spec.alpha)
    x2 = clock_means(spec.lam2, t2, spec.beta)
    if n >= 0:
        return _wright_nonneg(n, x1, spec.alpha, x2, spec.beta)
    return _wright_nonneg(-n, x2, spec.beta, x1, spec.alpha)


class _LgammaTable:
    """math.lgamma(start(r) + step * m) at rows r and columns m, each computed once.

    ``start`` maps a row index to the float start of that row, in Python
    arithmetic, as the scalar series forms it.  The table grows on demand:
    the last layer and the widest row of a Wright series are not known in
    advance.  An argument recurs along the antidiagonals r + m = const,
    exactly at a step of 1/2 and by rounding at most others (at 64 rows and
    48 columns, 4 to 8 % of the cells are distinct at steps from 0.1 to
    0.95), so each fill takes the lgamma of each distinct argument once.
    """

    def __init__(self, start, step: float):
        self.start, self.step = start, step
        self.cells = np.empty((0, 0))

    def _fill(self, rows, cols) -> np.ndarray:
        args = np.array([self.start(r) for r in rows])[:, None] + self.step * cols
        ordered = np.sort(args, axis=None)
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        return np.fromiter(map(math.lgamma, distinct.tolist()), float,
                           distinct.size)[np.searchsorted(distinct, args)]

    def __call__(self, nrows: int, ncols: int) -> np.ndarray:
        """The cells of rows 0..nrows-1 and columns 0..ncols-1."""
        have_rows, have_cols = self.cells.shape
        if nrows > have_rows or ncols > have_cols:
            # each block of layers adds a few rows, so rows grow at least twofold;
            # its width is that of the block before within a few terms, so
            # columns grow by at least a quarter
            rows = have_rows if nrows <= have_rows else max(nrows, 2 * have_rows)
            cols = have_cols if ncols <= have_cols else max(ncols, have_cols + have_cols // 4)
            grown = np.empty((rows, cols))
            grown[:have_rows, :have_cols] = self.cells
            if have_rows and cols > have_cols:
                grown[:have_rows, have_cols:] = self._fill(range(have_rows),
                                                           np.arange(have_cols, cols))
            if rows > have_rows:
                grown[have_rows:] = self._fill(range(have_rows, rows), np.arange(cols))
            self.cells = grown
        return self.cells[:nrows, :ncols]


def _wright_log_terms(n, alpha, beta, z):
    """log_terms(r1s, r2s, width): the log terms of the Wright rows (r1, r2).

    Row (r1, r2) holds the logs of terms m = 0..width-1 of

        2Psi3[(n+r1+1, 1), (r2+1, 1); (alpha(n+r1)+1, alpha), (beta r2+1, beta), (n+1, 1) | z],

    each made of the same floats, in the same order, as a term of
    :func:`special.wright_psi23`.  Every gamma argument depends on at most
    two of (r1, r2, m), so each log-gamma comes from a table shared by all
    layers.  Every argument is positive, so every term is.
    """
    low = _LgammaTable(lambda r: r + 1.0, 1.0)  # row 0: lgamma(j + 1)
    high = _LgammaTable(lambda r: r + (n + 1.0), 1.0)  # row 0: lgamma(n + 1 + j)
    tab_a = _LgammaTable(lambda r1: alpha * (n + r1) + 1.0, alpha)
    tab_b = _LgammaTable(lambda r2: beta * r2 + 1.0, beta)
    log_abs_z = math.log(z) if z != 0.0 else None

    def log_terms(r1s, r2s, width):
        m = np.arange(width)
        top1, top2 = int(r1s.max()) + 1, int(r2s.max()) + 1
        lo, hi = low(1, top2 + width)[0], high(1, top1 + width)[0]
        # the floats of ((log_num - log_den) + log_z) - lo[:width], formed in place;
        # log_num's entry (r1, r2, m) is hi[r1 + m] + lo[r2 + m]
        logs = _windows(hi, top1, width)[r1s]
        logs += _windows(lo, top2, width)[r2s]
        log_den = tab_a(top1, width)[r1s]
        log_den += tab_b(top2, width)[r2s]
        log_den += hi[:width]
        logs -= log_den
        if log_abs_z is not None:
            logs += m * log_abs_z
        else:
            logs += np.where(m == 0, 0.0, -math.inf)
        logs -= lo[:width]
        return logs

    return log_terms


def _windows(row: np.ndarray, count: int, width: int) -> np.ndarray:
    """The slices row[r:r + width] for r = 0..count-1, as the rows of one view of ``row``."""
    return np.ndarray((count, width), row.dtype, row, 0, 2 * row.strides)


def _times_log(r: np.ndarray, log_x: float) -> np.ndarray:
    """r * log(x), the log of x^r, with 0 * log(0) taken as 0."""
    return r * log_x if log_x > -math.inf else np.where(r == 0, 0.0, -math.inf)


def _wright_nonneg(n, x1, alpha, x2, beta):
    # lam t^alpha may underflow to 0: x^0 is then 1 and every other power 0,
    # which is the pmf within far less than _WRIGHT_TOL
    log_x1, log_x2 = (math.log(x) if x > 0.0 else -math.inf for x in (x1, x2))
    z = x1 * x2
    if z == math.inf:
        raise TruncationError(f"Wright double series argument z = {x1!r} * {x2!r} is above the "
                              f"float range", math.inf)
    try:
        scale = math.exp(n * log_x1) if x1 > 0.0 else float(n == 0)
    except OverflowError:
        raise TruncationError(f"Wright double series factor x1^n = {x1!r}^{n} is above the "
                              f"float range", math.inf) from None
    log_terms = _wright_log_terms(n, alpha, beta, z)

    def layers():
        # Each block of _WRIGHT_BLOCK layers is one sum_rows call; its layers
        # are then checked and yielded in order, so a refusal in a layer past
        # the outer stop is never raised.
        lgammas = []  # lgamma(j + 1.0) at j = 0, 1, ...
        width = _WRIGHT_WIDTH
        partial = rounding = 0.0
        for first in itertools.count(0, _WRIGHT_BLOCK):
            degs = range(first, first + _WRIGHT_BLOCK)
            lgammas.extend(math.lgamma(j + 1.0) for j in range(len(lgammas), degs[-1] + 1))
            lg = np.array(lgammas)
            r1s = np.concatenate([np.arange(deg + 1) for deg in degs])
            r2s = np.concatenate([np.arange(deg, -1, -1) for deg in degs])
            # a refusal names the scalar series whose floats the rows reproduce
            psis, read = sum_rows(lambda rows, w: log_terms(r1s[rows], r2s[rows], w), len(r1s),
                                  width, "wright_psi23")
            width = read + _WRIGHT_MARGIN
            refused = set()
            try:
                psi = np.array(psis, float)
            except TypeError:  # some rows are refusals
                refused = {i for i, p in enumerate(psis) if isinstance(p, TruncationError)}
                psi = np.array([0.0 if i in refused else p for i, p in enumerate(psis)])
            with np.errstate(over="ignore", invalid="ignore"):
                coeffs = _exp(_times_log(r1s, log_x1) - lg[r1s] + _times_log(r2s, log_x2) - lg[r2s])
                # one line per layer: 0.0, its rows' terms in order, then 0.0s, so
                # the cumsum adds what the scalar loop's acc = 0.0; acc += ... adds
                terms = np.zeros((_WRIGHT_BLOCK, degs[-1] + 2))
                terms[r1s + r2s - first, r1s + 1] = (-1.0) ** (r1s + r2s) * coeffs * psi
                accs = np.cumsum(terms, axis=1)[:, -1].tolist()
            bad = min(refused.union(np.flatnonzero(coeffs == math.inf).tolist()), default=len(psis))
            row = 0
            for deg, acc in zip(degs, accs):
                row += deg + 1
                if bad < row:  # the scalar order: row r1's coefficient, then its series
                    r1 = bad - (row - deg - 1)
                    if coeffs[bad] == math.inf:
                        raise TruncationError(f"Wright double series coefficient of layer {deg}, "
                                              f"row {r1} is above the float range", math.inf)
                    raise psis[bad]
                rounding += 16 * sys.float_info.epsilon * abs(acc) * scale
                if rounding > _WRIGHT_TOL:
                    raise TruncationError(f"Wright double series layer {deg} ({scale * acc:.3g}) "
                                          f"loses the sum to rounding", scale * partial)
                partial += acc
                yield acc

    total, converged = sum_series(layers())
    value = scale * total
    if not converged:
        raise TruncationError("Wright double series did not converge", value)
    return value


def frac_skellam_moments(spec: FracSkellamSpec, t1: float, t2: float,
                         variance_form: str = "quadratic"):
    """(mean, variance) of the fractional Skellam difference.

    mean = lam1 t1^a / Gamma(a+1) - lam2 t2^b / Gamma(b+1).

    The variance carries a second-order term per side whose leading factor is
    lam t^a / a in the "printed" form and (lam t^a)^2 / a in the "quadratic"
    form; the two coincide at lam t^a = 1 and the second-order term vanishes
    entirely at a = 1.  The default is the quadratic form, which matches the
    exact law's variance within 1e-15 relative on the moment grid of
    frac-variance-quadratic; the printed form, 7.6 % to 26.6 % off there, stays
    available as ``variance_form="printed"`` (a parameter; no CLI flag reads it).
    A mean or variance past the float range is refused with a ``ValueError``.
    """
    as_times((t1, t2))
    if variance_form not in ("printed", "quadratic"):
        raise ValueError(f"unknown variance form {variance_form!r}")

    def side(lam, alpha, t):
        mu = clock_means(lam, t, alpha)  # refused as the pmf forms refuse it
        m1 = mu / math.gamma(alpha + 1.0)
        bracket = 1.0 / math.gamma(2.0 * alpha) - 1.0 / (alpha * math.gamma(alpha) ** 2)
        lead = mu if variance_form == "printed" else mu * mu  # inf, not OverflowError, past the range
        return m1, m1 + (lead / alpha) * bracket

    m1, v1 = side(spec.lam1, spec.alpha, t1)
    m2, v2 = side(spec.lam2, spec.beta, t2)
    var = v1 + v2
    if not math.isfinite(var):
        raise ValueError(f"means must be finite, got a variance of {var!r}")
    return m1 - m2, var
