"""Inverse-stable time changes and the fractional two-parameter Skellam process.

The process is N_1(L_1(t1)) - N_2(L_2(t2)) where L_1, L_2 are independent
inverse stable subordinators with indices alpha and beta.  Only fixed-time
marginals are needed downstream, so subordinators are sampled marginally:
a positive stable draw D with E[e^{-uD}] = e^{-u^alpha} gives
L(t) =d (t / D)^alpha.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .records import SampleBatch, as_indices, as_rates, as_times, make_rng, spawn_rngs
from .special import TruncationError, frac_poisson_entries, grow_table, sum_rows, sum_series

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
_WRIGHT_WIDTH = 32  # terms per Wright row in the first block; doubled while a row runs on


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


def _stable_draws(rng, alpha: float, n: int) -> np.ndarray:
    """Positive stable draws with Laplace transform e^{-u^alpha} (Kanter)."""
    theta = rng.uniform(0.0, np.pi, n)
    w = rng.standard_exponential(n)
    return (np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)
            * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))


def _inv_stable_clock(rng, alpha: float, t: float, n: int) -> np.ndarray:
    """``n`` draws of L(t) =d (t / D(1))^alpha; no draw is taken at t = 0 or alpha = 1."""
    if t == 0.0:
        return np.zeros(n)
    if alpha == 1.0:
        return np.full(n, float(t))
    return (t / _stable_draws(rng, alpha, n)) ** alpha


def stable_subordinator_sample(alpha: float, t: float, n_draws: int, seed: int) -> SampleBatch:
    """Draws of D(t) with E[e^{-uD(t)}] = e^{-t u^alpha}; alpha = 1 is drift t."""
    alpha = as_indices(alpha).item()
    as_times(t)
    meta = {"process": "stable-subordinator", "alpha": alpha, "t": float(t), "n": int(n_draws)}
    if t == 0.0:
        return SampleBatch(values=np.zeros(n_draws), seed=int(seed), meta=meta)
    if alpha == 1.0:
        return SampleBatch(values=np.full(n_draws, float(t)), seed=int(seed), meta=meta)
    rng = make_rng(seed)
    values = t ** (1.0 / alpha) * _stable_draws(rng, alpha, n_draws)
    return SampleBatch(values=values, seed=int(seed), meta=meta)


def inv_stable_marginal_sample(alpha: float, t: float, n_draws: int, seed: int) -> SampleBatch:
    """Draws of the first-passage clock L(t), via L(t) =d (t / D(1))^alpha."""
    alpha = as_indices(alpha).item()
    as_times(t)
    meta = {"process": "inverse-stable", "alpha": alpha, "t": float(t), "n": int(n_draws)}
    values = _inv_stable_clock(make_rng(seed), alpha, t, n_draws)
    return SampleBatch(values=values, seed=int(seed), meta=meta)


def frac_skellam_sample(spec: FracSkellamSpec, t1: float, t2: float,
                        n_draws: int, seed: int) -> SampleBatch:
    """Draws of N_1(L_1(t1)) - N_2(L_2(t2)), all four components independent.

    Each side conditions a Poisson draw on its own inverse-subordinator draw;
    the two sides use separate child streams of the root seed.
    """
    as_times((t1, t2))
    rng1, rng2 = spawn_rngs(seed, 2)
    sides = []
    for rng, lam, alpha, t in ((rng1, spec.lam1, spec.alpha, t1), (rng2, spec.lam2, spec.beta, t2)):
        sides.append(rng.poisson(lam * _inv_stable_clock(rng, alpha, t, n_draws)))
    values = sides[0].astype(np.int64) - sides[1].astype(np.int64)
    meta = {"process": "frac-skellam", "lam1": spec.lam1, "lam2": spec.lam2,
            "alpha": spec.alpha, "beta": spec.beta, "t1": float(t1), "t2": float(t2),
            "n": int(n_draws)}
    return SampleBatch(values=values, seed=int(seed), meta=meta)


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
    1/2, t = (1, 1), from lam near 1.5), or a Wright term leaves the float
    range, it raises :class:`TruncationError`.
    """
    n = int(n)
    as_times((t1, t2))
    if t1 == 0 or t2 == 0:
        raise ValueError("the Wright form needs strictly positive times")
    if n >= 0:
        return _wright_nonneg(n, spec.lam1 * t1**spec.alpha, spec.alpha,
                              spec.lam2 * t2**spec.beta, spec.beta)
    return _wright_nonneg(-n, spec.lam2 * t2**spec.beta, spec.beta,
                          spec.lam1 * t1**spec.alpha, spec.alpha)


class _LgammaTable:
    """math.lgamma(start(r) + step * m) at rows r and columns m, each computed once.

    ``start`` maps a row index to the float start of that row, in Python
    arithmetic, as the scalar series forms it.  The table grows on demand:
    the last layer and the widest row of a Wright series are not known in
    advance.
    """

    def __init__(self, start, step: float):
        self.start, self.step = start, step
        self.cells = np.empty((0, 0))

    def _fill(self, rows, cols) -> np.ndarray:
        args = np.array([self.start(r) for r in rows])[:, None] + self.step * cols
        return np.fromiter(map(math.lgamma, args.ravel().tolist()), float,
                           args.size).reshape(args.shape)

    def __call__(self, nrows: int, ncols: int) -> np.ndarray:
        """The cells of rows 0..nrows-1 and columns 0..ncols-1."""
        have_rows, have_cols = self.cells.shape
        if nrows > have_rows or ncols > have_cols:
            # grown at least twofold: each layer outgrows the tables by one row or column
            rows = have_rows if nrows <= have_rows else max(nrows, 2 * have_rows)
            cols = have_cols if ncols <= have_cols else max(ncols, 2 * have_cols)
            grown = np.empty((rows, cols))
            grown[:have_rows, :have_cols] = self.cells
            grown[:have_rows, have_cols:] = self._fill(range(have_rows), np.arange(have_cols, cols))
            grown[have_rows:] = self._fill(range(have_rows, rows), np.arange(cols))
            self.cells = grown
        return self.cells[:nrows, :ncols]


def _wright_log_terms(n, alpha, beta, z):
    """log_terms(deg, r1s, width): the log terms of the Wright rows of layer ``deg``.

    Row r1 (with r2 = deg - r1) holds the logs of terms m = 0..width-1 of

        2Psi3[(n+r1+1, 1), (r2+1, 1); (alpha(n+r1)+1, alpha), (beta r2+1, beta), (n+1, 1) | z],

    each made of the same floats, in the same order, as a term of
    :func:`special.wright_psi23`.  Every gamma argument depends on at most
    two of (r1, r2, m), so each log-gamma comes from a table shared by all
    layers.  Every argument is positive, so every term is.
    """
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    low = _LgammaTable(lambda r: r + 1.0, 1.0)  # row 0: lgamma(j + 1)
    high = _LgammaTable(lambda r: r + (n + 1.0), 1.0)  # row 0: lgamma(n + 1 + j)
    tab_a = _LgammaTable(lambda r1: alpha * (n + r1) + 1.0, alpha)
    tab_b = _LgammaTable(lambda r2: beta * r2 + 1.0, beta)
    log_abs_z = math.log(z) if z != 0.0 else None

    def log_terms(deg, r1s, width):
        m = np.arange(width)
        lo, hi = low(1, deg + width)[0], high(1, deg + width)[0]
        r2s = deg - r1s
        log_num = hi[r1s[:, None] + m] + lo[r2s[:, None] + m]
        log_den = (tab_a(deg + 1, width)[r1s] + tab_b(deg + 1, width)[r2s]) + hi[:width]
        if log_abs_z is not None:
            log_z = m * log_abs_z
        else:
            log_z = np.where(m == 0, 0.0, -math.inf)
        return ((log_num - log_den) + log_z) - lo[:width]

    return log_terms


def _wright_nonneg(n, x1, alpha, x2, beta):
    log_x1, log_x2 = math.log(x1), math.log(x2)
    z = x1 * x2
    scale = math.exp(n * log_x1)
    log_terms = _wright_log_terms(n, alpha, beta, z)
    width = _WRIGHT_WIDTH
    partial = rounding = 0.0

    def layer(deg):
        nonlocal partial, rounding, width
        # a refusal names the scalar series whose floats the rows reproduce
        psis, width = sum_rows(lambda r1s, w: log_terms(deg, r1s, w), deg + 1, width,
                               "wright_psi23")
        acc = 0.0
        for r1, psi in enumerate(psis):
            r2 = deg - r1
            coeff = math.exp(r1 * log_x1 - math.lgamma(r1 + 1.0)
                             + r2 * log_x2 - math.lgamma(r2 + 1.0))
            if isinstance(psi, TruncationError):  # after coeff, as in the scalar order
                raise psi
            acc += (-1.0) ** deg * coeff * psi
        rounding += 16 * sys.float_info.epsilon * abs(acc) * scale
        if rounding > _WRIGHT_TOL:
            raise TruncationError(f"Wright double series layer {deg} ({scale * acc:.3g}) "
                                  f"loses the sum to rounding", scale * partial)
        partial += acc
        return acc

    total, converged = sum_series(map(layer, itertools.count()))
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
    entirely at a = 1.  The default is the quadratic form, which the
    frac-variance-quadratic identity supports and frac-variance-printed
    rejects; the printed form stays available behind the flag.
    """
    as_times((t1, t2))
    if variance_form not in ("printed", "quadratic"):
        raise ValueError(f"unknown variance form {variance_form!r}")

    def side(lam, alpha, t):
        m1 = lam * t**alpha / math.gamma(alpha + 1.0)
        bracket = 1.0 / math.gamma(2.0 * alpha) - 1.0 / (alpha * math.gamma(alpha) ** 2)
        lead = lam * t**alpha if variance_form == "printed" else (lam * t**alpha) ** 2
        return m1, m1 + (lead / alpha) * bracket

    m1, v1 = side(spec.lam1, spec.alpha, t1)
    m2, v2 = side(spec.lam2, spec.beta, t2)
    return m1 - m2, v1 + v2
