"""Riemann integrals of multiparameter counting paths over rectangles.

The integral of a path over [0, t_1] x ... x [0, t_M] is approximated by the
lattice sum (prod_k t_k/r_k) * sum_{l_1..l_M} path(t_1 l_1/r_1, ..., t_M l_M/r_M)
with l_k running 1..r_k, the construction whose limit defines the integral.

For additive paths (MPP, GMSP) the lattice sum is a compound Poisson sum: on
axis k an event in cell c is counted at the r_k - c + 1 lattice points above
it, so axis k adds (prod_{k'!=k} t_k') t_k / r_k = (prod_k t_k) / r_k times
sum_e X_e V_e over Poisson(t_k sum_j lam_jk) events with jumps X_e and V_e
uniform on {1..r_k}.  Every such sum is drawn by the one compound-Poisson
kernel :func:`skellam_lab.gmsp.compound_sums`, sum_{e<=N} X_e W_e, with one of
three weight laws: W = V_e / r_k for the lattice integral, W ~ U(0,1) for the
uniform-compound forms, and W = 1 for the GMSP compound representations.  A
draw costs O(events) at any resolution.  A compound path
S_X(N_1(s_1) + ... + N_M(s_M)) costs what its events cost, not its lattice:
each axis places its Poisson events in uniform cells, the sorted cells give
the histogram of lattice counts on that axis, and the summed count's
histogram is their convolution, batched over draws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gmsp import JumpSpec, compound_sums, equalrate_sums, peraxis_compound_sums, poisson_counts
from .mpp import poisson_means
from .records import (SampleBatch, as_count, as_jump_values, as_rates, as_scales, as_times,
                      choice_cdf, make_rng, spawn_rngs, table_draws)

__all__ = [
    "RectDomain",
    "CompoundSpec",
    "integral_sample",
    "integral_cf_gmsp",
    "integral_cf_mpp",
    "integral_cf_levy",
    "uniform_compound_sample",
]

_CHUNK = 4096


@dataclass(frozen=True)
class RectDomain:
    """Rectangle [0, t_1] x ... x [0, t_M] with a per-axis lattice resolution."""

    t: np.ndarray
    resolution: np.ndarray

    def __post_init__(self):
        tt = as_times(self.t)
        res = as_scales(self.resolution, "resolutions")
        if res.size == 1:
            res = np.full(tt.size, res[0])
        if res.size != tt.size:
            raise ValueError("resolution must be scalar or match the time dimension")
        object.__setattr__(self, "t", tt)
        object.__setattr__(self, "resolution", res)

    @property
    def dim(self) -> int:
        return self.t.size

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.t / self.resolution))


@dataclass(frozen=True)
class CompoundSpec:
    """Compound multiparameter Poisson process: iid jumps on an MPP clock."""

    rates: np.ndarray
    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", as_rates(self.rates))
        vals = as_jump_values(self.values)
        pr = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if vals.shape != pr.shape or vals.ndim != 1:
            raise ValueError("values and probs must be matching 1-d arrays")
        if np.any(pr < 0) or not math.isclose(pr.sum(), 1.0, abs_tol=1e-12):
            raise ValueError("probs must be a probability vector")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probs", pr)


def _convolve_rows(a, b):
    """Row-wise full convolution of two (n, *) arrays, looping over the width of ``b``."""
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1), dtype=a.dtype)
    for m in range(b.shape[1]):
        out[:, m:m + a.shape[1]] += a * b[:, m:m + 1]
    return out


def _compound_integral(spec: CompoundSpec, dom: RectDomain, n_draws, seed):
    """Integral draws of S_X(N_1(s_1) + ... + N_M(s_M)) summed over the lattice.

    Axis k has Poisson(lam_k t_k) events in cells uniform on {1..r_k}; with the
    cells sorted, c_(0) = 1 and c_(N+1) = r_k + 1, the count is m at
    h_k[m] = c_(m+1) - c_(m) lattice points.  The lattice points where the
    summed count is m number counts[m] = (h_1 * ... * h_M)[m], and a draw is
    cellvol * sum_m counts[m] S_X[m] = cellvol * sum_i X_i * sum_{m>=i} counts[m].
    Counts, cells (per axis) and jumps come from their own streams, flat in
    draw order, so draws are prefix-stable in ``n_draws``: the counts of each
    axis (:func:`~skellam_lab.gmsp.poisson_counts`) are drawn for all draws at
    once, and the jumps are what ``choice(values, p=probs)`` draws, chunk by chunk.
    The counts are int64, so the lattice's r_1 * ... * r_M points must stay below 2**63.
    """
    if math.prod(dom.resolution.tolist()) >= 2**63:
        raise ValueError("a compound integral counts its lattice points in int64: "
                         "the product of the resolutions must be below 2**63")
    rngs = spawn_rngs(seed, 2 * dom.dim + 1)
    # a float product: an overflow is inf, which rng.poisson refuses, with no numpy warning
    axis_events = [poisson_counts(rngs[2 * k], float(spec.rates[k]) * float(dom.t[k]), n_draws)
                   for k in range(dom.dim)]
    jump_cdf = choice_cdf(spec.probs)
    out = np.empty(n_draws)
    for start in range(0, n_draws, _CHUNK):
        n = min(_CHUNK, n_draws - start)
        counts = np.ones((n, 1), dtype=np.int64)
        for k in range(dom.dim):
            r_k = int(dom.resolution[k])
            events = axis_events[k][start:start + n]
            # each draw's cells fill its row in draw order; the row sort puts the r_k + 1 pads last
            edges = np.full((n, int(events.max()) + 1), r_k + 1)
            edges[np.arange(edges.shape[1]) < events[:, None]] = rngs[2 * k + 1].integers(
                1, r_k + 1, int(events.sum()))
            edges.sort(axis=1)
            counts = _convolve_rows(counts, np.diff(edges, axis=1, prepend=1))
        # tails[:, i - 1] counts the lattice points where jump i has happened:
        # positive exactly for i up to the draw's total events
        tails = np.cumsum(counts[:, :0:-1], axis=1)[:, ::-1]
        x = np.zeros(tails.shape)
        x[tails > 0] = spec.values[table_draws(rngs[-1], jump_cdf, np.count_nonzero(tails))]
        out[start:start + n] = dom.cell_volume * np.sum(x * tails, axis=1)
    return out


def _lattice_weights(rng, r):
    """Weight draw uniform on {1/r, 2/r, ..., 1}: lattice resolution r."""
    return lambda size: rng.integers(1, r + 1, size) / r


def integral_sample(process, dom: RectDomain, n_draws: int, seed: int) -> SampleBatch:
    """Draws of the rectangle integral of an MPP, GMSP, or compound path.

    ``process`` is a rate vector (MPP), a :class:`JumpSpec` (GMSP), or a
    :class:`CompoundSpec`.  A domain with any zero side has zero volume and
    yields exact zeros, once the process has been checked against it.  A draw
    that leaves the float range is refused (:class:`~skellam_lab.records.SampleBatch`).
    """
    n_draws = as_count(n_draws, "draw counts")
    if isinstance(process, CompoundSpec):
        if process.rates.size != dom.dim:
            raise ValueError("compound rates must match the domain dimension")
    else:
        spec = process if isinstance(process, JumpSpec) else JumpSpec({1.0: process})
        if spec.dim != dom.dim:
            raise ValueError("process dimension must match the domain")
    if np.any(dom.t == 0.0):
        return SampleBatch(values=np.zeros(n_draws), seed=as_count(seed, "seeds"))
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(process, CompoundSpec):
            values = _compound_integral(process, dom, n_draws, seed)
        else:
            rngs = spawn_rngs(seed, 3 * dom.dim)
            axis_draws = [(rngs[3 * k], rngs[3 * k + 1], _lattice_weights(rngs[3 * k + 2], r))
                          for k, r in enumerate(dom.resolution)]
            values = peraxis_compound_sums(spec, dom.t, n_draws, axis_draws, float(np.prod(dom.t)))
    return SampleBatch(values=values, seed=int(seed))


def _unit_interval_cf_factor(c: float) -> complex:
    """integral_0^1 (e^{icx} - 1) dx = (sin(c)/c - 1) + i 2 sin^2(c/2)/c, and 0 at c = 0.

    The imaginary part, (1 - cos c)/c in its half-angle form, keeps its
    precision at every c.  The real part cancels for small |c|, so below 1 it
    is the series sum_{k>=1} (-c^2)^k / (2k+1)!, whose first omitted term
    there is below 1e-21 of the sum.  An infinite c gets the limit, -1: past
    the float range |sin(c)/c| and |2 sin^2(c/2)/c| are below 1e-308.
    """
    if c == 0.0:
        return 0.0 + 0.0j
    if math.isinf(c):
        return -1.0 + 0.0j
    c2 = c * c
    if abs(c) < 1.0:
        real, term = 0.0, 1.0
        for k in range(1, 11):
            term *= -c2 / (2 * k * (2 * k + 1))
            real += term
    else:
        real = math.sin(c) / c - 1.0
    return complex(real, 2.0 * math.sin(0.5 * c) ** 2 / c)


def integral_cf_gmsp(spec: JumpSpec, t, u: float) -> complex:
    """Characteristic function of the rectangle integral of a GMSP.

    exp(sum_j (lam_j . t) integral_0^1 (e^{iu (prod_k t_k) j x} - 1) dx), with
    the inner integral in closed form.  A mean lam_j . t past the float range
    is refused; a product of the times past it is taken at its limit.
    """
    tt = as_times(t, spec.dim)
    with np.errstate(over="ignore"):
        means = [np.sum(lam * tt) for lam in spec.jumps.values()]
        if not np.all(np.isfinite(means)):
            raise ValueError(f"means must be finite, got {[float(mu) for mu in means]}")
        c = float(u) * float(np.prod(tt)) if u != 0 else 0.0  # not 0 * inf at u = 0
        total = sum(mu * _unit_interval_cf_factor(c * j) for j, mu in zip(spec.jumps, means))
    return complex(np.exp(total))


def integral_cf_mpp(rates, t, u: float) -> complex:
    """Characteristic function of the rectangle integral of an MPP: the GMSP with one jump, 1."""
    return integral_cf_gmsp(JumpSpec({1.0: rates}), t, u)


def integral_cf_levy(psis, t, u: float) -> complex:
    """CF of the rectangle integral of a multiparameter Levy process.

    ``psis[k]`` must be the log-CF of the k-th one-parameter component at unit
    time, with psi_k(0) = 0.  Evaluates
    exp(sum_k t_k integral_0^1 psi_k(u (prod t) x) dx) by adaptive quadrature;
    as in :func:`integral_cf_gmsp`, u (prod t) is 0 at u = 0 even where the
    product of the times passes the float range.
    It is the only function that needs scipy, which installs with the ``test``
    extra, and it imports scipy when called.
    """
    from scipy import integrate

    tt = as_times(t, len(psis))
    with np.errstate(over="ignore"):
        c = float(u) * float(np.prod(tt)) if u != 0 else 0.0  # not 0 * inf at u = 0
    total = 0.0 + 0.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for k, psi in enumerate(psis):
            if abs(psi(0.0)) > 1e-12:
                raise ValueError("each log-CF must vanish at 0")
            try:
                re = integrate.quad(lambda x: psi(c * x).real, 0.0, 1.0,
                                    epsabs=1e-10, epsrel=1e-10, limit=200)[0]
                im = integrate.quad(lambda x: psi(c * x).imag, 0.0, 1.0,
                                    epsabs=1e-10, epsrel=1e-10, limit=200)[0]
            except integrate.IntegrationWarning as exc:
                raise RuntimeError(f"quadrature failed on axis {k}") from exc
            total += tt[k] * (re + 1j * im)
    return complex(np.exp(total))


def uniform_compound_sample(process, t, n_draws: int, seed: int) -> SampleBatch:
    """Uniform-weighted compound forms that match rectangle integrals in law.

    Each form is (prod_k t_k) times draws of the compound-Poisson kernel
    :func:`skellam_lab.gmsp.compound_sums` with U(0,1) weights U_r, all from
    one make_rng(seed).  Like :func:`integral_sample`, the form follows the
    type of ``process``:

    a :class:`CompoundSpec` with one rate
        t * sum_{r<=N(t)} X_r U_r with N(t) ~ Poisson(rate * t).  Only the
        one-parameter integral has this law: at M >= 2 the integral of
        S_X(N_1(s_1) + ... + N_M(s_M)) has a larger variance.
    a :class:`JumpSpec`
        per-axis Poisson counts with axis jump laws, each axis sum scaled by
        (prod_{k'!=k} t_k') t_k = prod_k t_k.
    a dict from jump to rate (equal rates on all len(t) axes)
        one Poisson((sum lam)(sum t)) count with the global jump law; rates
        must be positive and jumps nonzero.

    A draw that leaves the float range is refused, as in :func:`integral_sample`.
    """
    n_draws = as_count(n_draws, "draw counts")
    rng = make_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(process, CompoundSpec):
            if process.rates.size != 1:
                raise ValueError("a CompoundSpec matches the integral for one rate only")
            tt = as_times(t, 1)
            values = float(tt[0]) * compound_sums(
                rng, rng, float(poisson_means(process.rates, tt)), n_draws, process.values,
                process.probs, rng.random)
        elif isinstance(process, JumpSpec):
            tt = as_times(t, process.dim)
            values = peraxis_compound_sums(process, tt, n_draws,
                                           [(rng, rng, rng.random)] * process.dim,
                                           float(np.prod(tt)))
        elif isinstance(process, dict):
            tt = as_times(t)
            values = float(np.prod(tt)) * equalrate_sums(rng, process, float(tt.sum()), n_draws,
                                                         rng.random)
        else:
            raise ValueError(f"unknown process type {type(process).__name__!r}: "
                             "expected a CompoundSpec, a JumpSpec or a jump -> rate dict")
    return SampleBatch(values=values, seed=int(seed))
