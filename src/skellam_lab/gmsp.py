"""Generalized multiparameter Skellam process (GMSP).

The process is sum_j j * N_j(t) over a finite set of nonzero jumps j, with
independent multiparameter Poisson processes N_j.  This module provides exact
samplers, the probability generating / characteristic functions, moments, the
two-sided Bessel pmf of the jumps-{1,-1} case, both compound representations,
the triangular-array approximation, and a dynamic-programming lattice pmf used
as ground truth by the statistical tests (there is no closed-form pmf for a
general jump set).  The law core and the array-sum kernel are keyed by jumps
and per-jump means or axis times, so the alternate process in
:mod:`skellam_lab.altskellam` runs through them too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mpp import as_rates, as_times
from .records import SampleBatch, LatticePMF, make_rng
from .special import DEFAULT_CONTROL, SeriesControl, TruncationError, bessel_i, poisson_pmf

__all__ = [
    "JumpSpec",
    "TriangularArraySpec",
    "gmsp_sample",
    "gmsp_pgf",
    "gmsp_cf",
    "gmsp_moments",
    "msp_pmf",
    "gmsp_lattice_pmf",
    "scaled_poisson_convolution",
    "gmsp_compound_peraxis_sample",
    "gmsp_compound_equalrate_sample",
    "gmsp_array_sample",
]


@dataclass(frozen=True)
class JumpSpec:
    """Finite map from nonzero jump sizes to positive rate vectors.

    All rate vectors share one dimension M.  Jumps are kept sorted so that
    every consumer iterates them in one fixed order (sampler reproducibility
    depends on this).
    """

    jumps: dict

    def __post_init__(self):
        if not self.jumps:
            raise ValueError("a JumpSpec needs at least one jump")
        cleaned = {}
        dim = None
        for j in sorted(self.jumps):
            jf = float(j)
            if jf == 0.0 or not math.isfinite(jf):
                raise ValueError("jump sizes must be finite and nonzero")
            lam = as_rates(self.jumps[j])
            if dim is None:
                dim = lam.size
            elif lam.size != dim:
                raise ValueError("all rate vectors must share one dimension")
            cleaned[jf] = lam
        object.__setattr__(self, "jumps", cleaned)

    @property
    def dim(self) -> int:
        return next(iter(self.jumps.values())).size

    @property
    def jump_values(self) -> np.ndarray:
        return np.array(list(self.jumps), dtype=float)

    @property
    def rate_matrix(self) -> np.ndarray:
        """Rates as a (n_jumps, M) array, rows in sorted-jump order."""
        return np.vstack(list(self.jumps.values()))


@dataclass(frozen=True)
class TriangularArraySpec:
    """Scale n plus the probability rule of the three-point array variables.

    ``probs(l, j, n)`` is the probability that the l-th summand on any axis
    takes the value j at scale n; with the remaining mass the summand is 0.
    """

    n: int
    probs: Callable[[int, float, int], float]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("array scale n must be at least 1")


def _jump_means(spec: JumpSpec, t) -> np.ndarray:
    tt = as_times(t, spec.dim)
    return spec.rate_matrix @ tt


def _integer_jumps(jumps) -> bool:
    return all(j == int(j) for j in jumps)


def _as_lattice(values: np.ndarray, jumps) -> np.ndarray:
    """Integer draws when every jump is an integer, float draws otherwise."""
    return values.astype(np.int64) if _integer_jumps(jumps) else values


# The law of sum_j j * Poisson(mu_j) over sorted nonzero jumps j depends only on
# the per-jump means mu_j.  The functions below are keyed by (jumps, means) so
# that every process of that form (one rate vector per jump here, one time
# axis per jump in altskellam) samples and evaluates through them.

def poisson_sum_sample(jumps: np.ndarray, mus, n_draws: int, seed: int) -> np.ndarray:
    """Draws of sum_j j * Poisson(mu_j): one rng.poisson per jump, in jump order."""
    rng = make_rng(seed)
    values = np.zeros(n_draws, dtype=float)
    for j, mu in zip(jumps, mus):
        values += j * rng.poisson(mu, n_draws)
    return _as_lattice(values, jumps)


def poisson_sum_pgf(jumps: np.ndarray, mus: np.ndarray, u: float) -> float:
    """E[u^S] = exp(sum_j mu_j (u^j - 1)) for 0 < u <= 1."""
    if not 0.0 < u <= 1.0:
        raise ValueError("the pgf argument must lie in (0, 1]")
    return float(np.exp(np.sum(mus * (u ** jumps - 1.0))))


def poisson_sum_cf(jumps: np.ndarray, mus: np.ndarray, u: float) -> complex:
    """E[exp(iuS)] = exp(sum_j mu_j (e^{iuj} - 1)); modulus <= 1."""
    return complex(np.exp(np.sum(mus * (np.exp(1j * u * jumps) - 1.0))))


def poisson_sum_moments(jumps: np.ndarray, mus_t: np.ndarray, mus_min: np.ndarray):
    """(mean, variance) at means mus_t, and the covariance whose shared means are mus_min."""
    return (float(np.sum(jumps * mus_t)), float(np.sum(jumps**2 * mus_t)),
            float(np.sum(jumps**2 * mus_min)))


def poisson_sum_lattice_pmf(jumps: np.ndarray, mus, tail_mass: float) -> LatticePMF:
    """Exact lattice pmf (integer jump sets only), by scaled_poisson_convolution."""
    if not _integer_jumps(jumps):
        raise ValueError("the lattice pmf is only defined for integer jump sets")
    return scaled_poisson_convolution(
        {int(j): float(mu) for j, mu in zip(jumps, mus)}, tail_mass
    )


def gmsp_sample(spec: JumpSpec, t, n_draws: int, seed: int) -> SampleBatch:
    """Draw sum_j j * Poisson(rates_j . t) with independent counts per jump."""
    values = poisson_sum_sample(spec.jump_values, _jump_means(spec, t), n_draws, seed)
    meta = {"process": "gmsp", "jumps": {j: list(map(float, r)) for j, r in spec.jumps.items()},
            "t": [float(x) for x in as_times(t, spec.dim)], "n": int(n_draws)}
    return SampleBatch(values=values, seed=int(seed), meta=meta)


def gmsp_pgf(spec: JumpSpec, t, u: float) -> float:
    """E[u^S(t)] = exp(sum_j (rates_j . t)(u^j - 1)) for 0 < u <= 1."""
    return poisson_sum_pgf(spec.jump_values, _jump_means(spec, t), u)


def gmsp_cf(spec: JumpSpec, t, u: float) -> complex:
    """E[exp(iuS(t))] = exp(sum_j (rates_j . t)(e^{iuj} - 1)); modulus <= 1."""
    return poisson_sum_cf(spec.jump_values, _jump_means(spec, t), u)


def gmsp_moments(spec: JumpSpec, s, t):
    """(mean at t, variance at t, covariance between s and t)."""
    ss = as_times(s, spec.dim)
    tt = as_times(t, spec.dim)
    rates = spec.rate_matrix
    return poisson_sum_moments(spec.jump_values, rates @ tt, rates @ np.minimum(ss, tt))


def skellam_pmf(n: int, a: float, b: float) -> float:
    """Pmf at n of Poisson(a) - Poisson(b) for means a, b >= 0.

    For a, b > 0 this is e^{-(a+b)} (a/b)^{n/2} I_{|n|}(2 sqrt(ab)); if either
    mean vanishes the law degenerates to a (possibly negated) Poisson.  The
    power is evaluated as exp((n/2)(ln a - ln b)) so that n and -n are treated
    symmetrically.  The prefactor can dwarf a tiny Bessel value, so the series
    tolerance is tightened by the prefactor scale: the default absolute rule
    alone would leave an error far above the 1e-14 target after
    multiplication.
    """
    n = int(n)
    if b == 0.0:
        return poisson_pmf(n, a)
    if a == 0.0:
        return poisson_pmf(-n, b)
    x = 2.0 * math.sqrt(a * b)
    log_pref = -(a + b) + 0.5 * n * (math.log(a) - math.log(b))
    # log of prefactor * e^x bounds the product of prefactor and Bessel scale
    log_scale = log_pref + x
    tol = DEFAULT_CONTROL.abs_tol * math.exp(-max(0.0, log_scale))
    ctl = SeriesControl(abs_tol=max(tol, 1e-300), max_terms=DEFAULT_CONTROL.max_terms)
    return math.exp(log_pref) * bessel_i(abs(n), x, ctl)


def msp_pmf(n: int, rates1, rates2, t) -> float:
    """Two-sided pmf of N_1(t) - N_2(t) for independent processes.

    With a = rates1 . t and b = rates2 . t this is the Skellam pmf of
    Poisson(a) - Poisson(b) (see :func:`skellam_pmf`).
    """
    lam1 = as_rates(rates1)
    lam2 = as_rates(rates2)
    tt = as_times(t, lam1.size)
    if lam2.size != lam1.size:
        raise ValueError("rate vectors must share one dimension")
    return skellam_pmf(n, float(lam1 @ tt), float(lam2 @ tt))


def _poisson_table(mu: float, tail: float) -> np.ndarray:
    """Pmf table p_0..p_K with P{X > K} <= tail, by the pmf recurrence.

    Raises :class:`TruncationError` when p_0 = e^{-mu} is below the normal
    float range (the recurrence would carry its lost digits into every entry)
    or when the table would pass ``DEFAULT_CONTROL.max_terms`` entries.
    """
    if mu == 0.0:
        return np.array([1.0])
    probs = [math.exp(-mu)]
    if probs[0] < sys.float_info.min:
        raise TruncationError(f"Poisson table for mean {mu!r} starts below the float range", 0.0)
    cum = probs[0]
    k = 0
    while 1.0 - cum > tail:
        if len(probs) == DEFAULT_CONTROL.max_terms:
            raise TruncationError(
                f"Poisson table for mean {mu!r} passed {len(probs)} entries above tail {tail!r}",
                cum)
        k += 1
        probs.append(probs[-1] * mu / k)
        cum += probs[-1]
    return np.asarray(probs)


def scaled_poisson_convolution(jump_mus: dict, tail_mass: float = 1e-12) -> LatticePMF:
    """Exact lattice law of sum_j j * Poisson(mu_j) over integer jumps j.

    Each Poisson factor is truncated so its own tail is at most
    tail_mass / n_jumps, embedded on the integer lattice at spacing |j|, and
    the factors are convolved.  The discarded mass is reported in the result.
    """
    if not jump_mus:
        raise ValueError("need at least one (jump, mean) pair")
    share = tail_mass / len(jump_mus)
    probs = np.array([1.0])
    start = 0
    for j in sorted(jump_mus):
        if j != int(j) or j == 0:
            raise ValueError("lattice pmf requires nonzero integer jumps")
        j = int(j)
        mu = float(jump_mus[j])
        if mu < 0:
            raise ValueError("Poisson means must be nonnegative")
        table = _poisson_table(mu, share)
        k_max = table.size - 1
        scaled = np.zeros(abs(j) * k_max + 1)
        if j > 0:
            scaled[::j] = table
        else:
            scaled[::-j] = table[::-1]
            start += j * k_max
        probs = np.convolve(probs, scaled)
    return LatticePMF(start=start, probs=probs, tail_mass=max(0.0, 1.0 - float(probs.sum())))


def gmsp_lattice_pmf(spec: JumpSpec, t, tail_mass: float = 1e-12) -> LatticePMF:
    """Lattice pmf of the process at time t (integer jump sets only)."""
    return poisson_sum_lattice_pmf(spec.jump_values, _jump_means(spec, t), tail_mass)


def compound_sums(count_rng, jump_rng, mean: float, n_draws: int, jumps: np.ndarray,
                  probs: np.ndarray, weights=None) -> np.ndarray:
    """Draws of sum_{e<=N} X_e W_e with N ~ Poisson(mean) and iid jumps X_e ~ probs.

    The counts come from ``count_rng`` and the jumps, flat in draw order, from
    ``jump_rng.choice``; ``weights(size)``, when given, draws the W_e (else W = 1).
    """
    counts = count_rng.poisson(mean, n_draws)
    x = jump_rng.choice(jumps, size=int(counts.sum()), p=probs)
    if weights is not None:
        x = x * weights(x.size)
    return np.bincount(np.repeat(np.arange(n_draws), counts), weights=x, minlength=n_draws)


def peraxis_compound_sums(spec: JumpSpec, tt: np.ndarray, n_draws: int, axis_draws,
                          scale: float = 1.0) -> np.ndarray:
    """sum_k scale * (compound sum on axis k), drawn by :func:`compound_sums`.

    Axis k has Poisson(t_k sum_j lam_jk) jumps, j at probability
    lam_jk / sum_j lam_jk; ``axis_draws[k]`` is its (count_rng, jump_rng, weights).
    """
    rates = spec.rate_matrix
    values = np.zeros(n_draws)
    for k, (count_rng, jump_rng, weights) in enumerate(axis_draws):
        axis_rate = float(rates[:, k].sum())
        values += scale * compound_sums(count_rng, jump_rng, axis_rate * tt[k], n_draws,
                                        spec.jump_values, rates[:, k] / axis_rate, weights)
    return values


def equalrate_sums(rng, jump_rates: dict, time: float, n_draws: int, weights=None) -> np.ndarray:
    """:func:`compound_sums` on one Poisson((sum_j lam^(j)) time) clock, jump j at
    probability lam^(j) / sum_j lam^(j): the equal-rate jump law."""
    jumps = np.array(sorted(jump_rates), dtype=float)
    lam = np.array([float(jump_rates[j]) for j in sorted(jump_rates)])
    if np.any(lam <= 0) or np.any(jumps == 0.0):
        raise ValueError("jump rates must be positive and jumps nonzero")
    total = float(lam.sum())
    return compound_sums(rng, rng, total * time, n_draws, jumps, lam / total, weights)


def gmsp_compound_peraxis_sample(spec: JumpSpec, t, n_draws: int, seed: int) -> SampleBatch:
    """Compound form: per axis k, a Poisson(t_k sum_j lam_k^(j)) number of iid jumps.

    The jump law on axis k puts mass lam_k^(j) / sum_j lam_k^(j) on j; summed
    over axes this equals the process in distribution.
    """
    tt = as_times(t, spec.dim)
    rng = make_rng(seed)
    values = peraxis_compound_sums(spec, tt, n_draws, [(rng, rng, None)] * spec.dim)
    values = _as_lattice(values, spec.jump_values)
    meta = {"process": "gmsp-compound-peraxis", "t": [float(x) for x in tt], "n": int(n_draws)}
    return SampleBatch(values=values, seed=int(seed), meta=meta)


def gmsp_compound_equalrate_sample(jump_rates: dict, m: int, t, n_draws: int, seed: int) -> SampleBatch:
    """Compound form for equal rates across axes: one Poisson clock for everything.

    With rates_j = (lam^(j), ..., lam^(j)) the count N(t) is
    Poisson((sum_j lam^(j)) (t_1 + ... + t_M)) and each arrival contributes an
    iid jump with mass lam^(j) / sum lam^(j).
    """
    tt = as_times(t, int(m))
    values = equalrate_sums(make_rng(seed), jump_rates, float(tt.sum()), n_draws)
    values = _as_lattice(values, jump_rates)
    meta = {"process": "gmsp-compound-equalrate",
            "jump_rates": {float(j): float(jump_rates[j]) for j in sorted(jump_rates)},
            "m": int(m), "t": [float(x) for x in tt], "n": int(n_draws)}
    return SampleBatch(values=values, seed=int(seed), meta=meta)


def sorted_jumps(jumps) -> np.ndarray:
    """Jump values as a sorted float array; zero is rejected."""
    jump_vals = np.array(sorted(float(j) for j in jumps))
    if np.any(jump_vals == 0.0):
        raise ValueError("jumps must be nonzero")
    return jump_vals


def array_sums(scale, axis_times: dict, rule, jump_vals: np.ndarray,
               n_draws: int, seed: int) -> np.ndarray:
    """Triangular-array sums: sum over axes of sum_{l<=[scale t_axis]} X_l.

    ``axis_times`` maps each axis label to its time, in drawing order;
    ``rule(l, axis, j)`` is the probability that the l-th summand on that
    axis equals jump j, with the residual mass it is 0.  The probability rows
    of every axis are built in one pass and identical rows, on any axes, are
    grouped: the sum of identically distributed summands depends only on
    their category counts, so each distinct row is one multinomial, drawn in
    sorted-row order from one make_rng(seed).  This keeps scale-10^3 arrays
    cheap.
    """
    rows = np.array([[rule(l, axis, j) for j in jump_vals]
                     for axis, t_axis in axis_times.items()
                     for l in range(1, int(math.floor(scale * t_axis)) + 1)],
                    dtype=float).reshape(-1, jump_vals.size)
    if np.any(rows < 0.0) or np.any(rows >= 1.0):
        raise ValueError("three-point probabilities must lie in [0, 1)")
    if np.any(rows.sum(axis=1) >= 1.0):
        raise ValueError("jump probabilities must sum below 1 for every summand")
    rng = make_rng(seed)
    values = np.zeros(n_draws, dtype=float)
    for row, mult in zip(*np.unique(rows, axis=0, return_counts=True)):
        cats = rng.multinomial(int(mult), np.append(row, 1.0 - row.sum()), size=n_draws)
        values += cats[:, :-1] @ jump_vals
    return _as_lattice(values, jump_vals)


def gmsp_array_sample(spec: TriangularArraySpec, jumps, t, n_draws: int, seed: int) -> SampleBatch:
    """Triangular-array partial sums S^(n)(t) = sum_k sum_{l<=[n t_k]} X^(n)_l.

    Each summand takes value j with probability ``spec.probs(l, j, spec.n)``
    and 0 otherwise; as n grows these sums converge in law to the GMSP whose
    jump means the rule accumulates.
    """
    tt = as_times(t)
    values = array_sums(spec.n, dict(enumerate(tt)), lambda l, k, j: spec.probs(l, j, spec.n),
                        sorted_jumps(jumps), n_draws, seed)
    meta = {"process": "gmsp-array", "scale": int(spec.n),
            "t": [float(x) for x in tt], "n": int(n_draws)}
    return SampleBatch(values=values, seed=int(seed), meta=meta)
