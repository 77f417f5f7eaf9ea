"""Generalized multiparameter Skellam process (GMSP).

The process is sum_j j * N_j(t) over a finite set of nonzero jumps j, with
independent multiparameter Poisson processes N_j.  This module provides exact
samplers, the probability generating / characteristic functions, moments, the
two-sided Bessel pmf of the jumps-{1,-1} case, both compound representations,
the triangular-array approximation, and a dynamic-programming lattice pmf used
as ground truth by the statistical tests (there is no closed-form pmf for a
general jump set).  The law functions read a spec only through its jump
values, dimension and rate matrix, so they also evaluate the alternate process
of :mod:`skellam_lab.altskellam`, the GMSP with rate matrix diag(lam).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mpp import poisson_means
from .records import (SampleBatch, LatticePMF, as_count, as_jumps, as_rates, as_scales, as_times,
                      make_rng)
from .special import TruncationError, grow_table, log_bessel_i, poisson_entries, poisson_pmf

__all__ = [
    "JumpSpec",
    "TriangularArraySpec",
    "gmsp_sample",
    "gmsp_pgf",
    "gmsp_cf",
    "gmsp_moments",
    "skellam_pmf",
    "skellam_pmf_table",
    "msp_pmf",
    "msp_pmf_table",
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
        keys = sorted(self.jumps)
        rates = [as_rates(self.jumps[j]) for j in keys]
        if len({lam.size for lam in rates}) != 1:
            raise ValueError("all rate vectors must share one dimension")
        object.__setattr__(self, "jumps", dict(zip(as_jumps(keys).tolist(), rates)))

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
        as_scales(self.n, "array scales")


def _jump_means(spec: JumpSpec, t) -> np.ndarray:
    tt = as_times(t, spec.dim)
    return poisson_means(spec.rate_matrix, tt)


def _integer_jumps(jumps) -> bool:
    return all(j == int(j) for j in jumps)


# float64 holds every integer of magnitude below 2**53, and not every one above
_EXACT_BELOW = 2.0 ** 53


def _exact_reach(reach: float) -> None:
    """Refuse lattice draws when ``reach``, a bound on |sum| from the drawn counts, is >= 2**53.

    The bound is sum_j |j| (largest count of j) for :func:`gmsp_sample`, and
    max |j| times the largest number of jumps, summed over the clocks, for the
    compound forms.  Below 2**53 every partial sum of every draw is an exact
    integer, in float64 as in int64.  Every lattice sampler refuses through
    here, with one message.
    """
    if not reach < _EXACT_BELOW:
        raise ValueError(f"lattice draws are exact only below 2**53 in magnitude, and the drawn "
                         f"counts let them reach {reach:.6g}: use smaller jumps or means")


def _as_lattice(values: np.ndarray, jumps, reach: float) -> np.ndarray:
    """Integer draws when every jump is an integer (refused by :func:`_exact_reach` at a
    ``reach`` of 2**53 or more), float draws otherwise."""
    if not _integer_jumps(jumps):
        return values
    _exact_reach(reach)
    return values.astype(np.int64)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def gmsp_sample(spec: JumpSpec, t, n_draws: int, seed: int) -> SampleBatch:
    """Draw sum_j j * Poisson(rates_j . t): one rng.poisson per jump, in jump order.

    An integer jump set adds int(j) * counts into one int64 array, so each
    draw is its exact integer sum; a set whose drawn counts let a sum reach
    2**53 is refused (:func:`_exact_reach`) before any product is formed.
    Any other jump set adds j * counts in float64.

    Here and in the other law functions below, ``spec`` is a :class:`JumpSpec`
    or an :class:`~skellam_lab.altskellam.AltSpec`: only its ``jump_values``,
    ``dim`` and ``rate_matrix`` are read.
    """
    mus = _jump_means(spec, t)
    jumps = spec.jump_values
    lattice = _integer_jumps(jumps)
    rng = make_rng(seed)
    values = np.zeros(n_draws, dtype=np.int64 if lattice else float)
    reach = 0.0
    for j, mu in zip(jumps, mus):
        counts = rng.poisson(mu, n_draws)
        if lattice:
            reach += abs(float(j)) * float(counts.max(initial=0))
            _exact_reach(reach)
            j = int(j)
        values += j * counts
    return SampleBatch(values=values, seed=int(seed))


def gmsp_pgf(spec: JumpSpec, t, u: float) -> float:
    """E[u^S(t)] = exp(sum_j (rates_j . t)(u^j - 1)) for 0 < u <= 1.

    A negative jump makes the pgf grow without bound as u -> 0; when its
    exponent leaves the float range this raises :class:`TruncationError`.
    """
    mus = _jump_means(spec, t)
    if not 0.0 < u <= 1.0:
        raise ValueError("the pgf argument must lie in (0, 1]")
    live = mus > 0.0  # a jump with mean 0 adds 0 even where u^j overflows
    with np.errstate(over="ignore"):
        exponent = float(np.sum(mus[live] * (u ** spec.jump_values[live] - 1.0)))
    if not exponent <= _LOG_FLOAT_MAX:
        raise TruncationError(f"the pgf at u={u!r} has exponent {exponent!r}, "
                              "above the float range", math.inf)
    return math.exp(exponent)


def gmsp_cf(spec: JumpSpec, t, u: float) -> complex:
    """E[exp(iuS(t))] = exp(sum_j (rates_j . t)(e^{iuj} - 1)); modulus <= 1."""
    mus = _jump_means(spec, t)
    return complex(np.exp(np.sum(mus * (np.exp(1j * u * spec.jump_values) - 1.0))))


def gmsp_moments(spec: JumpSpec, s, t):
    """(mean at t, variance at t, covariance between s and t)."""
    ss = as_times(s, spec.dim)
    tt = as_times(t, spec.dim)
    rates, jumps = spec.rate_matrix, spec.jump_values
    mus = poisson_means(rates, tt)
    # the shared means are at most the means at t, so only those can overflow
    return (float(np.sum(jumps * mus)), float(np.sum(jumps**2 * mus)),
            float(np.sum(jumps**2 * (rates @ np.minimum(ss, tt)))))


def skellam_pmf_table(ns, a: float, b: float) -> list[float]:
    """Pmf of Poisson(a) - Poisson(b) at each n of ``ns``, in order, for finite means a, b >= 0.

    For a, b > 0 an entry is e^{-(a+b)} (a/b)^{n/2} I_{|n|}(2 sqrt(ab)), taken as
    one exponential of the log prefactor plus
    :func:`~skellam_lab.special.log_bessel_i`, so neither factor leaves the
    float range on its own.  The power is (n/2)(ln a - ln b), so n and -n are
    treated symmetrically, and log I_{|n|} is evaluated once per distinct |n|,
    in the order the entries first need it.  If either mean vanishes the law
    degenerates to a (possibly negated) Poisson.  Where the Bessel series
    passes its term cap (from about a = b = 7.2e5) the first entry that needs
    it raises :class:`TruncationError`.
    """
    ns = [int(n) for n in ns]
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise ValueError(f"means must be finite and nonnegative, got ({a!r}, {b!r})")
    if b == 0.0:
        return [poisson_pmf(n, a) for n in ns]
    if a == 0.0:
        return [poisson_pmf(-n, b) for n in ns]
    log_ratio = math.log(a) - math.log(b)
    x = 2.0 * math.sqrt(a) * math.sqrt(b)
    log_bessel = {}
    table = []
    for n in ns:
        if abs(n) not in log_bessel:
            log_bessel[abs(n)] = log_bessel_i(abs(n), x)
        table.append(math.exp(-(a + b) + 0.5 * n * log_ratio + log_bessel[abs(n)]))
    return table


def skellam_pmf(n: int, a: float, b: float) -> float:
    """Pmf at n of Poisson(a) - Poisson(b): the one-entry :func:`skellam_pmf_table`."""
    return skellam_pmf_table([n], a, b)[0]


def msp_pmf_table(ns, rates1, rates2, t) -> list[float]:
    """Two-sided pmf of N_1(t) - N_2(t) at each n of ``ns``, for independent processes.

    With a = rates1 . t and b = rates2 . t this is the Skellam pmf of
    Poisson(a) - Poisson(b) (see :func:`skellam_pmf_table`); the rates, times
    and means are checked once per table.
    """
    lam1 = as_rates(rates1)
    lam2 = as_rates(rates2)
    tt = as_times(t, lam1.size)
    if lam2.size != lam1.size:
        raise ValueError("rate vectors must share one dimension")
    return skellam_pmf_table(ns, float(poisson_means(lam1, tt)), float(poisson_means(lam2, tt)))


def msp_pmf(n: int, rates1, rates2, t) -> float:
    """Two-sided pmf of N_1(t) - N_2(t) at n: the one-entry :func:`msp_pmf_table`."""
    return msp_pmf_table([n], rates1, rates2, t)[0]


def scaled_poisson_convolution(jump_mus: dict) -> LatticePMF:
    """Exact lattice law of sum_j j * Poisson(mu_j) over integer jumps j.

    Each Poisson factor is its :func:`~skellam_lab.special.poisson_entries`
    run into its tail by :func:`~skellam_lab.special.grow_table`, which
    raises :class:`TruncationError` past its entry cap.  The factor is
    embedded on the integer lattice at spacing |j| and the factors are
    convolved; ``tail_mass`` of the result is the mass the tables leave out.
    """
    if not jump_mus:
        raise ValueError("need at least one (jump, mean) pair")
    probs = np.array([1.0])
    start = 0
    for j in as_jumps(jump_mus):
        if j != int(j):
            raise ValueError("lattice pmf requires integer jumps")
        j = int(j)
        mu = float(jump_mus[j])
        if not 0.0 <= mu < math.inf:
            raise ValueError("Poisson means must be finite and nonnegative")
        table = np.array(grow_table([], poisson_entries(mu)))
        k_max = table.size - 1
        scaled = np.zeros(abs(j) * k_max + 1)
        if j > 0:
            scaled[::j] = table
        else:
            scaled[::-j] = table[::-1]
            start += j * k_max
        probs = np.convolve(probs, scaled)
    return LatticePMF(start=start, probs=probs)


def gmsp_lattice_pmf(spec: JumpSpec, t) -> LatticePMF:
    """Lattice pmf of the process at time t (integer jump sets only)."""
    mus = _jump_means(spec, t)
    jumps = spec.jump_values
    if not _integer_jumps(jumps):
        raise ValueError("the lattice pmf is only defined for integer jump sets")
    return scaled_poisson_convolution({int(j): float(mu) for j, mu in zip(jumps, mus)})


def compound_sums(count_rng, jump_rng, mean: float, n_draws: int, jumps: np.ndarray,
                  probs: np.ndarray, weights=None, reach=None) -> np.ndarray:
    """Draws of sum_{e<=N} X_e W_e with N ~ Poisson(mean) and iid jumps X_e ~ probs.

    The counts come from ``count_rng`` and the jumps, flat in draw order, from
    ``jump_rng.choice``; ``weights(size)``, when given, draws the W_e (else W = 1).
    ``reach``, when given, is a list: max |jumps| times the largest count is
    appended to it, a bound on |sum_{e<=N} X_e| over the draws.
    """
    counts = count_rng.poisson(mean, n_draws)
    if reach is not None:
        reach.append(float(np.abs(jumps).max()) * float(counts.max(initial=0)))
    x = jump_rng.choice(jumps, size=int(counts.sum()), p=probs)
    if weights is not None:
        x = x * weights(x.size)
    return np.bincount(np.repeat(np.arange(n_draws), counts), weights=x, minlength=n_draws)


def peraxis_compound_sums(spec: JumpSpec, tt: np.ndarray, n_draws: int, axis_draws,
                          scale: float = 1.0, reach=None) -> np.ndarray:
    """sum_k scale * (compound sum on axis k), drawn by :func:`compound_sums`.

    Axis k has Poisson(t_k sum_j lam_jk) jumps, j at probability
    lam_jk / sum_j lam_jk; ``axis_draws[k]`` is its (count_rng, jump_rng, weights).
    ``reach`` is passed to every axis's :func:`compound_sums`.
    """
    rates = spec.rate_matrix
    values = np.zeros(n_draws)
    for k, (count_rng, jump_rng, weights) in enumerate(axis_draws):
        axis_rate = float(rates[:, k].sum())
        # a float product: an overflow is inf, which rng.poisson refuses, with no numpy warning
        values += scale * compound_sums(count_rng, jump_rng, axis_rate * float(tt[k]), n_draws,
                                        spec.jump_values, rates[:, k] / axis_rate, weights,
                                        reach)
    return values


def equalrate_sums(rng, jump_rates: dict, time: float, n_draws: int, weights=None,
                   reach=None) -> np.ndarray:
    """:func:`compound_sums` on one Poisson((sum_j lam^(j)) time) clock, jump j at
    probability lam^(j) / sum_j lam^(j): the equal-rate jump law."""
    jumps = as_jumps(jump_rates)
    lam = as_rates([jump_rates[j] for j in sorted(jump_rates)])
    total = float(lam.sum())
    return compound_sums(rng, rng, total * time, n_draws, jumps, lam / total, weights, reach)


def gmsp_compound_peraxis_sample(spec: JumpSpec, t, n_draws: int, seed: int) -> SampleBatch:
    """Compound form: per axis k, a Poisson(t_k sum_j lam_k^(j)) number of iid jumps.

    The jump law on axis k puts mass lam_k^(j) / sum_j lam_k^(j) on j; summed
    over axes this equals the process in distribution.  Integer draws are
    refused as in :func:`gmsp_sample`, with max |j| times each axis's largest
    count as the bound.
    """
    tt = as_times(t, spec.dim)
    rng = make_rng(seed)
    reach = []
    # a float sum that overflows has a reach past 2**53, which _as_lattice refuses
    with np.errstate(over="ignore"):
        values = peraxis_compound_sums(spec, tt, n_draws, [(rng, rng, None)] * spec.dim,
                                       reach=reach)
    return SampleBatch(values=_as_lattice(values, spec.jump_values, sum(reach)), seed=int(seed))


def gmsp_compound_equalrate_sample(jump_rates: dict, m: int, t, n_draws: int, seed: int) -> SampleBatch:
    """Compound form for equal rates across axes: one Poisson clock for everything.

    With rates_j = (lam^(j), ..., lam^(j)) the count N(t) is
    Poisson((sum_j lam^(j)) (t_1 + ... + t_M)) and each arrival contributes an
    iid jump with mass lam^(j) / sum lam^(j).  Integer draws are refused as in
    :func:`gmsp_sample`, with max |j| times the largest count as the bound.
    """
    m = as_count(m, "axis count m")
    tt = as_times(t, m)
    reach = []
    values = equalrate_sums(make_rng(seed), jump_rates, float(tt.sum()), n_draws, reach=reach)
    return SampleBatch(values=_as_lattice(values, jump_rates, sum(reach)), seed=int(seed))


def _trim(probs: np.ndarray, start: int):
    """Drop exact-zero entries from both ends of a lattice table; no mass is lost."""
    nonzero = np.flatnonzero(probs)
    return probs[nonzero[0]:nonzero[-1] + 1], start + int(nonzero[0])


def array_law(scale, axis_times: dict, rule, jump_vals: np.ndarray) -> LatticePMF:
    """Exact lattice law of the triangular-array sum over integer jumps.

    ``axis_times`` maps each axis label to its time; the l-th summand on an
    axis, l <= [scale t_axis], equals jump j with probability
    ``rule(l, axis, j)`` and 0 with the residual mass.  The probability rows
    of every axis are built in one pass, checked (each entry in [0, 1), each
    row summing below 1), and identical rows, on any axes, are grouped.  A
    distinct row of multiplicity m contributes the m-th convolution power of
    its three-point law, by binary powering with ``np.convolve``; the powers
    of all distinct rows are convolved.  Exact-zero ends are trimmed after
    every convolution, so the table keeps all of the mass.
    """
    if not _integer_jumps(jump_vals):
        raise ValueError("triangular-array sums need integer jumps")
    rows = np.array([[rule(l, axis, j) for j in jump_vals]
                     for axis, t_axis in axis_times.items()
                     for l in range(1, int(math.floor(scale * t_axis)) + 1)],
                    dtype=float).reshape(-1, jump_vals.size)
    if np.any(rows < 0.0) or np.any(rows >= 1.0):
        raise ValueError("three-point probabilities must lie in [0, 1)")
    if np.any(rows.sum(axis=1) >= 1.0):
        raise ValueError("jump probabilities must sum below 1 for every summand")
    offsets = jump_vals.astype(np.int64)
    low = min(0, int(offsets.min()))
    law, start = np.array([1.0]), 0
    for row, mult in zip(*np.unique(rows, axis=0, return_counts=True)):
        step = np.zeros(max(0, int(offsets.max())) - low + 1)
        np.add.at(step, offsets - low, row)
        step[-low] += 1.0 - row.sum()
        step, step_start = _trim(step, low)
        mult = int(mult)
        while mult:
            if mult & 1:
                law, start = _trim(np.convolve(law, step), start + step_start)
            mult >>= 1
            if mult:
                step, step_start = _trim(np.convolve(step, step), 2 * step_start)
    return LatticePMF(start=start, probs=law)


def array_sums(law: LatticePMF, n_draws: int, seed: int) -> np.ndarray:
    """``n_draws`` int64 draws of a triangular-array sum from its :func:`array_law`.

    The law, normalised to its total mass, is drawn from by ``Generator.choice``
    of one make_rng(seed): ``n_draws`` uniforms looked up in its cumulative sums.
    """
    probs = law.probs / law.probs.sum()
    return law.start + make_rng(seed).choice(probs.size, n_draws, p=probs)


def gmsp_array_sample(spec: TriangularArraySpec, jumps, t, n_draws: int, seed: int) -> SampleBatch:
    """Triangular-array partial sums S^(n)(t) = sum_k sum_{l<=[n t_k]} X^(n)_l.

    Each summand takes value j with probability ``spec.probs(l, j, spec.n)``
    and 0 otherwise; as n grows these sums converge in law to the GMSP whose
    jump means the rule accumulates.  :func:`array_sums` draws them from their :func:`array_law`.
    """
    law = array_law(spec.n, dict(enumerate(as_times(t))),
                    lambda l, k, j: spec.probs(l, j, spec.n), as_jumps(jumps))
    return SampleBatch(values=array_sums(law, n_draws, seed), seed=int(seed))
