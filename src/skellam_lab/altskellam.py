"""Alternate multiparameter Skellam process: one time coordinate per jump.

Here the process is sum_j j * N_j(t_j) with independent one-parameter Poisson
processes N_j, indexed by a time vector keyed by the jump set itself.  Time
maps are keyed by jump value rather than by position, so callers cannot
scramble the axis order.

This is the GMSP with rate matrix diag(lam) and one time axis per jump.  This
module validates the jump-keyed time maps and passes the times, in jump order,
to the ``gmsp_*`` functions of :mod:`skellam_lab.gmsp`, which form the means
lam_j t_j and sample and evaluate the law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gmsp import (array_law, array_sums, gmsp_cf, gmsp_lattice_pmf, gmsp_moments, gmsp_pgf,
                   gmsp_sample, skellam_pmf_table)
from .records import SampleBatch, LatticePMF, as_count, as_jumps, as_rates, as_scales, as_times

__all__ = [
    "AltSpec",
    "alt_sample",
    "alt_moments",
    "alt_increment_cf",
    "alt_pgf",
    "alt_lattice_pmf",
    "alt_array_sample",
    "twoparam_skellam_pmf",
    "twoparam_skellam_pmf_table",
]


@dataclass(frozen=True)
class AltSpec:
    """Finite map from nonzero jumps to one-parameter Poisson rates.

    As a GMSP spec: ``dim`` jumps, one time axis each, and ``rate_matrix`` diag(lam).
    """

    rates: dict

    def __post_init__(self):
        if not self.rates:
            raise ValueError("need at least one jump")
        keys = sorted(self.rates)
        rates = as_rates([self.rates[j] for j in keys]).tolist()
        object.__setattr__(self, "rates", dict(zip(as_jumps(keys).tolist(), rates)))

    @property
    def jump_values(self) -> np.ndarray:
        return np.array(list(self.rates), dtype=float)

    @property
    def dim(self) -> int:
        return len(self.rates)

    @property
    def rate_matrix(self) -> np.ndarray:
        return np.diag(list(self.rates.values()))


def _time_map(jumps, t: dict, name: str = "t") -> np.ndarray:
    """The times of ``t`` in the order of ``jumps``; ``t`` is keyed exactly by the jump set."""
    if set(map(float, t)) != set(jumps):
        raise ValueError(f"{name} must be keyed exactly by the jump set")
    return as_times([t[j] for j in jumps])


def alt_sample(spec: AltSpec, t: dict, n_draws: int, seed: int) -> SampleBatch:
    """Draw sum_j j * Poisson(lam_j t_j) with independent counts."""
    return gmsp_sample(spec, _time_map(spec.rates, t), n_draws, seed)


def alt_moments(spec: AltSpec, s: dict, t: dict):
    """(mean, variance, covariance) of the process at s and t.

    The covariance includes the rate factor, sum_j j^2 lam_j min(s_j, t_j):
    at s = t it must reproduce the variance sum_j j^2 lam_j t_j.
    """
    return gmsp_moments(spec, _time_map(spec.rates, s, "s"), _time_map(spec.rates, t))


def alt_increment_cf(spec: AltSpec, s: dict, t: dict, z: float) -> complex:
    """CF of the increment between ordered times s <= t (coordinate-wise)."""
    ss = _time_map(spec.rates, s, "s")
    tt = _time_map(spec.rates, t)
    if np.any(ss > tt):
        raise ValueError("increment requires s <= t in every coordinate")
    return gmsp_cf(spec, tt - ss, z)


def alt_pgf(spec: AltSpec, t: dict, u: float) -> float:
    """E[u^S(t)] = exp(sum_j lam_j t_j (u^j - 1)) for 0 < u <= 1."""
    return gmsp_pgf(spec, _time_map(spec.rates, t), u)


def alt_lattice_pmf(spec: AltSpec, t: dict) -> LatticePMF:
    """Exact lattice pmf at t for integer jump sets (convolution oracle)."""
    return gmsp_lattice_pmf(spec, _time_map(spec.rates, t))


def alt_array_sample(scale: float, probs: Callable[[int, float, float], float], jumps, t: dict,
                     n_draws: int, seed: int) -> SampleBatch:
    """Triangular-array sums U(t) = sum_j sum_{l<=[scale t_j]} X_l per jump axis.

    ``probs(l, j_axis, j)`` gives the probability that the l-th summand on the
    axis labelled j_axis equals jump j; with the residual mass it is 0.  Integer jumps only.
    """
    n_draws = as_count(n_draws, "draw counts")
    jump_vals = as_jumps(jumps)
    as_scales(scale, "array scales", integer=False)
    t_axes = dict(zip(jump_vals.tolist(), _time_map(jump_vals.tolist(), t).tolist()))
    values = array_sums(array_law(scale, t_axes, probs, jump_vals), n_draws, seed)
    return SampleBatch(values=values, seed=int(seed))


def twoparam_skellam_pmf_table(ns, lam1: float, lam2: float, t1: float, t2: float) -> list[float]:
    """Pmf of N_1(t1) - N_2(t2) at each n of ``ns``, for independent Poisson processes.

    e^{-lam1 t1 - lam2 t2} (lam1 t1 / lam2 t2)^{n/2} I_{|n|}(2 sqrt(lam1 lam2 t1 t2)),
    degenerating to a (negated) Poisson when either product vanishes; the
    rates and times are checked once per table (see
    :func:`~skellam_lab.gmsp.skellam_pmf_table`).
    """
    as_rates((lam1, lam2))
    as_times((t1, t2))
    return skellam_pmf_table(ns, lam1 * t1, lam2 * t2)


def twoparam_skellam_pmf(n: int, lam1: float, lam2: float, t1: float, t2: float) -> float:
    """Pmf of N_1(t1) - N_2(t2) at n: the one-entry :func:`twoparam_skellam_pmf_table`."""
    return twoparam_skellam_pmf_table([n], lam1, lam2, t1, t2)[0]
