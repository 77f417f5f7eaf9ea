"""Multiparameter Poisson process: exact marginal law and moments.

A rate vector L = (l_1, ..., l_M) defines a counting process indexed by
t in R^M_+ whose marginal at t is Poisson(L . t) and which decomposes in law
as a sum of M independent one-parameter Poisson processes, one per axis.  Its
rectangle integrals are drawn by :func:`skellam_lab.integrals.integral_sample`.
"""

from __future__ import annotations

import numpy as np

from .records import as_rates, as_times
from .special import poisson_pmf

__all__ = [
    "as_rates",
    "as_times",
    "mpp_pmf",
    "mpp_covariance",
]


def poisson_means(rates: np.ndarray, tt: np.ndarray):
    """The Poisson means rates @ tt, refused where a product leaves the float range.

    ``rates`` is one rate vector or a matrix of rate rows.  The product runs
    with numpy's overflow warning off, so an overflow is one ``ValueError``.
    """
    with np.errstate(over="ignore"):
        means = rates @ tt
    if not np.all(np.isfinite(means)):
        raise ValueError(f"means must be finite, got {np.asarray(means).tolist()}")
    return means


def mpp_pmf(n: int, rates, t) -> float:
    """P{N(t) = n} for the process with the given rates: Poisson(rates . t)."""
    lam = as_rates(rates)
    tt = as_times(t, lam.size)
    return poisson_pmf(int(n), float(poisson_means(lam, tt)))


def mpp_covariance(rates, s, t) -> float:
    """Cov(N(s), N(t)) = sum_k lam_k min(s_k, t_k).

    This is the form forced by the per-axis decomposition; at s = t it reduces
    to the Poisson variance rates . t.
    """
    lam = as_rates(rates)
    ss = as_times(s, lam.size)
    tt = as_times(t, lam.size)
    return float(poisson_means(lam, np.minimum(ss, tt)))
