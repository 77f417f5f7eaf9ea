"""Multiparameter Poisson process: exact marginal law, grid sampling, moments.

A rate vector L = (l_1, ..., l_M) defines a counting process indexed by
t in R^M_+ whose marginal at t is Poisson(L . t) and which decomposes in law
as a sum of M independent one-parameter Poisson processes, one per axis.  The
grid sampler materializes exactly that decomposition, so sampled paths are
nondecreasing along every coordinate direction by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import as_rates, as_times, spawn_rngs
from .special import poisson_pmf

__all__ = [
    "as_rates",
    "as_times",
    "GridPath",
    "mpp_pmf",
    "mpp_sample_grid",
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


@dataclass(frozen=True)
class GridPath:
    """One realization of a multiparameter process on a rectangular lattice.

    ``values[i_1, ..., i_M]`` is the path at ``(axes[0][i_1], ..., axes[M-1][i_M])``;
    a batch of paths stacks them on a leading axis, ``values[p, i_1, ..., i_M]``.
    ``seed`` is the root seed; per-axis streams are ``spawn_rngs(seed, M)`` in
    axis order (which samplers split their seed, and how, is listed there).
    """

    axes: tuple
    values: np.ndarray
    seed: int

    @property
    def dim(self) -> int:
        return len(self.axes)


def _check_axes(axes):
    cleaned = []
    for ax in axes:
        a = as_times(ax)
        if a.size == 0:
            raise ValueError("every axis needs at least one time point")
        if a.size > 1 and np.any(np.diff(a) <= 0.0):
            raise ValueError("axis times must be strictly increasing")
        cleaned.append(a)
    return tuple(cleaned)


def mpp_pmf(n: int, rates, t) -> float:
    """P{N(t) = n} for the process with the given rates: Poisson(rates . t)."""
    lam = as_rates(rates)
    tt = as_times(t, lam.size)
    return poisson_pmf(int(n), float(poisson_means(lam, tt)))


def sample_axis_path(rng, lam: float, axis: np.ndarray, n_draws: int = 1) -> np.ndarray:
    """One-parameter Poisson paths at the given times, shape (n_draws, len(axis)).

    Cumulative Poisson increments between consecutive axis times give exact
    joint marginals without event-list bookkeeping.
    """
    gaps = np.diff(axis, prepend=0.0)
    incs = rng.poisson(lam * gaps, size=(n_draws, axis.size))
    return np.cumsum(incs, axis=1)


def mpp_sample_grid(rates, axes, seed: int, n_paths: int | None = None) -> GridPath:
    """Sample a grid path of the process as a sum of per-axis Poisson paths.

    With ``n_paths`` the result is a batch of that many paths.  Each axis
    stream draws the batch's paths along it in one call, path after path, so
    path 0 of a batch is the single path of the same seed.
    """
    lam = as_rates(rates)
    grid_axes = _check_axes(axes)
    if len(grid_axes) != lam.size:
        raise ValueError("number of axes must match the rate dimension")
    poisson_means(lam, np.array([ax[-1] for ax in grid_axes]))  # bounds every increment's mean
    streams = spawn_rngs(seed, lam.size)
    count = 1 if n_paths is None else int(n_paths)
    values = np.zeros((count, *(a.size for a in grid_axes)), dtype=np.int64)
    for k, (rng, ax) in enumerate(zip(streams, grid_axes)):
        reshape = [count] + [1] * lam.size
        reshape[k + 1] = ax.size
        values = values + sample_axis_path(rng, lam[k], ax, count).reshape(reshape)
    return GridPath(axes=grid_axes, values=values if n_paths is not None else values[0],
                    seed=int(seed))


def mpp_covariance(rates, s, t) -> float:
    """Cov(N(s), N(t)) = sum_k lam_k min(s_k, t_k).

    This is the form forced by the per-axis decomposition; at s = t it reduces
    to the Poisson variance rates . t.
    """
    lam = as_rates(rates)
    ss = as_times(s, lam.size)
    tt = as_times(t, lam.size)
    return float(poisson_means(lam, np.minimum(ss, tt)))
