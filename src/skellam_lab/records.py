"""Shared value containers and the one checker of each parameter kind.

Every sampler in the package returns a :class:`SampleBatch` that records the
root seed and enough metadata to regenerate the draws exactly.  Closed-form
evaluators on integer lattices return :class:`LatticePMF`, and characteristic
functions (exact or empirical) are tabulated as :class:`CFTable`.

Every entry point that takes a rate, time, jump, jump value, stable index,
scale or count refuses a value outside its domain through the checker of that kind
below, with a ``ValueError`` that says "finite" and the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_rates",
    "as_times",
    "as_jumps",
    "as_jump_values",
    "as_indices",
    "as_scales",
    "as_count",
    "SampleBatch",
    "LatticePMF",
    "CFTable",
    "make_rng",
    "spawn_rngs",
]


def _checked(x, what: str, ok, rule: str) -> np.ndarray:
    """``x`` as a flat float vector, refused unless every entry is finite and ``ok``.

    ``what`` is the plural noun of the kind, and ``rule`` says what ``ok`` asks.
    """
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{what} must form a flat vector")
    if not (np.all(np.isfinite(v)) and np.all(ok(v))):
        raise ValueError(f"{what} must be finite{rule}, got {x!r}")
    return v


def as_rates(rates) -> np.ndarray:
    """A nonempty rate vector, each rate finite and > 0."""
    lam = _checked(rates, "rates", lambda v: v > 0.0, " and strictly positive")
    if lam.size < 1:
        raise ValueError("rates must be a nonempty vector")
    return lam


def as_times(t, dim: int | None = None) -> np.ndarray:
    """A time point, each coordinate finite and >= 0, of ``dim`` coordinates if given."""
    tt = _checked(t, "times", lambda v: v >= 0.0, " and nonnegative")
    if dim is not None and tt.size != dim:
        raise ValueError(f"time point has dimension {tt.size}, expected {dim}")
    return tt


def as_jumps(jumps) -> np.ndarray:
    """Jump sizes (any iterable, such as the keys of a jump map) sorted, each finite and nonzero."""
    return _checked(sorted(float(j) for j in jumps), "jumps", lambda v: v != 0.0, " and nonzero")


def as_jump_values(values) -> np.ndarray:
    """Values of a compound jump law, each finite; zero is allowed."""
    return _checked(values, "jump values", lambda v: True, "")


def as_indices(alphas) -> np.ndarray:
    """Stable indices, each in (0, 1]."""
    return _checked(alphas, "stable indices", lambda v: (v > 0.0) & (v <= 1.0), " and in (0, 1]")


def as_scales(scales, what: str, integer: bool = True) -> np.ndarray:
    """Array scales or lattice resolutions (``what``, plural), each finite and > 0.

    With ``integer`` each must be whole, and they come back as int64.
    """
    if integer:
        s = _checked(scales, what, lambda v: (v >= 1.0) & (v == np.floor(v)),
                     " and positive integers")
        return s.astype(np.int64)
    return _checked(scales, what, lambda v: v > 0.0, " and strictly positive")


def as_count(n, what: str) -> int:
    """A count (``what``), such as a table's last index or a number of axes: a whole number >= 0."""
    _checked(n, what, lambda v: (v >= 0.0) & (v == np.floor(v)), " and a nonnegative integer")
    return int(n)


def make_rng(seed: int) -> np.random.Generator:
    """Root generator for a sampler invocation (PCG64 behind SeedSequence)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child streams from one root seed.

    Children are ``SeedSequence(seed).spawn(n)`` taken in order, so the i-th
    sub-stream is the same no matter how many draws the others make.  Its
    users: ``mpp_sample_grid`` takes one child per axis, ``frac_skellam_sample``
    one per side, ``integral_sample`` 3 M for M axes and its compound form
    2 M + 1.  The other samplers (``gmsp_sample``, the compound forms, the
    array samplers, ``uniform_compound_sample``, the stable clocks) draw from
    one ``make_rng(seed)`` stream, and the identities offset the seeds of
    their batches (seed + i, seed + 7 i, seed + 1) rather than split one.
    """
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(int(seed)).spawn(n)]


@dataclass(frozen=True)
class SampleBatch:
    """I.i.d. draws of a scalar quantity plus what it takes to reproduce them."""

    values: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.values.ndim != 1:
            raise ValueError("SampleBatch values must be one-dimensional")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class LatticePMF:
    """Probability mass table over a contiguous integer range.

    ``probs[i]`` is the mass at ``start + i``; ``tail_mass`` is whatever the
    table does not cover.
    """

    start: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("LatticePMF needs a nonempty 1-d probability table")

    @property
    def tail_mass(self) -> float:
        """1 minus the table's sum, clamped at 0."""
        return max(0.0, 1.0 - float(self.probs.sum()))

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.probs.size)

    def prob(self, n: int) -> float:
        i = int(n) - self.start
        if 0 <= i < self.probs.size:
            return float(self.probs[i])
        return 0.0


@dataclass(frozen=True)
class CFTable:
    """Characteristic-function values on a grid of real frequencies.

    ``radius`` is present for empirical tables only: a per-point confidence
    radius such that the true CF lies within it with high probability.
    """

    u: np.ndarray
    values: np.ndarray
    radius: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.u.shape != self.values.shape:
            raise ValueError("u grid and CF values must have matching shapes")
        if self.radius is not None:
            object.__setattr__(self, "radius", np.asarray(self.radius, dtype=float))
