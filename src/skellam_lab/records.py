"""Shared value containers: sample batches, lattice pmf tables, CF tables.

Every sampler in the package returns a :class:`SampleBatch` that records the
root seed and enough metadata to regenerate the draws exactly.  Closed-form
evaluators on integer lattices return :class:`LatticePMF`, and characteristic
functions (exact or empirical) are tabulated as :class:`CFTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SampleBatch",
    "LatticePMF",
    "CFTable",
    "make_rng",
    "spawn_rngs",
]


def make_rng(seed: int) -> np.random.Generator:
    """Root generator for a sampler invocation (PCG64 behind SeedSequence)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child streams from one root seed.

    The split is the fixed rule used everywhere in this package: children are
    ``SeedSequence(seed).spawn(n)`` taken in order, so the i-th sub-stream is
    the same no matter how many draws run concurrently.
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
