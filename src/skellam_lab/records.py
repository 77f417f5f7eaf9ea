"""Shared value containers and the one checker of each parameter kind.

Every sampler in the package returns a :class:`SampleBatch`: its draws and
the root seed they came from; the batch is the one gate that refuses a
non-finite draw.  Artifact metadata is written by the CLI alone, from the
parameters it parsed.  Closed-form
evaluators on integer lattices return :class:`LatticePMF`, and characteristic
functions (exact or empirical) are tabulated as :class:`CFTable`.  Every
identity check returns a :class:`TestReport`.

Every entry point that takes a rate, time, jump, jump value, stable index,
scale or count refuses a value outside its domain through the checker of that kind
below, with a ``ValueError`` that says "finite" and the rule.  A CF refuses a
frequency whose product with a jump or a draw leaves the float range through
:func:`check_phases`.

:func:`distinct_bits` groups an array's entries by bit pattern for the
CLI's column writer, which formats each distinct pattern once: integer
lattice draws are grouped by counting, everything else by a sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_rates",
    "as_times",
    "as_jumps",
    "as_jump_values",
    "as_indices",
    "as_scales",
    "as_count",
    "check_phases",
    "distinct_bits",
    "SampleBatch",
    "LatticePMF",
    "CFTable",
    "TestReport",
    "make_rng",
    "spawn_rngs",
    "choice_cdf",
    "table_draws",
]


def _checked(x, what: str, ok, rule: str) -> np.ndarray:
    """``x`` as a flat float vector, refused unless every entry is finite and ``ok``.

    ``what`` is the plural noun of the kind, and ``rule`` says what ``ok`` asks.
    An integer past the float range is refused too.
    """
    try:
        v = np.atleast_1d(np.asarray(x, dtype=float))
    except OverflowError:
        raise ValueError(f"{what} must be finite{rule}, got {x!r}") from None
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

    With ``integer`` each must be whole and at most 2**53, up to which
    float64 holds every whole number, and they come back as int64.
    """
    if not integer:
        return _checked(scales, what, lambda v: v > 0.0, " and strictly positive")
    rule = " and positive integers up to 2**53"
    whole = _checked(scales, what, lambda v: (v >= 1.0) & (v <= 2.0**53) & (v == np.floor(v)),
                     rule).astype(np.int64)
    # 2**53 + 1 reads as the float 2**53: refuse a scale the cast does not give back
    if np.any(np.ravel(np.asarray(scales, dtype=object)) != whole):
        raise ValueError(f"{what} must be finite{rule}, got {scales!r}")
    return whole


def as_count(n, what: str) -> int:
    """A count (``what``), such as a table's last index or a number of axes: a whole number >= 0."""
    _checked(n, what, lambda v: (v >= 0.0) & (v == np.floor(v)), " and a nonnegative integer")
    return int(n)


def check_phases(u, values, what: str) -> None:
    """Refuse frequencies ``u`` if u v leaves the float range for an entry v of ``values``.

    The largest |u| times the largest |v| is the largest of those products, so
    one multiplication decides.  It is taken in Python floats, which give an
    infinity or a NaN without a warning, where e^{iuv} would give numpy's
    "invalid value" warning and a NaN.  ``what`` is the singular noun of the
    entries.
    """
    u_max = float(np.abs(u).max(initial=0.0))
    if not math.isfinite(u_max * float(np.abs(values).max(initial=0.0))):
        raise ValueError(f"u = {u_max!r} times a {what} leaves the float range")


def distinct_bits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a flat numeric array by bit pattern, and the inverse.

    ``distinct[inverse]`` has the bits of ``values``, so 0.0 and -0.0 stay
    apart.  ``distinct`` has the dtype of ``values``, sorted by bit pattern
    read as a signed integer, and ``inverse`` is an intp array: what
    ``np.unique`` of that signed view returns.  Two routes give it.  A signed
    integer array whose range (max - min + 1 values) is at most its length,
    such as a lattice process's draws, is grouped by counting: each value's
    offset from the minimum, taken in int64, marks a flag, and one ``cumsum``
    over the flags ranks them, in linear time.  Every other array is sorted
    by ``np.unique``.
    """
    if values.dtype.kind == "i" and values.size:
        low, high = int(values.min()), int(values.max())
        if high - low < values.size:
            offsets = values.astype(np.int64, copy=False) - low
            present = np.zeros(high - low + 1, dtype=bool)
            present[offsets] = True
            rank = np.cumsum(present, dtype=np.intp)
            rank -= 1
            return (np.flatnonzero(present) + low).astype(values.dtype), rank[offsets]
    bits, inverse = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
    return bits.view(values.dtype), inverse


def make_rng(seed: int) -> np.random.Generator:
    """Root generator for a sampler invocation (PCG64 behind SeedSequence); ``seed`` is a count."""
    return np.random.default_rng(np.random.SeedSequence(as_count(seed, "seeds")))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child streams from one root seed.

    Children are ``SeedSequence(seed).spawn(n)`` taken in order, so the i-th
    sub-stream is the same no matter how many draws the others make, or in
    which order they make them.  Within any stream, each scalar-mean Poisson
    count below mean 300, each fractional side below mean lam t^alpha = 30
    and each draw from a finite table (a jump label, an array sum) takes one
    uniform through :func:`table_draws`.  Its users:
    ``frac_skellam_sample`` takes one child per side, ``integral_sample`` 3 M
    for M axes and its compound form 2 M + 1.  The other samplers
    (``gmsp_sample``, the compound forms, the array samplers,
    ``uniform_compound_sample``, the stable clocks) draw from one
    ``make_rng(seed)`` stream, and the identities offset the seeds of their
    batches (seed + i, seed + 7 i, seed + 1, and 10 seed + i in frac-pmf)
    rather than split one: the three uniform-compound identities draw
    ``integral_sample`` at seed, then ``uniform_compound_sample`` at seed + 1,
    and integral-cf its two cases at seed, then seed + 1.
    """
    seq = np.random.SeedSequence(as_count(seed, "seeds"))
    return [np.random.default_rng(ss) for ss in seq.spawn(n)]


def choice_cdf(probs) -> np.ndarray:
    """The table ``Generator.choice(..., p=probs)`` inverts: cumsum(probs) over its last entry.

    The last entry is then exactly 1.0, and no entry passes it.
    """
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def table_draws(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """``cdf.searchsorted(rng.random(n), side="right")``, bit for bit, through a guide table.

    ``cdf`` is nondecreasing with last entry 1.0 (:func:`choice_cdf`), so
    ``Generator.choice(a, n, p=probs)`` is ``a[table_draws(rng, choice_cdf(probs), n)]``
    and leaves ``rng`` in the same state.  With g the least power of two >= 4
    len(cdf), u g is exact and its cast to int is b = floor(u g), so u >= b / g
    and ``guide[b]``, the number of entries <= b / g, is at most the answer.
    A draw starts there and walks forward while its entry is <= u; it stops by
    the last entry, 1.0 > u.  Each
    bucket holds len(cdf) / g <= 1/4 entries on average, so a draw costs one
    uniform, one guide lookup and about a quarter of a step.
    """
    g = 1 << (4 * cdf.size - 1).bit_length()
    guide = cdf.searchsorted(np.arange(g) / g, side="right")
    u = rng.random(n)
    idx = guide[(u * g).astype(np.int64)]
    walk = np.flatnonzero(cdf[idx] <= u)
    while walk.size:
        idx[walk] += 1
        walk = walk[cdf[idx[walk]] <= u[walk]]
    return idx


@dataclass(frozen=True)
class SampleBatch:
    """I.i.d. draws of a scalar quantity and the root seed they were drawn from.

    A float batch holding an inf or nan is refused (samplers sum under
    ``np.errstate``, so no numpy warning comes first); an int batch is not scanned.
    """

    values: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.values.ndim != 1:
            raise ValueError("SampleBatch values must be one-dimensional")
        if self.values.dtype.kind == "f" and not np.isfinite(self.values).all():
            raise ValueError("a draw left the float range: use smaller jumps, rates or times")

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


@dataclass(frozen=True)
class TestReport:
    """Outcome of one verification: statistic, p-value or critical gap, verdict."""

    __test__ = False  # not a pytest collectible despite the name

    identity: str
    statistic: float
    p_value: float | None
    n_samples: int
    seed: int
    verdict: bool
    level: float | None = None
    critical: float | None = None

    def __post_init__(self):
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value must lie in [0, 1]")
        if self.p_value is not None and self.level is not None:
            if self.verdict != (self.p_value > self.level):
                raise ValueError("verdict inconsistent with p-value and level")
        if self.p_value is None and self.critical is not None:
            if self.verdict != (self.statistic <= self.critical):
                raise ValueError("verdict inconsistent with statistic and critical value")

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "statistic": float(self.statistic),
            "p_value": None if self.p_value is None else float(self.p_value),
            "n": int(self.n_samples),
            "seed": int(self.seed),
            "verdict": "pass" if self.verdict else "fail",
        }
