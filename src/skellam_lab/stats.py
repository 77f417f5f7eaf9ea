"""Statistical verification engine: empirical CFs, chi-square, KS, TV.

Every test here is deterministic given its inputs; randomness lives entirely
in the sample batches, which carry their own seeds.  Every test rejects at the
one level LEVEL = 1e-3, chosen loose because the identities under test are
exact, so power is not the bottleneck but flakes are.
"""

from __future__ import annotations

import math

import numpy as np

from .records import SampleBatch, LatticePMF, CFTable, TestReport, distinct_bits

__all__ = [
    "TestReport",
    "empirical_cf",
    "lattice_chi2",
    "lattice_chi2_two_sample",
    "lattice_chi2_pooled",
    "ks_two_sample",
    "tv_distance",
]

LEVEL = 1e-3  # a test passes when its p-value is above this
_MIN_EXPECTED = 5.0  # a chi-square bin is merged until it expects this many draws


def empirical_cf(batch: SampleBatch, u_grid) -> CFTable:
    """Empirical CF (1/N) sum_r e^{iuX_r} with confidence radius 4/sqrt(N)."""
    if batch.n == 0:
        raise ValueError("empty batch")
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    # one exponential per distinct bit pattern (0.0 and -0.0 apart), gathered
    # back per draw, so each mean sums the per-draw terms in the per-draw order.
    # The batch is grouped in its own dtype (int64 lattice draws by counting)
    # and only the distinct values are cast to float: the terms are those of
    # the cast batch, bit for bit
    distinct, inverse = distinct_bits(batch.values)
    distinct = distinct.astype(float)
    values = np.empty(u.size, dtype=complex)
    for i, ui in enumerate(u):  # one frequency at a time keeps N=1e5 grids cheap
        values[i] = np.exp(1j * ui * distinct)[inverse].mean()
    radius = np.full(u.size, 4.0 / np.sqrt(batch.n))
    return CFTable(u=u, values=values, radius=radius)


def _integer_values(batch: SampleBatch) -> np.ndarray:
    """The batch as int64: an integer batch as it is, a float batch only if every value is
    finite and whole (inf equals its own round, and would cast to INT64_MIN)."""
    v = np.asarray(batch.values)
    if v.dtype.kind in "iu":
        return v.astype(np.int64, copy=False)
    if not np.all(np.isfinite(v)):
        raise ValueError("lattice tests need integer-valued batches, got a non-finite draw")
    if not np.all(v == np.round(v)):
        raise ValueError("lattice tests need integer-valued batches")
    return v.astype(np.int64)


def _merge_bins(expected: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous [i, j) cell ranges, merged outward until each expects _MIN_EXPECTED."""
    bins = []
    start = 0
    acc = 0.0
    for i, e in enumerate(expected):
        acc += e
        if acc >= _MIN_EXPECTED:
            bins.append((start, i + 1))
            start = i + 1
            acc = 0.0
    if start < expected.size or acc > 0.0:
        if bins:
            s, _ = bins.pop()
            bins.append((s, expected.size))
        else:
            bins.append((0, expected.size))
    return bins


def _chi2_sf(x: float, dof: int) -> float:
    """P{chi^2_dof > x} for an integer dof >= 1, in closed form.

    With y = x/2 the survival function is a finite sum of Poisson-type terms,
    sum_i y^i e^{-y} / Gamma(i+1) over i < dof/2 for even dof, and
    erfc(sqrt(y)) + sum_i y^(i+1/2) e^{-y} / Gamma(i+3/2) over i < (dof-1)/2
    for odd dof.  Each term is taken from its logarithm, so large statistics
    underflow to 0 instead of overflowing.
    """
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    log_y = math.log(y)
    half = 0.5 * (dof % 2)
    parts = [math.erfc(math.sqrt(y))] if dof % 2 else []
    parts += [math.exp((i + half) * log_y - y - math.lgamma(i + half + 1.0))
              for i in range(dof // 2)]
    return min(1.0, math.fsum(parts))


def _chi2_report(identity, stat, dof, n, seed) -> TestReport:
    """The report of a chi-square statistic on ``dof`` degrees; 0 degrees test nothing, and raise."""
    if dof < 1:
        raise ValueError("a chi-square on one bin (0 degrees of freedom) tests nothing")
    p = _chi2_sf(stat, dof)
    return TestReport(identity=identity, statistic=float(stat), p_value=p, n_samples=n,
                      seed=seed, verdict=p > LEVEL, level=LEVEL)


def lattice_chi2(batch: SampleBatch, pmf: LatticePMF,
                 identity: str = "lattice-chi2") -> TestReport:
    """Pearson chi-square of an integer batch against a closed-form lattice pmf.

    Tail convention: ``pmf.tail_mass`` is expected in the top cell, while draws
    outside the table are clipped into the nearer end cell.  Mass below the
    table is thus expected at the top and observed at the bottom, so the table
    must leave a negligible tail on both sides.
    """
    return lattice_chi2_pooled([(batch, pmf)], batch.seed, identity)


def lattice_chi2_pooled(pairs, seed: int, identity: str = "lattice-chi2-pooled") -> TestReport:
    """:func:`lattice_chi2` over independent (batch, pmf) pairs, read once.

    The Pearson statistics of independent batches add up to a chi-square on
    their summed degrees of freedom.  An empty batch raises ``ValueError``.
    """
    stat, dof, n = 0.0, 0, 0
    for batch, pmf in pairs:
        values = _integer_values(batch)
        if values.size == 0:
            raise ValueError("empty batch")
        probs = pmf.probs.copy()
        probs[-1] += pmf.tail_mass  # a DP table leaves <= tail_mass outside
        expected = values.size * probs
        bins = _merge_bins(expected)
        if not bins or expected.sum() <= 0:
            raise ValueError("not enough expected mass to bin")
        # draws outside the table fall into the nearer end cell
        cells = np.bincount(np.clip(values - pmf.start, 0, probs.size - 1), minlength=probs.size)
        observed = np.array([cells[i:j].sum() for i, j in bins], dtype=float)
        exp_binned = np.array([expected[i:j].sum() for i, j in bins])
        stat += float(np.sum((observed - exp_binned) ** 2 / exp_binned))
        dof, n = dof + len(bins) - 1, n + values.size
    return _chi2_report(identity, stat, dof, n, seed)


def lattice_chi2_two_sample(a: SampleBatch, b: SampleBatch,
                            identity: str = "lattice-chi2-2s") -> TestReport:
    """Two-sample chi-square for equality of two integer-valued laws; an empty batch raises."""
    va = _integer_values(a)
    vb = _integer_values(b)
    if va.size == 0 or vb.size == 0:
        raise ValueError("empty batch")
    lo = int(min(va.min(), vb.min()))
    hi = int(max(va.max(), vb.max()))
    cells = hi - lo + 1
    ca = np.bincount(va - lo, minlength=cells).astype(float)
    cb = np.bincount(vb - lo, minlength=cells).astype(float)
    na, nb = va.size, vb.size
    pooled = (ca + cb) / (na + nb)
    # merge until the smaller sample expects enough in every bin
    bins = _merge_bins(min(na, nb) * pooled)
    stat = 0.0
    for i, j in bins:
        p = pooled[i:j].sum()
        for cnt, n in ((ca, na), (cb, nb)):
            e = n * p
            o = cnt[i:j].sum()
            stat += (o - e) ** 2 / e
    return _chi2_report(identity, stat, len(bins) - 1, na + nb, a.seed)


def _kolmogorov_sf(x: float) -> float:
    """Q(x) = P{K > x} for the Kolmogorov limit law K, the sup of a Brownian bridge's |B|.

    From x = 1 up, the alternating series 2 sum_k (-1)^(k-1) e^(-2 k^2 x^2);
    below it, the theta form 1 - sqrt(2 pi)/x sum_k e^(-(2k-1)^2 pi^2 / (8 x^2)).
    The first omitted term of either is below 1e-30 on its side of x = 1, so
    five terms are exact to rounding.
    """
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 6))
    return 1.0 - math.sqrt(2.0 * math.pi) / x * math.fsum(
        math.exp(-((2 * k - 1) * math.pi / x) ** 2 / 8.0) for k in range(1, 6))


def ks_two_sample(a: SampleBatch, b: SampleBatch, identity: str = "ks-2s") -> TestReport:
    """Two-sample Kolmogorov-Smirnov test in numpy and math, p-value from the limit law.

    The statistic is scipy's ``ks_2samp`` statistic bit for bit: both batches
    are sorted, each empirical cdf is read at every pooled value with a
    right-sided ``searchsorted`` (so ties on a lattice count as scipy counts
    them), and D is the larger of the top and bottom cdf gaps.

    The p-value is the Kolmogorov limit Q(sqrt(n_a n_b / (n_a + n_b)) D) of
    :func:`_kolmogorov_sf`, with no rounding of the effective size.  At
    equal batch sizes it is closer to the exact two-sample law than the
    one-sample law at the rounded size (scipy's "asymp") at every D: where
    the exact p-value exceeds 1e-3, its worst relative gap is 0.026 at
    n = m = 200 and 0.0058 at 1,000, against 0.135 and 0.060.  An empty
    batch raises ``ValueError``.
    """
    if a.n == 0 or b.n == 0:
        raise ValueError("empty batch")
    x = np.sort(np.asarray(a.values, float))
    y = np.sort(np.asarray(b.values, float))
    pooled = np.concatenate([x, y])
    gaps = (np.searchsorted(x, pooled, side="right") / x.size
            - np.searchsorted(y, pooled, side="right") / y.size)
    stat = max(float(gaps.max()), float(-gaps.min()))
    p = _kolmogorov_sf(math.sqrt(a.n * b.n / (a.n + b.n)) * stat)
    return TestReport(identity=identity, statistic=stat, p_value=p,
                      n_samples=a.n + b.n, seed=a.seed, verdict=p > LEVEL, level=LEVEL)


def tv_from_counts(counts: np.ndarray, start: int, pmf: LatticePMF) -> float:
    """Half the l1 gap between the empirical law of ``counts[i]`` draws at start + i and a pmf.

    Computed over the pmf's truncated support; empirical mass outside the table
    and the table's own tail mass are added in full (they cannot overlap less).
    """
    n = int(counts.sum())
    if n < 1:
        raise ValueError("empty batch")
    idx = start - pmf.start + np.arange(counts.size)
    inside = (idx >= 0) & (idx < pmf.probs.size)
    emp = np.bincount(idx[inside], weights=counts[inside], minlength=pmf.probs.size) / n
    return 0.5 * float(np.abs(emp - pmf.probs).sum() + counts[~inside].sum() / n + pmf.tail_mass)


def tv_distance(batch: SampleBatch, pmf: LatticePMF) -> float:
    """:func:`tv_from_counts` of a batch; draws outside the table share a cell on either side."""
    idx = np.clip(_integer_values(batch) - pmf.start, -1, pmf.probs.size)
    return tv_from_counts(np.bincount(idx + 1, minlength=pmf.probs.size + 2), pmf.start - 1, pmf)
