"""Statistical verification engine: empirical CFs, chi-square, KS, TV.

Every test here is deterministic given its inputs; randomness lives entirely
in the sample batches, which carry their own seeds.  Every test rejects at the
one level LEVEL = 1e-3, chosen loose because the identities under test are
exact, so power is not the bottleneck but flakes are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .records import SampleBatch, LatticePMF, CFTable

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


def empirical_cf(batch: SampleBatch, u_grid) -> CFTable:
    """Empirical CF (1/N) sum_r e^{iuX_r} with confidence radius 4/sqrt(N)."""
    if batch.n == 0:
        raise ValueError("empty batch")
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    x = np.asarray(batch.values, dtype=float)
    # one exponential per distinct bit pattern (0.0 and -0.0 apart), gathered
    # back per draw, so each mean sums the per-draw terms in the per-draw order
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    values = np.empty(u.size, dtype=complex)
    for i, ui in enumerate(u):  # one frequency at a time keeps N=1e5 grids cheap
        values[i] = np.exp(1j * ui * distinct)[inverse].mean()
    radius = np.full(u.size, 4.0 / np.sqrt(batch.n))
    return CFTable(u=u, values=values, radius=radius)


def _integer_values(batch: SampleBatch) -> np.ndarray:
    v = np.asarray(batch.values)
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
    """The report of a chi-square statistic on ``dof`` degrees; 0 passes only a zero statistic."""
    p = _chi2_sf(stat, dof) if dof else (1.0 if stat < 1e-12 else 0.0)
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
    their summed degrees of freedom.
    """
    stat, dof, n = 0.0, 0, 0
    for batch, pmf in pairs:
        values = _integer_values(batch)
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
    """Two-sample chi-square for equality of two integer-valued laws."""
    va = _integer_values(a)
    vb = _integer_values(b)
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


# Stirling remainder log k! - (k + 1/2) log k + k - log(2 pi)/2 at k = 0..15;
# past 15 its asymptotic series is exact to a few ulps
_STIRLERR_TABLE = np.array([0.0] + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k
                                    - 0.5 * math.log(2.0 * math.pi) for k in range(1, 16)])
_SMIRNOV_MAX_N = 1_000_000  # past this the one-sided tail is Miller's approximation
_PG_MIN_LOG = -708.0  # below this log of the theta factor the Pelz-Good cdf is 0


def _stirlerr(k):
    """The Stirling remainder of log k! for integers k >= 1 (Loader's stirlerr)."""
    k = np.asarray(k, dtype=float)
    k2 = k * k
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * k2)) / k2) / k2) / k2) / k
    return np.where(k <= 15, _STIRLERR_TABLE[np.minimum(k, 15).astype(np.int64)], series)


def _smirnov_sf(n: int, d: float) -> float:
    """P{D+_n >= d}, the one-sided Smirnov tail, by the Birnbaum-Tingey sum.

    The sum runs over j = 0..n(1-d) of d C(n,j) (1-d-j/n)^(n-j) (d+j/n)^(j-1).
    Term j is a binomial pmf at j with success probability d + j/n, times
    d/(d + j/n); its log is taken in Loader's saddle-point form (Stirling
    remainders and log1p deviances, no cancelling n log n), and the terms are
    summed relative to the largest, so negligible ones drop out as zeros.
    """
    if n > _SMIRNOV_MAX_N:
        return math.exp(-(6.0 * n * d + 1.0) ** 2 / (18.0 * n))
    a = n * d
    j = np.arange(1.0, math.floor(n - a) + 1.0)
    j = j[n - j - a > 0.0]  # a term with 1 - d - j/n = 0 vanishes
    rest = n - j
    log_terms = (np.log(a / (j + a)) + 0.5 * np.log(n / (2.0 * math.pi * j * rest))
                 + j * np.log1p(a / j) + rest * np.log1p(-a / rest)
                 + (_stirlerr(n) - _stirlerr(j) - _stirlerr(rest)))
    log_terms = np.append(log_terms, n * math.log1p(-d))  # j = 0: (1 - d)^n
    peak = float(log_terms.max())
    return math.exp(peak + math.log(float(np.sum(np.exp(log_terms - peak)))))


def _durbin_cdf(n: int, d: float) -> float:
    """P{D_n <= d} by Durbin's matrix, in the form of Marsaglia, Tsang and Wang.

    With k = ceil(nd) and h = k - nd, the cdf is n!/n^n times the (k, k) entry
    of H^n for the (2k-1)-square matrix H; the power is taken by squaring,
    scaled by 2^128 whenever the central entry passes it.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.cumprod(np.concatenate(([1.0], 1.0 / np.arange(1.0, m + 1))))  # 1/i!, i=0..m
    lag = np.arange(m)[:, None] - np.arange(m)[None, :] + 1  # H[r, c] = 1/(r - c + 1)!
    mat = np.where(lag >= 0, inv_fact[np.clip(lag, 0, m)], 0.0)
    edge = (1.0 - h ** np.arange(1.0, m + 1)) * inv_fact[1:]
    edge[-1] = (1.0 + max(2.0 * h - 1.0, 0.0) ** m - 2.0 * h ** m) * inv_fact[m]
    mat[:, 0] = edge
    mat[-1, :] = edge[::-1]
    power, power_exp, mat_exp, left = np.eye(m), 0, 0, n
    while left:
        if left % 2:
            power = power @ mat
            power_exp += mat_exp
        mat = mat @ mat
        mat_exp *= 2
        if abs(mat[k - 1, k - 1]) > 2.0 ** 128:
            mat /= 2.0 ** 128
            mat_exp += 128
        left //= 2
    cdf = float(power[k - 1, k - 1])
    for i in range(1, n + 1):  # times n!/n^n, one factor at a time
        cdf = i * cdf / n
        if abs(cdf) < 2.0 ** -128:
            cdf *= 2.0 ** 128
            power_exp -= 128
    return math.ldexp(cdf, power_exp)


def _pelz_good_cdf(n: int, d: float) -> float:
    """P{D_n <= d} by the Pelz-Good expansion to order n^(-3/2).

    The Li-Chien and Korolyuk terms K_0..K_3 of z = d sqrt(n), each put in
    its theta-function form for small z.  The numpy operations follow scipy's
    ``_kolmogn_PelzGood`` one for one, so both give the same bits.
    """
    z = np.sqrt(n) * np.float64(d)
    z2, z3, z4, z6 = z ** 2, z ** 3, z ** 4, z ** 6
    qlog = -np.pi ** 2 / 8 / z2
    if qlog < _PG_MIN_LOG:
        return 0.0
    q = np.exp(qlog)
    pi2, pi4, pi6 = np.pi ** 2, np.pi ** 4, np.pi ** 6
    k1a, k1b = -z2, pi2 / 4
    k2a, k2b, k2c = 6 * z6 + 2 * z4, (2 * z4 - 5 * z2) * pi2 / 4, pi4 * (1 - 2 * z2) / 16
    k3d = pi6 * (5 - 30 * z2) / 64
    k3c = pi4 * (-60 * z2 + 212 * z4) / 16
    k3b = pi2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z ** 8
    terms = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        m2, m4, m6 = m ** 2, m ** 4, m ** 6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0, k1a + k1b * m2, k2a + k2b * m2 + k2c * m4,
                           k3a + k3b * m2 + k3c * m4 + k3d * m6])
        terms *= qpower
        terms += coeffs
    sqrt_2pi = np.sqrt(2 * np.pi)
    terms *= q
    terms *= sqrt_2pi
    terms /= np.array([z, 6 * z4, 72 * z ** 7, 6480 * z ** 10])
    q = np.exp(-pi2 / 2 / z2)
    ks = np.arange(maxk, 0, -1)
    ks2 = ks ** 2
    qpowers = q ** ks2
    terms[2] += np.sum(ks2 * qpowers) * (pi2 * sqrt_2pi / (-36 * z3))
    sqrt3z, kspi = np.sqrt(3) * z, np.pi * ks
    terms[3] += (np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ks2 * qpowers)
                 * (pi2 * sqrt_2pi / (216 * z6)))
    terms /= np.power(n * 1.0, np.arange(4) / 2.0)
    return float(sum(terms))


def _kolmogorov_sf(n: int, d: float) -> float:
    """P{D_n > d} for the two-sided one-sample Kolmogorov statistic D_n.

    The branches are those of Simard and L'Ecuyer as scipy's ``kstwo.sf``
    takes them: the Ruben-Gambino closed forms for nd <= 1 and nd >= n - 1;
    twice the one-sided Smirnov tail for d >= 1/2, for nd^2 > 4 at n <= 140
    and for 2.2 <= nd^2 < 370 at n > 140 (0 past 370); Durbin's matrix for the
    rest of n <= 140 (scipy takes the equal Pomeranz recursion for
    nd^2 > 0.754693) and for n <= 100000 with n d^1.5 <= 1.4; Pelz-Good
    otherwise.
    """
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        return 1.0 - math.exp(math.lgamma(n + 1.0) - n * math.log(n) + n * math.log(2.0 * t - 1.0))
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    nd2 = t * d
    if d >= 0.5 or (n <= 140 and nd2 > 4.0) or (n > 140 and 2.2 <= nd2 < 370.0):
        return min(1.0, 2.0 * _smirnov_sf(n, d))
    if n > 140 and nd2 >= 370.0:
        return 0.0
    if n <= 140 or (n <= 100_000 and n * d ** 1.5 <= 1.4):
        return 1.0 - _durbin_cdf(n, d)
    return 1.0 - _pelz_good_cdf(n, d)


def ks_two_sample(a: SampleBatch, b: SampleBatch, identity: str = "ks-2s") -> TestReport:
    """Two-sample Kolmogorov-Smirnov test with the "asymp" p-value, in numpy and math.

    The statistic is scipy's ``ks_2samp`` statistic bit for bit: both batches
    are sorted, each empirical cdf is read at every pooled value with a
    right-sided ``searchsorted`` (so ties on a lattice count as scipy counts
    them), and D is the larger of the top and bottom cdf gaps.

    "asymp" means the exact law of the one-sample statistic at
    N = round(n_a n_b / (n_a + n_b)) (half-even), p = P{D_N > D}, as
    ``scipy.stats.kstwo.sf(D, N)`` returns it; see :func:`_kolmogorov_sf`
    for its branches.  Over N in [1, 40000] and D in (0, 1) the p-value is
    within 1e-10 relative (1e-300 absolute where it underflows) of scipy
    1.17; in the Pelz-Good region, where every identity report at the
    pinned n sits unless it rejects, it is the same float.  Every p-value
    below 1e-3 at N > 140 comes from the Smirnov branch.  Two one-draw
    batches (N = 0) have no p-value and raise ``ValueError``, as an empty
    batch does.
    """
    if a.n == 0 or b.n == 0:
        raise ValueError("empty batch")
    big, small = sorted((float(a.n), float(b.n)), reverse=True)
    n_eff = round(big * small / (big + small))
    if n_eff == 0:
        raise ValueError("a KS p-value needs more than one draw in one batch")
    x = np.sort(np.asarray(a.values, float))
    y = np.sort(np.asarray(b.values, float))
    pooled = np.concatenate([x, y])
    gaps = (np.searchsorted(x, pooled, side="right") / x.size
            - np.searchsorted(y, pooled, side="right") / y.size)
    stat = max(float(gaps.max()), float(-gaps.min()))
    p = min(1.0, max(0.0, _kolmogorov_sf(n_eff, stat)))
    return TestReport(identity=identity, statistic=stat, p_value=p,
                      n_samples=a.n + b.n, seed=a.seed, verdict=p > LEVEL, level=LEVEL)


def tv_distance(batch: SampleBatch, pmf: LatticePMF) -> float:
    """Half the l1 gap between the empirical law and a lattice pmf.

    Computed over the pmf's truncated support; empirical mass outside the
    table and the table's own tail mass are added in full (they cannot
    overlap less than that).
    """
    if batch.n == 0:
        raise ValueError("empty batch")
    values = _integer_values(batch)
    n = values.size
    idx = values - pmf.start
    inside = (idx >= 0) & (idx < pmf.probs.size)
    emp = np.bincount(idx[inside], minlength=pmf.probs.size) / n
    outside = float(np.count_nonzero(~inside)) / n
    return 0.5 * (float(np.abs(emp - pmf.probs).sum()) + outside + pmf.tail_mass)
