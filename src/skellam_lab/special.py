"""Series and quadrature evaluations behind the closed-form distributions.

The Bessel series has positive, unimodal terms: :func:`log_bessel_i` sums it
outward from its peak term and stops each side relative to its own sum, so it
needs no tolerance.  The Wright series are summed in log space, because the
gamma factors overflow double precision long before the series converge.
Their stop rule is three consecutive small terms, because an alternating
series can have a single accidentally tiny term: :func:`sum_series` applies
it to one series and :func:`sum_rows` to a block of series at once, with the
same floats.  No series, and no table that :func:`grow_table` builds, passes
_MAX_TERMS terms or entries; past it they raise :class:`TruncationError`.
:func:`frac_poisson_table` alone returns the nmax + 1 entries it is asked
for: at x = 1000, alpha = 1/2 its law holds 1.7e-12 of its mass past
n = 10,000.  The fractional Poisson law is no series
here: it is a double integral over the Kanter representation of the stable
clock, taken on one fixed double-exponential node grid.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .records import as_count, as_indices, as_rates, as_times

__all__ = [
    "TruncationError",
    "sum_series",
    "sum_rows",
    "log_bessel_i",
    "bessel_i",
    "wright_psi23",
    "poisson_entries",
    "grow_table",
    "frac_poisson_entries",
    "frac_poisson_table",
    "frac_poisson_pmf",
]


_ABS_TOL = 1e-14  # sum_series stops after three terms below _ABS_TOL * (1 + |partial|)
_MAX_TERMS = 10_000  # cap on the terms of a series and the entries of a table
_REL_STOP = 2.0**-60  # log_bessel_i stops a side at a term below this share of its sum


class TruncationError(RuntimeError):
    """A series or table hit its term cap, or left the float range, before converging.

    The partial sum accumulated so far is available as ``partial``.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(f"{message} (partial sum {partial!r})")
        self.partial = partial


def sum_series(terms) -> tuple[float, bool]:
    """Sum ``terms`` in order until the stop rule holds; return (partial, converged).

    The sum stops, converged, after three consecutive terms with
    ``|term| < _ABS_TOL * (1 + |partial|)``.  It stops unconverged after
    _MAX_TERMS terms or when ``terms`` runs out first.  An exception raised
    while producing a term propagates unchanged.
    """
    total = 0.0
    small = 0
    for term in itertools.islice(terms, _MAX_TERMS):
        total += term
        if abs(term) < _ABS_TOL * (1.0 + abs(total)):
            small += 1
            if small == 3:
                return total, True
        else:
            small = 0
    return total, False


_EXP_SAFE = 709.0  # math.exp is finite below this; above, it may raise OverflowError


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each entry, inf where it would raise OverflowError.

    np.exp differs from math.exp in the last bit on a few per cent of
    arguments, so the block sums of :func:`sum_rows` would not be the floats
    that :func:`sum_series` adds.
    """
    flat = x.ravel()
    big = flat > _EXP_SAFE
    out = np.fromiter(map(math.exp, np.where(big, 0.0, flat).tolist()), float, flat.size)
    for i in np.flatnonzero(big):
        try:
            out[i] = math.exp(flat[i])
        except OverflowError:
            out[i] = math.inf
    return out.reshape(x.shape)


def sum_rows(log_terms, nrows: int, width: int, name: str) -> tuple[list, int]:
    """Sum ``nrows`` series at once under the stop rule of :func:`sum_series`.

    ``log_terms(rows, width)`` returns the logs of terms 0..width-1 of each
    row in the index array ``rows``.  Each row is exponentiated with
    math.exp and summed with np.cumsum, which adds in sequence, so its sum is
    the float :func:`sum_series` returns for the same terms.  Rows that have
    not stopped are recomputed at twice the width, up to _MAX_TERMS.

    Returns the list of row results and the last width used.  A row result
    is its sum, or the :class:`TruncationError` that ``name`` raises for it:
    a term above the float range at or before the row's stop (terms computed
    past the stop do not count), or no stop in _MAX_TERMS terms.
    """
    results = [None] * nrows
    rows = np.arange(nrows)
    width = min(width, _MAX_TERMS)
    while len(rows):
        terms = _exp(log_terms(rows, width))
        with np.errstate(over="ignore"):
            sums = np.cumsum(terms, axis=1)
        small = np.abs(terms) < _ABS_TOL * (1.0 + np.abs(sums))
        run = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
        first = (~np.logical_or.accumulate(run, axis=1)).sum(axis=1)
        stopped = first < run.shape[1]
        stop = np.where(stopped, first + 2, width - 1)  # a row that runs on is read to its end
        inf = np.isinf(terms)
        overflow = np.where(inf.any(axis=1), inf.argmax(axis=1), width) <= stop
        done = stopped | overflow | (width == _MAX_TERMS)
        values = sums[np.arange(len(rows)), stop].tolist()
        stopped, overflow = stopped.tolist(), overflow.tolist()
        for i in np.flatnonzero(done).tolist():
            if overflow[i]:
                results[rows[i]] = TruncationError(
                    f"{name} has a term above the float range", math.inf)
            elif stopped[i]:
                results[rows[i]] = values[i]
            else:
                results[rows[i]] = TruncationError(
                    f"{name} did not converge in {_MAX_TERMS} terms", values[i])
        rows = rows[~done]
        if len(rows):
            width = min(2 * width, _MAX_TERMS)
    return results, width


def _signed_lgamma(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign of Gamma(x)); raises at poles."""
    if x <= 0 and x == math.floor(x):
        raise ValueError(f"gamma pole at {x!r}")
    if x > 0:
        return math.lgamma(x), 1.0
    sign = -1.0 if math.floor(x) % 2 else 1.0
    return math.lgamma(x), sign


def log_bessel_i(n: int, x: float) -> float:
    """log I_n(x) for integer n >= 0 and finite x > 0, summed outward from the peak term.

    The terms (x/2)^(2m+n) / (m! (m+n)!) are positive and unimodal in m, with
    their peak at m* = floor((sqrt(n^2+x^2) - n)/2) (Abramowitz & Stegun
    9.6.10).  Scaled to 1 at the peak, each side is walked by the term ratio
    (x/2)^2 / ((m+1)(m+n+1)) and stops at the first term below 2^-60 of the
    running sum; lgamma is taken at the peak only.  More than _MAX_TERMS
    terms raise :class:`TruncationError`, whose ``partial`` is then the log
    of the partial sum; so does a peak term whose log leaves the float range.
    """
    if n < 0 or not 0 < x < math.inf:
        raise ValueError(f"log_bessel_i needs n >= 0 and a finite x > 0, got ({n!r}, {x!r})")
    half = x / 2.0
    peak = math.floor(half * (x / (math.hypot(n, x) + n)))
    try:
        log_peak = ((2 * peak + n) * math.log(half)
                    - math.lgamma(peak + 1.0) - math.lgamma(peak + n + 1.0))
    except OverflowError:
        raise TruncationError(f"log I_{n}({x}): peak term past the float range", math.inf) from None
    total, budget = 1.0, _MAX_TERMS - 1
    for step in (1, -1):
        m, term = peak, 1.0
        while term >= _REL_STOP * total and (step > 0 or m > 0):
            if budget == 0:
                raise TruncationError(f"log I_{n}({x}) did not converge in {_MAX_TERMS} terms",
                                      log_peak + math.log(total))
            k = m if step > 0 else m - 1  # the ratio is that of terms k + 1 and k
            term *= ((half / (k + 1)) * (half / (k + n + 1))) ** step
            m += step
            total += term
            budget -= 1
    return log_peak + math.log(total)


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function of integer order: the exponential of :func:`log_bessel_i`.

    Negative x is handled through the parity I_n(-x) = (-1)^n I_n(x) and a
    negative order through I_{-n} = I_n.  A value above the float range
    raises :class:`TruncationError`.
    """
    n = abs(int(n))
    if abs(x) / 2.0 == 0.0:  # includes subnormals whose half underflows
        return 1.0 if n == 0 else 0.0
    sign = -1.0 if (x < 0 and n % 2 == 1) else 1.0
    try:
        return sign * math.exp(log_bessel_i(n, abs(x)))
    except OverflowError:
        raise TruncationError(f"I_{n}({x}) is above the float range", sign * math.inf) from None


def wright_psi23(
    a1: tuple[float, float],
    a2: tuple[float, float],
    b1: tuple[float, float],
    b2: tuple[float, float],
    b3: tuple[float, float],
    z: float,
) -> float:
    """Generalized Wright series with 2 numerator and 3 denominator pairs.

    Each parameter is a ``(value, weight)`` pair; term m carries
    Gamma(value + weight*m) in the numerator or denominator, and the series is
    sum_m [Gamma(a1..)Gamma(a2..)/(Gamma(b1..)Gamma(b2..)Gamma(b3..))] z^m/m!.

    A pole in a numerator gamma is a domain error.  A pole in a denominator
    gamma kills that term (the reciprocal gamma is zero there).  A term above
    the float range raises :class:`TruncationError`.
    """
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    log_abs_z = math.log(abs(z)) if z != 0.0 else None

    def term(m):
        try:
            ln1, s1 = _signed_lgamma(a1[0] + a1[1] * m)
            ln2, s2 = _signed_lgamma(a2[0] + a2[1] * m)
        except ValueError:
            raise ValueError(f"numerator gamma pole in wright_psi23 at term {m}") from None
        log_num = ln1 + ln2
        sign = s1 * s2
        log_den = 0.0
        for b in (b1, b2, b3):
            try:
                lnb, sb = _signed_lgamma(b[0] + b[1] * m)
            except ValueError:
                return 0.0  # 1/Gamma vanishes at the pole
            log_den += lnb
            sign *= sb
        if z < 0 and m % 2 == 1:
            sign = -sign
        log_z = m * log_abs_z if log_abs_z is not None else (0.0 if m == 0 else -math.inf)
        return sign * math.exp(log_num - log_den + log_z - math.lgamma(m + 1.0))

    try:
        total, converged = sum_series(map(term, itertools.count()))
    except OverflowError:
        raise TruncationError("wright_psi23 has a term above the float range", math.inf) from None
    if not converged:
        raise TruncationError(f"wright_psi23 did not converge in {_MAX_TERMS} terms", total)
    return total


def poisson_pmf(n: int, mu: float) -> float:
    """Poisson pmf at n for mean mu >= 0 (point mass at 0 when mu == 0)."""
    if n < 0:
        return 0.0
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1.0))


# p_n = E Pois(n; lam t^alpha B(theta) w^(1-alpha)) over the Kanter
# representation of the stable clock, integrated on one fixed double-exponential
# grid (Takahasi & Mori 1974); the integrand is positive, so nothing cancels.
_STEP = 1.0 / 16  # node spacing of both rules
_NEGLIGIBLE = 1e-20  # nodes of smaller weight are dropped
_RESTART = 16  # ratio-recurrence steps between exact log-space restarts
_DROPPED = 1e-30  # a node past its mean whose pmf is below this is dropped
_TABLE_FLOOR = 1e-20  # a table's tail starts below this


def _kanter_nodes(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(B(theta) w^(1-alpha), weight) at the nodes; the weights sum to 1.

    For theta ~ U(0, pi) and w ~ Exp(1), D^(-alpha) = B(theta) w^(1-alpha) with
    B(theta) = sin(theta) / (sin(alpha theta)^alpha sin((1-alpha) theta)^(1-alpha)),
    where D is the stable draw of fractional._stable_draws (Kanter 1975).
    theta takes tanh-sinh nodes; w takes the nodes w = exp(v - e^(-v)), which
    grow only like e^v, so the narrow Poisson peaks of large n stay resolved.
    """
    if alpha == 1.0:  # the clock is the identity
        return np.ones(1), np.ones(1)
    u = np.arange(-4.0, 4.0 + _STEP / 2, _STEP)  # past +-4 every node weighs under 1e-20
    s = np.pi * np.sinh(u)
    theta = np.pi / (1.0 + np.exp(-s))
    # sin(theta) from the nearer end of (0, pi), and a floor on sin(alpha theta):
    # its alpha-th power tends to 1, but a subnormal alpha would give 0^alpha = 0
    b = (np.sin(np.pi / (1.0 + np.exp(np.abs(s))))
         / (np.maximum(np.sin(alpha * theta), np.finfo(float).tiny) ** alpha
            * np.sin((1.0 - alpha) * theta) ** (1.0 - alpha)))
    theta_weight = _STEP * np.pi / 2 * np.cosh(u) / (1.0 + np.cosh(s))
    w = np.exp(u - np.exp(-u))
    w_weight = _STEP * (1.0 + np.exp(-u)) * w * np.exp(-w)
    factor = np.outer(b, w ** (1.0 - alpha)).ravel()
    weight = np.outer(theta_weight, w_weight).ravel()
    keep = weight > _NEGLIGIBLE
    return factor[keep], weight[keep]


def _mixture_pmfs(mean: np.ndarray, weight: np.ndarray):
    """Yield sum_i weight_i Pois(n; mean_i) for n = 0, 1, ...

    The ratio recurrence restarts from the exact log pmf every _RESTART
    steps, so a node whose e^(-mean) underflows joins once its pmf is back in
    the float range.  A restart drops the nodes whose pmf only falls from
    there, before it sinks into slow subnormal arithmetic.
    """
    log_mean = np.log(np.maximum(mean, np.finfo(float).tiny))  # a mean of 0 stays at n = 0
    for n in itertools.count():
        if n % _RESTART == 0:
            p = np.exp(n * log_mean - mean - math.lgamma(n + 1.0))
            live = (p >= _DROPPED) | (mean > n)
            mean, log_mean, weight, p = mean[live], log_mean[live], weight[live], p[live]
        else:
            p *= mean / n
        yield float(weight @ p)


def poisson_entries(mu: float):
    """Iterator over the Poisson(mu) pmf at n = 0, 1, ..., without end: one node."""
    return _mixture_pmfs(np.array([float(mu)]), np.ones(1))


def grow_table(table: list, entries, length: int | None = None) -> list:
    """Extend ``table`` from ``entries`` to ``length`` entries, or else into its tail.

    The tail starts at the first entry below _TABLE_FLOOR that is smaller
    than the one before it: the law is unimodal, so it only falls from there.
    Underflowed zeros before a far mode are not smaller, so they run on.  No
    table passes _MAX_TERMS entries.
    """
    def done():
        if length is not None:
            return len(table) >= length
        return len(table) > 1 and table[-1] < _TABLE_FLOOR and table[-1] < table[-2]

    while not done():
        if len(table) == _MAX_TERMS:
            raise TruncationError(f"a pmf table would pass {_MAX_TERMS} entries", math.fsum(table))
        table.append(next(entries))
    return table


def frac_poisson_entries(lam: float, t: float, alpha: float):
    """Iterator over p_n = P{N(L(t)) = n}, n = 0, 1, ..., without end.

    N is a Poisson process of rate lam and L the inverse alpha-stable clock;
    alpha = 1 is the ordinary Poisson law.
    """
    as_rates(lam)
    as_times(t)
    as_indices(alpha)
    if t == 0.0:
        return itertools.chain([1.0], itertools.repeat(0.0))
    factor, weight = _kanter_nodes(float(alpha))
    return _mixture_pmfs(lam * t**alpha * factor, weight)


def frac_poisson_table(nmax: int, lam: float, t: float, alpha: float) -> list[float]:
    """Pmf of a Poisson process run on an inverse alpha-stable clock, at n = 0..nmax."""
    nmax = as_count(nmax, "nmax")
    return list(itertools.islice(frac_poisson_entries(lam, t, alpha), nmax + 1))


def frac_poisson_pmf(n: int, lam: float, t: float, alpha: float) -> float:
    """Pmf at n: the last entry of :func:`frac_poisson_table` to n."""
    return frac_poisson_table(n, lam, t, alpha)[-1]
