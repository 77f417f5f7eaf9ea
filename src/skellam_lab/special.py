"""Scalar series evaluations behind the closed-form distributions.

All series are summed in log space with explicit sign bookkeeping: the gamma
factors overflow double precision long before the series converge, and the
fractional-Poisson series alternates.  Every series is summed by
:func:`sum_series` under a :class:`SeriesControl`; it holds the one stop rule,
three consecutive small terms, because an alternating series can have a
single accidentally tiny term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "TruncationError",
    "sum_series",
    "bessel_i",
    "wright_psi23",
    "frac_poisson_pmf",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the series in this module.

    ``abs_tol`` is the absolute tolerance in the stop rule
    ``|term| < abs_tol * (1 + |partial|)``; ``max_terms`` is a hard cap per
    series index.
    """

    abs_tol: float = 1e-14
    max_terms: int = 10_000

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_CONTROL = SeriesControl()


class TruncationError(RuntimeError):
    """A series or table hit its term cap, or left the float range, before converging.

    The partial sum accumulated so far is available as ``partial``.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(f"{message} (partial sum {partial!r})")
        self.partial = partial


def sum_series(terms, ctl: SeriesControl) -> tuple[float, bool]:
    """Sum ``terms`` in order until the stop rule holds; return (partial, converged).

    The sum stops, converged, after three consecutive terms with
    ``|term| < abs_tol * (1 + |partial|)``.  It stops unconverged after
    ``ctl.max_terms`` terms or when ``terms`` runs out first.  An exception
    raised while producing a term propagates unchanged.
    """
    total = 0.0
    small = 0
    for term in itertools.islice(terms, ctl.max_terms):
        total += term
        if abs(term) < ctl.abs_tol * (1.0 + abs(total)):
            small += 1
            if small == 3:
                return total, True
        else:
            small = 0
    return total, False


def _check_finite(name, x):
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


def _signed_lgamma(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign of Gamma(x)); raises at poles."""
    if x <= 0 and x == math.floor(x):
        raise ValueError(f"gamma pole at {x!r}")
    if x > 0:
        return math.lgamma(x), 1.0
    sign = -1.0 if math.floor(x) % 2 else 1.0
    return math.lgamma(x), sign


def bessel_i(n: int, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Modified Bessel function of integer order by direct series summation.

    Evaluates sum_m (x/2)^(2m+n) / (Gamma(m+n+1) m!) for n = |n|.  Negative x
    is handled through the parity I_n(-x) = (-1)^n I_n(x).  A term above the
    float range raises :class:`TruncationError`.
    """
    _check_finite("x", x)
    n = abs(int(n))
    half = abs(x) / 2.0
    if half == 0.0:  # includes subnormals whose half underflows
        return 1.0 if n == 0 else 0.0
    sign = -1.0 if (x < 0 and n % 2 == 1) else 1.0
    log_half = math.log(half)
    try:
        total, converged = sum_series(
            (math.exp((2 * m + n) * log_half - math.lgamma(m + n + 1.0) - math.lgamma(m + 1.0))
             for m in itertools.count()), ctl)
    except OverflowError:
        raise TruncationError(f"bessel_i({n}, {x}) has a term above the float range",
                              sign * math.inf) from None
    if not converged:
        raise TruncationError(f"bessel_i({n}, {x}) did not converge in {ctl.max_terms} terms", sign * total)
    return sign * total


def wright_psi23(
    a1: tuple[float, float],
    a2: tuple[float, float],
    b1: tuple[float, float],
    b2: tuple[float, float],
    b3: tuple[float, float],
    z: float,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Generalized Wright series with 2 numerator and 3 denominator pairs.

    Each parameter is a ``(value, weight)`` pair; term m carries
    Gamma(value + weight*m) in the numerator or denominator, and the series is
    sum_m [Gamma(a1..)Gamma(a2..)/(Gamma(b1..)Gamma(b2..)Gamma(b3..))] z^m/m!.

    A pole in a numerator gamma is a domain error.  A pole in a denominator
    gamma kills that term (the reciprocal gamma is zero there).
    """
    _check_finite("z", z)
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

    total, converged = sum_series(map(term, itertools.count()), ctl)
    if not converged:
        raise TruncationError(f"wright_psi23 did not converge in {ctl.max_terms} terms", total)
    return total


def poisson_pmf(n: int, mu: float) -> float:
    """Poisson pmf at n for mean mu >= 0 (point mass at 0 when mu == 0)."""
    if n < 0:
        return 0.0
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1.0))


def frac_poisson_pmf(
    n: int,
    lam: float,
    t: float,
    alpha: float,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Pmf of a Poisson process run on an inverse alpha-stable clock.

    For alpha < 1 this is the alternating series
    ((lam t^alpha)^n / n!) * sum_r ((n+r)!/r!) (-lam t^alpha)^r / Gamma(alpha(n+r)+1),
    summed pairwise (term 2p combined with term 2p+1) so that the cancellation
    between neighbours happens in one expm1 instead of a subtraction of two
    large exponentials.  alpha = 1 is the ordinary Poisson branch.
    """
    if n < 0 or n != int(n):
        raise ValueError("n must be a nonnegative integer")
    n = int(n)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    if alpha == 1.0:
        return poisson_pmf(n, lam * t)

    x = lam * t**alpha
    log_x = math.log(x)

    def log_coeff(r):
        return (math.lgamma(n + r + 1.0) - math.lgamma(r + 1.0)
                + r * log_x - math.lgamma(alpha * (n + r) + 1.0))

    # pair r=2p with r=2p+1: signs alternate, so the pair is
    # exp(lc(2p)) - exp(lc(2p+1)) = -exp(lc(2p)) * expm1(lc(2p+1) - lc(2p))
    parts = []

    def pairs():  # max_terms counts series terms, so it ends the pairs here
        for r in range(0, ctl.max_terms, 2):
            lc0 = log_coeff(r)
            if lc0 > 690.0:  # the alternating sum cannot recover past float range
                raise TruncationError(
                    f"frac_poisson_pmf(n={n}, lam={lam}, t={t}, alpha={alpha}) "
                    "diverged numerically", math.fsum(parts))
            parts.append(-math.exp(lc0) * math.expm1(log_coeff(r + 1) - lc0))
            yield parts[-1]

    _, converged = sum_series(pairs(), ctl)
    series = math.fsum(parts)
    value = math.exp(n * log_x - math.lgamma(n + 1.0)) * series
    if not converged:
        raise TruncationError(
            f"frac_poisson_pmf(n={n}, lam={lam}, t={t}, alpha={alpha}) hit the term cap", value
        )
    if abs(value) > 1.0 + 1e-6:
        raise TruncationError("frac_poisson_pmf series diverged past probability range", value)
    if value < 0.0:
        value = 0.0 if value > -1e-9 else value
        if value < 0.0:
            raise TruncationError("frac_poisson_pmf series produced a negative mass", value)
    return min(value, 1.0)
