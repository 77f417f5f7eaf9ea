"""Write frac_poisson_golden.json: fractional Poisson pmfs in high precision.

    python3 tests/make_frac_poisson_golden.py      # needs mpmath; the tests do not

Each cell (alpha, x = lam t^alpha) holds p_0 .. p_NMAX of the fractional
Poisson law, from the alternating series

    p_n = sum_{k >= n} (-1)^(k-n) C(k, n) x^k / Gamma(alpha k + 1),

summed exactly in mpmath.  The terms grow to about 10^D before they decay, so
each cell is summed at two working precisions of D + 50 and D + 80 digits,
where D is the largest term's decimal exponent; the two sums must agree to
1e-40 before the value is rounded to double.  alpha is a short decimal p/q,
so Gamma(alpha k + 1) is carried from k to k + q by p exact factors instead
of one high-precision gamma call per term.

Below alpha = 0.1 the series is out of reach from x = 2 on: its terms decay
only once Gamma(alpha k + 1) outgrows C(k, n) x^k, so the cell (0.05, 2) would
need 57,020,488 terms and (0.001, 1) 120,737.  There the grid stops at x = 1,
and at x = 0.9 for alpha = 0.001.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
NMAX = 40
GRID = ([(a, x) for a in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95) for x in (0.5, 1.0, 2.0, 4.0, 10.0)]
        + [(a, x) for a in (0.1, 0.99) for x in (0.5, 2.0)]
        + [(a, x) for a in (0.05, 0.02, 0.01, 0.001) for x in (0.5, 0.9)]
        + [(a, 1.0) for a in (0.05, 0.02, 0.01)])
NEGLIGIBLE_LOG10 = -45.0  # the sum stops past the peak once every term is below this


def _log10_term(k: int, x: float, alpha: float) -> float:
    """log10 of the largest |term| at index k over n <= NMAX (float estimate)."""
    n = min(NMAX, k // 2)
    log_binom = math.lgamma(k + 1) - math.lgamma(n + 1) - math.lgamma(k - n + 1)
    return (log_binom + k * math.log(x) - math.lgamma(alpha * k + 1)) / math.log(10)


def _extent(x: float, alpha: float) -> tuple[int, float]:
    """(last index K, largest term's log10) of the series for every n <= NMAX."""
    peak, k = -math.inf, 0
    while True:
        lt = _log10_term(k, x, alpha)
        peak = max(peak, lt)
        if k > NMAX and lt < NEGLIGIBLE_LOG10 and lt < _log10_term(k - 1, x, alpha):
            return k, peak
        k += 1


def cell(x: float, alpha: float, last: int, dps: int) -> list:
    mpmath.mp.dps = dps
    frac = Fraction(str(alpha))
    p, q = frac.numerator, frac.denominator
    a, mx = mpmath.mpf(p) / q, mpmath.mpf(str(x))
    gam = [mpmath.gamma(a * k + 1) for k in range(min(q, last + 1))]
    for k in range(q, last + 1):  # Gamma(a k + 1) = Gamma(a (k-q) + 1) * prod of p factors
        z = a * (k - q) + 1
        g = gam[k - q]
        for i in range(p):
            g *= z + i
        gam.append(g)
    c = [mx ** k / gam[k] for k in range(last + 1)]
    out = []
    for n in range(NMAX + 1):
        out.append(mpmath.fsum((-1) ** (k - n) * math.comb(k, n) * c[k]
                               for k in range(n, last + 1)))
    return out


def main():
    cells = []
    for alpha, x in GRID:
        last, peak = _extent(x, alpha)
        digits = max(0, math.ceil(peak))
        lo = cell(x, alpha, last, digits + 50)
        hi = cell(x, alpha, last, digits + 80)
        for n, (u, v) in enumerate(zip(lo, hi)):
            if abs(u - v) > mpmath.mpf(10) ** -40:
                raise SystemExit(f"alpha {alpha}, x {x}, n {n}: precisions disagree")
        cells.append({"alpha": alpha, "x": x, "digits": digits + 80,
                      "p": [float(v) for v in hi]})
        print(f"alpha {alpha} x {x}: {last + 1} terms, {digits + 80} digits", flush=True)
    doc = {"note": "fractional Poisson pmf p_0..p_nmax per (alpha, x = lam t^alpha); "
                   "made by make_frac_poisson_golden.py",
           "nmax": NMAX, "cells": cells}
    with open(os.path.join(HERE, "frac_poisson_golden.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
