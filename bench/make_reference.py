"""Write reference.json: the exact-tables fractional pmfs in high precision.

    python3 bench/make_reference.py      # needs mpmath; the benchmark does not

The frac-poisson and frac-skellam tables of the exact-tables workload do not
depend on the seed, so their values are fixed.  This script sums the same
series as skellam_lab.special.frac_poisson_pmf (and the same convolution as
skellam_lab.fractional.frac_skellam_pmf) in arbitrary precision, at two
working precisions that must agree, and stores the results rounded to double.
checks.py compares every table entry the library writes with these values.
The three frac-poisson points where the library's double-precision series
raises TruncationError have reference values too, so a change that makes
them succeed is checked like any other table.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (FRAC_POISSON_ALPHAS, FRAC_POISSON_X, FRAC_SKELLAM_INDICES,  # noqa: E402
                       TABLE_NMAX, frac_poisson_key, frac_skellam_key)

CONVOLUTION_TERMS = 120  # P{N = 120} is below 1e-40 for every index used


def frac_poisson(k: int, x, alpha) -> mpmath.mpf:
    """(x^k / k!) sum_r ((k+r)!/r!) (-x)^r / Gamma(alpha (k+r) + 1), exactly summed."""
    total = mpmath.mpf(0)
    r = 0
    small = 0
    while small < 5:
        term = (mpmath.rf(r + 1, k) * (-x) ** r / mpmath.gamma(alpha * (k + r) + 1))
        total += term
        # the terms grow before they shrink; stop only well past the peak
        small = small + 1 if r > 50 and abs(term) < mpmath.mpf(10) ** (-mpmath.mp.dps) else 0
        r += 1
    return x ** k / mpmath.factorial(k) * total


def tables() -> dict:
    out = {"frac-poisson": {}, "frac-skellam": {}}
    for alpha in FRAC_POISSON_ALPHAS:
        for x in FRAC_POISSON_X:
            out["frac-poisson"][frac_poisson_key(alpha, x)] = [
                frac_poisson(k, mpmath.mpf(x), mpmath.mpf(alpha)) for k in range(TABLE_NMAX + 1)]
    one = mpmath.mpf(1)
    marginals = {a: [frac_poisson(k, one, mpmath.mpf(a))
                     for k in range(TABLE_NMAX + CONVOLUTION_TERMS + 1)]
                 for a in FRAC_SKELLAM_INDICES}
    for alpha in FRAC_SKELLAM_INDICES:
        for beta in FRAC_SKELLAM_INDICES:
            p1, p2 = marginals[alpha], marginals[beta]
            out["frac-skellam"][frac_skellam_key(alpha, beta)] = [
                mpmath.fsum(p1[max(n, 0) + l] * p2[max(-n, 0) + l]
                            for l in range(CONVOLUTION_TERMS))
                for n in range(-TABLE_NMAX, TABLE_NMAX + 1)]
    return out


def main():
    results = []
    for dps in (160, 220):
        mpmath.mp.dps = dps
        results.append(tables())
    lo, hi = results
    for family in hi:
        for key, values in hi[family].items():
            for a, b in zip(lo[family][key], values):
                if abs(a - b) > mpmath.mpf(10) ** -40:
                    raise SystemExit(f"{family} {key}: precisions disagree ({a} vs {b})")
    doc = {
        "note": "frac-poisson at t = 1 over k = 0..nmax; frac-skellam with l1 = l2 = 1, "
                "t1 = t2 = 1 over n = -nmax..nmax.  Made by make_reference.py.",
        "nmax": TABLE_NMAX,
        **{family: {key: [float(v) for v in values] for key, values in hi[family].items()}
           for family in hi},
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
