"""Write skellam_golden.json: the Skellam (Bessel) pmf and I_n in high precision.

    python3 tests/make_skellam_golden.py      # needs mpmath; the tests do not

Each pmf point (n, a, b) holds P{Poisson(a) - Poisson(b) = n} =
e^-(a+b) (a/b)^(n/2) I_|n|(2 sqrt(ab)), each Bessel point (n, x) holds I_n(x),
both from mpmath at 40 digits and again at 60; the two must agree to 1e-30
relative before the value is rounded to double.  A value above the float
range is written as null.  Pmf values below 1e-300 are left out.

The grid: a = b from 1e-3 to 1e6, far-apart pairs (also around their mode
n = a - b), the degenerate a = 0 and b = 0, and I_n where an absolute stop
rule or the float range used to bite.
"""

from __future__ import annotations

import json
import os

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
EQUAL = (1e-3, 0.3, 1.0, 3.0, 10.0, 50.0, 356.0, 800.0, 1e4, 1e5, 5e5, 1e6)
FAR = ((10.0, 2.0), (300.0, 10.0), (1e4, 1.0))
DEGENERATE = ((0.0, 3.0), (3.0, 0.0), (0.0, 0.0))
OFFSETS = (0, 1, -1, 5, -5, 20, -20, 40, -40, 60, -60)
BESSEL = ((60, 20.0), (40, 10.0), (5, 40.0), (0, 700.0), (0, 720.0))
FLOOR = 1e-300  # pmf values below this are left out
FLOAT_MAX = mpmath.mpf("1.7976931348623157e308")


def skellam(n: int, a: float, b: float):
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    if b == 0:
        return mpmath.mpf(0) if n < 0 else mpmath.exp(-a) * a**n / mpmath.factorial(n)
    if a == 0:
        return skellam(-n, b, a)
    return mpmath.exp(-(a + b)) * (a / b) ** (mpmath.mpf(n) / 2) * mpmath.besseli(
        abs(n), 2 * mpmath.sqrt(a * b))


def agreed(f, *args):
    """f(*args) at 40 and at 60 digits, checked to agree to 1e-30 relative."""
    values = []
    for dps in (40, 60):
        with mpmath.workdps(dps):
            values.append(f(*args))
    lo, hi = values
    if abs(lo - hi) > mpmath.mpf(10) ** -30 * abs(hi):
        raise SystemExit(f"{f.__name__}{args}: precisions disagree")
    return hi


def main():
    pairs = [(a, a, OFFSETS) for a in EQUAL] + [(a, b, OFFSETS) for a, b in DEGENERATE]
    pairs += [(a, b, sorted(set(OFFSETS) | {int(a - b) + k for k in OFFSETS})) for a, b in FAR]
    points = []
    for a, b, ns in pairs:
        for n in ns:
            value = agreed(skellam, n, a, b)
            if value >= FLOOR:
                points.append({"kind": "pmf", "n": n, "a": a, "b": b, "value": float(value)})
        print(f"pmf a {a} b {b}", flush=True)
    for n, x in BESSEL:
        value = agreed(mpmath.besseli, n, mpmath.mpf(x))
        points.append({"kind": "bessel", "n": n, "x": x,
                       "value": float(value) if value <= FLOAT_MAX else None})
    doc = {"note": "Skellam pmf e^-(a+b) (a/b)^(n/2) I_|n|(2 sqrt(ab)) and I_n(x), "
                   "null above the float range; made by make_skellam_golden.py",
           "points": points}
    with open(os.path.join(HERE, "skellam_golden.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
