"""Write wright_golden.json: the Wright double series pmf, value or refusal, per point.

    PYTHONPATH=src python3 tests/make_wright_golden.py

Each point (lam1, lam2, alpha, beta, t1, t2, k) holds what
``frac_skellam_pmf_wright`` returns there: the value as its 17-digit repr,
or, where it raises ``TruncationError``, the first words of the message.
The file pins the evaluation, not the law: the tests hold every value to 0
ulps and every refusal to the same words, so a rewrite of the summation must
add the same terms in the same order.  The law itself is checked against the
convolution form in test_fractional.py.

The grid: rates 0.3 to 4 over five index pairs and t1 in {0.8, 1, 1.2},
two (t1, k) per rate and pair, |k| <= 3; the rounding refusal edge near
lam = 1.5, where neighbouring points return or refuse; a few asymmetric
rates; and lam = 3 and 4 at small indices, where a Wright term leaves the
float range.
"""

from __future__ import annotations

import json
import os

from skellam_lab.fractional import FracSkellamSpec, frac_skellam_pmf_wright
from skellam_lab.special import TruncationError

HERE = os.path.dirname(os.path.abspath(__file__))
LAMS = (0.3, 0.7, 1.0, 1.3, 1.45, 1.5, 1.55, 2.0, 4.0)
PAIRS = ((0.5, 0.5), (0.3, 0.8), (0.7, 0.4), (0.9, 0.9), (1.0, 0.6))
T1S = (0.8, 1.0, 1.2)
KS = (-3, -2, -1, 0, 1, 2, 3)
ASYMMETRIC = ((1.3, 0.6, 0.5, 0.7, 1.2, 0.8, -1), (0.6, 1.3, 0.5, 0.7, 0.9, 1.1, 2),
              (2.5, 0.4, 0.9, 0.6, 1.0, 1.0, 1), (0.4, 2.5, 0.6, 0.9, 1.0, 1.0, -2))
OVERFLOW = ((3.0, 0.1, 1.0, 0), (4.0, 0.2, 0.8, -3), (4.0, 0.2, 1.2, 2))
FIRST_WORDS = 4  # a refusal is pinned by this many leading words of its message


def grid():
    points = []
    for i, lam in enumerate(LAMS):
        for j, (alpha, beta) in enumerate(PAIRS):
            for shift in (0, 1):
                t1 = T1S[(i + j + shift) % len(T1S)]
                k = KS[(i + 2 * j + 3 * shift) % len(KS)]
                points.append((lam, lam, alpha, beta, t1, 1.0, k))
    points += ASYMMETRIC
    points += [(lam, lam, index, index, t1, 1.0, k) for lam, index, t1, k in OVERFLOW]
    return points


def main():
    out = []
    for lam1, lam2, alpha, beta, t1, t2, k in grid():
        point = {"lam1": lam1, "lam2": lam2, "alpha": alpha, "beta": beta,
                 "t1": t1, "t2": t2, "k": k}
        spec = FracSkellamSpec(lam1, lam2, alpha, beta)
        try:
            point["value"] = f"{frac_skellam_pmf_wright(spec, t1, t2, k):.17g}"
        except TruncationError as err:
            point["refusal"] = " ".join(str(err).split()[:FIRST_WORDS])
        out.append(point)
    doc = {"note": "frac_skellam_pmf_wright per point: its 17-digit value, or the first "
                   f"{FIRST_WORDS} words of its TruncationError; made by make_wright_golden.py",
           "points": out}
    with open(os.path.join(HERE, "wright_golden.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
