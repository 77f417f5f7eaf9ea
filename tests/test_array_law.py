"""Triangular-array sums: the exact lattice law of ``gmsp.array_law`` and its draws.

The array kernel draws each sum by inversion of its exact lattice law.  These
tests check that law against closed forms and the limit laws, check its draws
against an independent closed form (rejecting a biased rule) and against a
per-draw multinomial reference, and check that non-integer jumps are refused.
"""

import math

import numpy as np
import pytest

from skellam_lab import (
    AltSpec,
    JumpSpec,
    TriangularArraySpec,
    alt_array_sample,
    alt_lattice_pmf,
    gmsp_array_sample,
    gmsp_lattice_pmf,
)
from skellam_lab import gmsp
from skellam_lab.gmsp import array_law
from skellam_lab.identities import array_tvs, run_identity
from skellam_lab.records import LatticePMF, SampleBatch
from skellam_lab.stats import lattice_chi2, lattice_chi2_two_sample

# the array-gmsp and array-alt protocols of skellam_lab.identities
GMSP_RATES = {1: 4.0, -1: 2.5}
ALT_RATES = {1: 2.0, -1: 1.5}
JUMPS = np.array([-1.0, 1.0])


def _gmsp_law(scale):
    return array_law(scale, {0: 1.0, 1: 1.0}, lambda l, k, j: GMSP_RATES[j] / scale, JUMPS)


def _alt_law(scale):
    rule = lambda l, ja, j: ALT_RATES[ja] / scale if ja == j else 0.0
    return array_law(scale, {-1.0: 1.0, 1.0: 1.0}, rule, JUMPS)


@pytest.mark.parametrize("spec, protocol_law", [
    (JumpSpec({j: (r, r) for j, r in GMSP_RATES.items()}), _gmsp_law),
    (AltSpec(ALT_RATES), _alt_law),
], ids=["gmsp-array", "alt-array"])
def test_rate_matrix_rule_builds_each_protocol_law_bit_for_bit(monkeypatch, spec, protocol_law):
    # array_tvs reads one rule off the rate matrix: equal columns for the GMSP,
    # diag(lam) for the alternate process; each scale's law is that of the
    # per-scheme rule, entry for entry
    built = []

    def recording_law(*args):
        built.append(array_law(*args))
        return built[-1]

    monkeypatch.setattr(gmsp, "array_law", recording_law)
    array_tvs(spec, (1.0, 1.0), (10, 100, 1000), 1, seed=0)
    assert len(built) == 3
    for law, scale in zip(built, (10, 100, 1000)):
        expected = protocol_law(scale)
        assert law.start == expected.start
        assert law.probs.tobytes() == expected.probs.tobytes()


# the report fields of the two array identities at their pinned n
@pytest.mark.parametrize("name, seed, statistic", [
    ("array-gmsp", 0, 0.000732798004520829),
    ("array-gmsp", 1, 0.000647931851151548),
    ("array-gmsp", 2, 0.000630743122399044),
    ("array-alt", 0, 0.0010766941976362787),
    ("array-alt", 1, 0.0009652098759798063),
    ("array-alt", 2, 0.0007598866266120474),
], ids=["array-gmsp-0", "array-gmsp-1", "array-gmsp-2", "array-alt-0", "array-alt-1",
        "array-alt-2"])
def test_array_identity_reports_are_pinned(name, seed, statistic):
    report = run_identity(name, seed=seed)
    n = 4_000_000 if name == "array-gmsp" else 1_000_000
    assert report.to_json_dict() == {"identity": name, "statistic": statistic, "p_value": None,
                                     "n": n, "seed": seed, "verdict": "pass"}
    assert (report.verdict, report.level, report.critical) == (True, None, 0.02)


def _tv(a: LatticePMF, b: LatticePMF) -> float:
    lo = min(a.start, b.start)
    hi = max(a.start + a.probs.size, b.start + b.probs.size)
    pa, pb = np.zeros(hi - lo), np.zeros(hi - lo)
    pa[a.start - lo:a.start - lo + a.probs.size] = a.probs
    pb[b.start - lo:b.start - lo + b.probs.size] = b.probs
    return 0.5 * float(np.abs(pa - pb).sum())


@pytest.mark.parametrize("scheme, scale, tv", [
    ("gmsp-array", 10, 1.59e-2), ("gmsp-array", 100, 1.53e-3), ("gmsp-array", 1000, 1.53e-4),
    ("alt-array", 10, 3.89e-2), ("alt-array", 100, 3.43e-3), ("alt-array", 1000, 3.39e-4),
])
def test_exact_array_law_tv_to_the_limit(scheme, scale, tv):
    if scheme == "gmsp-array":
        law = _gmsp_law(scale)
        limit = gmsp_lattice_pmf(JumpSpec({j: [r, r] for j, r in GMSP_RATES.items()}),
                                 (1.0, 1.0))
    else:
        law = _alt_law(scale)
        limit = alt_lattice_pmf(AltSpec(ALT_RATES), {1: 1.0, -1: 1.0})
    assert abs(law.probs.sum() - 1.0) <= 1e-12
    assert _tv(law, limit) == pytest.approx(tv, rel=0.01)


def _trinomial_law(m: int, p_plus: float, p_minus: float) -> LatticePMF:
    """P(S = k) = sum_{a - b = k} m! / (a! b! (m-a-b)!) p+^a p-^b p0^(m-a-b), by lgamma."""
    p_zero = 1.0 - p_plus - p_minus
    probs = np.zeros(2 * m + 1)
    for a in range(m + 1):
        for b in range(m - a + 1):
            log_p = (math.lgamma(m + 1) - math.lgamma(a + 1) - math.lgamma(b + 1)
                     - math.lgamma(m - a - b + 1) + a * math.log(p_plus)
                     + b * math.log(p_minus) + (m - a - b) * math.log(p_zero))
            probs[a - b + m] += math.exp(log_p)
    return LatticePMF(-m, probs)


def test_exact_array_law_is_the_trinomial_law():
    scale = 10
    exact = _trinomial_law(2 * scale, GMSP_RATES[1] / scale, GMSP_RATES[-1] / scale)
    law = _gmsp_law(scale)
    assert law.start == exact.start
    np.testing.assert_allclose(law.probs, exact.probs, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_draws_pass_the_trinomial_law_and_reject_a_biased_rule(seed):
    # array-gmsp's rule at scale 10 over two axes: 20 iid three-point summands.
    # The mutant rule lambda_j / (scale + 1) also converges to the limit law, so
    # the TV ordering of the identity passes it; the exact law at one scale
    # does not.
    scale, n = 10, 20_000
    exact = _trinomial_law(2 * scale, GMSP_RATES[1] / scale, GMSP_RATES[-1] / scale)
    true_rule = TriangularArraySpec(n=scale, probs=lambda l, j, sc: GMSP_RATES[j] / sc)
    mutant = TriangularArraySpec(n=scale, probs=lambda l, j, sc: GMSP_RATES[j] / (sc + 1))
    report = lattice_chi2(gmsp_array_sample(true_rule, [1, -1], (1.0, 1.0), n, seed=seed),
                          exact)
    assert report.verdict, f"p={report.p_value}"
    report = lattice_chi2(gmsp_array_sample(mutant, [1, -1], (1.0, 1.0), n, seed=seed), exact)
    assert not report.verdict and report.p_value < 1e-12, f"p={report.p_value}"


def _multinomial_reference(scale, axis_times, rule, jumps, n_draws, seed) -> SampleBatch:
    """Per-draw reference: one multinomial of category counts per distinct row."""
    rows = np.array([[rule(l, axis, j) for j in jumps]
                     for axis, t_axis in axis_times.items()
                     for l in range(1, int(math.floor(scale * t_axis)) + 1)])
    rng = np.random.default_rng(seed)
    values = np.zeros(n_draws, dtype=np.int64)
    for row, mult in zip(*np.unique(rows, axis=0, return_counts=True)):
        cats = rng.multinomial(int(mult), np.append(row, 1.0 - row.sum()), size=n_draws)
        values += cats[:, :-1] @ np.asarray(jumps, dtype=np.int64)
    return SampleBatch(values, seed=seed)


def test_array_draws_match_multinomial_reference_l_dependent_rule():
    # three distinct rows over two axes of ten summands each
    rule = lambda l, j, n: (0.04 + 0.02 * ((l * 7) % 3)) if j == 1 else 0.0
    spec = TriangularArraySpec(n=10, probs=rule)
    drawn = gmsp_array_sample(spec, [1], (1.0, 1.0), 50_000, seed=71)
    reference = _multinomial_reference(10, {0: 1.0, 1: 1.0}, lambda l, k, j: rule(l, j, 10),
                                       [1], 50_000, seed=72)
    report = lattice_chi2_two_sample(drawn, reference)
    assert report.verdict, f"p={report.p_value}"


def test_array_draws_match_multinomial_reference_kronecker_rule():
    lam, scale = {1: 0.7, -1: 0.4}, 10.0
    rule = lambda l, ja, j: (lam[ja] / scale) if ja == j else 0.0
    t = {1: 1.0, -1: 1.0}
    drawn = alt_array_sample(scale, rule, [1, -1], t, 50_000, seed=73)
    reference = _multinomial_reference(scale, {-1.0: 1.0, 1.0: 1.0}, rule, [-1, 1],
                                       50_000, seed=74)
    report = lattice_chi2_two_sample(drawn, reference)
    assert report.verdict, f"p={report.p_value}"


def test_array_refuses_non_integer_jumps():
    spec = TriangularArraySpec(n=10, probs=lambda l, j, n: 0.1)
    with pytest.raises(ValueError, match="integer jumps"):
        gmsp_array_sample(spec, [0.5, -1], (1.0,), 10, seed=0)
    with pytest.raises(ValueError, match="integer jumps"):
        alt_array_sample(10.0, lambda l, ja, j: 0.1, [1.5], {1.5: 1.0}, 10, seed=0)
