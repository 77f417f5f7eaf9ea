"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every run is fixed-seed.  Each test prints a `criterion N PASS/FAIL` line so
the suite doubles as a checklist (`pytest tests/test_acceptance.py -s`).
"""

import pytest

from skellam_lab import altskellam
from skellam_lab.cli import main
from skellam_lab.identities import run_identity


def _line(num, ok, text):
    print(f"criterion {num:>2} {'PASS' if ok else 'FAIL'}: {text}")


def test_criterion_01_bessel_pmf_oracle():
    report = run_identity("msp-bessel-oracle", seed=0)
    _line(1, report.verdict, f"Bessel pmf vs convolution, max gap {report.statistic:.3e} <= 1e-10")
    assert report.verdict
    assert report.statistic <= 1e-10


def test_criterion_02_cf_product_identity():
    report = run_identity("cf-product", seed=0)
    _line(2, report.verdict, f"CF product identity, max gap {report.statistic:.3e} <= 1e-12")
    assert report.verdict
    assert report.statistic <= 1e-12


def test_criterion_03_compound_representations():
    peraxis = run_identity("compound-peraxis", seed=0, n=100_000)
    equalrate = run_identity("compound-equalrate", seed=0, n=100_000)
    ok = peraxis.verdict and equalrate.verdict
    _line(3, ok, f"compound chi2: peraxis p={peraxis.p_value:.4f}, "
                 f"equalrate p={equalrate.p_value:.4f} (level 1e-3)")
    assert peraxis.p_value > 1e-3
    assert equalrate.p_value > 1e-3


def test_criterion_04_gmsp_array_convergence():
    report = run_identity("array-gmsp", seed=0)
    _line(4, report.verdict, f"GMSP array TV decreasing over 10/100/1000, final {report.statistic:.4f} < 0.02")
    assert report.verdict
    assert report.statistic < 0.02


def test_criterion_05_alt_array_convergence():
    report = run_identity("array-alt", seed=0)
    _line(5, report.verdict, f"alt array (Kronecker rule) TV decreasing, final {report.statistic:.4f} < 0.02")
    assert report.verdict
    assert report.statistic < 0.02


def test_criterion_06_integral_cf():
    report = run_identity("integral-cf", seed=0, n=20_000)
    _line(6, report.verdict, f"integral CF gap {report.statistic:.4f} <= 4/sqrt(2e4) = {report.critical:.4f}")
    assert report.verdict


def test_criterion_07_uniform_compound_identities():
    reports = [run_identity(name, seed=0, n=20_000)
               for name in ("uniform-compound-mpp", "uniform-compound-peraxis",
                            "uniform-compound-equalrate")]
    ok = all(r.verdict for r in reports)
    _line(7, ok, "uniform-compound KS p-values: "
                 + ", ".join(f"{r.identity.split('-')[-1]}={r.p_value:.4f}" for r in reports))
    for r in reports:
        assert r.p_value > 1e-3, r.identity


def test_criterion_08_fractional_pmf():
    chi2 = run_identity("frac-pmf", seed=0, n=100_000)
    wright = run_identity("frac-wright", seed=0)
    ok = chi2.verdict and wright.verdict
    _line(8, ok, f"fractional pmf chi2 p={chi2.p_value:.4f} (level 1e-3), "
                 f"Wright cross-check gap {wright.statistic:.2e} <= 1e-6")
    assert chi2.p_value > 1e-3
    assert wright.statistic <= 1e-6


def test_criterion_09_fractional_moments():
    mean = run_identity("frac-mean", seed=0)
    printed = run_identity("frac-variance-printed", seed=0)
    quadratic = run_identity("frac-variance-quadratic", seed=0)
    supported = [name for name, rep in (("printed", printed), ("quadratic", quadratic))
                 if rep.verdict]
    ok = mean.verdict and len(supported) >= 1
    _line(9, ok, f"moments against the exact law: mean gap {mean.statistic:.1e} <= 1e-12; "
                 f"variance supported variant(s): {supported} (printed gap "
                 f"{printed.statistic:.3f}, quadratic gap {quadratic.statistic:.1e})")
    assert mean.verdict
    assert supported, "neither variance variant matched the exact law"


def test_criterion_10_inverse_subordinator_mean():
    report = run_identity("inverse-subordinator-mean", seed=0, n=100_000)
    _line(10, report.verdict, f"E L(1) vs 1/Gamma(a+1), max |z|={report.statistic:.2f} <= 5")
    assert report.verdict


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_12_alt_twoparam(seed):
    report = run_identity("alt-twoparam", seed=seed)
    _line(12, report.verdict, f"alt process at times (1.2, 0.7) vs two-parameter Skellam pmf, "
                              f"seed {seed}: chi2 p={report.p_value:.4f} (level 1e-3)")
    assert report.verdict


@pytest.mark.parametrize("wrong_times", [
    lambda t: {1: t[-1], -1: t[1]},  # swapped: p = 0
    lambda t: {1: 1.03 * t[1], -1: t[-1]},  # one time 3 % long: p <= 6.7e-11
], ids=["swapped", "scaled"])
def test_alt_twoparam_rejects_wrong_times(monkeypatch, wrong_times):
    alt_sample = altskellam.alt_sample
    monkeypatch.setattr(altskellam, "alt_sample",
                        lambda spec, t, n, seed: alt_sample(spec, wrong_times(t), n, seed))
    for seed in (0, 1, 2):
        assert not run_identity("alt-twoparam", seed=seed).verdict


CLI_COMMANDS = [
    ["simulate", "--process", "gmsp", "--jumps", "1:1.0,2.0;-1:0.5,0.5",
     "--t", "1.0,1.0", "--n", "400", "--seed", "7"],
    ["pmf", "--process", "msp", "--l1", "1", "--l2", "1", "--t", "1,1", "--nmax", "12"],
    ["cf", "--process", "gmsp", "--jumps", "1:1.0,2.0", "--t", "1.0,1.0",
     "--u=-3.0:3.0:0.25", "--format", "json"],
    ["integral", "--process", "mpp", "--rates", "1.0", "--t", "2.0",
     "--r", "64", "--n", "50", "--u", "0.25,0.5,1.0"],
    ["converge", "--scheme", "gmsp-array", "--jumps", "1:2.0;-1:1.5",
     "--t", "1.0,1.0", "--scales", "10,100", "--n", "20000", "--seed", "4"],
    ["verify", "--identity", "cf-product", "--seed", "3"],
]


def test_criterion_11_cli_determinism(tmp_path):
    ok = True
    for i, argv in enumerate(CLI_COMMANDS):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"cmd{i}_{run}.out"
            code = main(argv + ["--out", str(out)])
            assert code == 0, argv
            blob = out.read_bytes()
            sibling = out.with_name(out.name + ".cf.csv")
            if sibling.exists():
                blob += sibling.read_bytes()
            outs.append(blob)
        ok = ok and outs[0] == outs[1]
        assert outs[0] == outs[1], f"non-deterministic output: {argv}"
    _line(11, ok, f"{len(CLI_COMMANDS)} CLI commands byte-identical across reruns")
