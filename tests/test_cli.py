"""CLI artifacts: formats, spec'd examples, determinism, error paths."""

import argparse
import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from skellam_lab.cli import _column, _fmt, _json, build_parser, main
from skellam_lab.identities import IDENTITIES


def run_cli(args, tmp_path=None, out_name=None):
    """Run the CLI in-process against a temp file; returns (exit code, bytes)."""
    out = None
    argv = list(args)
    if tmp_path is not None:
        out = tmp_path / (out_name or "artifact.out")
        argv += ["--out", str(out)]
    code = main(argv)
    data = out.read_bytes() if out is not None else b""
    return code, data


def test_simulate_gmsp_csv_shape(tmp_path):
    code, data = run_cli(
        ["simulate", "--process", "gmsp", "--jumps", "1:1.0,2.0;-1:0.5,0.5",
         "--t", "1.0,1.0", "--n", "1000", "--seed", "7"],
        tmp_path,
    )
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0].startswith("# meta: ")
    assert lines[1] == "value"
    assert len(lines) == 1002
    values = [int(v) for v in lines[2:]]  # integer jump set keeps values integer
    assert any(v < 0 for v in values) and any(v > 0 for v in values)


def test_simulate_zero_time_writes_zeros(tmp_path):
    code, data = run_cli(
        ["simulate", "--process", "gmsp", "--jumps", "1:1.0", "--t", "0.0",
         "--n", "20", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    values = data.decode().splitlines()[2:]
    assert set(values) == {"0"}


def test_simulate_frac_skellam_integers(tmp_path):
    code, data = run_cli(
        ["simulate", "--process", "frac-skellam", "--l1", "1", "--l2", "1",
         "--alpha", "0.5", "--beta", "0.5", "--t1", "1", "--t2", "1", "--n", "10"],
        tmp_path,
    )
    assert code == 0
    values = data.decode().splitlines()[2:]
    assert len(values) == 10
    for v in values:
        int(v)


def test_simulate_json_metadata_round_trip(tmp_path):
    code, data = run_cli(
        ["simulate", "--process", "mpp", "--rates", "1.0,2.0", "--t", "0.5,0.25",
         "--n", "50", "--seed", "3", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(data)
    assert doc["meta"]["process"] == "mpp"
    assert doc["meta"]["seed"] == 3
    assert doc["meta"]["rates"] == [1.0, 2.0]
    assert len(doc["values"]) == 50


def test_pmf_msp_rows_normalize(tmp_path):
    code, data = run_cli(
        ["pmf", "--process", "msp", "--l1", "1", "--l2", "1", "--t", "1,1",
         "--nmax", "20"],
        tmp_path,
    )
    assert code == 0
    rows = [line.split(",") for line in data.decode().splitlines()[2:]]
    total = sum(float(r[1]) for r in rows)
    assert total >= 1 - 1e-9
    assert float(rows[0][2]) == pytest.approx(1.0 - total, abs=1e-12)


def test_pmf_truncation_mass_is_one_scalar_repeated_per_csv_row(tmp_path):
    argv = ["pmf", "--process", "msp", "--l1", "1", "--l2", "1", "--t", "1,1", "--nmax", "3"]
    _, data = run_cli(argv + ["--format", "json"], tmp_path)
    tail = json.loads(data)["truncation_mass"]
    assert isinstance(tail, float) and tail > 0.0
    _, data = run_cli(argv, tmp_path)
    lines = data.decode().splitlines()
    assert lines[1] == "n,probability,truncation_mass"
    assert [float(line.split(",")[2]) for line in lines[2:]] == [tail] * 7


def test_pmf_seventeen_digit_floats(tmp_path):
    code, data = run_cli(
        ["pmf", "--process", "skellam2", "--l1", "1.0", "--l2", "1.0",
         "--t1", "1.0", "--t2", "1.0", "--nmax", "0", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(data)
    assert doc["probability"][0] == pytest.approx(0.308508322553671, abs=1e-15)


def test_cf_at_zero_row(tmp_path):
    code, data = run_cli(
        ["cf", "--process", "gmsp", "--jumps", "1:1.0,2.0;-1:0.5,0.5",
         "--t", "1.0,1.0", "--u", "0"],
        tmp_path,
    )
    assert code == 0
    assert data.decode().splitlines()[2] == "0,1,0"


def test_cf_grid_grammar_and_empirical_radius(tmp_path):
    code, data = run_cli(
        ["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0",
         "--u=-1.0:1.0:0.5", "--empirical", "--n", "2000", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[1] == "u,re,im,radius"
    assert len(lines) == 2 + 5  # grid -1,-0.5,0,0.5,1


@pytest.mark.parametrize("argv, meta_tail", [
    (["cf", "--process", "integral-gmsp", "--jumps", "1:0.7,0.4;-1:0.5,0.6", "--t", "1.0,1.5",
      "--r", "64"], ["n", "resolution", "seed"]),
    (["cf", "--process", "alt-increment", "--jumps", "1:1.0;-1:0.5", "--s", "0.2,0.5",
      "--t", "1.0,2.0"], ["n", "seed"]),
])
def test_cf_empirical_draws_for_every_process(tmp_path, argv, meta_tail):
    argv = argv + ["--u", "0.5,1.0", "--n", "4000", "--seed", "3"]
    code, data = run_cli(argv + ["--empirical"], tmp_path, out_name="emp.csv")
    assert code == 0
    lines = data.decode().splitlines()
    meta = json.loads(lines[0][len("# meta: "):])
    assert list(meta)[-len(meta_tail):] == meta_tail and meta["n"] == 4000
    assert lines[1] == "u,re,im,radius"
    # --n and --r are read with --empirical only
    exact_argv = list(argv)
    for flag in ("--n", "--r"):
        if flag in exact_argv:
            del exact_argv[exact_argv.index(flag):exact_argv.index(flag) + 2]
    code, exact_data = run_cli(exact_argv, tmp_path, out_name="exact.csv")
    assert code == 0
    exact = exact_data.decode().splitlines()[2:]
    for row, exact_row in zip(lines[2:], exact):
        u, re_, im, radius = map(float, row.split(","))
        _, ex_re, ex_im = map(float, exact_row.split(","))
        assert radius == pytest.approx(4.0 / 4000**0.5)
        assert 0.0 < abs(complex(re_ - ex_re, im - ex_im)) <= radius


def test_cf_integral_gmsp_levy_route(tmp_path):
    code, data = run_cli(
        ["cf", "--process", "integral-gmsp", "--jumps", "1:1.0", "--t", "1.0",
         "--u", "0.5", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(data)
    from skellam_lab import integral_cf_mpp
    exact = integral_cf_mpp([1.0], [1.0], 0.5)
    assert doc["re"][0] == pytest.approx(exact.real, abs=1e-9)
    assert doc["im"][0] == pytest.approx(exact.imag, abs=1e-9)


def test_integral_csv_writes_cf_sibling(tmp_path):
    code, data = run_cli(
        ["integral", "--process", "mpp", "--rates", "1.0", "--t", "2.0",
         "--r", "32", "--n", "10", "--u", "0.5,1.0"],
        tmp_path,
        out_name="batch.csv",
    )
    assert code == 0
    assert (tmp_path / "batch.csv.cf.csv").exists()
    cf_lines = (tmp_path / "batch.csv.cf.csv").read_text().splitlines()
    assert cf_lines[1] == "u,re,im"
    assert len(cf_lines) == 4


def test_integral_json_bundles_cf(tmp_path):
    code, data = run_cli(
        ["integral", "--process", "compound", "--rates", "1.0", "--xvalues", "1.0,-1.0",
         "--xprobs", "0.5,0.5", "--t", "1.0", "--r", "16", "--n", "5",
         "--u", "0.5", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(data)
    assert set(doc) == {"meta", "values", "cf"}
    assert len(doc["values"]) == 5


def test_integral_compound_cf_on_one_axis_matches_levy_route(tmp_path):
    # a zero value and a repeated value exercise the jump-law cleanup
    xv, xp = [1.0, -1.0, 0.0, 2.0, 1.0], [0.3, 0.3, 0.1, 0.2, 0.1]
    code, data = run_cli(
        ["integral", "--process", "compound", "--rates", "1.3", "--xvalues", "1.0,-1.0,0.0,2.0,1.0",
         "--xprobs", "0.3,0.3,0.1,0.2,0.1", "--t", "1.2", "--r", "16", "--n", "5",
         "--u", "0.25,1.0,-2.0", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    cf = json.loads(data)["cf"]
    from skellam_lab import integral_cf_levy
    psi = lambda v: complex(1.3 * (np.dot(xp, np.exp(1j * v * np.array(xv))) - 1.0))
    for u, re_, im in zip(cf["u"], cf["re"], cf["im"]):
        assert abs(complex(re_, im) - integral_cf_levy([psi], [1.2], u)) < 1e-9


def test_integral_compound_cf_on_two_axes_is_header_only(tmp_path):
    argv = ["integral", "--process", "compound", "--rates", "0.8,0.5", "--xvalues", "1.0,-1.0",
            "--xprobs", "0.5,0.5", "--t", "1.2,1.0", "--r", "16", "--n", "5"]
    code, _ = run_cli(argv, tmp_path, out_name="batch.csv")
    assert code == 0
    cf_lines = (tmp_path / "batch.csv.cf.csv").read_text().splitlines()
    assert cf_lines[0].startswith("# meta: ") and cf_lines[1:] == ["u,re,im"]
    assert "no closed form" in json.loads(cf_lines[0][len("# meta: "):])["cf"]
    code, data = run_cli(argv + ["--format", "json"], tmp_path)
    assert code == 0
    assert json.loads(data)["cf"] == {"u": [], "re": [], "im": []}


def test_converge_rows(tmp_path):
    code, data = run_cli(
        ["converge", "--scheme", "gmsp-array", "--jumps", "1:2.0;-1:1.5",
         "--t", "1.0,1.0", "--scales", "10,100", "--n", "200000", "--seed", "2"],
        tmp_path,
    )
    assert code == 0
    rows = [line.split(",") for line in data.decode().splitlines()[2:]]
    assert [r[0] for r in rows] == ["10", "100"]
    assert float(rows[0][1]) > float(rows[1][1])


def test_converge_last_row_is_the_array_identity_statistic(tmp_path):
    from skellam_lab.identities import run_identity
    code, data = run_cli(
        ["converge", "--scheme", "gmsp-array", "--jumps", "1:4.0;-1:2.5",
         "--t", "1.0,1.0", "--scales", "10,100,1000", "--n", "20000", "--seed", "4"],
        tmp_path,
    )
    assert code == 0
    last = data.decode().splitlines()[-1].split(",")
    assert last[0] == "1000"
    assert float(last[1]) == run_identity("array-gmsp", seed=4, n=20_000).statistic


def test_converge_last_row_is_the_alt_array_identity_statistic(tmp_path):
    from skellam_lab.identities import run_identity
    code, data = run_cli(
        ["converge", "--scheme", "alt-array", "--jumps", "1:2.0;-1:1.5",
         "--t", "1.0,1.0", "--scales", "10,100,1000", "--n", "20000", "--seed", "4"],
        tmp_path,
    )
    assert code == 0
    last = data.decode().splitlines()[-1].split(",")
    assert last[0] == "1000"
    assert float(last[1]) == run_identity("array-alt", seed=4, n=20_000).statistic


def test_verify_report_schema(tmp_path):
    code, data = run_cli(["verify", "--identity", "compound-equalrate", "--seed", "3"], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert set(doc) == {"identity", "statistic", "p_value", "n", "seed", "verdict"}
    assert doc["identity"] == "compound-equalrate"
    assert doc["seed"] == 3
    assert doc["verdict"] == "pass"


def test_bad_params_exit_nonzero(tmp_path, capsys):
    assert main(["simulate", "--process", "gmsp", "--jumps", "1:1", "--t", "1.0"]) == 1
    assert "decimal point" in capsys.readouterr().err
    assert main(["simulate", "--process", "gmsp", "--t", "1.0"]) == 1
    assert main(["pmf", "--process", "msp", "--l1", "1", "--l2", "1", "--t", "bogus"]) == 1
    capsys.readouterr()
    assert main(["converge", "--scheme", "alt-array", "--t", "1.0"]) == 1
    assert "--jumps is required" in capsys.readouterr().err
    assert main(["cf", "--process", "alt-increment", "--jumps", "1:1.0", "--s", "2.0",
                 "--t", "1.0", "--u", "1", "--empirical"]) == 1
    assert "nonnegative" in capsys.readouterr().err
    assert main(["integral", "--process", "mpp", "--rates", "1.0"]) == 1
    assert "--t is required" in capsys.readouterr().err
    for scheme in ("gmsp-array", "alt-array"):
        assert main(["converge", "--scheme", scheme, "--jumps", "1:2.0;-1:1.5", "--t", "1.0,1.0",
                     "--scales", "10.7,100", "--n", "2000"]) == 1
        assert "positive integers" in capsys.readouterr().err
    assert main(["converge", "--scheme", "gmsp-array", "--jumps", "1:2.0", "--t", "1.0",
                 "--scales", "10", "--n", "0"]) == 1
    assert "empty batch" in capsys.readouterr().err
    assert main(["pmf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--nmax", "-2"]) == 1
    assert "--nmax must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pmf", "--process", "msp", "--l1", "1000000.0", "--l2", "1000000.0", "--t", "1,1"],
    ["pmf", "--process", "gmsp", "--jumps", "1:6000.0,6000.0", "--t", "1.0,1.0"],
    ["pmf", "--process", "frac-skellam", "--l1", "1e5", "--l2", "1.0", "--alpha", "0.5",
     "--beta", "0.5", "--t1", "1.0", "--t2", "1.0", "--nmax", "0"],
])
def test_truncation_is_an_error_exit(capsys, argv):
    # a TruncationError is a refusal, reported like a bad parameter
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("rate, nmax, expected, rel", [
    # a = b = 800: the series overflowed in linear space and refused
    ("400", "0", 0.009974336468287663, 1e-11),
    # three leading Bessel terms are below 1e-14: an absolute stop rule wrote 9.81e-31
    ("5.0", "60", 1.2496629627285318e-30, 1e-13),
])
def test_msp_pmf_last_row_matches_mpmath(capsys, rate, nmax, expected, rel):
    assert main(["pmf", "--process", "msp", "--l1", rate, "--l2", rate, "--t", "1,1",
                 "--nmax", nmax]) == 0
    n, prob, _ = capsys.readouterr().out.splitlines()[-1].split(",")
    assert n == nmax and float(prob) == pytest.approx(expected, rel=rel)


def _one_error_line(capsys, argv):
    """Run argv; it must exit 1 with one error: line on stderr and no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


_FRAC_ARGS = ["--l1", "1.0", "--l2", "1.0", "--alpha", "0.5", "--beta", "0.5",
              "--t1", "1.0", "--t2", "1.0"]


def _with(args, flag, value):
    args = list(args)
    args[args.index(flag) + 1] = value
    return args


def test_non_finite_mean_is_an_error_exit(capsys):
    # 1e308 * 10 overflows the mean: one error: line, and no numpy overflow warning
    _one_error_line(capsys, ["pmf", "--process", "msp", "--l1", "1e308", "--l2", "1.0",
                             "--t", "10"])


@pytest.mark.parametrize("argv", [
    ["simulate", "--process", "mpp", "--rates", "1e308", "--t", "10", "--n", "3"],
    ["simulate", "--process", "gmsp", "--jumps", "1:1.0e308", "--t", "10.0", "--n", "3"],
    ["pmf", "--process", "gmsp", "--jumps", "1:1.0e308", "--t", "10.0"],
    ["cf", "--process", "gmsp", "--jumps", "1:1.0e308", "--t", "10.0", "--u", "1"],
    ["integral", "--process", "mpp", "--rates", "1e308", "--t", "10", "--r", "4", "--n", "3"],
    ["integral", "--process", "compound", "--rates", "1e308", "--xvalues", "1.0",
     "--xprobs", "1.0", "--t", "10", "--r", "4", "--n", "3"],
    ["simulate", "--process", "alt", "--jumps", "1:1.0e308;-1:1.0", "--t", "10.0,1.0", "--n", "3"],
    ["cf", "--process", "alt-increment", "--jumps", "1:1.0e308;-1:1.0", "--t", "10.0,1.0",
     "--u", "1"],
    ["pmf", "--process", "frac-skellam", *_with(_with(_FRAC_ARGS, "--l1", "1.0e308"), "--t1", "10"),
     "--nmax", "3"],
    ["pmf", "--process", "frac-poisson", "--l1", "1.0e308", "--alpha", "0.5", "--t1", "10",
     "--nmax", "3"],
    ["simulate", "--process", "frac-skellam",
     *_with(_with(_FRAC_ARGS, "--l1", "1.0e308"), "--t1", "10"), "--n", "3"],
    ["simulate", "--process", "compound-peraxis", "--jumps", "1e308:1.0,1.0", "--t", "1,1",
     "--n", "20"],
    ["integral", "--process", "compound", "--rates", "3.0", "--xvalues", "1e308",
     "--xprobs", "1.0", "--t", "1.0", "--r", "4", "--n", "5"],
    ["simulate", "--process", "gmsp", "--jumps", "0.5:1.0,1.0;1e308:3.0,1.0", "--t", "1.0,1.0"],
    ["simulate", "--process", "alt", "--jumps", "0.5:1.0;1e308:3.0", "--t", "1.0,1.0"],
    ["cf", "--process", "gmsp", "--jumps", "0.5:1.0,1.0;1e308:3.0,1.0", "--t", "1.0,1.0",
     "--u", "1", "--empirical"],
    ["cf", "--process", "integral-gmsp", "--jumps", "1:10.0", "--t", "1e308", "--u", "1"],
    ["cf", "--process", "integral-mpp", "--rates", "10.0", "--t", "1e308", "--u", "1"],
])
def test_overflowing_means_are_one_error_line(capsys, argv):
    # the gmsp cf used to exit 0 with a table of zeros, and the alt-increment
    # cf with the row 1,0,0; the fractional pmfs ended in a nan after numpy warnings;
    # compound-peraxis's two float sums of 1e308 overflow, and numpy warned before the error;
    # the compound integral's lattice sum of 1e308 jumps overflowed with a numpy warning;
    # gmsp and alt draws of a 1e308 float jump overflowed with a numpy warning, and the
    # empirical cf of them warned twice more before "cannot write the non-finite value nan";
    # the rectangle-integral cfs of a mean past 1e308 exited 0 with the row 1,0,0 after a warning
    _one_error_line(capsys, argv)


@pytest.mark.parametrize("process", ["gmsp", "compound-peraxis", "compound-equalrate", "alt"])
@pytest.mark.parametrize("jumps", ["1e300:1.0", "9007199254740992:1.0;1:1.0"])
def test_lattice_draws_past_2_53_are_one_error_line(capsys, process, jumps):
    # gmsp wrote INT64_MIN for 1e300, after a numpy cast warning, and every
    # process dropped the count of jump 1 beside 2**53; each exited 0
    t = "1,1" if process == "alt" and ";" in jumps else "1"
    _one_error_line(capsys, ["simulate", "--process", process, "--jumps", jumps, "--t", t,
                             "--n", "4"])


@pytest.mark.parametrize("argv", [
    ["integral", "--process", "mpp", "--rates", "1.0", "--t", "1.0",
     "--r", "9223372036854775807", "--n", "3"],
    ["integral", "--process", "mpp", "--rates", "1.0", "--t", "1.0",
     "--r", "9007199254740993", "--n", "3", "--format", "json"],
    ["converge", "--scheme", "gmsp-array", "--jumps", "1:1.0", "--t", "1.0", "--scales", "1e19"],
])
def test_whole_scales_past_2_53_are_one_error_line(capsys, argv):
    # 2**63 - 1 warned on its int64 cast and then ended in "low >= high";
    # 2**53 + 1 exited 0 with draws at 2**53; 1e19 warned before its error line
    _one_error_line(capsys, argv)


def test_compound_integral_draws_at_resolution_2_52(tmp_path):
    # the per-chunk sort key n (r + 1) left int64, and this ended in a numpy
    # boolean-assignment error
    out = tmp_path / "integral.csv"
    assert main(["integral", "--process", "compound", "--rates", "1.0", "--xvalues", "1.0",
                 "--xprobs", "1.0", "--t", "1.0", "--r", "4503599627370496", "--n", "5000",
                 "--out", str(out)]) == 0
    values = [float(line) for line in out.read_text().splitlines()[2:]]
    # the integral of N(s) over [0, 1] at rate 1 has mean 1/2 and variance 1/3
    assert len(values) == 5000 and min(values) >= 0.0
    assert abs(sum(values) / 5000 - 0.5) < 0.05


def test_gmsp_pmf_past_the_subnormal_start(capsys):
    # e^-744 is subnormal; scipy.stats.poisson.pmf(744, 744) = 0.014624295502660
    assert main(["pmf", "--process", "gmsp", "--jumps", "1:744.0", "--t", "1.0",
                 "--nmax", "744"]) == 0
    n, prob, _ = capsys.readouterr().out.splitlines()[-1].split(",")
    assert n == "744" and float(prob) == pytest.approx(0.014624295502660, rel=1e-11)


# the four chi-square identities at no draws (two used to end in a numpy
# reduction error, two in "not enough expected mass to bin"), and two at one draw
_EMPTY_CHI2 = [["verify", "--identity", name, "--n", "0"]
               for name in ("compound-peraxis", "compound-equalrate", "frac-pmf", "alt-twoparam")]
_ONE_DRAW_CHI2 = [["verify", "--identity", name, "--n", "1"]
                  for name in ("alt-twoparam", "frac-pmf")]
# a negative draw count ended in numpy's "negative dimensions are not allowed"
_NEGATIVE_DRAWS = [["simulate", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--n", "-3"],
                   ["verify", "--identity", "integral-cf", "--n", "-1"]]
# an empty frequency grid wrote a header and no rows
_EMPTY_GRID = [["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--u", "1:0:0.5"],
               ["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--u", ","],
               ["integral", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--r", "4",
                "--n", "3", "--u", ","]]
# a frequency times a jump or a draw past 1.8e308: e^{iuv} was a NaN after
# numpy's warning, and the writer refused it with "cannot write the non-finite value nan"
_GMSP_U_PAST_RANGE = ["cf", "--process", "gmsp", "--jumps", "2:0.7,0.4", "--t", "1.0,1.0",
                      "--u", "1e308"]
_PHASES_PAST_RANGE = {
    tuple(_GMSP_U_PAST_RANGE): "u = 1e+308 times a jump leaves the float range",
    ("cf", "--process", "alt-increment", "--jumps", "2:0.7;-1:0.5", "--t", "1.0,1.0",
     "--u", "1e308"): "u = 1e+308 times a jump leaves the float range",
    (*_GMSP_U_PAST_RANGE, "--empirical"): "u = 1e+308 times a draw leaves the float range",
    ("cf", "--process", "integral-mpp", "--rates", "1.0,0.5", "--t", "1.5,1.0", "--u", "1e308",
     "--empirical"): "u = 1e+308 times a draw leaves the float range",
}
# the parser does not list the identities, so that building it loads none:
# run_identity refuses an unknown name, where argparse exited with code 2
_UNKNOWN_IDENTITY = ["verify", "--identity", "no-such-check"]
# the text of the error line, where the corpus pins it
_ERROR_TEXT = {**{tuple(argv): "empty batch" for argv in _EMPTY_CHI2},
               **{tuple(argv): "a chi-square on one bin (0 degrees of freedom) tests nothing"
                  for argv in _ONE_DRAW_CHI2},
               tuple(_UNKNOWN_IDENTITY): "unknown identity 'no-such-check'; known: "
                                         + ", ".join(sorted(IDENTITIES)),
               **{tuple(argv): "draw counts must be finite and a nonnegative integer, "
                               f"got {argv[-1]}" for argv in _NEGATIVE_DRAWS},
               **{tuple(argv): f"u grid {argv[-1]!r} has no points" for argv in _EMPTY_GRID},
               **_PHASES_PAST_RANGE}


@pytest.mark.parametrize("argv", [
    ["simulate", "--process", "inv-stable", "--alpha", "0.5", "--t1", "nan", "--n", "3"],
    ["simulate", "--process", "stable", "--alpha", "0.5", "--t1", "inf", "--n", "3"],
    ["pmf", "--process", "frac-poisson", "--l1", "1.0", "--alpha", "0.5", "--t1", "nan",
     "--nmax", "3"],
    ["pmf", "--process", "frac-skellam", *_with(_FRAC_ARGS, "--t1", "inf"), "--nmax", "3"],
    ["pmf", "--process", "frac-skellam", *_with(_FRAC_ARGS, "--l1", "1e999"), "--nmax", "3"],
    ["simulate", "--process", "frac-skellam", *_with(_FRAC_ARGS, "--t1", "nan"), "--n", "3"],
    ["simulate", "--process", "compound-equalrate", "--jumps", "inf:1.0", "--t", "1.0", "--n", "2"],
    ["integral", "--process", "compound", "--rates", "1.0,1.0", "--xvalues", "nan,1.0",
     "--xprobs", "0.5,0.5", "--t", "1.0,1.0", "--r", "4", "--n", "3"],
    ["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--u", "nan,inf",
     "--format", "json"],
    ["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--u", "0:inf:1"],
    # 10^12 + 1 frequencies: the grid stops at the 10,000-entry cap
    ["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--u", "0:1e12:1"],
    ["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--u", "0:10000:1"],
    # one past the --nmax cap: an unbounded nmax grew its n list until memory ran out
    ["pmf", "--process", "msp", "--l1", "1.0", "--l2", "1.0", "--t", "1.0", "--nmax", "10001"],
    ["verify", "--identity", "inverse-subordinator-mean", "--n", "0"],
    ["verify", "--identity", "inverse-subordinator-mean", "--n", "-1"],
    ["verify", "--identity", "inverse-subordinator-mean", "--n", "1"],
    *_EMPTY_CHI2,
    # one draw merges every cell into one bin: these reports passed with p = 1
    *_ONE_DRAW_CHI2,
    _UNKNOWN_IDENTITY,
    *_NEGATIVE_DRAWS,
    *_EMPTY_GRID,
])
def test_non_finite_parameters_are_an_error_exit(tmp_path, capsys, argv):
    out = tmp_path / "artifact.out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert tuple(argv) not in _ERROR_TEXT or err == f"error: {_ERROR_TEXT[tuple(argv)]}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", list(_PHASES_PAST_RANGE))
def test_a_frequency_past_the_float_range_is_one_error_line(tmp_path, capsys, argv):
    # under -W error semantics: a numpy warning would raise before the error line
    out = tmp_path / "artifact.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {_ERROR_TEXT[argv]}\n"
    assert not out.exists()


def test_small_stable_index_is_one_error_line_or_a_sample(tmp_path, capsys):
    # at alpha 0.01 D(1) leaves the float range, where it used to print numpy
    # warnings; the inverse clock does not, where frac-skellam used to end
    # in numpy's "lam value too large"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--process", "stable", "--alpha", "0.01", "--t1", "1.0",
                     "--n", "1000", "--out", str(tmp_path / "stable.csv")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        code, _ = run_cli(["simulate", "--process", "frac-skellam", "--l1", "1.0", "--l2", "1.0",
                           "--alpha", "0.01", "--beta", "0.01", "--t1", "1.0", "--t2", "1.0",
                           "--n", "100000"], tmp_path)
    assert code == 0


def test_u_range_up_to_the_cap_is_written(tmp_path):
    code, data = run_cli(["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0",
                          "--u", "0:9999:1"], tmp_path)
    rows = [line for line in data.decode().splitlines() if line[0].isdigit()]
    assert code == 0 and len(rows) == 10_000 and rows[-1].startswith("9999,")


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--u", "0,0.5,1",
     "--format", "json"],
    ["simulate", "--process", "alt", "--jumps", "1:1.0;-1:0.5", "--t", "1.0,2.0",
     "--n", "20", "--format", "json"],
    ["integral", "--process", "compound", "--rates", "1.3", "--xvalues", "1.0,-1.0",
     "--xprobs", "0.5,0.5", "--t", "1.2", "--r", "16", "--n", "20", "--format", "json"],
    ["verify", "--identity", "frac-mean", "--n", "100"],
    ["verify", "--identity", "inverse-subordinator-mean", "--n", "100"],
])
def test_json_artifacts_parse_strictly(tmp_path, argv):
    # NaN and Infinity are not JSON; a strict parser refuses them
    code, data = run_cli(argv, tmp_path)
    assert code == 0
    json.loads(data, parse_constant=_refuse_constant)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_never_written(value):
    with pytest.raises(ValueError, match="non-finite"):
        _fmt(value)
    with pytest.raises(ValueError, match="non-finite"):
        _column(np.array([1.0, value]))


_F32_EDGES = [0.0, -0.0, 1e-45, -1e-45, 3.4028235e38, -3.4028235e38, 0.1, -0.0, 0.0]
_F64_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -0.0, 1.0 / 3.0, 0.0]


@pytest.mark.parametrize("values", [
    np.array([0, -1, 127, -128, 5, -1, 127], dtype=np.int8),
    np.array([0, -7, 2**31 - 1, -2**31, -7, 3], dtype=np.int32),
    np.array([0, -2, 2**63 - 1, -2**63, -2, 2**40], dtype=np.int64),
    np.array([0, 255, 7, 255, 128], dtype=np.uint8),
    np.array([0, 2**63, 2**64 - 1, 2**63 - 1, 1, 2**63], dtype=np.uint64),
    np.array(_F32_EDGES, dtype=np.float32),
    np.array(_F64_EDGES),
    np.array([], dtype=np.int64),
    np.array([]),
    np.arange(-30, 30, dtype=np.int64)[::7],
    np.array(_F64_EDGES * 3)[::-4],
    np.full(500, 4, dtype=np.int64),
    np.full(500, -0.0),
    # integer columns no wider than they are long, grouped by counting
    np.tile(np.array([-128, 127, 0, -1, 5], dtype=np.int8), 60),
    np.tile(np.array([-100, 100, 0, 5], dtype=np.int8), 100),
    np.arange(-2**15, 2**15 - 1, 37, dtype=np.int16).repeat(40),
    np.tile(np.array([-32768, 32767, 0, -1], dtype=np.int16), 20000),
], ids=lambda v: f"{v.dtype}-{v.size}")
def test_column_formats_each_entry_as_fmt_would(values):
    # a numeric column formats each distinct bit pattern once: 0.0 and -0.0 stay apart
    want = [_fmt(x) for x in values]
    assert _column(values) == want
    assert _json(values) == "[" + ", ".join(want) + "]"


@pytest.mark.parametrize("argv", [
    ["simulate", "--process", "gmsp", "--jumps", "1:1.0,2.0;-1:0.5,0.5",
     "--t", "1.0,1.0", "--n", "500", "--seed", "7"],
    ["simulate", "--process", "alt", "--jumps", "1:1.0;-1:0.5", "--t", "1.0,2.0",
     "--n", "200", "--seed", "11", "--format", "json"],
    ["pmf", "--process", "frac-skellam", "--l1", "1.0", "--l2", "1.0", "--alpha", "0.6",
     "--beta", "0.6", "--t1", "1.0", "--t2", "1.0", "--nmax", "8"],
    ["cf", "--process", "alt-increment", "--jumps", "1:1.0;-1:1.0", "--t", "1.0,1.0",
     "--u=-2.0:2.0:0.5", "--format", "json"],
    ["integral", "--process", "gmsp", "--jumps", "1:0.7;-1:0.5", "--t", "1.5",
     "--r", "64", "--n", "100", "--seed", "13"],
    ["converge", "--scheme", "alt-array", "--jumps", "1:2.0;-1:1.5", "--t", "1.0,1.0",
     "--scales", "10,100", "--n", "10000", "--seed", "3"],
    ["verify", "--identity", "frac-wright", "--seed", "5"],
    ["integral", "--process", "compound", "--rates", "1.3", "--xvalues", "1.0,-1.0",
     "--xprobs", "0.5,0.5", "--t", "1.2", "--r", "16", "--n", "20", "--format", "json"],
    ["simulate", "--process", "compound-peraxis", "--jumps", "1:0.7,0.4;-1:0.5,0.6",
     "--t", "1.0,1.5", "--n", "200", "--seed", "5"],
    ["cf", "--process", "integral-mpp", "--rates", "1.0,0.5", "--t", "1.5,1.0", "--u", "0.5,1.0"],
    # X = 0 almost surely: the one-axis CF is 1
    ["integral", "--process", "compound", "--rates", "1.3", "--xvalues", "0.0", "--xprobs", "1.0",
     "--t", "1.2", "--r", "16", "--n", "20"],
])
def test_byte_identical_reruns(tmp_path, capsys, argv):
    _, first = run_cli(argv, tmp_path, out_name="first.out")
    _, second = run_cli(argv, tmp_path, out_name="second.out")
    assert first == second
    if argv[0] == "integral" and "--format" not in argv:
        a = (tmp_path / "first.out.cf.csv").read_bytes()
        b = (tmp_path / "second.out.cf.csv").read_bytes()
        assert a == b
        first += a  # without --out the CF table follows the draws on stdout
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == first


_SPEC3 = "1:0.7,0.4;-1:0.5,0.6;2:0.2,0.3"
_SPEC2 = "1:0.7,0.4;-1:0.5,0.6"
_FRAC_ARGS = ["--l1", "1.3", "--l2", "0.6", "--alpha", "0.6", "--beta", "0.8",
              "--t1", "1.5", "--t2", "1.0"]


# sha256 of each artifact (suffix "" is the --out file itself): bytes are a
# pure function of (argv, seed), whichever way the writer formats its columns
@pytest.mark.parametrize("argv, digests", [
    (["simulate", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--n", "2000",
      "--seed", "3"],
     {"": "0d92b6b22e9e54067b7962973dbfad4643f3c08843c222537f2e1145c462ec54"}),
    (["simulate", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--n", "2000",
      "--seed", "3", "--format", "json"],
     {"": "6a59d18f51acbdba348104d1695e1110298bfb2435b50ebc69357f0ecdf4c100"}),
    (["integral", "--process", "gmsp", "--jumps", _SPEC2, "--t", "1.2,1.0", "--r", "64",
      "--n", "500", "--seed", "3"],
     {"": "c3806261ee55ec7c6de1482460e8bae503da6985624f8f472a60f37f1b2a3439",
      ".cf.csv": "8c31fbe8a3c0ea23a27f4e705292620a6bc0937088f0f5547ce62d0c551af5a7"}),
    (["cf", "--process", "integral-gmsp", "--jumps", _SPEC2, "--t", "1.2,1.0", "--r", "64",
      "--u", "0:3:0.25", "--empirical", "--n", "2000", "--seed", "3"],
     {"": "5c6f0579fb35895e9ef92c77d2e3fa34611a380e6fb060ede4d9454debcb5128"}),
    (["pmf", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--nmax", "20"],
     {"": "4fbffc60e2fa1f1a7ab13fc300abb8cbd8295cb6d62b7641a339a456e1e40bb2"}),
    # the CLI writes every simulate meta from the parameters it parsed
    (["simulate", "--process", "mpp", "--rates", "1.0,0.5", "--t", "1.5,1.0", "--n", "2000",
      "--seed", "3"],
     {"": "3e9b92300e3633638cbab8cd3bec16f95aa50713695868e6c40b9418a6e2b60b"}),
    (["simulate", "--process", "alt", "--jumps", "1:1.0;-1:0.5", "--t", "1.0,2.0", "--n", "2000",
      "--seed", "3"],
     {"": "5ae3e3b289fb10c052179c7dbc36c7a67bd19cce0e0314fcb78b17fb197535d1"}),
    (["simulate", "--process", "alt", "--jumps", "1:1.0;-1:0.5", "--t", "1.0,2.0", "--n", "2000",
      "--seed", "3", "--format", "json"],
     {"": "d106f4373e37688568bce42a759ee744b37f14163114360c7181aed9c7ba4a00"}),
    (["simulate", "--process", "frac-skellam", *_FRAC_ARGS, "--n", "2000", "--seed", "3"],
     {"": "4c9c4aaa62ca937162a170a415aa62edfcb2ce76a664fbd7cd8c7b7594ad4b0a"}),
    (["simulate", "--process", "frac-skellam", *_FRAC_ARGS, "--n", "2000", "--seed", "3",
      "--format", "json"],
     {"": "abc690139fbc63ee66862fb2b16b1a1e9b11e2f577376fcc3d3306cab50411d1"}),
    (["simulate", "--process", "compound-peraxis", "--jumps", _SPEC2, "--t", "1.2,1.0",
      "--n", "2000", "--seed", "3"],
     {"": "b2c7a2af63d6ccf68db69d6c5558e8858e6f5ec4b16a26e543efb1fa1372e478"}),
    (["simulate", "--process", "compound-equalrate", "--jumps", "1:0.7;-1:0.5;2:0.2",
      "--t", "1.2,1.0", "--n", "2000", "--seed", "3"],
     {"": "b2875a72de890fbc5fe9f4987ad1eb02d712963d128376a7e8196127b8b2d9e0"}),
    (["simulate", "--process", "stable", "--alpha", "0.6", "--t1", "1.5", "--n", "2000",
      "--seed", "3"],
     {"": "359c4251d6c65e6f6053b17a902eaba86a6fbeaacecf244d905fecd6d54bad7c"}),
    (["simulate", "--process", "inv-stable", "--alpha", "0.6", "--t1", "1.5", "--n", "2000",
      "--seed", "3"],
     {"": "79b474c1ce5e5739da106fe1b5a47d520ad7073c92f6cdfac26a385e7206e027"}),
    # the benchmark's bulk sizes: 200,000 draws on 23 distinct integers, and
    # 20,000 rectangle integrals on a 1/512 grid with a CF side table
    (["simulate", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--n", "200000",
      "--seed", "3"],
     {"": "c35261fcf507203de39cb4f2f37ba28e150114bb9ce09d0da7a13c013227d079"}),
    (["simulate", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--n", "200000",
      "--seed", "3", "--format", "json"],
     {"": "f6721f9bb8f38a10cab5b16ca92d0c2740ae7f0ed6b82c4c937a5fc17f4de8dd"}),
    (["integral", "--process", "compound", "--rates", "1.3", "--xvalues", "1.0,-1.0,2.0",
      "--xprobs", "0.5,0.3,0.2", "--t", "1.2", "--r", "512", "--n", "20000", "--seed", "3"],
     {"": "04ac5af5b9af46bf9fdcb3f6c1ad86dbc3d48c2267e244340137de5c5f315121",
      ".cf.csv": "7caba882605c1ff055aa9e74412166ec6cad9b50542f70ebaef58f5314a56995"}),
    # the fractional sampler inverts each side's exact table, side 1 then side 2,
    # on the calling thread
    (["simulate", "--process", "frac-skellam", *_FRAC_ARGS, "--n", "200000", "--seed", "3"],
     {"": "b4003692c4ec521ad28c8c2d0ad9a54601f6aad20767e4ff503db22d726e3c32"}),
    # both array schemes run one rate-matrix rule: equal columns for gmsp-array,
    # diag(lam) with t in jump order for alt-array
    (["converge", "--scheme", "gmsp-array", "--jumps", "1:4.0;-1:2.5", "--t", "1.0,1.0",
      "--scales", "10,100", "--n", "100"],
     {"": "a69e6f897ed2b5f54079246537865a650adb0c4997d7b19e7b7956b14b8a20e6"}),
    (["converge", "--scheme", "gmsp-array", "--jumps", "1:1.0;-2:0.5;3:0.25",
      "--t", "0.5,1.0,1.5", "--scales", "10,100", "--n", "2000", "--seed", "4"],
     {"": "985073650f70378e299b6d022aa39b5f4232c527a3019b5cb3fdd8171437947b"}),
    (["converge", "--scheme", "alt-array", "--jumps", "1:2.0;-1:1.5", "--t", "1.0,1.0",
      "--scales", "10,100", "--n", "100"],
     {"": "09fdfc2a19458f2a31325cba84a919705a3b0b5dccaf5992dcff1ed464752553"}),
    (["converge", "--scheme", "alt-array", "--jumps", "1:2.0;-1:1.5", "--t", "1.0,1.0",
      "--scales", "10,100", "--n", "100", "--format", "json"],
     {"": "6a3d94537909e184a818c642451e972b71fe30e3e39875d3eaa12d98dea21c97"}),
    # three jumps written out of order, at unequal times
    (["converge", "--scheme", "alt-array", "--jumps", "2:0.5;-1:1.5;1:2.0",
      "--t", "0.7,1.3,2.1", "--scales", "10,100,1000", "--n", "5000", "--seed", "3"],
     {"": "1f22c3cd916cfbf1b3be70190df50b961a292ab3f81423496d05b51d632d0835"}),
    # the benchmark's int64 empirical CF, and the other two int64 lattice samplers in bulk
    (["cf", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--empirical",
      "--u", "0:4:0.05", "--n", "100000", "--seed", "3"],
     {"": "883258ad2dcf75d9019e9ac5fd1ae8ddf2fbfe122cc9657343b246b77b12da48"}),
    (["simulate", "--process", "compound-peraxis", "--jumps", _SPEC3, "--t", "1.0,1.0",
      "--n", "200000", "--seed", "3"],
     {"": "3e028b9a4fd6131ddbf475aedf5d53069052a0e9d71479dffefa9aea09985b2e"}),
    (["simulate", "--process", "alt", "--jumps", "1:1.0;-1:0.5", "--t", "1.0,2.0",
      "--n", "200000", "--seed", "3"],
     {"": "8a765c308a260a5c3cf18af72313d1c2e8180c4cbd41ae421e52951933217929"}),
])
def test_artifact_bytes_are_pinned(tmp_path, argv, digests):
    code, _ = run_cli(argv, tmp_path, out_name="pinned")
    assert code == 0
    for suffix, digest in digests.items():
        assert hashlib.sha256((tmp_path / f"pinned{suffix}").read_bytes()).hexdigest() == digest
    if argv[:3] == ["pmf", "--process", "gmsp"]:
        # the pinned table is the law, not only a fixed byte string
        exact = _poisson_convolution({1: 0.7 + 0.4, -1: 0.5 + 0.6, 2: 0.2 + 0.3})
        rows = (tmp_path / "pinned").read_text().splitlines()[2:]
        for row in rows:
            n, prob, _ = row.split(",")
            assert abs(float(prob) - exact.get(int(n), 0.0)) <= 1e-15, n


def _poisson_convolution(means, terms=60):
    """Pmf of sum_j j N_j for independent N_j ~ Poisson(means[j]), by direct sums."""
    dist = {0: 1.0}
    for j, mu in means.items():
        pois = [math.exp(-mu + m * math.log(mu) - math.lgamma(m + 1.0)) for m in range(terms)]
        nxt = {}
        for k, p in dist.items():
            for m, q in enumerate(pois):
                nxt[k + j * m] = nxt.get(k + j * m, 0.0) + p * q
        dist = nxt
    return dist


def test_stdout_artifact_bytes_are_pinned(capsys):
    # float draws, then the CF side table on the same stream
    assert main(["integral", "--process", "compound", "--rates", "1.3",
                 "--xvalues", "1.0,-1.0,2.0", "--xprobs", "0.5,0.3,0.2", "--t", "1.2",
                 "--r", "64", "--n", "300", "--seed", "3"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "b5a69a7d0ce316fb2716b0b50b443bffa3a96d04dca79abcadb292ef3c6e48c4")


def test_each_subcommand_takes_the_flags_its_processes_read():
    # --process/--scheme plus the union of its values' flags, and the common options
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(1 for a in p._actions if a.option_strings and "-h" not in a.option_strings)
              for name, p in sub.choices.items()}
    assert counts == {"simulate": 14, "pmf": 13, "cf": 12, "integral": 12, "converge": 8,
                      "verify": 4}


@pytest.mark.parametrize("argv, flag, process", [
    (["simulate", "--process", "mpp", "--rates", "1.0", "--t", "1.0", "--n", "3",
      "--jumps", "1:1.0"], "jumps", "simulate --process mpp"),
    (["pmf", "--process", "msp", "--l1", "1.0", "--l2", "1.0", "--t", "1.0", "--t1", "1.0"],
     "t1", "pmf --process msp"),
    (["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--s", "0.5", "--u", "1"],
     "s", "cf --process gmsp"),
    (["integral", "--process", "mpp", "--rates", "1.0", "--t", "1.0", "--xvalues", "1.0",
      "--r", "4", "--n", "3"], "xvalues", "integral --process mpp"),
    # cf reads --n with --empirical only, and --r there on the integral processes only
    (["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--u", "1", "--n", "5",
      "--r", "7"], "n", "cf --process gmsp without --empirical"),
    (["cf", "--process", "integral-mpp", "--rates", "1.0", "--t", "1.0", "--u", "1",
      "--r", "7"], "r", "cf --process integral-mpp without --empirical"),
    (["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--u", "1", "--empirical",
      "--n", "5", "--r", "7"], "r", "cf --process gmsp"),
])
def test_a_flag_the_process_does_not_read_is_an_error(capsys, argv, flag, process):
    # such a flag used to be ignored, with exit 0
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --{flag} is not read by {process}\n"


@pytest.mark.parametrize("argv", [
    ["converge", "--scheme", "gmsp-array", "--jumps", "1:2.0", "--t", "1.0", "--alpha", "0.5"],
    ["integral", "--process", "mpp", "--rates", "1.0", "--t", "1.0", "--t1", "1.0"],
    # flags are written in full: pmf's dropped --n is not read as --nmax, nor --s as --seed
    ["pmf", "--process", "msp", "--l1", "1.0", "--l2", "1.0", "--t", "1.0", "--n", "5"],
    ["simulate", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0", "--s", "3"],
])
def test_a_flag_no_process_of_the_subcommand_reads_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_console_entry_point_subprocess(tmp_path):
    # one end-to-end run through the installed module entry
    cmd = [sys.executable, "-m", "skellam_lab.cli", "simulate", "--process", "mpp",
           "--rates", "1.0", "--t", "1.0", "--n", "3", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.decode().splitlines()[1] == "value"


def test_main_reuses_one_parser_and_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    # main parses every command line of the process with the parser its first call built
    from test_imports import _COLD_COMMANDS, _SPEC3

    from skellam_lab import cli

    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()

    def write_corpus(name):
        folder = tmp_path / name
        folder.mkdir()
        for i, argv in enumerate(_COLD_COMMANDS):
            assert main([*argv, "--out", str(folder / str(i))]) == 0, argv
        return {f.name: f.read_bytes() for f in folder.iterdir()}

    first = write_corpus("first")
    cf = ["cf", "--process", "gmsp", "--jumps", "1:0.7,0.4;-1:0.5,0.6", "--t", "1.0,1.0",
          "--u", "0:3:0.25", "--empirical"]
    # an argparse exit and an error: line, each with --empirical given, then an --empirical table
    with pytest.raises(SystemExit) as exit_:
        main([*cf, "--alpha", "0.5"])
    assert exit_.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert main([*cf, "--r", "7"]) == 1
    assert capsys.readouterr().err == "error: --r is not read by cf --process gmsp\n"
    assert main([*cf, "--n", "50", "--out", str(tmp_path / "empirical.csv")]) == 0
    assert b"radius" in (tmp_path / "empirical.csv").read_bytes()
    second = write_corpus("second")

    assert second == first and len(first) > len(_COLD_COMMANDS)
    exact_cf = _COLD_COMMANDS.index(["cf", "--process", "gmsp", "--jumps", _SPEC3,
                                     "--t", "1.0,1.0", "--u", "0:3:0.25"])
    assert b"radius" not in second[str(exact_cf)]
    assert builds == [1]
