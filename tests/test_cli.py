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

from skellam_lab.cli import _column, _fmt, build_parser, main


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
    code, exact_data = run_cli(argv, tmp_path, out_name="exact.csv")
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
         "--t", "1.0,1.0", "--scales", "10,100", "--n", "20000", "--seed", "2"],
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
])
def test_overflowing_means_are_one_error_line(capsys, argv):
    # the gmsp cf used to exit 0 with a table of zeros
    _one_error_line(capsys, argv)


def test_gmsp_pmf_past_the_subnormal_start(capsys):
    # e^-744 is subnormal; scipy.stats.poisson.pmf(744, 744) = 0.014624295502660
    assert main(["pmf", "--process", "gmsp", "--jumps", "1:744.0", "--t", "1.0",
                 "--nmax", "744"]) == 0
    n, prob, _ = capsys.readouterr().out.splitlines()[-1].split(",")
    assert n == "744" and float(prob) == pytest.approx(0.014624295502660, rel=1e-11)


_FRAC_ARGS = ["--l1", "1.0", "--l2", "1.0", "--alpha", "0.5", "--beta", "0.5",
              "--t1", "1.0", "--t2", "1.0"]


def _with(args, flag, value):
    args = list(args)
    args[args.index(flag) + 1] = value
    return args


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
    ["verify", "--identity", "frac-mean", "--n", "0"],
    ["verify", "--identity", "frac-mean", "--n", "1"],
    ["verify", "--identity", "frac-variance-quadratic", "--n", "0"],
    ["verify", "--identity", "inverse-subordinator-mean", "--n", "1"],
])
def test_non_finite_parameters_are_an_error_exit(tmp_path, capsys, argv):
    out = tmp_path / "artifact.out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_u_range_up_to_the_cap_is_written(tmp_path):
    code, data = run_cli(["cf", "--process", "gmsp", "--jumps", "1:1.0", "--t", "1.0",
                          "--u", "0:9999:1"], tmp_path)
    rows = [line for line in data.decode().splitlines() if line[0].isdigit()]
    assert code == 0 and len(rows) == 10_000 and rows[-1].startswith("9999,")


def test_equal_draws_are_a_failing_report_without_warnings(tmp_path):
    # seed 0, n = 2: a grid point's two draws are equal, its standard error 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = run_cli(["verify", "--identity", "frac-mean", "--n", "2"], tmp_path)
    doc = json.loads(data)
    assert code == 0 and doc["verdict"] == "fail" and math.isfinite(doc["statistic"])


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


# sha256 of each artifact (suffix "" is the --out file itself): bytes are a
# pure function of (argv, seed), whichever way the writer formats its columns
@pytest.mark.parametrize("argv, digests", [
    (["simulate", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--n", "2000",
      "--seed", "3"],
     {"": "8d33101ccabeefca74b8cb51da58f1d937bd40683cce562e6fab5fe47f6179ef"}),
    (["simulate", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--n", "2000",
      "--seed", "3", "--format", "json"],
     {"": "6fc731ac5d65c26916e0fa68c1131dbafcf6838d301a3d0e466996d5d09499a8"}),
    (["integral", "--process", "gmsp", "--jumps", _SPEC2, "--t", "1.2,1.0", "--r", "64",
      "--n", "500", "--seed", "3"],
     {"": "8a6cc503bc144c35c3f891a39107c08a2f5198dccc99cdf80759135d472dadd9",
      ".cf.csv": "8c31fbe8a3c0ea23a27f4e705292620a6bc0937088f0f5547ce62d0c551af5a7"}),
    (["cf", "--process", "integral-gmsp", "--jumps", _SPEC2, "--t", "1.2,1.0", "--r", "64",
      "--u", "0:3:0.25", "--empirical", "--n", "2000", "--seed", "3"],
     {"": "b28610aaa609ed95a12e0d9f437013804316615a9345da335f1e084d275c8f32"}),
    (["pmf", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--nmax", "20"],
     {"": "0a9cca32fb62d29fb300acc296f16f006ebe4c217810588d41b1ec0157b86deb"}),
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
        "f87c47593e92eb8d16da032d03dc97ec0a6413257dbfbb9f26fb75f252070671")


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
