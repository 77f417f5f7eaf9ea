"""CLI artifacts: formats, spec'd examples, determinism, error paths."""

import json
import subprocess
import sys

import numpy as np
import pytest

from skellam_lab.cli import main


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


def test_console_entry_point_subprocess(tmp_path):
    # one end-to-end run through the installed module entry
    cmd = [sys.executable, "-m", "skellam_lab.cli", "simulate", "--process", "mpp",
           "--rates", "1.0", "--t", "1.0", "--n", "3", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.decode().splitlines()[1] == "value"
