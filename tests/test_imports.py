"""Import cost: the package loads numpy only; only integral_cf_levy imports scipy.

A command loads only the submodules it runs, and the package namespace
imports each public name on first use.  Each test runs in a fresh
interpreter, since the test session itself has scipy and every submodule
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skellam_lab.identities import IDENTITIES

SRC = str(Path(__file__).resolve().parents[1] / "src")

_SPEC3 = "1:0.7,0.4;-1:0.5,0.6;2:0.2,0.3"

# one fixed argv per command the cold-start benchmark runs, plus a chi-square
# identity, a KS identity and the converge scheme of the alternate process
_COLD_COMMANDS = [
    ["simulate", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--n", "20"],
    ["simulate", "--process", "frac-skellam", "--l1", "1.0", "--l2", "1.0", "--alpha", "0.5",
     "--beta", "0.5", "--t1", "1.0", "--t2", "1.0", "--n", "20", "--format", "json"],
    ["pmf", "--process", "msp", "--l1", "1.0", "--l2", "0.5", "--t", "1.0,2.0", "--nmax", "20"],
    ["pmf", "--process", "frac-skellam", "--l1", "1.0", "--l2", "1.0", "--alpha", "0.7",
     "--beta", "0.9", "--t1", "1.0", "--t2", "1.0", "--nmax", "20"],
    ["cf", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--u", "0:3:0.25"],
    ["cf", "--process", "integral-gmsp", "--jumps", "1:0.7,0.4;-1:0.5,0.6", "--t", "1.2,1.0",
     "--u", "0.25,0.5,1.0"],
    ["integral", "--process", "mpp", "--rates", "1.0,0.5", "--t", "1.5,1.0", "--r", "64",
     "--n", "20"],
    ["integral", "--process", "compound", "--rates", "1.3", "--xvalues", "1.0,-1.0,2.0",
     "--xprobs", "0.5,0.3,0.2", "--t", "1.2", "--r", "64", "--n", "20"],
    ["integral", "--process", "compound", "--rates", "0.8,0.5", "--xvalues", "1.0,-1.0,2.0",
     "--xprobs", "0.5,0.3,0.2", "--t", "1.2,1.0", "--r", "64", "--n", "20"],
    ["converge", "--scheme", "gmsp-array", "--jumps", "1:4.0;-1:2.5", "--t", "1.0,1.0",
     "--scales", "10,100", "--n", "100"],
    ["converge", "--scheme", "alt-array", "--jumps", "1:2.0;-1:1.5", "--t", "1.0,1.0",
     "--scales", "10,100", "--n", "100"],
    ["verify", "--identity", "cf-product"],
    ["verify", "--identity", "compound-peraxis", "--n", "2000"],
    ["verify", "--identity", "uniform-compound-mpp", "--n", "2000"],
]


def _run_fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_commands_never_load_scipy(tmp_path):
    code = (
        "import json, os, sys\n"
        "import skellam_lab, skellam_lab.cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    assert skellam_lab.cli.main(argv + ['--out', os.path.join(sys.argv[2], str(i))]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    out = _run_fresh(code, json.dumps(_COLD_COMMANDS), str(tmp_path))
    assert json.loads(out) == []
    assert len(list(tmp_path.iterdir())) >= len(_COLD_COMMANDS)


def test_every_identity_runs_with_scipy_blocked(tmp_path):
    code = (
        "import os, sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from skellam_lab.cli import main\n"
        "from skellam_lab.identities import IDENTITIES\n"
        "for name in IDENTITIES:\n"
        "    out = os.path.join(sys.argv[1], name + '.json')\n"
        "    assert main(['verify', '--identity', name, '--n', '2000', '--out', out]) == 0, name\n"
        "print(len(IDENTITIES))\n"
    )
    assert _run_fresh(code, str(tmp_path)).strip() == "17"
    reports = [json.loads(f.read_text()) for f in sorted(tmp_path.iterdir())]
    assert len(reports) == 17 and all(r["n"] > 0 for r in reports)


def test_scipy_backed_functions_work_first_in_a_fresh_process():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from skellam_lab import integral_cf_levy, integral_cf_mpp\n"
        "assert 'scipy' not in sys.modules\n"
        "psi = lambda v: complex(1.3 * (np.exp(1j * v) - 1.0))\n"
        "gap = abs(integral_cf_levy([psi], [1.2], 0.7) - integral_cf_mpp([1.3], [1.2], 0.7))\n"
        "assert gap < 1e-9, gap\n"
        "print('ok')\n"
    )
    assert _run_fresh(code).strip() == "ok"


# the submodules a cold command may load: every command loads cli, records and special
_GMSP_MODULES = {"cli", "records", "special", "mpp", "gmsp"}
_FRAC_MODULES = {"cli", "records", "special", "fractional"}
_INTEGRAL_MODULES = _GMSP_MODULES | {"integrals"}


def _cold(command, process):
    return next(argv for argv in _COLD_COMMANDS if argv[:3] == [command, "--process", process])


@pytest.mark.parametrize("argv, allowed", [
    (_cold("simulate", "gmsp"), _GMSP_MODULES),
    (_cold("pmf", "msp"), _GMSP_MODULES),
    (_cold("cf", "gmsp"), _GMSP_MODULES),
    (_cold("simulate", "frac-skellam"), _FRAC_MODULES),
    (_cold("pmf", "frac-skellam"), _FRAC_MODULES),
    (_cold("cf", "integral-gmsp"), _INTEGRAL_MODULES),
    (_cold("integral", "mpp"), _INTEGRAL_MODULES),
])
def test_a_cold_command_loads_only_the_modules_it_runs(tmp_path, argv, allowed):
    code = (
        "import json, sys\n"
        "from skellam_lab.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules\n"
        "                        if m.startswith('skellam_lab.'))))\n"
    )
    loaded = set(json.loads(_run_fresh(code, *argv, "--out", str(tmp_path / "out"))))
    assert "cli" in loaded and loaded <= allowed, sorted(loaded - allowed)


def test_converge_loads_only_the_modules_of_its_scheme(tmp_path):
    argv = next(a for a in _COLD_COMMANDS if a[:3] == ["converge", "--scheme", "gmsp-array"])
    code = (
        "import json, sys\n"
        "from skellam_lab.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules\n"
        "                        if m.startswith('skellam_lab.'))))\n"
    )
    loaded = set(json.loads(_run_fresh(code, *argv, "--out", str(tmp_path / "out"))))
    assert loaded == _GMSP_MODULES | {"identities", "stats"}


# the submodules `verify --identity <name>` loads, each identity in a fresh package
_IDENTITY_BASE = {"cli", "records", "special", "identities"}
_GMSP_IDENTITY = _IDENTITY_BASE | {"mpp", "gmsp"}
_FRAC_IDENTITY = _IDENTITY_BASE | {"fractional"}
_IDENTITY_MODULES = {
    "msp-bessel-oracle": _GMSP_IDENTITY | {"altskellam"},
    "cf-product": _GMSP_IDENTITY,
    "compound-peraxis": _GMSP_IDENTITY | {"stats"},
    "compound-equalrate": _GMSP_IDENTITY | {"stats"},
    "array-gmsp": _GMSP_IDENTITY | {"stats"},
    "array-alt": _GMSP_IDENTITY | {"altskellam", "stats"},
    "integral-cf": _GMSP_IDENTITY | {"integrals", "stats"},
    "uniform-compound-mpp": _GMSP_IDENTITY | {"integrals", "stats"},
    "uniform-compound-peraxis": _GMSP_IDENTITY | {"integrals", "stats"},
    "uniform-compound-equalrate": _GMSP_IDENTITY | {"integrals", "stats"},
    "frac-pmf": _FRAC_IDENTITY | {"stats"},
    "frac-wright": _FRAC_IDENTITY,
    "frac-mean": _FRAC_IDENTITY,
    "frac-variance-printed": _FRAC_IDENTITY,
    "frac-variance-quadratic": _FRAC_IDENTITY,
    "inverse-subordinator-mean": _FRAC_IDENTITY,
    "alt-twoparam": _GMSP_IDENTITY | {"altskellam", "stats"},
}


def test_each_identity_loads_only_the_modules_it_runs(tmp_path):
    # one interpreter: numpy stays loaded, and every skellam_lab module is
    # dropped before each identity, so each runs in a freshly imported package
    code = (
        "import json, os, sys\n"
        "loaded = {}\n"
        "for name in json.loads(sys.argv[1]):\n"
        "    for m in [m for m in sys.modules if m.split('.')[0] == 'skellam_lab']:\n"
        "        del sys.modules[m]\n"
        "    from skellam_lab.cli import main\n"
        "    out = os.path.join(sys.argv[2], name + '.json')\n"
        "    assert main(['verify', '--identity', name, '--n', '2000', '--out', out]) == 0, name\n"
        "    loaded[name] = sorted(m.split('.', 1)[1] for m in sys.modules\n"
        "                          if m.startswith('skellam_lab.'))\n"
        "print(json.dumps(loaded))\n"
    )
    loaded = json.loads(_run_fresh(code, json.dumps(list(_IDENTITY_MODULES)), str(tmp_path)))
    assert {name: set(mods) for name, mods in loaded.items()} == _IDENTITY_MODULES
    assert sorted(_IDENTITY_MODULES) == sorted(IDENTITIES)


def test_importing_the_package_loads_no_submodule():
    code = ("import json, sys\nimport skellam_lab\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('skellam_lab.')]))\n")
    assert json.loads(_run_fresh(code)) == []


# every public name of the package, by the submodule that defines it
_PUBLIC = {
    "records": ["SampleBatch", "LatticePMF", "CFTable", "make_rng", "spawn_rngs"],
    "special": ["TruncationError", "bessel_i", "wright_psi23", "frac_poisson_pmf",
                "frac_poisson_table"],
    "mpp": ["as_rates", "as_times", "mpp_pmf", "mpp_covariance"],
    "gmsp": ["JumpSpec", "TriangularArraySpec", "gmsp_sample", "gmsp_pgf", "gmsp_cf",
             "gmsp_moments", "msp_pmf", "msp_pmf_table", "gmsp_lattice_pmf",
             "scaled_poisson_convolution", "gmsp_compound_peraxis_sample",
             "gmsp_compound_equalrate_sample", "gmsp_array_sample"],
    "integrals": ["RectDomain", "CompoundSpec", "integral_sample", "integral_cf_gmsp",
                  "integral_cf_mpp", "integral_cf_levy", "uniform_compound_sample"],
    "altskellam": ["AltSpec", "alt_sample", "alt_moments", "alt_increment_cf", "alt_pgf",
                   "alt_lattice_pmf", "alt_array_sample", "twoparam_skellam_pmf",
                   "twoparam_skellam_pmf_table"],
    "fractional": ["FracSkellamSpec", "stable_subordinator_sample", "inv_stable_marginal_sample",
                   "frac_skellam_sample", "frac_skellam_pmf", "frac_skellam_pmf_table",
                   "frac_skellam_pmf_wright", "frac_skellam_moments"],
    "stats": ["TestReport", "empirical_cf", "lattice_chi2", "lattice_chi2_two_sample",
              "ks_two_sample", "tv_distance"],
}


def test_the_lazy_namespace_holds_every_public_name():
    code = (
        "import importlib, json, sys\n"
        "import skellam_lab\n"
        "public = json.loads(sys.argv[1])\n"
        "names = [n for ns in public.values() for n in ns]\n"
        "listed = set(dir(skellam_lab))\n"
        "star = {}\n"
        "exec('from skellam_lab import *', star)\n"
        "same = all(getattr(skellam_lab, n) is getattr(importlib.import_module('skellam_lab.' + m), n)\n"
        "           for m, ns in public.items() for n in ns)\n"
        "try:\n"
        "    skellam_lab.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps({'missing_from_dir': sorted(set(names) - listed),\n"
        "                  'star': sorted(set(star) - {'__builtins__'}), 'same': same,\n"
        "                  'unknown': unknown, 'version': skellam_lab.__version__}))\n"
    )
    names = sorted(n for ns in _PUBLIC.values() for n in ns)
    got = json.loads(_run_fresh(code, json.dumps(_PUBLIC)))
    assert len(names) == 57
    assert got == {"missing_from_dir": [], "star": names, "same": True,
                   "unknown": "module 'skellam_lab' has no attribute 'no_such_name'",
                   "version": "0.1.0"}
