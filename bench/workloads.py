"""The benchmark's workloads: fixed operation lists built from a seed.

An operation is either a skellam-lab command line (run through ``cli.main``
in-process, or as a fresh ``python -m skellam_lab.cli`` process on
``cli-cold``) or a Wright cross-check point (an in-process call comparing the
two pmf forms).  The seed sets every random seed an operation passes to the
library and a few parameters that do not change how much work an operation
does, so different seeds give different inputs of the same size.

Stdlib only: the coordinator imports this module without importing numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-cold", "sample-bulk", "exact-tables", "verify-suite")

# Every identity passes its protocol except this one: the library's own suite
# rejects the printed variance form (see identities.frac_variance_printed).
EXPECTED_FAIL_IDENTITIES = frozenset({"frac-variance-printed"})

# Identities whose report `n` counts exact pmf or CF entries compared, not draws.
ORACLE_IDENTITIES = frozenset({"msp-bessel-oracle", "cf-product", "frac-wright"})

# The entries of skellam_lab.identities.IDENTITIES at the commit that defined
# this benchmark.  verify-suite runs this pinned list, so its work stays the
# same across changes; an identity added later joins in a benchmark change.
IDENTITY_NAMES = (
    "msp-bessel-oracle", "cf-product", "compound-peraxis", "compound-equalrate",
    "array-gmsp", "array-alt", "integral-cf", "uniform-compound-mpp",
    "uniform-compound-peraxis", "uniform-compound-equalrate", "frac-pmf",
    "frac-wright", "frac-mean", "frac-variance-printed", "frac-variance-quadratic",
    "inverse-subordinator-mean", "alt-twoparam",
)

_SPEC3 = "1:0.7,0.4;-1:0.5,0.6;2:0.2,0.3"


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``kind`` names what the artifact holds and so which check applies:
    ``sample`` (draws), ``integral`` (draws plus a CF table), ``pmf``, ``cf``,
    ``converge``, ``report`` (an identity verdict) or ``wright`` (an in-process
    cross-check with no CLI artifact).
    """

    name: str
    kind: str
    argv: tuple = ()
    fmt: str = "csv"
    params: dict = field(default_factory=dict)


def _cli(name, kind, argv, fmt="csv", **params):
    argv = list(argv)
    if fmt == "json" and kind != "report":  # `verify` always writes JSON
        argv += ["--format", "json"]
    return Op(name=name, kind=kind, argv=tuple(str(a) for a in argv), fmt=fmt, params=params)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def cli_cold(seed: int, smoke: bool = False) -> list[Op]:
    s = _seeds(seed, 8)
    n = 20 if smoke else 400
    return [
        _cli("simulate-gmsp", "sample", ["simulate", "--process", "gmsp", "--jumps", _SPEC3,
                                         "--t", "1.0,1.0", "--n", n, "--seed", s[0]], n=n),
        _cli("simulate-frac-skellam", "sample",
             ["simulate", "--process", "frac-skellam", "--l1", "1.0", "--l2", "1.0",
              "--alpha", "0.5", "--beta", "0.5", "--t1", "1.0", "--t2", "1.0",
              "--n", n, "--seed", s[1]], fmt="json", n=n),
        _cli("pmf-msp", "pmf", ["pmf", "--process", "msp", "--l1", "1.0", "--l2", "0.5",
                                "--t", "1.0,2.0", "--nmax", 20, "--seed", s[2]],
             means={1: 3.0, -1: 1.5}),
        _cli("pmf-frac-skellam", "pmf",
             ["pmf", "--process", "frac-skellam", "--l1", "1.0", "--l2", "1.0", "--alpha", "0.7",
              "--beta", "0.9", "--t1", "1.0", "--t2", "1.0", "--nmax", 20, "--seed", s[3]],
             reference=("frac-skellam", frac_skellam_key(0.7, 0.9))),
        _cli("cf-gmsp", "cf", ["cf", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0",
                               "--u", "0:3:0.25", "--seed", s[4]]),
        _cli("cf-integral-gmsp", "cf",
             ["cf", "--process", "integral-gmsp", "--jumps", "1:0.7,0.4;-1:0.5,0.6",
              "--t", "1.2,1.0", "--u", "0.25,0.5,1.0", "--seed", s[5]]),
        _cli("integral-mpp", "integral",
             ["integral", "--process", "mpp", "--rates", "1.0,0.5", "--t", "1.5,1.0",
              "--r", 64, "--n", n, "--seed", s[6]], n=n),
        _cli("converge-gmsp-array", "converge",
             ["converge", "--scheme", "gmsp-array", "--jumps", "1:4.0;-1:2.5", "--t", "1.0,1.0",
              "--scales", "10,100", "--n", 5 * n, "--seed", s[7]]),
        _cli("verify-cf-product", "report", ["verify", "--identity", "cf-product", "--seed", seed],
             fmt="json", identity="cf-product"),
    ]


def sample_bulk(seed: int, smoke: bool = False) -> list[Op]:
    s = _seeds(seed, 8)
    big, mid, emp, r = (100, 100, 100, 64) if smoke else (200_000, 20_000, 100_000, 512)
    gmsp = ["--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0"]
    return [
        _cli("simulate-gmsp-csv", "sample", ["simulate", *gmsp, "--n", big, "--seed", s[0]], n=big),
        _cli("simulate-gmsp-json", "sample", ["simulate", *gmsp, "--n", big, "--seed", s[1]],
             fmt="json", n=big),
        _cli("simulate-frac-skellam", "sample",
             ["simulate", "--process", "frac-skellam", "--l1", "1.3", "--l2", "0.6",
              "--alpha", "0.6", "--beta", "0.8", "--t1", "1.5", "--t2", "1.0",
              "--n", big, "--seed", s[2]], n=big),
        _cli("simulate-compound-peraxis", "sample",
             ["simulate", "--process", "compound-peraxis", "--jumps", _SPEC3, "--t", "1.0,1.0",
              "--n", big, "--seed", s[3]], n=big),
        _cli("integral-mpp", "integral",
             ["integral", "--process", "mpp", "--rates", "1.0,0.5", "--t", "1.5,1.0",
              "--r", r, "--n", mid, "--seed", s[4]], n=mid),
        _cli("integral-gmsp", "integral",
             ["integral", "--process", "gmsp", "--jumps", "1:0.7,0.4;-1:0.5,0.6",
              "--t", "1.2,1.0", "--r", r, "--n", mid, "--seed", s[5]], n=mid),
        _cli("integral-compound", "integral",
             ["integral", "--process", "compound", "--rates", "0.8,0.5", "--xvalues", "1.0,-1.0,2.0",
              "--xprobs", "0.5,0.3,0.2", "--t", "1.2,1.0", "--r", r, "--n", mid, "--seed", s[6]],
             n=mid),
        _cli("cf-gmsp-empirical", "cf",
             ["cf", "--process", "gmsp", "--jumps", _SPEC3, "--t", "1.0,1.0", "--empirical",
              "--u", "0:4:0.05", "--n", emp, "--seed", s[7]]),
    ]


# The frac-poisson grid spans the documented domain on purpose: at the seed
# commit three of its nine tables raise TruncationError well inside it.  Those
# three are pinned: a TruncationError anywhere else is a wrong result.
FRAC_POISSON_ALPHAS = (0.3, 0.5, 0.8)
FRAC_POISSON_X = (0.5, 2.0, 4.0)
EXPECTED_TRUNCATION = frozenset({(0.3, 2.0), (0.3, 4.0), (0.5, 4.0)})
FRAC_SKELLAM_INDICES = (0.4, 0.7, 0.9)
TABLE_NMAX = 20  # nmax of the fractional tables; reference.json holds them at this size
BIG_NMAX = 40  # nmax of the msp, skellam2 and gmsp tables
_SPEC3_RATES = {1: (0.7, 0.4), -1: (0.5, 0.6), 2: (0.2, 0.3)}  # _SPEC3 as numbers


def frac_poisson_key(alpha, x) -> str:
    return f"a{alpha}-x{x}"


def frac_skellam_key(alpha, beta) -> str:
    return f"a{alpha}-b{beta}"


def exact_tables(seed: int, smoke: bool = False) -> list[Op]:
    # A pass takes under 2 s, so the self-test runs it whole: a smaller nmax
    # would also cut the pinned tables short of the entries where they raise.
    rng = random.Random(seed)
    ops = []
    for alpha in FRAC_POISSON_ALPHAS:
        for x in FRAC_POISSON_X:
            # t = 1, so lam t^alpha = lam = x
            key = frac_poisson_key(alpha, x)
            ops.append(_cli(f"pmf-frac-poisson-{key}", "pmf",
                            ["pmf", "--process", "frac-poisson", "--l1", f"{x:.1f}",
                             "--alpha", alpha, "--t1", "1.0", "--nmax", TABLE_NMAX, "--seed", seed],
                            reference=("frac-poisson", key),
                            may_truncate=(alpha, x) in EXPECTED_TRUNCATION))
    for alpha in FRAC_SKELLAM_INDICES:
        for beta in FRAC_SKELLAM_INDICES:
            key = frac_skellam_key(alpha, beta)
            ops.append(_cli(f"pmf-frac-skellam-{key}", "pmf",
                            ["pmf", "--process", "frac-skellam", "--l1", "1.0", "--l2", "1.0",
                             "--alpha", alpha, "--beta", beta, "--t1", "1.0", "--t2", "1.0",
                             "--nmax", TABLE_NMAX, "--seed", seed],
                            reference=("frac-skellam", key)))
    # The seed sets the times of these tables; each is checked against the
    # Poisson convolution of its jump counts (checks.poisson_lattice_pmf).
    for i in range(3):
        t = [round(rng.uniform(0.5, 2.0), 3) for _ in range(3)]
        l1, l2 = (1.0, 0.5, 2.0), (0.5, 1.5, 1.0)
        ops.append(_cli(f"pmf-msp-{i}", "pmf",
                        ["pmf", "--process", "msp", "--l1", ",".join(map(str, l1)),
                         "--l2", ",".join(map(str, l2)), "--t", ",".join(map(str, t)),
                         "--nmax", BIG_NMAX, "--seed", seed],
                        means={1: _dot(l1, t), -1: _dot(l2, t)}))
        t1, t2 = (round(rng.uniform(0.5, 2.0), 3) for _ in range(2))
        ops.append(_cli(f"pmf-skellam2-{i}", "pmf",
                        ["pmf", "--process", "skellam2", "--l1", "1.5", "--l2", "2.5",
                         "--t1", t1, "--t2", t2, "--nmax", BIG_NMAX, "--seed", seed],
                        means={1: 1.5 * t1, -1: 2.5 * t2}))
        t = [round(rng.uniform(0.5, 2.0), 3) for _ in range(2)]
        ops.append(_cli(f"pmf-gmsp-{i}", "pmf",
                        ["pmf", "--process", "gmsp", "--jumps", _SPEC3,
                         "--t", ",".join(map(str, t)), "--nmax", BIG_NMAX, "--seed", seed],
                        means={j: _dot(rates, t) for j, rates in _SPEC3_RATES.items()}))
    u0 = round(rng.uniform(0.0, 0.1), 4)
    ops.append(_cli("cf-integral-gmsp", "cf",
                    ["cf", "--process", "integral-gmsp", "--jumps", "1:0.7,0.4;-1:0.5,0.6",
                     "--t", "1.2,1.0", "--u", f"{u0}:{u0 + 3.0}:0.25", "--seed", seed]))
    for k in range(-2, 3):
        t1 = round(rng.uniform(0.9, 1.1), 3)
        ops.append(Op(name=f"wright-k{k}", kind="wright",
                      params={"l1": 1.0, "l2": 1.0, "alpha": 0.5, "beta": 0.5,
                              "t1": t1, "t2": 1.0, "k": k}))
    return ops


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def verify_suite(seed: int, smoke: bool = False) -> list[Op]:
    # The benchmark runs each identity at its pinned default n; the smoke
    # sizes below serve the self-test only.
    ops = []
    for name in IDENTITY_NAMES:
        argv = ["verify", "--identity", name, "--seed", seed]
        if name in _SMOKE_N and smoke:
            argv += ["--n", _SMOKE_N[name]]
        ops.append(_cli(f"verify-{name}", "report", argv, fmt="json", identity=name))
    return ops


# Small draw counts for the self-test.  At its seed every verdict holds; at
# other seeds array-gmsp and array-alt raise at these sizes now and then.
_SMOKE_N = {
    "compound-peraxis": 20_000, "compound-equalrate": 20_000, "array-gmsp": 1_000_000,
    "array-alt": 200_000, "integral-cf": 5_000, "uniform-compound-mpp": 2_000,
    "uniform-compound-peraxis": 2_000, "uniform-compound-equalrate": 2_000,
    "frac-pmf": 20_000, "frac-mean": 20_000, "frac-variance-printed": 100_000,
    "frac-variance-quadratic": 20_000, "inverse-subordinator-mean": 20_000,
    "alt-twoparam": 20_000,
}

BUILDERS = {
    "cli-cold": cli_cold,
    "sample-bulk": sample_bulk,
    "exact-tables": exact_tables,
    "verify-suite": verify_suite,
}


def operations(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The fixed operation list of ``workload`` for ``seed`` (small sizes if ``smoke``)."""
    return BUILDERS[workload](seed, smoke)
