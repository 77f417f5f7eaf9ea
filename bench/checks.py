"""Output checks and counts for the benchmark's artifacts.

Every operation leaves bytes behind (a CLI artifact, or for a Wright point the
two pmf values at 17 digits).  ``inspect`` checks them and counts what they
hold; ``digest`` fingerprints them so that passes, and traced and untraced
runs, can be compared byte for byte.

Stdlib only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass

from workloads import EXPECTED_FAIL_IDENTITIES, ORACLE_IDENTITIES

PMF_SUM_TOL = 1e-9  # probabilities plus truncation_mass must sum to 1 within this
# Every pmf entry must match its reference within these.  Fractional tables
# (reference.json): the seed commit is off by up to 1.8e-9 (README.md).  msp,
# skellam2 and gmsp tables (Poisson convolution): up to 1.2e-13, and their
# truncation_mass must match the convolution's mass outside the table within
# TAIL_TOL (seed commit: up to 6.4e-13).
FRAC_ENTRY_TOL = 1e-8
LATTICE_ENTRY_TOL = 1e-11
TAIL_TOL = 1e-11
WRIGHT_TOL = 1e-6  # the library's own frac-wright bound
CF_MODULUS_TOL = 1e-9

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"),
          encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)  # the seed-free fractional tables (make_reference.py)

# Verdicts these identities give are exact computations, so a wrong verdict
# is a wrong output.  The others are tests at the library's 1e-3 level (or
# z < 5, TV thresholds) and reject a correct sampler now and then by chance.
DETERMINISTIC_IDENTITIES = ORACLE_IDENTITIES | EXPECTED_FAIL_IDENTITIES

# A statistical verdict past these limits is not chance but a wrong result:
# a p-value below FAR_P_VALUE, or a statistic above its FAR_STATISTIC entry
# (the pass limits are TV 0.02, |z| 5 and a CF gap of 4/sqrt(n)).
FAR_P_VALUE = 1e-9
FAR_STATISTIC = {
    "array-gmsp": lambda n: 0.05,
    "array-alt": lambda n: 0.05,
    "integral-cf": lambda n: 12.0 / math.sqrt(n),
    "frac-mean": lambda n: 10.0,
    "frac-variance-quadratic": lambda n: 10.0,
    "inverse-subordinator-mean": lambda n: 10.0,
}


@dataclass
class Outcome:
    """What one operation of one pass produced.

    ``raw_seconds`` is the clock's reading; ``seconds`` is the same, scaled by
    the machine's speed where the pass measured it (worker.SpeedScale).
    ``error`` is set when the operation raised, exited nonzero, or its output
    failed a check; ``wrong`` marks errors that mean a wrong result rather
    than a refusal the library documents (a pinned TruncationError) or a
    statistical verdict that chance can flip.
    """

    seconds: float = 0.0
    raw_seconds: float = 0.0
    digest: str | None = None
    values: int = 0
    entries: int = 0
    error: str | None = None
    wrong: bool = False
    rss_kb: int = 0

    def fail(self, message: str, wrong: bool = True):
        if self.error is None:
            self.error = message
        self.wrong = self.wrong or wrong


def artifact_files(out: str) -> list[str]:
    """The files one CLI operation writes (``integral`` adds a CF side file)."""
    side = out + ".cf.csv"
    return [out, side] if os.path.exists(side) else [out]


def digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _csv_rows(text: str) -> list[list[float]]:
    """The data rows of a CSV artifact, after its meta line and header."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# meta: "):
        raise ValueError("CSV artifact lacks its meta line")
    json.loads(lines[0][len("# meta: "):])
    width = len(lines[1].split(","))
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    if any(len(r) != width for r in rows):
        raise ValueError("CSV row width differs from its header")
    return rows


def _check_finite(values, what):
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} holds a non-finite value")


def _check_pmf(probs, tail):
    _check_finite(probs, "pmf table")
    if any(p < 0.0 or p > 1.0 for p in probs):
        raise ValueError("pmf entry outside [0, 1]")
    total = math.fsum(probs) + tail
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ValueError(f"probabilities plus truncation_mass sum to {total!r}")


@functools.lru_cache(maxsize=None)
def poisson_lattice_pmf(means: tuple) -> dict:
    """Pmf of sum_j j N_j for independent N_j ~ Poisson(mu_j), ``means`` = ((j, mu_j), ...).

    A direct convolution of Poisson pmfs, summed far past any mass that
    matters in double precision: the reference for the msp, skellam2 and
    gmsp tables, which the library evaluates by Bessel series (msp,
    skellam2) or by a numpy convolution truncated at tail mass 1e-12 (gmsp).
    """
    dist = {0: 1.0}
    for j, mu in means:
        pois = [math.exp(-mu + m * math.log(mu) - math.lgamma(m + 1.0))
                for m in range(int(mu + 12.0 * math.sqrt(mu) + 40.0))]
        nxt: dict = {}
        for k, p in dist.items():
            for m, q in enumerate(pois):
                nxt[k + j * m] = nxt.get(k + j * m, 0.0) + p * q
        dist = nxt
    return dist


def _check_reference(rows, reference, tol):
    """Each (n, probability) row against ``reference``, a map from n to value."""
    for row in rows:
        want = reference(int(row[0]))
        if not abs(row[1] - want) <= tol:
            raise ValueError(f"pmf at n = {int(row[0])} is {row[1]!r}, reference {want!r}")


def _check_pmf_table(op, rows):
    tails = {r[2] for r in rows}
    if len(tails) != 1:
        raise ValueError("truncation_mass differs between rows")
    tail = tails.pop()
    _check_pmf([r[1] for r in rows], tail)
    if "reference" in op.params:
        family, key = op.params["reference"]
        table = REFERENCE[family][key]
        offset = 0 if family == "frac-poisson" else REFERENCE["nmax"]
        _check_reference(rows, lambda n: table[n + offset], FRAC_ENTRY_TOL)
    if "means" in op.params:
        exact = poisson_lattice_pmf(tuple(sorted(op.params["means"].items())))
        _check_reference(rows, lambda n: exact.get(n, 0.0), LATTICE_ENTRY_TOL)
        lo, hi = int(rows[0][0]), int(rows[-1][0])
        outside = 1.0 - math.fsum(p for n, p in exact.items() if lo <= n <= hi)
        if not abs(tail - outside) <= TAIL_TOL:
            raise ValueError(f"truncation_mass {tail!r}, mass outside the table {outside!r}")


def _far_beyond(doc) -> bool:
    """Whether a statistical report is past anything chance produces."""
    if doc["p_value"] is not None:
        return doc["p_value"] < FAR_P_VALUE
    limit = FAR_STATISTIC.get(doc["identity"])
    return limit is not None and doc["statistic"] > limit(doc["n"])


def _check_cf(re_, im):
    _check_finite(re_ + im, "CF table")
    if any(math.hypot(a, b) > 1.0 + CF_MODULUS_TOL for a, b in zip(re_, im)):
        raise ValueError("CF entry with modulus above 1")


def _inspect_cli(op, blobs: list[bytes], outcome: Outcome):
    main = blobs[0].decode("utf-8")
    if op.fmt == "json":
        doc = json.loads(main)
    if op.kind == "sample":
        values = doc["values"] if op.fmt == "json" else [r[0] for r in _csv_rows(main)]
        _check_finite(values, "sample")
        if len(values) != op.params["n"]:
            raise ValueError(f"{len(values)} draws written, {op.params['n']} asked for")
        outcome.values = len(values)
    elif op.kind == "integral":
        values = [r[0] for r in _csv_rows(main)]
        _check_finite(values, "integral sample")
        if len(values) != op.params["n"]:
            raise ValueError(f"{len(values)} draws written, {op.params['n']} asked for")
        cf_rows = _csv_rows(blobs[1].decode("utf-8"))
        _check_cf([r[1] for r in cf_rows], [r[2] for r in cf_rows])
        outcome.values = len(values) + len(cf_rows)
        outcome.entries = len(cf_rows)
    elif op.kind == "pmf":
        rows = _csv_rows(main)
        _check_pmf_table(op, rows)
        outcome.values = outcome.entries = len(rows)
    elif op.kind == "cf":
        rows = _csv_rows(main)
        _check_cf([r[1] for r in rows], [r[2] for r in rows])
        outcome.values = outcome.entries = len(rows)
    elif op.kind == "converge":
        rows = _csv_rows(main)
        tvs = [r[1] for r in rows]
        _check_finite(tvs, "TV column")
        if any(not 0.0 <= tv <= 1.0 for tv in tvs):
            raise ValueError("TV distance outside [0, 1]")
        outcome.values = len(rows)
    elif op.kind == "report":
        name = op.params["identity"]
        if doc["identity"] != name:
            raise ValueError(f"report names {doc['identity']!r}, not {name!r}")
        outcome.values = int(doc["n"])
        if name in ORACLE_IDENTITIES:
            outcome.entries = int(doc["n"])
        want = "fail" if name in EXPECTED_FAIL_IDENTITIES else "pass"
        if doc["verdict"] != want:
            outcome.fail(f"verdict {doc['verdict']!r}, expected {want!r}",
                         wrong=name in DETERMINISTIC_IDENTITIES or _far_beyond(doc))
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")


def inspect(op, blobs: list[bytes], outcome: Outcome) -> None:
    """Check an operation's bytes and count the values and entries they hold."""
    outcome.digest = digest(blobs)
    try:
        if op.kind == "wright":
            conv, wright = (float(x) for x in blobs[0].decode("ascii").split())
            _check_finite([conv, wright], "Wright cross-check")
            if abs(conv - wright) > WRIGHT_TOL:
                raise ValueError(f"convolution {conv!r} and Wright {wright!r} forms disagree")
            outcome.values = outcome.entries = 2
        else:
            _inspect_cli(op, blobs, outcome)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        outcome.fail(f"bad output: {exc}")
