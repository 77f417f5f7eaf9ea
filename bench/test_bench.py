"""Self-test of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Runs every workload once at a smoke size, traced and untraced, and checks
that every metric BENCHMARK.json names is emitted with its unit.  The other
tests feed the checks corrupted outputs and assert that each is counted as a
failed operation.  Takes about two minutes on two CPUs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import REFERENCE, Outcome, inspect, poisson_lattice_pmf  # noqa: E402
from workloads import WORKLOADS, Op, operations  # noqa: E402
from worker import compare_digests, run_in_process, tally  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))
from skellam_lab.special import TruncationError  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    out = _result(_run("--workload", workload, "--seed", "5", "--seconds", "0.1",
                       "--trace", str(trace), "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace == 0:
        assert out["metrics"]["ok_ratio"]["value"] == (out["attempted"] - out["failed"]) / out["attempted"]


def test_corrupted_digest_counts_as_failed_operation():
    ops = operations("sample-bulk", 5, smoke=True)
    reference = [Outcome(0.1) for _ in ops]
    again = [Outcome(0.1) for _ in ops]
    for i, (a, b) in enumerate(zip(reference, again)):
        a.digest = b.digest = f"{i:064x}"
    again[3].digest = "f" * 64  # one artifact's bytes changed between passes
    compare_digests(reference, again)
    counts = tally(ops, [reference, again])
    assert counts["attempted"] == 2 * len(ops)
    assert counts["failed"] == 1
    assert counts["correct"] is False
    assert ops[3].name in counts["errors"][0]


def _pmf_csv(probs, tail, start=0):
    rows = "".join(f"{n},{p!r},{tail!r}\n" for n, p in enumerate(probs, start))
    return f'# meta: {{"process": "test"}}\nn,probability,truncation_mass\n{rows}'.encode()


def test_pmf_table_that_does_not_sum_to_one_fails():
    op = Op(name="pmf", kind="pmf")
    good, bad = Outcome(), Outcome()
    inspect(op, [_pmf_csv([0.5, 0.25], 0.25)], good)
    inspect(op, [_pmf_csv([0.5, 0.25 + 1e-6], 0.25)], bad)
    assert good.error is None and good.entries == 2
    assert bad.error is not None and bad.wrong


def _table_with_shifted_mass(family, key, shift):
    """A reference table that still sums to one, with ``shift`` moved between two entries."""
    ref = REFERENCE[family][key]
    ns = range(0, 9) if family == "frac-poisson" else range(-8, 9)
    offset = 0 if family == "frac-poisson" else REFERENCE["nmax"]
    probs = [ref[n + offset] for n in ns]
    probs[1] -= shift
    probs[2] += shift
    rows = "".join(f"{n},{p!r},{max(0.0, 1.0 - math.fsum(probs))!r}\n"
                   for n, p in zip(ns, probs))
    return f'# meta: {{"process": "{family}"}}\nn,probability,truncation_mass\n{rows}'.encode()


@pytest.mark.parametrize("family,key", [("frac-poisson", "a0.8-x2.0"),
                                        ("frac-skellam", "a0.4-b0.9")])
def test_pmf_entry_off_its_reference_fails(family, key):
    op = Op(name="pmf", kind="pmf", params={"reference": (family, key)})
    good, bad = Outcome(), Outcome()
    inspect(op, [_table_with_shifted_mass(family, key, 0.0)], good)
    inspect(op, [_table_with_shifted_mass(family, key, 1e-7)], bad)
    assert good.error is None
    assert bad.error is not None and bad.wrong


def test_skellam_table_is_checked_against_the_poisson_convolution():
    means = {1: 1.5, -1: 2.5}
    exact = poisson_lattice_pmf(tuple(sorted(means.items())))
    op = Op(name="pmf", kind="pmf", params={"means": means})
    probs = [exact[n] for n in range(-40, 41)]

    def check(probs, extra_tail=0.0):
        outcome = Outcome()
        tail = max(0.0, 1.0 - math.fsum(probs)) + extra_tail
        inspect(op, [_pmf_csv(probs, tail, start=-40)], outcome)
        return outcome

    assert check(probs).error is None
    mirrored = check(probs[::-1])  # the law of -X: sums to one, wrong values
    assert mirrored.error is not None and mirrored.wrong
    # right entries, and a sum within 1e-9 of one, but a truncation_mass the
    # table's own reach does not explain
    tail_off = check(probs, extra_tail=5e-10)
    assert tail_off.error is not None and tail_off.wrong


def _stub_lib(exc):
    def main(argv):
        raise exc

    return SimpleNamespace(main=main), None, TruncationError


@pytest.mark.parametrize("pinned", [True, False])
def test_truncation_error_is_wrong_unless_pinned(pinned):
    op = Op(name="pmf", kind="pmf", argv=("pmf",), params={"may_truncate": pinned})
    outcome = run_in_process(op, "unused.csv", _stub_lib(TruncationError("diverged", 0.0)))
    assert outcome.error is not None
    assert outcome.wrong is not pinned


@pytest.mark.parametrize("p_value,wrong", [(2e-4, False), (1e-12, True)])
def test_statistical_verdict_far_past_its_level_is_wrong(p_value, wrong):
    op = Op(name="verify-frac-pmf", kind="report", fmt="json", params={"identity": "frac-pmf"})
    report = {"identity": "frac-pmf", "statistic": 60.0, "p_value": p_value, "n": 100000,
              "seed": 1, "verdict": "fail"}
    outcome = Outcome()
    inspect(op, [json.dumps(report).encode()], outcome)
    assert outcome.error is not None
    assert outcome.wrong is wrong


def test_wright_disagreement_fails():
    op = Op(name="wright", kind="wright")
    outcome = Outcome()
    inspect(op, [b"0.125 0.12500200000000001\n"], outcome)
    assert outcome.error is not None and outcome.wrong


def test_unexpected_identity_verdict_fails():
    op = Op(name="verify-cf-product", kind="report", fmt="json",
            params={"identity": "cf-product"})
    report = {"identity": "cf-product", "statistic": 0.5, "p_value": None, "n": 75,
              "seed": 1, "verdict": "fail"}
    outcome = Outcome()
    inspect(op, [json.dumps(report).encode()], outcome)
    assert outcome.error is not None and outcome.wrong


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
