"""One benchmark run of one workload, in a fresh interpreter started by run.py.

Closed loop, one client: each operation starts when the previous one has
returned.  The order of a run is

1. set-up: import skellam_lab and build the operation list from the seed;
2. a warm-up pass, untimed, except on the workloads in ``NO_WARMUP`` (on
   ``cli-cold`` the set-up probes that run.py starts warm the OS's caches);
3. timed passes, as many as fit the run's seconds at the workload's nominal
   pass time, so every run of a workload makes the same number;
4. with ``--trace 1`` instead of 3: one untraced and one traced in-process
   pass (on ``cli-cold`` after one pass of processes, the byte reference),
   then a separate ``-X importtime`` process for the import breakdown.

Every operation's output is checked (checks.py) and its bytes are compared
with the run's first pass.  Untraced times are scaled by the machine's speed
(speed.py).  The result is one JSON line on stdout for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from checks import Outcome, artifact_files, inspect
from speed import CALIBRATION_S, kernel
from workloads import IDENTITY_NAMES, operations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build", "skellam-bench")

# Seconds one timed pass takes on the reference machine (see README.md).  A
# run makes max(MIN_PASSES, round(--seconds / NOMINAL_PASS_S)) timed passes,
# a number fixed by --seconds alone so that every run of a workload has the
# same sample count.  cli-cold makes two so its medians rest on 18 processes.
NOMINAL_PASS_S = {"cli-cold": 13.0, "sample-bulk": 4.5, "exact-tables": 1.8, "verify-suite": 13.5}
MIN_PASSES = {"cli-cold": 2, "sample-bulk": 1, "exact-tables": 1, "verify-suite": 1}

# Workloads timed from their first pass.  A cold process has no warm state to
# build; on verify-suite a full warm-up pass measured no faster than the timed
# one (README.md) and would add 14 s to every run.
NO_WARMUP = frozenset({"cli-cold", "verify-suite"})

# Operation time between two speed measurements, at most (plus one operation).
CALIBRATE_EVERY_S = 4.0

# Workloads whose times are scaled by the machine's speed (speed.py).  On
# verify-suite, numpy work on arrays of 1e6 to 4e6 draws, the kernel did not
# track the pass times: scaling widened the spread of invocation_s_p50 from
# 0.07-0.21 to 0.30 over ten runs (README.md).
SCALED = frozenset({"cli-cold", "sample-bulk", "exact-tables"})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------- machine speed


class SpeedScale:
    """Scales operation times by the machine's speed (speed.py).

    The kernel runs in a helper process before the first operation, after at
    least every CALIBRATE_EVERY_S of operation time, and after each pass.  An
    operation's time is scaled by the mean of the two measurements around it.
    """

    def __init__(self):
        self.helper = subprocess.Popen([sys.executable, os.path.join(HERE, "speed.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = [self.measure()]
        self.pending: list[Outcome] = []

    def measure(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        return float(self.helper.stdout.readline())

    def add(self, outcome: Outcome):
        self.pending.append(outcome)
        if sum(o.raw_seconds for o in self.pending) >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        self.samples.append(self.measure())
        factor = CALIBRATION_S / statistics.fmean(self.samples[-2:])
        for outcome in self.pending:
            outcome.seconds = outcome.raw_seconds * factor
        self.pending.clear()

    def close(self):
        self.helper.stdin.close()
        self.helper.wait(timeout=60)


# ---------------------------------------------------------------- one operation


def _out_path(workdir, index, op):
    return os.path.join(workdir, f"op{index:02d}.{op.fmt}")


def run_in_process(op, out, lib) -> Outcome:
    """Run one operation through ``cli.main`` (or the Wright pair) in this process."""
    cli, fractional, truncation_error = lib
    outcome = Outcome()
    start = time.perf_counter()
    try:
        if op.kind == "wright":
            e = op.params
            spec = fractional.FracSkellamSpec(e["l1"], e["l2"], e["alpha"], e["beta"])
            conv = fractional.frac_skellam_pmf(spec, e["t1"], e["t2"], e["k"])
            wright = fractional.frac_skellam_pmf_wright(spec, e["t1"], e["t2"], e["k"])
            outcome.seconds = time.perf_counter() - start
            with open(out, "w", encoding="ascii") as fh:
                fh.write(f"{conv:.17g} {wright:.17g}\n")
        else:
            rc = cli.main([*op.argv, "--out", out])
            outcome.seconds = time.perf_counter() - start
            if rc != 0:
                outcome.fail(f"exit code {rc}")
    except truncation_error as exc:  # wrong unless pinned (workloads.EXPECTED_TRUNCATION)
        outcome.seconds = time.perf_counter() - start
        outcome.fail(f"TruncationError: {exc}", wrong=not op.params.get("may_truncate"))
    except SystemExit as exc:  # argparse rejected the command line
        outcome.seconds = time.perf_counter() - start
        outcome.fail(f"exit code {exc.code}")
    except Exception as exc:  # any other raise is a failed operation, reported
        outcome.seconds = time.perf_counter() - start
        outcome.fail(f"{type(exc).__name__}: {exc}")
    return outcome


def run_process(op, out, workdir) -> Outcome:
    """Run one CLI operation as a fresh ``python -m skellam_lab.cli`` process."""
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "skellam_lab.cli", *op.argv, "--out", out],
                                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(seconds)
    outcome.rss_kb = usage.ru_maxrss
    if proc.returncode != 0:
        with open(err_path, "rb") as fh:
            tail = fh.read().decode("utf-8", "replace").strip().splitlines()[-1:]
        outcome.fail(f"exit code {proc.returncode}: {' '.join(tail)}")
    return outcome


def run_pass(ops, workdir, runner, scale: SpeedScale | None = None) -> list[Outcome]:
    """One pass over ``ops``; with ``scale``, times are scaled by the machine's speed."""
    outcomes = []
    for i, op in enumerate(ops):
        out = _out_path(workdir, i, op)
        for stale in (out, out + ".cf.csv"):
            if os.path.exists(stale):
                os.remove(stale)
        outcome = runner(op, out)
        if outcome.error is None:
            blobs = []
            for path in artifact_files(out):
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            inspect(op, blobs, outcome)
        outcomes.append(outcome)
        outcome.raw_seconds = outcome.seconds
        if scale is not None:
            scale.add(outcome)
    if scale is not None:
        scale.flush()
    return outcomes


def compare_digests(reference: list[Outcome], outcomes: list[Outcome]) -> None:
    """Fail every operation whose bytes differ from the reference pass's."""
    for ref, got in zip(reference, outcomes):
        if got.digest is not None and ref.digest is not None and got.digest != ref.digest:
            got.fail("artifact sha256 differs from the run's first pass")


def tally(ops, passes: list[list[Outcome]]) -> dict:
    """Attempted and failed operations over ``passes``; correct if none was wrong."""
    pairs = [(op, o) for outcomes in passes for op, o in zip(ops, outcomes)]
    return {
        "attempted": len(pairs),
        "failed": sum(1 for _, o in pairs if o.error is not None),
        "correct": not any(o.wrong for _, o in pairs),
        "errors": sorted({f"{op.name}: {o.error}" for op, o in pairs if o.error}),
    }


# ---------------------------------------------------------------- import breakdown


def _under(name, package):
    return name == package or name.startswith(package + ".")


def _first_import_cost(nodes, package) -> int:
    """Cumulative microseconds of the outermost imports of ``package`` modules.

    This is what importing ``package`` first cost at the point it happened,
    the modules it pulled in included.  ``nodes`` are the ``-X importtime``
    lines in their post-order: (depth, self us, cumulative us, name).
    """
    total = 0
    ancestors: list[tuple[int, str]] = []
    for depth, _, cum_us, name in reversed(nodes):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if _under(name, package) and not any(_under(a, package) for _, a in ancestors):
            total += cum_us
        ancestors.append((depth, name))
    return total


def import_breakdown(op, workdir) -> dict:
    """Import costs of one CLI command, from a separate ``-X importtime`` process."""
    code = ("import sys\nfrom skellam_lab.cli import main\nrc = main(sys.argv[1:])\n"
            "print(len(sys.modules))\nsys.exit(rc)\n")
    out = os.path.join(workdir, "importtime." + op.fmt)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code, *op.argv, "--out", out],
                          cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=120, check=True)
    nodes = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        nodes.append(((len(raw) - len(raw.lstrip()) - 1) // 2, int(self_us), int(cum_us), name))

    def seconds(package):
        return _first_import_cost(nodes, package) / 1e6, "s"

    return {
        "import.total_s": (sum(n[1] for n in nodes) / 1e6, "s"),
        "import.numpy_s": seconds("numpy"),
        "import.scipy_stats_s": seconds("scipy.stats"),
        "import.scipy_integrate_s": seconds("scipy.integrate"),
        "import.skellam_lab_self_s": (sum(n[1] for n in nodes if _under(n[3], "skellam_lab")) / 1e6,
                                      "s"),
        "import.modules_loaded": (int(proc.stdout.split()[-1]), "count"),
    }


# ---------------------------------------------------------------- metrics


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it: (value, pct, n)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes: list[list[Outcome]], peak_kb: int) -> dict:
    walls = [sum(o.seconds for o in p) for p in passes]
    wall = statistics.median(walls)
    unscaled = statistics.median(sum(o.raw_seconds for o in p) for p in passes)
    per_op = [o.seconds for p in passes for o in p]
    tail, pct, n = tail_percentile(per_op)
    # counts are the same in every pass; take them from the first
    values = sum(o.values for o in passes[0] if o.error is None)
    entries = sum(o.entries for o in passes[0] if o.error is None)
    return {
        "wall_s": (wall, "s", {"unscaled": round(unscaled, 4)}),
        "invocation_s_p50": (statistics.median(per_op), "s"),
        "invocation_s_tail": (tail, "s", {"percentile": round(pct, 1), "samples": n}),
        "draws_per_s": (values / wall, "1/s", {"values": values}),
        "entries_per_s": (entries / wall, "1/s", {"entries": entries}),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "pass_walls_s": walls,
    }


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--smoke", action="store_true", help="small op sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # ---- set-up: the package import plus the workload's inputs
    sys.path.insert(0, SRC)
    from skellam_lab import cli, fractional  # imports the whole package
    from skellam_lab.special import TruncationError

    ops = operations(args.workload, args.seed, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        setup_s = ready - args.spawned
        if args.workload in SCALED:
            setup_s *= CALIBRATION_S / kernel()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    lib = (cli, fractional, TruncationError)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    scale = None
    try:
        def in_process(op, out):
            return run_in_process(op, out, lib)

        def fresh_process(op, out):
            return run_process(op, out, workdir)

        native = fresh_process if args.workload == "cli-cold" else in_process
        passes_planned = max(MIN_PASSES[args.workload],
                             round(args.seconds / NOMINAL_PASS_S[args.workload]))
        result = {"setup_s": ready - args.spawned}
        if args.trace == 0 and args.workload in SCALED:  # traced: raw layer times
            scale = SpeedScale()
            result["setup_s"] *= CALIBRATION_S / scale.samples[0]

        # Every pass in order; each must write the same bytes as the first.
        passes = []
        if args.workload not in NO_WARMUP:
            passes.append(run_pass(ops, workdir, native, scale))
            result["warmup_wall_s"] = sum(o.seconds for o in passes[0])
        if args.trace == 0:
            timed = [run_pass(ops, workdir, native, scale) for _ in range(passes_planned)]
            passes += timed
            if args.workload == "cli-cold":
                peak_kb = max(o.rss_kb for p in timed for o in p)
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["metrics"] = end_to_end(timed, peak_kb)
            if scale is not None:
                result["speed_samples_s"] = scale.samples
        else:
            from spans import Tracer

            # cli-cold's processes are the byte reference here; the span
            # pair runs in-process like every other workload's.
            if args.workload == "cli-cold":
                passes.append(run_pass(ops, workdir, native))
            untraced = run_pass(ops, workdir, in_process)
            tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
            tracer.install()  # for good: the traced pass is this process's last library work
            traced = run_pass(ops, workdir, in_process)
            passes += [untraced, traced]
            layers = tracer.layer_metrics(IDENTITY_NAMES)
            first_cli = next(op for op in ops if op.kind != "wright")
            layers.update(import_breakdown(first_cli, workdir))
            reports = [o for o, op in zip(traced, ops) if op.kind == "report"]
            ok = sum(1 for o in reports if o.error is None)
            layers["identities.reports"] = (len(reports), "count")
            layers["identities.verdict_ok_ratio"] = (ok / len(reports) if reports else 0.0, "ratio")
            layers["cli.bytes_out"] = (_bytes_out(ops, workdir), "bytes")
            walls = [sum(o.seconds for o in p) for p in (untraced, traced)]
            layers["trace.overhead_s"] = (walls[1] - walls[0], "s")
            result["metrics"] = layers
            tracer.dump(os.path.join(SCRATCH, f"spans-{args.workload}-{args.seed}.jsonl"))
        for outcomes in passes[1:]:
            compare_digests(passes[0], outcomes)

        result.update(tally(ops, passes))
        print(json.dumps(result))
    finally:
        if scale is not None:
            scale.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _bytes_out(ops, workdir) -> int:
    """Bytes the last pass wrote, over every artifact file."""
    total = 0
    for i, op in enumerate(ops):
        out = _out_path(workdir, i, op)
        if os.path.exists(out):
            total += sum(os.path.getsize(path) for path in artifact_files(out))
    return total


if __name__ == "__main__":
    sys.exit(main())
