"""skellam-lab benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload exact-tables --seed 7 --seconds 12 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced

Run from the repository root; the library is imported from ``src/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it print every metric
by name and unit.  Metric definitions and the layer map are in README.md.

This process imports only the standard library.  It starts the set-up probes
(fresh interpreters that import skellam_lab and build the inputs, then exit)
and then one worker process that runs the workload, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2  # set-up is measured this many times plus once in the worker
DEADLINE_S = 170.0  # the whole run must end within 180 s

# One worker thread for any native library, so a run uses one CPU.
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, smoke, deadline) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    setups = [_run_worker([*common, "--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = _run_worker([*common, "--trace", str(trace)], deadline)
    setups.append(result["setup_s"])
    if trace == 0:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s", {"samples": len(setups)})
    return result


def _line(workload, name, metric) -> str:
    value, unit = metric[0], metric[1]
    note = ""
    if len(metric) > 2:
        note = "  (" + ", ".join(f"{k} {v}" for k, v in metric[2].items()) + ")"
    return f"{workload:13s} {name:34s} {value!r:>24} {unit}{note}"


def report(workload, result, trace) -> dict:
    """Print every metric of one workload; return them in the output format."""
    metrics = result["metrics"]
    walls = metrics.pop("pass_walls_s", None)
    attempted, failed = result["attempted"], result["failed"]
    if trace == 0:
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
        print(_line(workload, "error_rate", (failed / attempted, "ratio",
                                             {"failed": failed, "attempted": attempted})))
    for name in sorted(metrics):
        print(_line(workload, name, metrics[name]))
    if walls:
        warm = result.get("warmup_wall_s")
        print(f"{workload:13s} {'pass walls':34s} " + " ".join(f"{w:.4f}" for w in walls)
              + " s" + (f"  (warm-up pass {warm:.4f} s)" if warm else ""))
    speed = result.get("speed_samples_s")
    if speed:
        print(f"{workload:13s} {'speed kernel':34s} median {statistics.median(speed):.4f} s, "
              f"{min(speed):.4f}-{max(speed):.4f} s over {len(speed)}  (times scaled to "
              "speed.CALIBRATION_S)")
    for err in result["errors"]:
        print(f"{workload:13s} failed op: {err}")
    print(f"{workload:13s} correct={result['correct']} attempted={attempted} failed={failed}")
    return {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="skellam-lab benchmark")
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small operation sizes, for the self-test only")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "skellam_lab", "cli.py")):
        print(f"error: no skellam-lab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if len(names) > 1:
        deadline = float("inf")  # the 180 s limit is per workload run
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.smoke,
                                  deadline)
            metrics = report(workload, result, args.trace)
            out["correct"] = out["correct"] and result["correct"]
            out["attempted"] += result["attempted"]
            out["failed"] += result["failed"]
            if len(names) == 1:
                out["metrics"] = metrics
            else:
                out["metrics"].update({f"{workload}.{k}": v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
