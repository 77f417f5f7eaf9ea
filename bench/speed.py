"""The machine's current speed, from a fixed kernel that never calls the library.

The machine this benchmark was defined on is shared, and its speed wanders
by a quarter and more within minutes, in regimes that last tens of seconds
(README.md).  So the times of the workloads in ``worker.SCALED`` are
multiplied by ``CALIBRATION_S / c``, where ``c`` is what ``kernel()`` took
around the timed work: the time it would have taken at the speed at which
``kernel()`` takes ``CALIBRATION_S``, the reference machine's median.  A
set-up probe runs the kernel itself, right after its set-up.

The worker runs the kernel in a helper process (``python3 bench/speed.py``,
one kernel per line read from stdin, its seconds printed back), so the
kernel's memory never counts toward the worker's peak resident set.  The
worker waits while the helper runs: one process works at a time.
"""

from __future__ import annotations

import sys
import time

CALIBRATION_S = 0.35


def kernel() -> float:
    """Seconds a fixed mix takes now: a Python loop, a numpy sort, float formatting."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    x = np.random.default_rng(1).standard_normal(1_000_000)
    np.sort(x)
    ",".join(f"{v:.17g}" for v in x[:150_000].tolist())
    return time.perf_counter() - start


def main() -> int:
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
