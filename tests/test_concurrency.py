"""Identities run from many threads at once, and a package that starts no thread.

Each identity below draws two batches from separate seeds, one after the
other on the calling thread; so does the fractional sampler its two sides.
"""

import re
import sys
import threading
from pathlib import Path

import pytest

from skellam_lab import identities

# the identities that draw two batches (or, in integral-cf, cases) from separate seeds
CONCURRENT = ["integral-cf", "uniform-compound-mpp", "uniform-compound-peraxis",
              "uniform-compound-equalrate"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", CONCURRENT)
def test_each_identity_reports_what_its_sequential_draws_report(name, seed):
    assert identities.run_identity(name, seed=seed).verdict


def test_identities_run_from_many_threads_at_once_report_what_one_caller_gets():
    # four callers on two cores, each drawing on its own thread
    want = {name: identities.run_identity(name, seed=5, n=4000) for name in CONCURRENT}
    seen = {}

    def call(name):
        for _ in range(3):
            seen.setdefault(name, []).append(identities.run_identity(name, seed=5, n=4000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(name,)) for name in CONCURRENT]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert seen == {name: [report] * 3 for name, report in want.items()}


def test_no_module_in_the_package_imports_threading_or_contextvars():
    package = Path(identities.__file__).parent
    imports = re.compile(r"^\s*(?:import|from)\s+(?:threading|contextvars)\b", re.M)
    assert [p.name for p in sorted(package.rglob("*.py")) if imports.search(p.read_text())] == []
