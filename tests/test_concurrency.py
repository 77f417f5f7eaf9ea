"""records.concurrently, and identities run from many threads at once.

The helper runs its first call on the calling thread and its second on one
worker thread.  Each identity below draws two batches from separate seeds,
one after the other on the calling thread.
"""

import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from skellam_lab import identities, records
from skellam_lab.records import concurrently

# the identities that draw two batches (or, in integral-cf, cases) from separate seeds
CONCURRENT = ["integral-cf", "uniform-compound-mpp", "uniform-compound-peraxis",
              "uniform-compound-equalrate"]


def test_results_come_back_in_call_order():
    def slow_first():
        time.sleep(0.05)  # the second call ends first
        return "first"

    assert concurrently(slow_first, lambda: "second") == ("first", "second")
    assert concurrently(lambda: None, lambda: [1]) == (None, [1])


def test_first_runs_on_the_caller_and_second_on_a_worker_under_the_callers_errstate():
    caller = threading.get_ident()
    with np.errstate(all="raise", under="ignore"):
        first, second = concurrently(lambda: (threading.get_ident(), np.geterr()),
                                     lambda: (threading.get_ident(), np.geterr()))
    want = {"divide": "raise", "over": "raise", "under": "ignore", "invalid": "raise"}
    assert first == (caller, want)
    assert second[0] != caller and second[1] == want
    assert np.geterr() != want  # the setting ended with the with block


@pytest.mark.parametrize("fail", [("first",), ("second",), ("first", "second")])
def test_first_error_is_raised_before_the_second_and_only_after_both_end(fail):
    ended = []

    def call(name, delay):
        def run():
            time.sleep(delay)
            ended.append(name)
            if name in fail:
                raise ArithmeticError(name)
            return name
        return run

    # each order of ending: the second call ends after the first, then before it
    for first_delay, second_delay in ((0.0, 0.05), (0.05, 0.0)):
        ended.clear()
        with pytest.raises(ArithmeticError, match=f"^{fail[0]}$"):
            concurrently(call("first", first_delay), call("second", second_delay))
        assert sorted(ended) == ["first", "second"]


def test_no_thread_is_left_alive():
    threads = threading.active_count()
    workers = []

    def second():
        workers.append(threading.current_thread())
        return 2

    assert concurrently(lambda: 1, second) == (1, 2)
    with pytest.raises(KeyError):
        concurrently(lambda: {}[0], second)
    with pytest.raises(KeyError):
        concurrently(lambda: 1, lambda: workers.append(threading.current_thread()) or {}[0])
    assert len(workers) == 3 and not any(w.is_alive() for w in workers)
    assert threading.active_count() == threads


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


def test_the_helper_is_the_one_place_the_package_starts_a_thread():
    modules = Path(records.__file__).parent.glob("*.py")
    assert sorted(p.name for p in modules if "threading" in p.read_text()) == ["records.py"]


def test_the_fractional_sampler_is_the_helpers_one_caller():
    # the identities gained nothing from a second thread, and draw on the caller's
    modules = Path(records.__file__).parent.glob("*.py")
    callers = sorted(p.name for p in modules if "concurrently(" in p.read_text())
    assert callers == ["fractional.py", "records.py"]  # records.py defines it
