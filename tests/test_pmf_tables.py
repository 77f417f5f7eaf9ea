"""The Bessel pmf table forms against their scalar forms, bit for bit.

A table checks its means once and evaluates log I_{|n|} once per distinct
|n|; every entry, and the first error, must be what the scalar form gives
when it is called entry by entry in the same order.
"""

import json
import math
import os
from collections import defaultdict

import pytest

from skellam_lab import msp_pmf, msp_pmf_table, twoparam_skellam_pmf, twoparam_skellam_pmf_table
from skellam_lab.cli import main
from skellam_lab.gmsp import skellam_pmf_table
from skellam_lab.special import TruncationError, log_bessel_i, poisson_pmf


def closed_form(n, a, b):
    """One entry of the Skellam pmf as the scalar form has always written it."""
    if b == 0.0:
        return poisson_pmf(n, a)
    if a == 0.0:
        return poisson_pmf(-n, b)
    log_pref = -(a + b) + 0.5 * n * (math.log(a) - math.log(b))
    return math.exp(log_pref + log_bessel_i(abs(n), 2.0 * math.sqrt(a) * math.sqrt(b)))


def _golden_tables():
    """(a, b, ns) per pair of means of the golden pmf points: their n, then every -n."""
    path = os.path.join(os.path.dirname(__file__), "skellam_golden.json")
    with open(path, encoding="utf-8") as fh:
        points = json.load(fh)["points"]
    ns = defaultdict(list)
    for p in points:
        if p["kind"] == "pmf":
            ns[p["a"], p["b"]].append(p["n"])
    return [(a, b, [*n, *(-k for k in n)]) for (a, b), n in ns.items()]


# (name, table form, scalar form) over the means a and b
_FORMS = [
    ("skellam", lambda ns, a, b: skellam_pmf_table(ns, a, b),
     lambda n, a, b: skellam_pmf_table([n], a, b)[0]),
    ("msp", lambda ns, a, b: msp_pmf_table(ns, (a,), (b,), (1.0,)),
     lambda n, a, b: msp_pmf(n, (a,), (b,), (1.0,))),
    ("msp-2axis", lambda ns, a, b: msp_pmf_table(ns, (a, 0.5 * a), (b, 0.5 * b), (0.5, 1.0)),
     lambda n, a, b: msp_pmf(n, (a, 0.5 * a), (b, 0.5 * b), (0.5, 1.0))),
    ("twoparam", lambda ns, a, b: twoparam_skellam_pmf_table(ns, a, b, 1.0, 1.0),
     lambda n, a, b: twoparam_skellam_pmf(n, a, b, 1.0, 1.0)),
    ("closed-form", lambda ns, a, b: skellam_pmf_table(ns, a, b), closed_form),
]
# the forms that check their means (closed_form does not)
_CHECKED_FORMS = [f for f in _FORMS if f[0] != "closed-form"]


def _entry_by_entry(scalar, ns, a, b):
    """Scalar values in order, and the error of the first entry that raises (or None)."""
    values = []
    for n in ns:
        try:
            values.append(scalar(n, a, b))
        except (ValueError, TruncationError) as exc:
            return values, exc
    return values, None


def assert_table_is_entry_by_entry(table, scalar, ns, a, b):
    values, error = _entry_by_entry(scalar, ns, a, b)
    if error is None:
        assert [v.hex() for v in table(ns, a, b)] == [v.hex() for v in values], (a, b)
    else:
        with pytest.raises(type(error)) as raised:
            table(ns, a, b)
        assert str(raised.value) == str(error), (a, b)


@pytest.mark.parametrize("name, table, scalar", _FORMS, ids=[f[0] for f in _FORMS])
def test_table_is_its_scalar_form_on_the_golden_points(name, table, scalar):
    tables = _golden_tables()
    assert sum(len(ns) for _, _, ns in tables) >= 200
    for a, b, ns in tables:
        assert_table_is_entry_by_entry(table, scalar, ns, a, b)


@pytest.mark.parametrize("a, b", [(0.0, 2.5), (2.5, 0.0), (0.0, 0.0), (1e-300, 3.0), (700.0, 0.0)])
@pytest.mark.parametrize("name, table, scalar", _FORMS, ids=[f[0] for f in _FORMS])
def test_table_is_its_scalar_form_on_degenerate_sides(name, table, scalar, a, b):
    # a vanishing side is a (negated) Poisson: negative n lands on its zero half
    assert_table_is_entry_by_entry(table, scalar, range(-30, 31), a, b)


@pytest.mark.parametrize("a, b", [
    (1e6, 1e6),  # the Bessel series passes its 10,000-term cap
    (1e308 * 10, 1.0),  # a mean past the float range
    (1.0, math.inf),
    (math.nan, 0.0),
])
@pytest.mark.parametrize("name, table, scalar", _CHECKED_FORMS,
                         ids=[f[0] for f in _CHECKED_FORMS])
def test_table_raises_what_its_first_entry_raises(name, table, scalar, a, b):
    values, error = _entry_by_entry(scalar, range(-20, 21), a, b)
    assert values == [] and error is not None
    assert_table_is_entry_by_entry(table, scalar, range(-20, 21), a, b)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (1.0, -1.0), (-0.5, 0.0), (0.0, -2.0)])
def test_skellam_table_refuses_a_negative_mean(a, b):
    # a negative mean ended in math.log's bare "math domain error"
    message = rf"^means must be finite and nonnegative, got \({a!r}, {b!r}\)$"
    with pytest.raises(ValueError, match=message):
        skellam_pmf_table([0], a, b)[0]
    with pytest.raises(ValueError, match=message):
        skellam_pmf_table(range(-3, 4), a, b)


@pytest.mark.parametrize("name, table, scalar", _CHECKED_FORMS,
                         ids=[f[0] for f in _CHECKED_FORMS])
def test_table_raises_at_the_first_entry_past_the_term_cap(name, table, scalar):
    # at x = 2 sqrt(ab) = 1.444e6 the term cap refuses some orders and not others
    a = b = 7.22e5
    ns = [8750, -8750, 7250, 8500, 6500, 9000]
    values, error = _entry_by_entry(scalar, ns, a, b)
    assert len(values) == 3 and str(error).startswith("log I_8500(")
    assert_table_is_entry_by_entry(table, scalar, ns, a, b)


@pytest.mark.parametrize("rates, t", [(((1e6, 1e6), (1e6, 1e6)), (1.0, 1.0)),
                                      (((1e308,), (1.0,)), (10.0,)),
                                      (((1e308,), (0.0,)), (10.0,)),
                                      (((1.0,), (1.0, 2.0)), (1.0,))])
def test_msp_table_raises_what_its_first_entry_raises(rates, t):
    ns = range(-20, 21)
    with pytest.raises((ValueError, TruncationError)) as first:
        msp_pmf(ns[0], *rates, t)
    with pytest.raises(type(first.value)) as raised:
        msp_pmf_table(ns, *rates, t)
    assert str(raised.value) == str(first.value)


def test_a_table_that_needs_no_bessel_order_twice_is_still_entry_by_entry():
    # one Bessel order per entry, in an order unlike the CLI's
    a, b = 3.5, 0.75
    ns = [7, -2, 0, 13, -40]
    assert skellam_pmf_table(ns, a, b) == [closed_form(n, a, b) for n in ns]
    assert skellam_pmf_table([], a, b) == []


@pytest.mark.parametrize("argv, scalar", [
    (["pmf", "--process", "msp", "--l1", "1000000.0", "--l2", "1000000.0", "--t", "1,1"],
     lambda: msp_pmf(-20, (1e6, 1e6), (1e6, 1e6), (1.0, 1.0))),
    (["pmf", "--process", "msp", "--l1", "1e308", "--l2", "1.0", "--t", "10"],
     lambda: msp_pmf(-20, (1e308,), (1.0,), (10.0,))),
    (["pmf", "--process", "skellam2", "--l1", "1e6", "--l2", "1e6", "--t1", "1", "--t2", "1"],
     lambda: twoparam_skellam_pmf(-20, 1e6, 1e6, 1.0, 1.0)),
    (["pmf", "--process", "skellam2", "--l1", "1e308", "--l2", "1", "--t1", "10", "--t2", "1"],
     lambda: twoparam_skellam_pmf(-20, 1e308, 1.0, 10.0, 1.0)),
])
def test_cli_error_line_is_the_first_entrys_error(capsys, argv, scalar):
    with pytest.raises((ValueError, TruncationError)) as first:
        scalar()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {first.value}\n"
