"""The benchmark's contract with the library, as ``bench/spans.py`` states it.

The span tracer wraps the functions its ``TARGETS`` name and works out counts
from their arguments (``COMPUTED``) by position or by keyword.  A renamed or
deleted function, or a parameter moved to another slot, would make the traced
run fail or count the wrong argument; these checks find both without running
a workload.  ``spans.py`` is read, compiled and run in memory: nothing is
written under ``bench/``.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    module = types.ModuleType("bench_spans")
    exec(compile(_SPANS_PATH.read_text(encoding="utf-8"), str(_SPANS_PATH), "exec"),
         module.__dict__)
    return module


SPANS = _load_spans()
_TRACED = [(module, name) for _, module, names in SPANS.TARGETS for name in names]
_MODULE_OF = {name: module for module, name in _TRACED}


@pytest.mark.parametrize("module, name", _TRACED, ids=[f"{m}.{n}" for m, n in _TRACED])
def test_every_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"skellam_lab.{module}"), name))


class _Slot:
    """A stand-in argument whose int, batch size and resolution name its position."""

    def __init__(self, pos):
        self.n = 10**pos
        self.resolution = [pos + 1, 2 * pos + 3]
        self._int = 1000 + pos

    def __int__(self):
        return self._int


def _kind(param):
    return getattr(param.annotation, "__name__", param.annotation)


def _expected(metric, params):
    """The count a call with a _Slot in every parameter must add to ``metric``."""
    slots = {p.name: _Slot(i) for i, p in enumerate(params)}
    if metric == "gmsp.draws":
        return int(slots["n_draws"])
    if metric == "integrals.lattice_cells":
        (dom,) = [slots[p.name] for p in params if _kind(p) == "RectDomain"]
        return int(slots["n_draws"]) * sum(dom.resolution)
    if metric == "stats.samples":
        batches = [slots[p.name].n for p in params if _kind(p) == "SampleBatch"]
        assert batches, "a sample count needs a SampleBatch parameter"
        return sum(batches)
    raise AssertionError(f"no rule for the computed metric {metric!r}")


@pytest.mark.parametrize("name", sorted(SPANS.COMPUTED))
def test_each_computed_count_reads_its_own_slot(name):
    assert name in _MODULE_OF, f"{name} is counted but not traced"
    func = getattr(importlib.import_module(f"skellam_lab.{_MODULE_OF[name]}"), name)
    params = [p for p in inspect.signature(func).parameters.values()
              if p.kind is p.POSITIONAL_OR_KEYWORD]
    metric, count = SPANS.COMPUTED[name]
    want = _expected(metric, params)
    positional = tuple(_Slot(i) for i in range(len(params)))
    keywords = {p.name: _Slot(i) for i, p in enumerate(params)}
    assert count(positional, {}) == want
    assert count((), keywords) == want
