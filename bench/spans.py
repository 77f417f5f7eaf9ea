"""Span tracer for the traced run, installed from outside the library.

The tracer wraps public skellam-lab functions by rebinding every module
attribute that refers to them (``skellam_lab.cli.gmsp_sample``,
``skellam_lab.identities.gmsp_array_sample``, ...), so one layer calling the
next shows as a child span.  Nothing under ``src/`` is edited.  Spans are kept
in memory as (name, start, end, parent, run id, error) and turned into
per-layer metrics: self times (span minus child spans), counts, and ratios
with their bases.  A count worked out from arguments has the unit
``count.computed``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (span name, defining module, function names).  A span name is the layer
# metric it feeds, without the `_s` suffix.
TARGETS = (
    ("cli.parse", "cli", ("build_parser",)),
    ("cli.main", "cli", ("main",)),
    ("integrals.sample", "integrals", ("integral_sample",)),
    ("integrals.uniform_compound", "integrals", ("uniform_compound_sample",)),
    ("integrals.cf_levy", "integrals", ("integral_cf_levy",)),
    ("integrals.cf_mpp", "integrals", ("integral_cf_mpp",)),
    ("gmsp.sample", "gmsp", ("gmsp_sample",)),
    ("gmsp.compound_sample", "gmsp",
     ("gmsp_compound_peraxis_sample", "gmsp_compound_equalrate_sample")),
    ("gmsp.array_sample", "gmsp", ("gmsp_array_sample",)),
    ("gmsp.lattice_pmf", "gmsp", ("gmsp_lattice_pmf",)),
    ("gmsp.msp_pmf", "gmsp", ("msp_pmf",)),
    ("gmsp.cf", "gmsp", ("gmsp_cf",)),
    ("altskellam.sample", "altskellam", ("alt_sample",)),
    ("altskellam.array_sample", "altskellam", ("alt_array_sample",)),
    ("altskellam.lattice_pmf", "altskellam", ("alt_lattice_pmf",)),
    ("altskellam.twoparam_pmf", "altskellam", ("twoparam_skellam_pmf",)),
    ("fractional.sample", "fractional",
     ("frac_skellam_sample", "stable_subordinator_sample", "inv_stable_marginal_sample")),
    ("fractional.pmf", "fractional", ("frac_skellam_pmf",)),
    ("fractional.pmf_wright", "fractional", ("frac_skellam_pmf_wright",)),
    ("special.frac_poisson_pmf", "special", ("frac_poisson_pmf",)),
    ("special.bessel_i", "special", ("bessel_i",)),
    ("special.wright_psi23", "special", ("wright_psi23",)),
    ("stats.empirical_cf", "stats", ("empirical_cf",)),
    ("stats.chi2", "stats", ("lattice_chi2", "lattice_chi2_two_sample")),
    ("stats.ks", "stats", ("ks_two_sample",)),
    ("stats.tv", "stats", ("tv_distance",)),
)

SPECIAL_SPANS = ("special.frac_poisson_pmf", "special.bessel_i", "special.wright_psi23")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _draws(pos):
    return lambda args, kwargs: int(_arg(args, kwargs, pos, "n_draws"))


def _batches(*slots):
    return lambda args, kwargs: sum(int(_arg(args, kwargs, pos, name).n) for pos, name in slots)


def _lattice_cells(args, kwargs):
    dom = _arg(args, kwargs, 1, "dom")
    return int(_arg(args, kwargs, 2, "n_draws")) * sum(int(r) for r in dom.resolution)


# Counts worked out from a call's arguments: function -> (metric, count).
COMPUTED = {
    "integral_sample": ("integrals.lattice_cells", _lattice_cells),
    "gmsp_sample": ("gmsp.draws", _draws(2)),
    "gmsp_compound_peraxis_sample": ("gmsp.draws", _draws(2)),
    "gmsp_compound_equalrate_sample": ("gmsp.draws", _draws(3)),
    "gmsp_array_sample": ("gmsp.draws", _draws(3)),
    "empirical_cf": ("stats.samples", _batches((0, "batch"))),
    "lattice_chi2": ("stats.samples", _batches((0, "batch"))),
    "lattice_chi2_two_sample": ("stats.samples", _batches((0, "a"), (1, "b"))),
    "ks_two_sample": ("stats.samples", _batches((0, "a"), (1, "b"))),
    "tv_distance": ("stats.samples", _batches((0, "batch"))),
}


class Tracer:
    """Records spans around wrapped calls; ``install`` rebinds the library's names."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    # ------------------------------------------------------------ recording

    def wrap(self, name, fn, count=None):
        spans, stack, counts, run_id = self.spans, self.stack, self.counts, self.run_id

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id, error)
                if count is not None:
                    metric, how = count
                    counts[metric] += how(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ installing

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("skellam_lab") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self):
        from skellam_lab import identities

        for span_name, module, names in TARGETS:
            mod = importlib.import_module(f"skellam_lab.{module}")
            for fname in names:
                original = getattr(mod, fname)
                count = COMPUTED.get(fname)
                if span_name == "cli.parse":
                    wrapper = self._wrap_build_parser(original)
                else:
                    wrapper = self.wrap(span_name, original, count)
                self._rebind_everywhere(original, wrapper)
        for name, func in list(identities.IDENTITIES.items()):
            identities.IDENTITIES[name] = self.wrap(f"identities.{name}", func)

    def _wrap_build_parser(self, build_parser):
        def build_and_trace():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return self.wrap("cli.parse", build_and_trace)

    # ------------------------------------------------------------ metrics

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def layer_metrics(self, identity_names) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans, as name -> (value, unit)."""
        selfs = self.self_times()
        out = {}
        for span_name, _, _ in TARGETS:
            metric = "cli.serialize_s" if span_name == "cli.main" else f"{span_name}_s"
            out[metric] = (selfs.get(span_name, 0.0), "s")
        for name in identity_names:
            out[f"identities.{name}_s"] = (selfs.get(f"identities.{name}", 0.0), "s")
        calls = sum(1 for s in self.spans if s[0] in SPECIAL_SPANS)
        truncations = sum(1 for s in self.spans
                          if s[0] in SPECIAL_SPANS and s[5] == "TruncationError")
        failures = sum(1 for s in self.spans if s[0] in SPECIAL_SPANS and s[5] is not None)
        out["special.calls"] = (calls, "count")
        out["special.truncation_errors"] = (truncations, "count")
        out["special.ok_ratio"] = ((calls - failures) / calls if calls else 0.0, "ratio")
        for metric in ("integrals.lattice_cells", "gmsp.draws", "stats.samples"):
            out[metric] = (self.counts.get(metric, 0), "count.computed")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def dump(self, path):
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "run": run_id, "error": error}) + "\n")
