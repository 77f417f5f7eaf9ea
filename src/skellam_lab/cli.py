"""Command-line front end: simulate, pmf, cf, integral, converge, verify.

Every command writes CSV (with a leading `# meta:` comment carrying the full
parameter set) or JSON.  Output bytes are a pure function of (argv, seed):
floats are rendered with 17 significant digits, metadata key order is fixed,
and all samplers run off explicit seeds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .altskellam import (
    AltSpec,
    alt_increment_cf,
    alt_sample,
    twoparam_skellam_pmf,
)
from .fractional import (
    FracSkellamSpec,
    frac_skellam_pmf_table,
    frac_skellam_sample,
    inv_stable_marginal_sample,
    stable_subordinator_sample,
)
from .gmsp import (
    JumpSpec,
    gmsp_cf,
    gmsp_compound_equalrate_sample,
    gmsp_compound_peraxis_sample,
    gmsp_lattice_pmf,
    gmsp_sample,
    msp_pmf,
)
from .identities import IDENTITIES, array_tvs, run_identity
from .integrals import CompoundSpec, RectDomain, integral_cf_gmsp, integral_cf_mpp, integral_sample
from .mpp import as_rates, as_times, poisson_means
from .records import SampleBatch, as_scales, make_rng
from .special import _MAX_TERMS, TruncationError, frac_poisson_table
from .stats import empirical_cf

__all__ = ["main"]


# ---------------------------------------------------------------- serialization

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise ValueError(f"cannot write the non-finite value {float(x)!r}")
        return f"{float(x):.17g}"
    raise TypeError(f"cannot format {type(x)!r}")


# _fmt of every entry of a flat array, by dtype kind
_KIND_FORMATS = {"i": str, "u": str, "f": "{:.17g}".format}


def _column(values, each=_fmt) -> list[str]:
    """``each`` of every entry; a flat numeric array is formatted whole, as ``_fmt`` would."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in _KIND_FORMATS:
        if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
            raise ValueError("cannot write a non-finite value")
        return list(map(_KIND_FORMATS[values.dtype.kind], values.tolist()))
    return list(map(each, values))


def _json(obj) -> str:
    """JSON with floats at 17 significant digits (round-trip exact)."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_column(obj, _json)) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv(meta: dict, fields: dict) -> str:
    header = ["value" if name == "values" else name for name in fields]
    columns = [_column(f) if isinstance(f, (list, np.ndarray)) else itertools.repeat(_fmt(f))
               for f in fields.values()]
    lines = [f"# meta: {_json(meta)}", ",".join(header), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write(meta: dict, fields: dict, args) -> None:
    """Write one artifact: ``meta`` with the seed as its last key, then ``fields``.

    JSON is ``{"meta": ..., **fields}``.  CSV makes each list field a column
    (``values`` is headed ``value``) and repeats each scalar field on every
    row; a dict field is a table of its own, written to ``OUT.<name>.csv``, or
    to stdout after the main table when there is no ``--out``.
    """
    meta = {**meta, "seed": args.seed}
    if args.format == "json":
        _emit(_json({"meta": meta, **fields}) + "\n", args.out)
        return
    _emit(_csv(meta, {k: f for k, f in fields.items() if not isinstance(f, dict)}), args.out)
    for name, table in fields.items():
        if isinstance(table, dict):
            _emit(_csv(meta, table), None if args.out is None else f"{args.out}.{name}.csv")


def _cf_fields(u, values) -> dict:
    return {"u": list(u), "re": [v.real for v in values], "im": [v.imag for v in values]}


# ---------------------------------------------------------------- parsing

def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r} as a comma list of numbers") from None


def _parse_rate(tok: str) -> float:
    if "." not in tok:
        raise ValueError(f"rate {tok!r} needs an explicit decimal point")
    return float(tok)


def _parse_jumps(text: str) -> dict[float, list[float]]:
    """`j:rate_1,...,rate_M` groups joined by `;`; decimal points mandatory."""
    jumps: dict[float, list[float]] = {}
    for group in text.split(";"):
        if ":" not in group:
            raise ValueError(f"jump group {group!r} must look like j:rate,...")
        head, tail = group.split(":", 1)
        j = float(head)
        rates = [_parse_rate(tok) for tok in tail.split(",") if tok != ""]
        if not rates:
            raise ValueError(f"jump {head!r} has no rates")
        if j in jumps:
            raise ValueError(f"duplicate jump {head!r}")
        jumps[j] = rates
    return jumps


def _parse_single_rate_jumps(text: str) -> dict[float, float]:
    out = {}
    for j, rates in _parse_jumps(text).items():
        if len(rates) != 1:
            raise ValueError(f"jump {j} must carry exactly one rate here")
        out[j] = rates[0]
    return out


def _jump_times(rates: dict, text: str, name: str) -> dict:
    """Alt time map from one time per jump group, in the order the groups are written."""
    times = _parse_floats(text, name)
    if len(times) != len(rates):
        raise ValueError(f"--{name} must list one time per jump group, in order")
    return dict(zip(rates, times))


def _parse_ugrid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("u range must be start:stop:step")
        start, stop, step = _finite_frequencies([float(p) for p in parts])
        if step <= 0:
            raise ValueError("u range step must be positive")
        grid = []
        while start + len(grid) * step <= stop + 1e-12:
            if len(grid) == _MAX_TERMS:  # the cap on every series and table
                raise ValueError(f"u range has more than {_MAX_TERMS} points")
            grid.append(start + len(grid) * step)
        return grid
    return _finite_frequencies(_parse_floats(text, "u grid"))


def _finite_frequencies(grid: list[float]) -> list[float]:
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"frequencies must be finite, got {grid!r}")
    return grid


def _jump_spec(args):
    """(JumpSpec from --jumps, time list from --t)."""
    return JumpSpec(_parse_jumps(args.jumps)), _parse_floats(args.t, "t")


def _alt_jumps(args):
    """(single-rate jump map from --jumps, its time map from --t)."""
    rates = _parse_single_rate_jumps(args.jumps)
    return rates, _jump_times(rates, args.t, "t")


def _frac_spec(args) -> FracSkellamSpec:
    return FracSkellamSpec(float(args.l1), float(args.l2), args.alpha, args.beta)


# ---------------------------------------------------------------- subcommands

def _cmd_simulate(args) -> None:
    n, seed = args.n, args.seed
    if args.process == "mpp":
        lam = as_rates(_parse_floats(args.rates, "rates"))
        t = as_times(_parse_floats(args.t, "t"), lam.size)
        values = make_rng(seed).poisson(float(poisson_means(lam, t)), n)
        batch = SampleBatch(values, seed=seed, meta={
            "process": "mpp", "rates": list(map(float, lam)), "t": list(map(float, t)), "n": n})
    elif args.process == "gmsp":
        batch = gmsp_sample(*_jump_spec(args), n, seed)
    elif args.process == "alt":
        rates, t_map = _alt_jumps(args)
        batch = alt_sample(AltSpec(rates), t_map, n, seed)
    elif args.process == "frac-skellam":
        batch = frac_skellam_sample(_frac_spec(args), args.t1, args.t2, n, seed)
    elif args.process == "compound-peraxis":
        batch = gmsp_compound_peraxis_sample(*_jump_spec(args), n, seed)
    elif args.process == "compound-equalrate":
        rates = _parse_single_rate_jumps(args.jumps)
        t = _parse_floats(args.t, "t")
        batch = gmsp_compound_equalrate_sample(rates, len(t), t, n, seed)
    elif args.process == "stable":
        batch = stable_subordinator_sample(args.alpha, args.t1, n, seed)
    elif args.process == "inv-stable":
        batch = inv_stable_marginal_sample(args.alpha, args.t1, n, seed)
    _write(batch.meta, {"values": batch.values}, args)


def _cmd_pmf(args) -> None:
    nmax = args.nmax
    if not 0 <= nmax <= _MAX_TERMS:  # the cap on every series and table
        raise ValueError(f"--nmax must be nonnegative and at most {_MAX_TERMS}, got {nmax}")
    ns = list(range(0 if args.process == "frac-poisson" else -nmax, nmax + 1))
    if args.process == "msp":
        t = _parse_floats(args.t, "t")
        l1 = _parse_floats(args.l1, "l1")
        l2 = _parse_floats(args.l2, "l2")
        if len(l1) == 1:
            l1 = l1 * len(t)
        if len(l2) == 1:
            l2 = l2 * len(t)
        probs = [msp_pmf(k, l1, l2, t) for k in ns]
        meta = {"process": "msp", "l1": l1, "l2": l2, "t": t, "nmax": nmax}
    elif args.process == "skellam2":
        probs = [twoparam_skellam_pmf(k, float(args.l1), float(args.l2), args.t1, args.t2)
                 for k in ns]
        meta = {"process": "skellam2", "l1": float(args.l1), "l2": float(args.l2),
                "t1": args.t1, "t2": args.t2, "nmax": nmax}
    elif args.process == "gmsp":
        spec, t = _jump_spec(args)
        table = gmsp_lattice_pmf(spec, t)
        probs = [table.prob(k) for k in ns]
        meta = {"process": "gmsp", "jumps": args.jumps, "t": t, "nmax": nmax}
    elif args.process == "frac-skellam":
        probs = frac_skellam_pmf_table(_frac_spec(args), args.t1, args.t2, ns)
        meta = {"process": "frac-skellam", "l1": float(args.l1), "l2": float(args.l2),
                "alpha": args.alpha, "beta": args.beta, "t1": args.t1, "t2": args.t2,
                "nmax": nmax}
    elif args.process == "frac-poisson":
        probs = frac_poisson_table(nmax, float(args.l1), args.t1, args.alpha)
        meta = {"process": "frac-poisson", "lam": float(args.l1), "t": args.t1,
                "alpha": args.alpha, "nmax": nmax}
    tail = max(0.0, 1.0 - math.fsum(probs))
    _write(meta, {"n": ns, "probability": probs, "truncation_mass": tail}, args)


def _cmd_cf(args) -> None:
    grid = _parse_ugrid(args.u)
    if args.process == "gmsp":
        spec, t = _jump_spec(args)
        meta = {"process": "gmsp", "jumps": args.jumps, "t": t}
        exact = lambda u: gmsp_cf(spec, t, u)
        draw = lambda: gmsp_sample(spec, t, args.n, args.seed)
    elif args.process == "alt-increment":
        rates, t_map = _alt_jumps(args)
        spec = AltSpec(rates)
        s_map = {j: 0.0 for j in rates} if args.s is None else _jump_times(rates, args.s, "s")
        exact = lambda u: alt_increment_cf(spec, s_map, t_map, u)
        # independent increments: the increment has the law of the process at t - s
        draw = lambda: alt_sample(spec, {j: t_map[j] - s_map[j] for j in rates}, args.n, args.seed)
        meta = {"process": "alt-increment", "jumps": args.jumps,
                "s": list(s_map.values()), "t": list(t_map.values())}
    elif args.process == "integral-mpp":
        lam = _parse_floats(args.rates, "rates")
        t = _parse_floats(args.t, "t")
        meta = {"process": "integral-mpp", "rates": lam, "t": t}
        exact = lambda u: integral_cf_mpp(lam, t, u)
        draw = lambda: integral_sample(lam, RectDomain(t=t, resolution=args.r), args.n, args.seed)
    elif args.process == "integral-gmsp":
        spec, t = _jump_spec(args)
        exact = lambda u: integral_cf_gmsp(spec, t, u)
        draw = lambda: integral_sample(spec, RectDomain(t=t, resolution=args.r), args.n, args.seed)
        meta = {"process": "integral-gmsp", "jumps": args.jumps, "t": t}
    if args.empirical:
        meta["n"] = args.n
        if args.process.startswith("integral-"):
            meta["resolution"] = args.r
        table = empirical_cf(draw(), grid)
        fields = {**_cf_fields(grid, table.values), "radius": table.radius}
    else:
        fields = _cf_fields(grid, [exact(u) for u in grid])
    _write(meta, fields, args)


def _cmd_integral(args) -> None:
    t = _parse_floats(args.t, "t")
    dom = RectDomain(t=t, resolution=args.r)
    grid = _parse_ugrid(args.u)
    if args.process == "mpp":
        lam = _parse_floats(args.rates, "rates")
        batch = integral_sample(lam, dom, args.n, args.seed)
        cf_values = [integral_cf_mpp(lam, t, u) for u in grid]
        meta = {"process": "integral-mpp", "rates": lam}
    elif args.process == "gmsp":
        spec, _ = _jump_spec(args)
        batch = integral_sample(spec, dom, args.n, args.seed)
        cf_values = [integral_cf_gmsp(spec, t, u) for u in grid]
        meta = {"process": "integral-gmsp", "jumps": args.jumps}
    elif args.process == "compound":
        lam = _parse_floats(args.rates, "rates")
        xv = _parse_floats(args.xvalues, "xvalues")
        xp = _parse_floats(args.xprobs, "xprobs")
        batch = integral_sample(CompoundSpec(lam, xv, xp), dom, args.n, args.seed)
        meta = {"process": "integral-compound", "rates": lam, "xvalues": xv, "xprobs": xp}
        if len(lam) == 1:
            # one axis: a GMSP whose jumps are the nonzero values x at rates lam * P(X = x)
            jumps = {}
            for x, p in zip(xv, xp):
                if x != 0.0 and p > 0.0:
                    jumps[x] = jumps.get(x, 0.0) + lam[0] * p
            if jumps:
                spec = JumpSpec({x: (rate,) for x, rate in jumps.items()})
                cf_values = [integral_cf_gmsp(spec, t, u) for u in grid]
            else:  # X = 0 almost surely
                cf_values = [1.0 + 0.0j for _ in grid]
        else:
            grid, cf_values = [], []
            meta["cf"] = "none: the compound integral law at M >= 2 has no closed form here"
    meta.update({"t": t, "resolution": args.r, "n": args.n})
    _write(meta, {"values": batch.values, "cf": _cf_fields(grid, cf_values)}, args)


def _cmd_converge(args) -> None:
    scales = as_scales(_parse_floats(args.scales, "scales"), "--scales entries").tolist()
    if args.scheme == "gmsp-array":
        rates = _parse_single_rate_jumps(args.jumps)
        t = _parse_floats(args.t, "t")
    else:
        rates, t = _alt_jumps(args)
    tvs = array_tvs(args.scheme, rates, t, scales, args.n, args.seed)
    meta = {"scheme": args.scheme, "jumps": args.jumps, "t": args.t,
            "scales": scales, "n": args.n}
    _write(meta, {"scale": scales, "tv_distance": tvs}, args)


def _cmd_verify(args) -> None:
    report = run_identity(args.identity, seed=args.seed, n=args.n)
    _emit(_json(report.to_json_dict()) + "\n", args.out)


# ---------------------------------------------------------------- wiring

# The process parameters each --process (or --scheme) value of a subcommand
# reads; a trailing "?" marks one it reads but does not require.  A
# subcommand registers the flags its values read, and no other.
_READS = {
    "simulate": ("process", {
        "mpp": "rates t", "gmsp": "jumps t", "alt": "jumps t", "frac-skellam": "l1 l2 t1 t2 alpha beta",
        "compound-peraxis": "jumps t", "compound-equalrate": "jumps t",
        "stable": "t1 alpha", "inv-stable": "t1 alpha"}),
    "pmf": ("process", {"msp": "t l1 l2", "skellam2": "l1 l2 t1 t2", "gmsp": "jumps t",
                        "frac-skellam": "l1 l2 t1 t2 alpha beta", "frac-poisson": "l1 t1 alpha"}),
    "cf": ("process", {"gmsp": "jumps t", "alt-increment": "jumps t s?",
                       "integral-mpp": "rates t", "integral-gmsp": "jumps t"}),
    "integral": ("process", {"mpp": "rates t", "gmsp": "jumps t",
                             "compound": "rates t xvalues xprobs"}),
    "converge": ("scheme", {"gmsp-array": "jumps t", "alt-array": "jumps t"}),
}

# (type, help) of each process parameter flag, in registration and check order
_FLAGS = {
    "rates": (str, "comma list of per-axis rates, e.g. 1.0,2.0"),
    "jumps": (str, "jump spec 'j:rate_1,...,rate_M;j2:...' (decimal points required)"),
    "t": (str, "comma list of times"),
    "s": (str, "comma list of lower times (alt increments)"),
    "l1": (str, "first rate (scalar or comma list for msp)"),
    "l2": (str, "second rate (scalar or comma list for msp)"),
    "t1": (float, "first time coordinate"),
    "t2": (float, "second time coordinate"),
    "alpha": (float, "stable index in (0,1]"),
    "beta": (float, "second stable index in (0,1]"),
    "xvalues": (str, "compound jump values, comma list"),
    "xprobs": (str, "compound jump probabilities, comma list"),
}


def _require(args) -> None:
    """Require each flag the chosen process reads, and refuse each other flag of its subcommand."""
    selector, reads = _READS[args.command]
    process = getattr(args, selector)
    wanted = reads[process].split()
    for name in _FLAGS:
        given = getattr(args, name, None) is not None
        if not given and name in wanted:
            raise ValueError(f"--{name} is required for this process")
        if given and name not in wanted and f"{name}?" not in wanted:
            raise ValueError(f"--{name} is not read by {args.command} --{selector} {process}")


def _add_common(p, n_default=1000):
    p.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
    if n_default is not None:
        p.add_argument("--n", type=int, default=n_default, help="number of draws")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skellam-lab",
        description="Samplers, exact laws, and identity checks for multiparameter Skellam processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw i.i.d. samples of a process value")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pmf", help="tabulate an exact probability mass function")
    p.add_argument("--nmax", type=int, default=20, help="tabulate n in [-nmax, nmax]")
    _add_common(p, n_default=None)  # a pmf table draws nothing
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("cf", help="tabulate a characteristic function on a u grid")
    p.add_argument("--u", required=True, help="grid: comma list or start:stop:step")
    p.add_argument("--empirical", action="store_true",
                   help="tabulate the empirical CF of --n draws (adds a radius column)")
    p.add_argument("--r", type=int, default=256, help="lattice resolution (integral processes)")
    _add_common(p, n_default=10_000)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("integral", help="sample rectangle integrals plus their exact CF")
    p.add_argument("--r", type=int, default=256, help="lattice resolution per axis")
    p.add_argument("--u", default="0.25,0.5,1.0", help="CF grid: comma list or start:stop:step")
    _add_common(p)
    p.set_defaults(func=_cmd_integral)

    p = sub.add_parser("converge", help="triangular-array TV distances against the limit law")
    p.add_argument("--scales", default="10,100,1000", help="comma list of array scales")
    _add_common(p, n_default=100_000)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("verify", help="run a named distributional identity check")
    p.add_argument("--identity", required=True, choices=sorted(IDENTITIES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None, help="draws (identity-specific default)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    for command, (selector, reads) in _READS.items():
        p = sub.choices[command]
        p.add_argument(f"--{selector}", required=True, choices=tuple(reads))
        read = {name.rstrip("?") for flags in reads.values() for name in flags.split()}
        for name, (kind, text) in _FLAGS.items():
            if name in read:
                p.add_argument(f"--{name}", type=kind, help=text)
    for p in sub.choices.values():
        p.allow_abbrev = False  # a dropped flag, such as --n of pmf, is no prefix of another
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _READS:
            _require(args)
        args.func(args)
    except (ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
