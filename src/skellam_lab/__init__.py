"""Multiparameter Skellam process toolkit: samplers, closed forms, verification.

Each public name is imported from its submodule the first time it is read
(PEP 562), so ``import skellam_lab`` loads no submodule and a command loads
only the modules it runs.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "records": ("SampleBatch", "LatticePMF", "CFTable", "make_rng", "spawn_rngs"),
    "special": ("TruncationError", "bessel_i", "wright_psi23", "frac_poisson_pmf",
                "frac_poisson_table"),
    "mpp": ("as_rates", "as_times", "mpp_pmf", "mpp_covariance"),
    "gmsp": (
        "JumpSpec",
        "TriangularArraySpec",
        "gmsp_sample",
        "gmsp_pgf",
        "gmsp_cf",
        "gmsp_moments",
        "msp_pmf",
        "msp_pmf_table",
        "gmsp_lattice_pmf",
        "scaled_poisson_convolution",
        "gmsp_compound_peraxis_sample",
        "gmsp_compound_equalrate_sample",
        "gmsp_array_sample",
    ),
    "integrals": (
        "RectDomain",
        "CompoundSpec",
        "integral_sample",
        "integral_cf_gmsp",
        "integral_cf_mpp",
        "integral_cf_levy",
        "uniform_compound_sample",
    ),
    "altskellam": (
        "AltSpec",
        "alt_sample",
        "alt_moments",
        "alt_increment_cf",
        "alt_pgf",
        "alt_lattice_pmf",
        "alt_array_sample",
        "twoparam_skellam_pmf",
        "twoparam_skellam_pmf_table",
    ),
    "fractional": (
        "FracSkellamSpec",
        "stable_subordinator_sample",
        "inv_stable_marginal_sample",
        "frac_skellam_sample",
        "frac_skellam_pmf",
        "frac_skellam_pmf_table",
        "frac_skellam_pmf_wright",
        "frac_skellam_moments",
    ),
    "stats": (
        "TestReport",
        "empirical_cf",
        "lattice_chi2",
        "lattice_chi2_two_sample",
        "ks_two_sample",
        "tv_distance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
