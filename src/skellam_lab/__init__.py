"""Multiparameter Skellam process toolkit: samplers, closed forms, verification."""

from .records import SampleBatch, LatticePMF, CFTable, make_rng, spawn_rngs
from .special import TruncationError, bessel_i, wright_psi23, frac_poisson_pmf, frac_poisson_table
from .mpp import GridPath, as_rates, as_times, mpp_pmf, mpp_sample_grid, mpp_covariance
from .gmsp import (
    JumpSpec,
    TriangularArraySpec,
    gmsp_sample,
    gmsp_pgf,
    gmsp_cf,
    gmsp_moments,
    msp_pmf,
    msp_pmf_table,
    gmsp_lattice_pmf,
    scaled_poisson_convolution,
    gmsp_compound_peraxis_sample,
    gmsp_compound_equalrate_sample,
    gmsp_array_sample,
)
from .integrals import (
    RectDomain,
    CompoundSpec,
    integral_sample,
    riemann_sum,
    integral_cf_gmsp,
    integral_cf_mpp,
    integral_cf_levy,
    uniform_compound_sample,
)
from .altskellam import (
    AltSpec,
    alt_sample,
    alt_moments,
    alt_increment_cf,
    alt_pgf,
    alt_lattice_pmf,
    alt_array_sample,
    twoparam_skellam_pmf,
    twoparam_skellam_pmf_table,
)
from .fractional import (
    FracSkellamSpec,
    stable_subordinator_sample,
    inv_stable_marginal_sample,
    frac_skellam_sample,
    frac_skellam_pmf,
    frac_skellam_pmf_table,
    frac_skellam_pmf_wright,
    frac_skellam_moments,
)
from .stats import (
    TestReport,
    empirical_cf,
    lattice_chi2,
    lattice_chi2_two_sample,
    ks_two_sample,
    tv_distance,
)

__version__ = "0.1.0"
