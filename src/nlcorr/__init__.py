"""Extreme eigenvalues of nonlinear correlation matrices and operators.

Subpackages by topic:

- ``spectra``: validated symmetric matrices, Schur products, contraction
  certificates, Nystrom kernel discretization;
- ``hermite``: normalized Hermite polynomials, Gauss-Hermite quadrature, and
  the pairwise-Gaussian covariance calculus;
- ``maxcorr``: exact extreme nonlinear correlations of finite-support joints
  and of the empirical joint of binned samples;
- ``groups``: nested-sum and group-system correlation spectra, Hoeffding
  decomposition, and the sin-transform construction;
- ``stationary``: cosine spectral densities with closed forms for the
  autoregressive and exponential kernels;
- ``additive``: Gaussian-copula designs, the latent-spectrum invertibility
  constant, and empirical compatibility checks.
"""

from .errors import (
    BudgetExceededError,
    CoefficientOverflowError,
    DegenerateInputError,
    DimensionMismatchError,
    NLCorrError,
    ValidationError,
)
from .spectra import (
    ContractionCertificate,
    KernelGrid,
    as_corr_matrix,
    as_sym_matrix,
    as_weight_matrix,
    brownian_corr_kernel,
    brownian_lambda_max,
    extreme_eigs,
    full_spectrum,
    nystrom_eigs,
    offdiag_extremes,
    schur,
    schur_power_contraction_check,
)
from .hermite import (
    HermiteExpansion,
    QuadratureRule,
    expand,
    gauss_hermite_rule,
    hermite_eval,
    nl_gram,
    pairwise_gaussian_cov,
)
from .maxcorr import (
    DiscreteJoint,
    ExtremeResult,
    ace_estimate,
    exact_extremes,
    pair_max_corr,
    rayleigh_quotient,
)
from .groups import (
    CauchyLaw,
    DiscreteLaw,
    EllMatrix,
    GroupSystem,
    HoeffdingDecomposition,
    assumption_c_check,
    extreme_symm,
    group_matrix,
    group_sums_joint,
    hoeffding_decompose,
    nested_sum_matrix,
    nested_sums_joint,
    sin_construction_corr,
    solve_ct,
)
from .stationary import (
    StationaryKernel,
    ar1_kernel,
    circulant_cross_check,
    ou_kernel,
    spectral_density,
    spectral_extremes,
    table_kernel,
)
from .additive import (
    BasisSpec,
    CompatibilityQuery,
    CopulaDesign,
    copula_bound,
    empirical_phi_star,
    sample_design,
    sandwich_check,
)

__version__ = "0.1.0"
