"""Gaussian-copula designs and invertibility conditions for additive models.

A design X_j = T_j(Z_j) with latent correlation S^z and monotone marginal
transforms has all of its nonlinear correlation structure controlled by the
latent spectrum: for any centered square-integrable component functions,

    lambda_min(S^z) sum_j Var f_j  <=  Var(sum_j f_j)  <=  lambda_max(S^z) sum_j Var f_j.

The lower constant kappa_0 = lambda_min(S^z) therefore certifies the
restricted-eigenvalue and compatibility conditions of penalized additive
regression: the cone-restricted infimum

    phi* = inf { |I|^{2-q} Var(sum_j f_j) / (sum_{j in J} ||f_j||^q)^{2/q} }

over directions with sum_{j in I} Pen_j / sum_{j in I^c} Pen_j > xi_0 is at
least kappa_0 (q = 2 with J = {1..p} for the restricted eigenvalue, q = 1
with J = I for compatibility; we fix Pen_j to the empirical centered L2 norm).

phi* ranges over an infinite cone, so the empirical check evaluates the ratio
on randomized cone directions plus the unconstrained minimizing
eigen-direction of the centered basis Gram, and reports the observed minimum
as an upper bound that must still clear kappa_0 at Monte Carlo resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, ValidationError
from .hermite import piecewise_linear, resolve_function
from .spectra import as_corr_matrix


# ---------------------------------------------------------------------------
# copula designs
# ---------------------------------------------------------------------------

# Coefficients of the cephes ``ndtr.c`` normal cdf, highest power first:
# erf(x) = x T(x^2) / U(x^2) on |x| < 1, and erfc(x) = exp(-x^2) P(x) / Q(x)
# on 1 <= x < 8, exp(-x^2) R(x) / S(x) beyond.
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
           4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# cephes MAXLOG: erfc underflows to 0 once x^2 exceeds it
_NDTR_MAXLOG = 7.09782712893383996843E2


def _horner(x: np.ndarray, coefs) -> np.ndarray:
    out = x * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _probit_uniform(z) -> np.ndarray:
    """The standard normal cdf, a numpy port of cephes ``ndtr`` (scipy's ``ndtr``).

    With x = z / sqrt(2), Phi(z) = (1 + erf x) / 2 where |x| < 1 (the switch
    scipy makes) and erfc(|x|) / 2, or one minus it for x > 0, elsewhere. The
    erf rational runs over the whole array and only the tail indices are
    overwritten, which is faster than masking every step. The arithmetic is
    cephes' own, so the result stays within a few ulp of scipy's (the exp
    implementations differ); +-inf give exactly 1 and 0, nan gives nan.
    """
    x = np.multiply(z, 0.7071067811865476, dtype=float)
    shape = x.shape
    x = x.ravel()
    # the tail's polynomials overflow, harmlessly, past |x|^2 > MAXLOG
    with np.errstate(over="ignore", invalid="ignore"):
        sq = x * x
        out = _horner(sq, _NDTR_T)
        out *= x
        out /= _horner(sq, _NDTR_U)
        out *= 0.5
        out += 0.5
        tail = np.flatnonzero(np.abs(x) >= 1.0)
        xt = x[tail]
        a = np.abs(xt)
        p, q = _horner(a, _NDTR_P), _horner(a, _NDTR_Q)
        far = np.flatnonzero(a >= 8.0)
        p[far] = _horner(a[far], _NDTR_R)
        q[far] = _horner(a[far], _NDTR_S)
        sqt = sq[tail]
        half_erfc = np.exp(-sqt)
        half_erfc *= p
        half_erfc /= q
        half_erfc *= 0.5
        half_erfc[sqt > _NDTR_MAXLOG] = 0.0
        out[tail] = np.where(xt > 0, 1.0 - half_erfc, half_erfc)
    return out.reshape(shape)


TRANSFORM_CATALOG: dict[str, Callable] = {
    "identity": lambda z: z,
    "probit_uniform": _probit_uniform,
    "exp": lambda z: np.exp(z),
}


def resolve_transform(spec) -> Callable:
    """A catalog name, a callable, or a (xs, ys) monotone table."""
    if callable(spec):
        return spec
    if isinstance(spec, str):
        if spec in TRANSFORM_CATALOG:
            return TRANSFORM_CATALOG[spec]
        raise ValidationError(f"unknown transform {spec!r}")
    return piecewise_linear(spec[0], spec[1])


@dataclass(frozen=True)
class CopulaBound:
    """Latent-spectrum bounds: kappa0 = lambda_min(S^z) and the upper sandwich."""

    kappa0: float
    lambda_max: float


def copula_bound(sigma_z) -> CopulaBound:
    """The invertibility constant of a hidden-Gaussian design.

    Reads only the latent correlation matrix; the marginal transforms cannot
    move the nonlinear spectrum outside [lambda_min, lambda_max] of S^z.
    """
    s = as_corr_matrix(sigma_z)
    spec = np.linalg.eigvalsh(s)
    return CopulaBound(kappa0=float(spec[0]), lambda_max=float(spec[-1]))


@dataclass(frozen=True)
class CopulaDesign:
    """Sampling plan: latent correlation, per-coordinate transforms, size, seed."""

    sigma_z: np.ndarray
    transforms: tuple
    n: int
    seed: int = 0

    def __post_init__(self):
        s = as_corr_matrix(self.sigma_z)
        object.__setattr__(self, "sigma_z", s)
        t = tuple(self.transforms)
        if len(t) != s.shape[0]:
            raise DimensionMismatchError("need one transform per coordinate")
        for spec in t:
            resolve_transform(spec)
        if self.n < 1:
            raise ValidationError("sample count must be positive")
        object.__setattr__(self, "transforms", t)


def _latent_factor(sigma: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(sigma)
        if vals[0] < -1e-10:
            raise ValidationError(
                "latent correlation matrix is not PSD at factorization tolerance"
            )
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_design(design: CopulaDesign) -> np.ndarray:
    """Draw the n x p design table; identical seeds give identical tables.

    The latent Gaussian table is the design under ``("identity",) * p``.
    """
    rng = np.random.default_rng(design.seed)
    factor = _latent_factor(design.sigma_z)
    z = rng.standard_normal((design.n, design.sigma_z.shape[0])) @ factor.T
    cols = [resolve_transform(t)(z[:, j]) for j, t in enumerate(design.transforms)]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# empirical compatibility / restricted eigenvalue check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisSpec:
    """Per-variable basis on [0, 1] after quantile standardization.

    ``histogram`` uses equal-width indicator bins; ``poly`` appends powers
    x, x^2, ..., x^M of the standardized column.
    """

    family: str = "histogram"
    size: int = 8

    def __post_init__(self):
        if self.family not in ("histogram", "poly"):
            raise ValidationError("basis family must be 'histogram' or 'poly'")
        if self.size < 2:
            raise ValidationError("basis size must be at least 2")


@dataclass(frozen=True)
class CompatibilityQuery:
    """Active set, cone parameter, and norm exponent of the condition.

    q = 2 scores the restricted eigenvalue form (J = all blocks); q = 1
    scores the compatibility form (J = active set).
    """

    active: tuple[int, ...]
    xi0: float
    q: int = 1

    def __post_init__(self):
        act = tuple(sorted(set(int(i) for i in self.active)))
        if not act:
            raise ValidationError("active set must be nonempty")
        if any(i < 0 for i in act):
            raise ValidationError("active indices must be nonnegative")
        if self.xi0 <= 0:
            raise ValidationError("cone parameter must be positive")
        if self.q not in (1, 2):
            raise ValidationError("norm exponent must be 1 or 2")
        object.__setattr__(self, "active", act)


def quantile_standardize(data: np.ndarray) -> np.ndarray:
    """Per-column midrank transform onto [0, 1].

    Ties are broken by row order (the ranks of a stable sort), which keeps the
    transform deterministic; designs are assumed continuous, where ties are
    negligible. Each column is ranked by the default (unstable) argsort; only
    where equal values occur is row order restored inside each run of them,
    NaNs counting as one run, by one int64 sort of run * n + row.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    mid = (np.arange(n) + 0.5) / n
    out = np.empty_like(data)
    for j in range(data.shape[1]):
        order = np.argsort(data[:, j])
        srt = data[order, j]
        same = srt[1:] == srt[:-1]
        nan = np.isnan(srt)
        same |= nan[1:] & nan[:-1]
        if same.any():
            run = np.zeros(n, dtype=np.int64)
            np.cumsum(~same, out=run[1:])
            run *= n
            order = np.sort(run + order) - run
        out[order, j] = mid
    return out


def _basis_columns(col01: np.ndarray, spec: BasisSpec) -> np.ndarray:
    if spec.family == "histogram":
        edges = np.linspace(0.0, 1.0, spec.size + 1)[1:-1]
        bins = np.searchsorted(edges, col01, side="right")
        out = np.zeros((col01.size, spec.size))
        out[np.arange(col01.size), bins] = 1.0
        return out
    return np.stack([col01 ** k for k in range(1, spec.size + 1)], axis=1)


@dataclass(frozen=True)
class PhiStarReport:
    """Observed minimum of the cone ratio with its provenance.

    ``phi_hat`` is an upper bound on the infimum; ``argmin_direction`` holds
    the stacked coefficients attaining it, ``argmin_in_cone`` whether that
    direction satisfied the cone constraint (the eigen-direction candidate is
    evaluated unconstrained), ``se`` a bootstrap standard error at the argmin.
    """

    phi_hat: float
    se: float
    argmin_direction: np.ndarray
    argmin_in_cone: bool
    n_directions: int
    degenerate_cone: bool

    def as_dict(self) -> dict:
        return {
            "phi_hat": self.phi_hat,
            "se": self.se,
            "argmin_in_cone": self.argmin_in_cone,
            "n_directions": self.n_directions,
            "degenerate_cone": self.degenerate_cone,
        }


def _cone_penalties(pen2, active) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block penalties, their active sums and active-to-inactive shares.

    Rows of ``pen2`` hold alpha_j' G_jj alpha_j per block, so Pen_j =
    ||alpha_j||_G is the empirical L2 norm of block j's component; ``active``
    masks the active blocks. A share x/0 is inf for x > 0, and 0/0 is nan,
    which lies in no cone.
    """
    pens = np.sqrt(np.clip(pen2, 0.0, None))
    s_act = pens[:, active].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = s_act / pens[:, ~active].sum(axis=1)
    return pens, s_act, share


def _cone_ratios(quad, pen2, active, query) -> tuple[np.ndarray, np.ndarray]:
    """(ratio, in_cone) per row, from alpha' G alpha and the block ``pen2``.

    A vanishing denominator gives an infinite ratio.
    """
    pens, s_act, share = _cone_penalties(pen2, active)
    denom = np.sum(pens ** 2, axis=1) if query.q == 2 else s_act ** 2
    scale = len(query.active) ** (2 - query.q)
    ratio = np.divide(scale * quad, denom, out=np.full_like(denom, math.inf), where=denom > 0.0)
    return ratio, share > query.xi0


def empirical_phi_star(
    data,
    basis: BasisSpec,
    query: CompatibilityQuery,
    *,
    n_dirs: int = 200,
    seed: int = 0,
    n_boot: int = 64,
) -> PhiStarReport:
    """Randomized upper bound on the cone-restricted invertibility ratio.

    Columns are quantile-standardized to [0, 1] and expanded in the requested
    basis. The ratio is evaluated on ``n_dirs`` random directions rescaled
    into the cone, on active-only directions (always in the cone), and on the
    unconstrained minimizing eigen-direction of the centered Gram relative to
    its block diagonal; the first minimum observed is reported with a
    row-bootstrap standard error. The eigen-direction comes from a standard
    symmetric eigensolve in block-whitened coordinates (numpy only). The
    candidates are drawn as one (n_dirs, D + |active block coefficients|)
    normal matrix, projected and scored as arrays, and each bootstrap
    resample enters as ``bincount`` weights on the rows.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValidationError("data must be an n x p table with n >= 2")
    n, p = data.shape
    if max(query.active) >= p:
        raise ValidationError("active set exceeds the number of variables")
    degenerate = len(query.active) == p

    data01 = quantile_standardize(data)
    blocks = [_basis_columns(data01[:, j], basis) for j in range(p)]
    design = np.concatenate(blocks, axis=1)
    offsets = np.concatenate(([0], np.cumsum([b.shape[1] for b in blocks])))
    slices = [slice(offsets[j], offsets[j + 1]) for j in range(p)]
    dim = int(offsets[-1])

    centered = design - design.mean(axis=0)
    gram = centered.T @ centered / n
    gram_blocks = np.zeros_like(gram)
    for sl in slices:
        gram_blocks[sl, sl] = gram[sl, sl]

    # whiten each block on the complement of its null directions (the
    # all-ones direction of centered one-hot blocks; polynomial blocks are
    # full rank already); the smallest eigenvector of the whitened Gram then
    # solves gram x = lambda gram_blocks x, up to the scale and sign that the
    # cone ratio ignores
    def block_whitener(j):
        vals, vecs = np.linalg.eigh(gram[slices[j], slices[j]])
        keep = vals > max(1e-12, vals[-1] * 1e-10)
        if not np.any(keep):
            raise DegenerateInputError(f"basis block {j} is degenerate on the data")
        return vecs[:, keep] / np.sqrt(vals[keep])

    whiteners = [block_whitener(j) for j in range(p)]
    red_offsets = np.concatenate(([0], np.cumsum([wh.shape[1] for wh in whiteners])))
    whiten = np.zeros((dim, red_offsets[-1]))
    for j in range(p):
        whiten[slices[j], red_offsets[j]:red_offsets[j + 1]] = whiteners[j]
    eigen_dir = whiten @ np.linalg.eigh(whiten.T @ gram @ whiten)[1][:, 0]

    active = np.zeros(p, dtype=bool)
    active[list(query.active)] = True
    active_cols = np.repeat(active, np.diff(offsets))

    def block_pen2(alphas):
        return np.add.reduceat((alphas @ gram_blocks) * alphas, offsets[:-1], axis=1)

    def cone_project(alphas):
        """Rows shrunk on their inactive blocks until the cone constraint is
        strict, and which rows admit that (a positive active penalty)."""
        if active.all():
            return alphas, np.ones(alphas.shape[0], dtype=bool)
        _, s_act, share = _cone_penalties(block_pen2(alphas), active)
        shrink = np.where(share <= query.xi0, 0.5 * share / query.xi0, 1.0)
        out = alphas.copy()
        out[:, ~active_cols] *= shrink[:, None]
        return out, s_act > 0.0

    # one deterministic draw, in the stream order of one random direction
    # followed by its active-only companion per row; the pool is ordered as
    # [eigen, eigen projected, (random projected, active-only) per draw], and
    # active-only rows sit in the cone by the x/0 = inf share
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n_dirs, dim + int(active_cols.sum())))
    projected, kept = cone_project(np.vstack([eigen_dir, draws[:, :dim]]))
    pool = np.zeros((2 + 2 * n_dirs, dim))
    pool[0], pool[1], pool[2::2] = eigen_dir, projected[0], projected[1:]
    active_only = np.zeros((n_dirs, dim))
    active_only[:, active_cols] = draws[:, dim:]
    pool[3::2] = active_only
    kept_pool = np.ones(pool.shape[0], dtype=bool)
    kept_pool[1], kept_pool[2::2] = kept[0], kept[1:]
    # only the eigen-direction itself is scored without the cone constraint
    require_cone = np.ones(pool.shape[0], dtype=bool)
    require_cone[0] = False

    quad = np.sum((pool @ gram) * pool, axis=1)
    ratio, in_cone = _cone_ratios(quad, block_pen2(pool), active, query)
    admissible = kept_pool & np.isfinite(ratio) & (in_cone | ~require_cone)
    if not admissible.any():
        raise DegenerateInputError("no admissible cone direction was found")
    best = int(np.argmin(np.where(admissible, ratio, math.inf)))
    argmin = pool[best]

    # bootstrap the ratio at the frozen argmin direction; in the coordinates of
    # the block components centered_j @ argmin_j that is the all-ones direction
    values = np.stack([centered[:, sl] @ argmin[sl] for sl in slices])
    grams = np.empty((n_boot, p, p))
    for b in range(n_boot):
        weight = np.bincount(rng.integers(0, n, size=n), minlength=n) / n
        mean = values @ weight
        grams[b] = (values * weight) @ values.T - np.outer(mean, mean)
    boots = _cone_ratios(grams.sum(axis=(1, 2)), np.diagonal(grams, axis1=1, axis2=2),
                         active, query)[0]
    se = float(np.nanstd(np.where(np.isfinite(boots), boots, np.nan), ddof=1))

    return PhiStarReport(
        phi_hat=float(ratio[best]),
        se=se,
        argmin_direction=argmin,
        argmin_in_cone=bool(in_cone[best]),
        n_directions=int(np.count_nonzero(admissible)),
        degenerate_cone=degenerate,
    )


# ---------------------------------------------------------------------------
# component-vs-prediction error sandwich
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    """Monte Carlo check of the latent-spectrum error sandwich.

    ``middle`` estimates Var(sum_j d_j) for the component differences d_j;
    the bounds are lambda_min/lambda_max of S^z times the summed component
    energies. The verdict holds at three standard errors.
    """

    lower: float
    middle: float
    upper: float
    energy: float
    se_middle: float
    se_energy: float
    holds: bool

    def as_dict(self) -> dict:
        return {
            "lower": self.lower,
            "middle": self.middle,
            "upper": self.upper,
            "energy": self.energy,
            "se_middle": self.se_middle,
            "se_energy": self.se_energy,
            "holds": self.holds,
        }


def _var_with_se(v: np.ndarray) -> tuple[float, float]:
    n = v.size
    c = v - v.mean()
    var = float(c @ c / n)
    c2 = c * c  # squaring twice: a float power of 4 calls pow per element
    m4 = float(np.mean(c2 * c2))
    se = math.sqrt(max(m4 - var * var, 0.0) / n)
    return var, se


def sandwich_check(
    sigma_z,
    transforms,
    f: Sequence,
    f_hat: Sequence,
    *,
    n_mc: int = 200_000,
    seed: int = 0,
) -> SandwichReport:
    """Verify the spectrum sandwich on component differences by Monte Carlo.

    ``f`` and ``f_hat`` are per-coordinate callables (or catalog names from
    the transform/function catalogs) applied to the design columns; the check
    compares Var(sum(f_hat_j - f_j)) against the latent extremes times the
    summed difference energies, at three-standard-error resolution.
    """

    def as_callable(spec):
        return spec if callable(spec) else resolve_function(spec)

    s = as_corr_matrix(sigma_z)
    p = s.shape[0]
    if len(f) != p or len(f_hat) != p:
        raise DimensionMismatchError("need one component per coordinate")
    design = CopulaDesign(sigma_z=s, transforms=tuple(transforms), n=n_mc, seed=seed)
    x = sample_design(design)
    diffs = np.stack(
        [
            np.asarray(as_callable(f_hat[j])(x[:, j]), dtype=float)
            - np.asarray(as_callable(f[j])(x[:, j]), dtype=float)
            for j in range(p)
        ],
        axis=1,
    )
    bound = copula_bound(s)
    middle, se_middle = _var_with_se(diffs.sum(axis=1))
    energies = [_var_with_se(diffs[:, j]) for j in range(p)]
    energy = float(sum(e for e, _ in energies))
    se_energy = math.sqrt(sum(se ** 2 for _, se in energies))
    if energy <= 0.0 and middle <= 0.0:
        # f_hat == f: all three quantities vanish, the sandwich is trivially tight
        return SandwichReport(
            lower=0.0, middle=0.0, upper=0.0, energy=0.0,
            se_middle=se_middle, se_energy=se_energy, holds=True,
        )
    if energy <= 0.0:
        raise DegenerateInputError("total component energy is zero")
    lower = bound.kappa0 * energy
    upper = bound.lambda_max * energy
    slack_lo = 3.0 * (se_middle + abs(bound.kappa0) * se_energy)
    slack_hi = 3.0 * (se_middle + abs(bound.lambda_max) * se_energy)
    holds = middle >= lower - slack_lo and middle <= upper + slack_hi
    return SandwichReport(
        lower=lower, middle=middle, upper=upper, energy=energy,
        se_middle=se_middle, se_energy=se_energy, holds=bool(holds),
    )
