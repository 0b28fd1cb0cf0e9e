import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import phi_star_loop, quantile_standardize_stable

from nlcorr import (
    BasisSpec,
    CompatibilityQuery,
    CopulaDesign,
    DegenerateInputError,
    ValidationError,
    copula_bound,
    empirical_phi_star,
    pairwise_gaussian_cov,
    sample_design,
    sandwich_check,
)
from nlcorr import ar1_kernel, spectral_extremes
from nlcorr.additive import (
    _probit_uniform,
    _var_with_se,
    quantile_standardize,
    resolve_transform,
)
from nlcorr.hermite import HermiteExpansion


def _equicorr(p, rho):
    return np.full((p, p), rho) + (1 - rho) * np.eye(p)


class TestCopulaBound:
    def test_independent(self):
        b = copula_bound(np.eye(4))
        assert b.kappa0 == pytest.approx(1.0, abs=1e-12)
        assert b.lambda_max == pytest.approx(1.0, abs=1e-12)

    def test_equicorrelated_hand_value(self):
        b = copula_bound(_equicorr(3, 0.5))
        assert b.kappa0 == pytest.approx(0.5, abs=1e-12)
        assert b.lambda_max == pytest.approx(2.0, abs=1e-12)

    def test_ar1_structured_toeplitz_bound(self):
        # finite sections of the autoregressive kernel stay above the
        # spectral infimum (1 - b)/(1 + b) = 1/3
        beta, p = 0.5, 50
        sigma = beta ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        b = copula_bound(sigma)
        inf = spectral_extremes(ar1_kernel(beta)).inf
        assert b.kappa0 >= inf - 1e-12
        assert b.kappa0 == pytest.approx(inf, abs=0.02)

    def test_transform_invariance_by_construction(self):
        # the bound reads only the latent matrix, never the transforms
        sigma = _equicorr(3, 0.4)
        assert copula_bound(sigma).kappa0 == copula_bound(sigma.copy()).kappa0


class TestSampleDesign:
    def test_independent_columns_nearly_uncorrelated(self):
        n = 40_000
        design = CopulaDesign(sigma_z=np.eye(3), transforms=("identity",) * 3, n=n, seed=2)
        x = sample_design(design)
        corr = np.corrcoef(x, rowvar=False)
        off = corr - np.eye(3)
        assert np.max(np.abs(off)) <= 4.0 / math.sqrt(n)

    def test_probit_marginals_uniform(self):
        n = 20_000
        design = CopulaDesign(
            sigma_z=_equicorr(2, 0.6), transforms=("probit_uniform",) * 2, n=n, seed=3
        )
        x = sample_design(design)
        for j in range(2):
            col = np.sort(x[:, j])
            ks = np.max(np.abs(col - (np.arange(1, n + 1) - 0.5) / n))
            assert ks <= 1.63 / math.sqrt(n)  # 1% critical value

    def test_deterministic_under_seed(self):
        design = CopulaDesign(sigma_z=_equicorr(2, 0.3), transforms=("identity", "exp"),
                              n=100, seed=7)
        np.testing.assert_array_equal(sample_design(design), sample_design(design))

    def test_latent_matches_design_draws(self):
        # every transform reads the latent table of the identity design
        latent = sample_design(CopulaDesign(sigma_z=_equicorr(2, 0.3),
                                            transforms=("identity",) * 2, n=50, seed=7))
        design = CopulaDesign(sigma_z=_equicorr(2, 0.3), transforms=("identity", "exp"),
                              n=50, seed=7)
        x = sample_design(design)
        np.testing.assert_array_equal(x[:, 0], latent[:, 0])
        np.testing.assert_array_equal(x[:, 1], np.exp(latent[:, 1]))

    def test_tabulated_transform(self):
        f = resolve_transform(([-1.0, 0.0, 2.0], [0.0, 1.0, 5.0]))
        np.testing.assert_array_equal(f(np.array([-3.0, -0.5, 1.0, 9.0])),
                                      [0.0, 0.5, 3.0, 5.0])
        with pytest.raises(ValidationError):  # x decreasing
            CopulaDesign(sigma_z=np.eye(2), transforms=(([1.0, 0.0], [0.0, 1.0]), "identity"),
                         n=5)

    def test_singular_latent_matrix_still_samples(self):
        # comonotone latent coordinates: PSD but rank one
        design = CopulaDesign(sigma_z=np.ones((2, 2)), transforms=("identity",) * 2,
                              n=10, seed=0)
        x = sample_design(design)
        np.testing.assert_allclose(x[:, 0], x[:, 1], atol=1e-12)

    def test_transform_catalog_validated(self):
        with pytest.raises(ValidationError):
            CopulaDesign(sigma_z=np.eye(2), transforms=("identity", "warp"), n=5)


def _ulps(a, b):
    """Distance in units in the last place between nonnegative float64 arrays."""
    return np.abs(np.asarray(a, float).view(np.int64) - np.asarray(b, float).view(np.int64))


class TestNormalCdf:
    """The numpy port of cephes ``ndtr`` behind ``probit_uniform``."""

    def test_within_4_ulp_of_scipy(self):
        from scipy.special import ndtr

        # below -37.5 scipy's values are subnormal or 0 (its underflow cut)
        grid = np.linspace(-37.5, 40.0, 3_000_001)
        draws = np.random.default_rng(0).standard_normal(1_000_000)
        for z in (*np.array_split(grid, 6), *np.array_split(draws, 2)):
            want = ndtr(z)
            assert np.all(want >= np.finfo(float).tiny)
            assert _ulps(_probit_uniform(z), want).max() <= 4

    def test_lower_tail_no_worse_than_scipy(self):
        mpmath = pytest.importorskip("mpmath")
        from scipy.special import ndtr

        z = np.linspace(-37.5, 0.0, 4000)
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in z])
        ours, theirs = _ulps(_probit_uniform(z), exact), _ulps(ndtr(z), exact)
        # both err by rounding exp(-z^2 / 2), up to ~1900 ulp far down the
        # tail; the two exp implementations round differently by a few ulp
        assert np.all(ours <= theirs + 4)

    def test_edge_values(self):
        z = np.array([np.inf, -np.inf, 1e300, -1e300, 40.0, -40.0, 0.0, -0.0, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _probit_uniform(z)
        np.testing.assert_array_equal(got, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.5, 0.5, np.nan])

    def test_keeps_shape(self):
        z = np.array([[-3.0, 0.5], [2.0, 9.0]])
        got = _probit_uniform(z)
        assert got.shape == z.shape
        np.testing.assert_array_equal(got.ravel(), _probit_uniform(z.ravel()))

    def test_non_decreasing_across_branch_switches(self):
        # the erf/erfc switch sits at |z| = sqrt(2), the P/Q to R/S one at 8 sqrt(2)
        for centre in (-8.0 * math.sqrt(2.0), -math.sqrt(2.0), math.sqrt(2.0),
                       8.0 * math.sqrt(2.0)):
            z = np.linspace(centre - 1e-6, centre + 1e-6, 1_000_001)
            assert np.all(np.diff(_probit_uniform(z)) >= 0.0), centre
        z = np.linspace(-40.0, 40.0, 2_000_001)
        assert np.all(np.diff(_probit_uniform(z)) >= 0.0)

    def test_probit_design_matches_scipy_on_latent_draws(self):
        from scipy.special import ndtr

        design = CopulaDesign(sigma_z=_equicorr(3, 0.6), transforms=("probit_uniform",) * 3,
                              n=50_000, seed=5)
        latent = sample_design(CopulaDesign(sigma_z=design.sigma_z,
                                            transforms=("identity",) * 3, n=50_000, seed=5))
        assert _ulps(sample_design(design), ndtr(latent)).max() <= 4


class TestQuantileStandardize:
    def test_range_and_balance(self, rng):
        x = rng.standard_normal((1000, 2))
        u = quantile_standardize(x)
        assert u.min() > 0.0 and u.max() < 1.0
        counts, _ = np.histogram(u[:, 0], bins=8, range=(0, 1))
        assert counts.min() == counts.max() == 125

    def test_ranks_equal_the_stable_sort(self, rng):
        n = 5000
        signed_zero = rng.integers(0, 3, n).astype(float)
        signed_zero[signed_zero == 1.0] = -0.0
        signed_zero[signed_zero == 2.0] = 0.0
        with_nan = np.round(rng.standard_normal(n), 1)
        with_nan[rng.random(n) < 0.2] = np.nan
        data = np.column_stack([
            rng.standard_normal(n),
            rng.integers(0, 4, n).astype(float),  # heavy ties
            np.round(rng.standard_normal(n), 1),
            signed_zero,
            with_nan,
            np.full(n, np.nan),
            np.full(n, 2.5),
        ])
        np.testing.assert_array_equal(quantile_standardize(data),
                                      quantile_standardize_stable(data))
        for rows in (0, 1, 2):
            np.testing.assert_array_equal(quantile_standardize(data[:rows]),
                                          quantile_standardize_stable(data[:rows]))


class TestEmpiricalPhiStar:
    def test_single_block_ratio_is_one(self, rng):
        data = rng.standard_normal((5000, 1))
        rep = empirical_phi_star(
            data, BasisSpec("histogram", 8), CompatibilityQuery(active=(0,), xi0=3.0, q=1),
            n_dirs=20, seed=1,
        )
        assert rep.phi_hat == pytest.approx(1.0, abs=1e-9)
        assert rep.degenerate_cone  # every variable is active

    def test_independent_design_near_one(self):
        design = CopulaDesign(sigma_z=np.eye(3), transforms=("identity",) * 3,
                              n=100_000, seed=11)
        data = sample_design(design)
        rep = empirical_phi_star(
            data, BasisSpec("histogram", 8), CompatibilityQuery(active=(0,), xi0=3.0, q=1),
            n_dirs=150, seed=2,
        )
        assert rep.phi_hat >= 1.0 - 0.1

    def test_equicorrelated_clears_latent_bound(self):
        sigma = _equicorr(3, 0.5)
        design = CopulaDesign(
            sigma_z=sigma, transforms=("identity", "probit_uniform", "exp"),
            n=100_000, seed=21,
        )
        data = sample_design(design)
        for q in (1, 2):
            rep = empirical_phi_star(
                data, BasisSpec("histogram", 8),
                CompatibilityQuery(active=(0,), xi0=3.0, q=q),
                n_dirs=150, seed=3,
            )
            assert rep.phi_hat >= 0.5 - 3.0 * rep.se
            assert rep.se > 0.0

    def test_ar1_latent_design_clears_spectral_bound(self):
        # the eigen-direction candidate should land near lambda_min(sigma_z)
        # for the q = 2 form on a correlated six-variable design
        beta, p = 0.5, 6
        sigma = beta ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        design = CopulaDesign(sigma_z=sigma, transforms=("identity",) * p,
                              n=50_000, seed=31)
        data = sample_design(design)
        rep = empirical_phi_star(
            data, BasisSpec("histogram", 6),
            CompatibilityQuery(active=(0, 3), xi0=3.0, q=2),
            n_dirs=100, seed=8,
        )
        kappa0 = copula_bound(sigma).kappa0
        assert rep.phi_hat >= kappa0 - 3.0 * rep.se
        assert rep.phi_hat <= copula_bound(sigma).lambda_max + 0.1

    def test_deterministic(self, rng):
        data = rng.standard_normal((4000, 2))
        basis = BasisSpec("histogram", 6)
        query = CompatibilityQuery(active=(0,), xi0=2.0, q=2)
        r1 = empirical_phi_star(data, basis, query, n_dirs=40, seed=5)
        r2 = empirical_phi_star(data, basis, query, n_dirs=40, seed=5)
        assert r1.phi_hat == r2.phi_hat and r1.se == r2.se

    def test_poly_basis_supported(self, rng):
        data = rng.standard_normal((3000, 2))
        rep = empirical_phi_star(
            data, BasisSpec("poly", 3), CompatibilityQuery(active=(0,), xi0=3.0, q=2),
            n_dirs=30, seed=9,
        )
        assert math.isfinite(rep.phi_hat) and rep.phi_hat > 0

    def test_active_set_validated(self, rng):
        data = rng.standard_normal((100, 2))
        with pytest.raises(ValidationError):
            empirical_phi_star(
                data, BasisSpec("histogram", 4),
                CompatibilityQuery(active=(5,), xi0=1.0, q=1),
            )
        with pytest.raises(ValidationError):
            CompatibilityQuery(active=(), xi0=1.0, q=1)
        with pytest.raises(ValidationError):
            CompatibilityQuery(active=(0,), xi0=-1.0, q=1)


class TestPhiStarAgainstLoop:
    """Batched scoring and the weighted bootstrap against the one-at-a-time loop."""

    @pytest.fixture(scope="class")
    def data(self):
        beta, p = 0.6, 8
        sigma = beta ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        design = CopulaDesign(sigma_z=sigma, transforms=("identity", "exp") * 4,
                              n=4000, seed=4)
        return sample_design(design)

    @pytest.mark.parametrize("basis", [BasisSpec("histogram", 8), BasisSpec("poly", 3)],
                             ids=["histogram", "poly"])
    @pytest.mark.parametrize("active", [(0,), (0, 3), tuple(range(8))],
                             ids=["one", "two", "all"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_same_report_as_loop(self, data, basis, active, q):
        query = CompatibilityQuery(active=active, xi0=3.0, q=q)
        rep = empirical_phi_star(data, basis, query, n_dirs=150, seed=7, n_boot=32)
        ref = phi_star_loop(data, basis, query, n_dirs=150, seed=7, n_boot=32)
        assert rep.phi_hat == pytest.approx(ref["phi_hat"], rel=1e-12)
        # the eigen-direction candidate is defined up to its sign
        got, want = rep.argmin_direction, ref["argmin_direction"]
        np.testing.assert_allclose(np.sign(got @ want) * got, want,
                                   rtol=0, atol=1e-12 * np.abs(want).max())
        assert rep.n_directions == ref["n_directions"]
        assert rep.argmin_in_cone == ref["argmin_in_cone"]
        assert rep.se == pytest.approx(ref["se"], rel=1e-10)


def _exact_var_se(v) -> tuple[float, float, float]:
    """Variance, the standard error of its plug-in estimate, and the scale
    (m4 + var^2)/n of the rounding error in se^2, from exact rationals."""
    vals = [Fraction(float(x)) for x in v]
    n = len(vals)
    mean = sum(vals) / n
    dev = [x - mean for x in vals]
    var = sum(d * d for d in dev) / n
    m4 = sum(d ** 4 for d in dev) / n
    return float(var), math.sqrt(float((m4 - var * var) / n)), float((m4 + var * var) / n)


class TestMonteCarloMoments:
    def test_exact_on_dyadic_samples(self, rng):
        # quarter-integers with n a power of two: the mean, the deviations and
        # their powers and sums are exact floats, so only the last steps round
        for n in (4, 16, 64):
            v = rng.integers(-8, 9, size=n) / 4.0
            var, se = _var_with_se(v)
            want_var, want_se, _ = _exact_var_se(v)
            assert var == pytest.approx(want_var, rel=1e-15)
            assert se == pytest.approx(want_se, rel=1e-15)

    def test_close_to_exact_on_random_samples(self, rng):
        for n in (5, 16, 50, 101):
            v = 3.0 + rng.uniform(0.1, 10.0) * rng.standard_normal(n)
            var, se = _var_with_se(v)
            want_var, want_se, scale = _exact_var_se(v)
            assert var == pytest.approx(want_var, rel=1e-15)
            # se^2 = (m4 - var^2)/n cancels; each term carries a few roundings
            assert abs(se ** 2 - want_se ** 2) <= 16 * np.finfo(float).eps * scale


class TestSandwich:
    def test_equal_components_all_zero(self):
        rep = sandwich_check(
            _equicorr(3, 0.5), ("identity",) * 3, ["square"] * 3, ["square"] * 3,
            n_mc=20_000, seed=1,
        )
        assert rep.holds
        assert rep.lower == rep.middle == rep.upper == 0.0

    def test_single_active_block_middle_equals_energy(self):
        rep = sandwich_check(
            _equicorr(3, 0.5), ("identity",) * 3,
            ["zero", "zero", "zero"], ["hermite2", "zero", "zero"],
            n_mc=50_000, seed=2,
        )
        assert rep.holds
        assert rep.middle == pytest.approx(rep.energy, abs=1e-12)

    def test_hermite_differences_match_closed_form(self):
        # middle = sum_{jk} rho_jk^2 by the pairwise-Gaussian covariance rule
        sigma = _equicorr(3, 0.5)
        rep = sandwich_check(
            sigma, ("identity",) * 3, ["zero"] * 3, ["hermite2"] * 3,
            n_mc=400_000, seed=3,
        )
        e2 = HermiteExpansion.unit(2, 4)
        want = sum(
            pairwise_gaussian_cov(e2, e2, sigma[j, k]) for j in range(3) for k in range(3)
        )
        assert want == pytest.approx(4.5, abs=1e-12)
        assert rep.middle == pytest.approx(want, abs=6 * rep.se_middle)
        assert rep.lower <= rep.middle <= rep.upper
        assert rep.holds

    def test_deterministic_reports(self):
        kwargs = dict(n_mc=10_000, seed=9)
        r1 = sandwich_check(_equicorr(2, 0.3), ("identity",) * 2, ["zero"] * 2,
                            ["cube"] * 2, **kwargs)
        r2 = sandwich_check(_equicorr(2, 0.3), ("identity",) * 2, ["zero"] * 2,
                            ["cube"] * 2, **kwargs)
        assert r1 == r2

    def test_component_count_mismatch(self):
        with pytest.raises(Exception):
            sandwich_check(_equicorr(2, 0.3), ("identity",) * 2, ["zero"], ["cube"] * 2)
