import itertools
import json

import numpy as np
import pytest

from nlcorr import (
    DimensionMismatchError,
    KernelGrid,
    ValidationError,
    brownian_corr_kernel,
    brownian_lambda_max,
    extreme_eigs,
    full_spectrum,
    nystrom_eigs,
    offdiag_extremes,
    schur,
    schur_power_contraction_check,
)
from nlcorr import spectra
from nlcorr.groups import nested_sum_matrix

SQRT_HALF = np.sqrt(0.5)


class TestSchur:
    def test_identity_squared(self):
        eye = np.eye(4)
        np.testing.assert_array_equal(schur(eye, eye), eye)

    def test_pair_elementwise(self):
        a = np.array([[1.0, 0.8], [0.8, 1.0]])
        np.testing.assert_allclose(schur(a, a), [[1.0, 0.64], [0.64, 1.0]], atol=0)

    def test_ones_is_schur_identity(self):
        r = nested_sum_matrix([1, 2])
        np.testing.assert_array_equal(schur(r, np.ones((2, 2))), r)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            schur(np.eye(2), np.eye(3))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            schur(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


class TestExtremeEigs:
    def test_identity(self):
        for p in (1, 3, 7):
            np.testing.assert_allclose(extreme_eigs(np.eye(p)), (1.0, 1.0), atol=1e-14)

    def test_two_by_two_analytic(self):
        lo, hi = extreme_eigs([[1.0, 0.8], [0.8, 1.0]])
        np.testing.assert_allclose((lo, hi), (0.2, 1.8), atol=1e-12)

    def test_nested_pair_hand_eigenvalues(self):
        # characteristic polynomial of [[1, 1/sqrt2], [1/sqrt2, 1]] by hand
        lo, hi = extreme_eigs(nested_sum_matrix([1, 2]))
        np.testing.assert_allclose((lo, hi), (1 - SQRT_HALF, 1 + SQRT_HALF), atol=1e-12)

    def test_permutation_invariance(self, rng):
        for _ in range(25):
            p = int(rng.integers(2, 9))
            m = spectra.random_corr_matrix(p, rng)
            perm = rng.permutation(p)
            lo1, hi1 = extreme_eigs(m)
            lo2, hi2 = extreme_eigs(m[np.ix_(perm, perm)])
            assert abs(lo1 - lo2) <= 1e-10 and abs(hi1 - hi2) <= 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            extreme_eigs(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_full_spectrum_sorted(self, rng):
        m = spectra.random_corr_matrix(6, rng)
        spec = full_spectrum(m)
        assert np.all(np.diff(spec) >= 0) and spec.size == 6


class TestOffdiagExtremes:
    def test_independent(self):
        np.testing.assert_allclose(offdiag_extremes(np.eye(5)), (0.0, 0.0), atol=1e-12)

    def test_pair(self):
        lo, hi = offdiag_extremes([[1.0, 0.8], [0.8, 1.0]])
        np.testing.assert_allclose((lo, hi), (-0.8, 0.8), atol=1e-12)

    def test_equicorrelated_hand_eigenvalues(self):
        # eigenvalues 1 + (p-1) rho and 1 - rho for the equicorrelated matrix
        sigma = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
        lo, hi = offdiag_extremes(sigma)
        np.testing.assert_allclose((lo, hi), (-0.5, 1.0), atol=1e-12)

    def test_invalid_corr_rejected(self):
        with pytest.raises(ValidationError):
            offdiag_extremes([[1.0, 1.5], [1.5, 1.0]])  # entries beyond 1

    def test_indefinite_rejected(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ValidationError):
            offdiag_extremes(bad)

    def test_equals_offdiagonal_schur_spectrum(self, rng):
        # weighting by 1{j != k} removes the unit diagonal, shifting both
        # extreme eigenvalues down by exactly one
        for _ in range(10):
            p = int(rng.integers(2, 8))
            sigma = spectra.random_corr_matrix(p, rng)
            masked = schur(sigma, np.ones((p, p)) - np.eye(p))
            np.testing.assert_allclose(
                offdiag_extremes(sigma), extreme_eigs(masked), atol=1e-12
            )


class TestContractionCertificate:
    def test_identity_any_power(self):
        cert = schur_power_contraction_check(np.eye(3), np.ones((3, 3)), 5)
        assert cert.holds and cert.margin >= -1e-12
        np.testing.assert_allclose(cert.outer, (1.0, 1.0), atol=1e-12)

    def test_two_by_two_analytic(self):
        sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
        cert = schur_power_contraction_check(sigma, np.ones((2, 2)), 2)
        np.testing.assert_allclose(cert.inner, (0.36, 1.64), atol=1e-12)
        np.testing.assert_allclose(cert.outer, (0.2, 1.8), atol=1e-12)
        assert cert.holds and cert.margin == pytest.approx(0.16, abs=1e-12)

    def test_random_sweep(self, rng):
        for _ in range(60):
            p = int(rng.integers(2, 9))
            sigma = spectra.random_corr_matrix(p, rng)
            w = spectra.random_weight_matrix(p, rng)
            m = int(rng.integers(1, 7))
            assert schur_power_contraction_check(sigma, w, m).holds

    def test_monotone_in_power(self, rng):
        # the outer interval certified at power m contains the one at m + 1
        for _ in range(20):
            p = int(rng.integers(2, 7))
            sigma = spectra.random_corr_matrix(p, rng)
            w = spectra.random_weight_matrix(p, rng)
            lo, hi = extreme_eigs(schur(sigma, w))
            for m in range(1, 7):
                inner = full_spectrum(schur(sigma ** (m + 1), w))
                assert inner[-1] <= hi + 1e-8
                assert inner[0] >= lo - 1e-8

    def test_power_zero_rejected(self):
        with pytest.raises(ValidationError):
            schur_power_contraction_check(np.eye(2), np.ones((2, 2)), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            schur_power_contraction_check(np.eye(2), np.ones((3, 3)), 1)

    def test_certificate_dict_schema(self):
        cert = schur_power_contraction_check(np.eye(2), np.ones((2, 2)), 3)
        d = cert.as_dict()
        assert set(d) == {"holds", "margin", "inner", "outer", "power"}


class TestNystrom:
    def test_constant_kernel_rank_one(self):
        grid = KernelGrid.from_kernel(lambda s, t: np.ones_like(s * t), 64)
        spec = nystrom_eigs(grid)
        assert spec[-1] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(spec[:-1], 0.0, atol=1e-12)

    def test_product_kernel_rank_one(self):
        # lambda_max -> int t^2 dt = 1/3; midpoint error is O(n^-2)
        grid = KernelGrid.from_kernel(lambda s, t: s * t, 200)
        assert nystrom_eigs(grid)[-1] == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_brownian_kernel_values(self):
        assert brownian_corr_kernel(0.3, 0.3) == pytest.approx(1.0, abs=0)
        assert brownian_corr_kernel(0.25, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_brownian_kernel_rejects_origin(self):
        with pytest.raises(ValidationError):
            brownian_corr_kernel(0.0, 0.5)

    def test_brownian_grid_matches_partial_sum_correlations(self):
        # exact enumeration of Corr(S_j/sqrt(j), S_k/sqrt(k)) with Rademacher
        # summands reproduces the kernel on the grid (j/p, k/p)
        p = 10
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=p)))
        sums = np.cumsum(signs, axis=1)
        cov = sums.T @ sums / signs.shape[0]
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        t = np.arange(1, p + 1) / p
        kernel = brownian_corr_kernel(t[:, None], t[None, :])
        np.testing.assert_allclose(corr, kernel, atol=1e-12)

    def test_brownian_lambda_max_monotone_and_capped(self):
        vals = [brownian_lambda_max(n) for n in (100, 200, 400)]
        assert vals[0] > vals[1] > vals[2]
        assert all(v <= SQRT_HALF + 2e-3 for v in vals)

    @pytest.mark.parametrize("n", [2, 3, 50, 200, 1000, 2000])
    def test_brownian_lambda_max_matches_dense_nystrom(self, n):
        dense = nystrom_eigs(KernelGrid.from_kernel(brownian_corr_kernel, n))[-1]
        assert brownian_lambda_max(n) == pytest.approx(dense, abs=1e-13)

    def test_brownian_lambda_max_continuum_limit(self):
        # the operator's top eigenvalue is 4 / j_{0,1}^2; the midpoint grid
        # is 4.1e-11 above it at n = 10^5
        from scipy.special import jn_zeros

        limit = 4.0 / jn_zeros(0, 1)[0] ** 2
        assert brownian_lambda_max(10 ** 5) == pytest.approx(limit, abs=1e-10)

    def test_j01_is_the_first_zero_of_j0(self):
        mpmath = pytest.importorskip("mpmath")
        from scipy.special import jn_zeros

        assert spectra.J01 == float(mpmath.besseljzero(0, 1))
        # scipy's root lies one ulp below the correctly rounded one
        scipy_root = float(jn_zeros(0, 1)[0])
        assert abs(spectra.J01 - scipy_root) <= np.spacing(spectra.J01)

    def test_brownian_lambda_max_repeatable_and_validated(self):
        assert brownian_lambda_max(777) == brownian_lambda_max(777)
        with pytest.raises(ValidationError):
            brownian_lambda_max(1)

    def test_nested_sum_scaling_approaches_operator(self):
        # lambda_max(R_p)/p decreases toward the operator value
        target = brownian_lambda_max(1000)
        gaps = []
        for p in (100, 200, 400):
            r = nested_sum_matrix(list(range(1, p + 1)))
            gaps.append(abs(full_spectrum(r)[-1] / p - target))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            KernelGrid(nodes=np.array([0.5]), weights=np.array([1.0]),
                       values=np.array([[1.0]]))
        with pytest.raises(ValidationError):
            KernelGrid.from_kernel(lambda s, t: s - t, 8)  # asymmetric


class TestMatrixIO:
    def test_json_roundtrip(self, tmp_path):
        m = nested_sum_matrix([1, 2, 5])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spectra.matrix_to_json_dict(m)))
        np.testing.assert_allclose(spectra.load_matrix(path), m, atol=1e-15)

    def test_csv_roundtrip(self, tmp_path):
        m = np.array([[1.0, 0.25], [0.25, 1.0]])
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.25\n0.25,1.0\n")
        np.testing.assert_array_equal(spectra.load_matrix(path), m)

    def test_bad_json_schema(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[1.0]]}')
        with pytest.raises(ValidationError):
            spectra.load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            spectra.load_matrix(tmp_path / "absent.json")
