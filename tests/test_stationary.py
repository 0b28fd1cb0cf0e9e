import math

import numpy as np
import pytest

from nlcorr import (
    ValidationError,
    ar1_kernel,
    circulant_cross_check,
    ou_kernel,
    spectral_density,
    spectral_extremes,
    table_kernel,
)
from nlcorr.stationary import DecayBound, StationaryKernel


class TestNamedKernels:
    def test_ar1_requires_contraction(self):
        with pytest.raises(ValidationError):
            ar1_kernel(1.0)
        with pytest.raises(ValidationError):
            ar1_kernel(-1.2)

    def test_ar1_density_values(self):
        k = ar1_kernel(0.5)
        # (1 - 0.25) / (1.25 - cos w) at w = 0 and pi
        assert spectral_density(k, 0.0) == pytest.approx(3.0, abs=1e-15)
        assert spectral_density(k, math.pi) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_ou_density_values(self):
        k = ou_kernel()
        assert spectral_density(k, 0.0) == pytest.approx(2.0, abs=1e-15)
        assert spectral_density(k, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_white_noise_flat(self):
        k = ar1_kernel(0.0)
        ext = spectral_extremes(k)
        assert (ext.inf, ext.sup) == (1.0, 1.0)

    def test_ar1_closed_form_extremes(self):
        ext = spectral_extremes(ar1_kernel(0.5))
        assert ext.sup == pytest.approx(3.0, abs=1e-15)
        assert ext.inf == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert ext.arg_sup == 0.0 and ext.arg_inf == math.pi
        assert ext.sup_attained and ext.inf_attained

    def test_negative_beta_swaps_argmax(self):
        ext = spectral_extremes(ar1_kernel(-0.5))
        assert ext.sup == pytest.approx(3.0, abs=1e-15)
        assert ext.arg_sup == math.pi and ext.arg_inf == 0.0

    def test_ou_extremes(self):
        ext = spectral_extremes(ou_kernel())
        assert (ext.inf, ext.sup) == (0.0, 2.0)
        assert ext.sup_attained and not ext.inf_attained
        assert ext.arg_inf is None

    def test_reciprocal_product(self):
        for beta in (0.1, 0.35, 0.8, -0.6):
            ext = spectral_extremes(ar1_kernel(beta))
            assert ext.sup * ext.inf == pytest.approx(1.0, abs=1e-10)

    def test_named_densities_nonnegative(self):
        w = np.linspace(-math.pi, math.pi, 201)
        assert np.all(np.asarray(spectral_density(ar1_kernel(0.7), w)) >= 0)
        wl = np.linspace(-20, 20, 201)
        assert np.all(np.asarray(spectral_density(ou_kernel(), wl)) >= 0)


class TestTabulatedKernels:
    def _ar1_table(self, beta=0.5, radius=80):
        vals = beta ** np.arange(radius + 1)
        return table_kernel("lattice", vals, DecayBound(C=1.0, r=beta))

    def test_grid_extremes_match_closed_form(self):
        k = self._ar1_table()
        ext = spectral_extremes(k)
        tol = k.tail_bound() + 1e-6
        assert abs(ext.sup - 3.0) <= tol
        assert abs(ext.inf - 1.0 / 3.0) <= tol

    def test_density_even_in_omega(self, rng):
        k = self._ar1_table()
        w = rng.uniform(0, math.pi, size=16)
        np.testing.assert_allclose(
            spectral_density(k, w), spectral_density(k, -w), atol=1e-14
        )

    def test_lattice_frequency_domain_enforced(self):
        with pytest.raises(ValidationError):
            spectral_density(self._ar1_table(), 4.0)

    def test_sign_changing_density_flagged(self):
        k = table_kernel("lattice", [1.0, -0.8])
        ext = spectral_extremes(k)
        assert ext.sign_change
        assert ext.sup == pytest.approx(2.6, abs=1e-9)
        assert ext.inf == pytest.approx(0.0, abs=1e-6)  # |K*| crosses zero

    def test_line_table_against_exponential_closed_form(self):
        # line tables hold unit-spaced samples K(0), K(1), ...; quadrature on
        # the interpolant should track 2/(1 + w^2) at interpolation accuracy
        k = table_kernel(
            "line", np.exp(-np.arange(0.0, 45.0)), DecayBound(C=1.0, r=math.exp(-1.0))
        )
        for w in (0.0, 0.7, 1.5):
            want = 2.0 / (1.0 + w * w)
            assert abs(spectral_density(k, w) - want) <= 0.2

    def test_line_table_sup_is_twice_trapezoid(self):
        # a nonnegative table peaks at omega = 0, where the transform of the
        # interpolant is the trapezoid rule
        vals = np.exp(-np.arange(0.0, 45.0))
        k = table_kernel("line", vals, DecayBound(C=1.0, r=math.exp(-1.0)))
        ext = spectral_extremes(k)
        assert ext.arg_sup == 0.0
        assert ext.sup == pytest.approx(2.0 * np.trapezoid(vals), rel=1e-15)

    def test_scan_resolves_a_density_zero(self):
        # |1 - 1.6 cos w| has its infimum 0 at the kink w = arccos(0.625)
        ext = spectral_extremes(table_kernel("lattice", [1.0, -0.8]))
        assert ext.inf <= 1e-12
        assert ext.arg_inf == pytest.approx(math.acos(0.625), abs=1e-11)

    def test_repeated_scans_identical(self):
        k = self._ar1_table()
        assert spectral_extremes(k) == spectral_extremes(k)
        line = table_kernel("line", [1.0, 0.3, -0.2, 0.1])
        assert spectral_extremes(line) == spectral_extremes(line)

    @pytest.mark.parametrize("domain, values", [("lattice", [1.0, 0.5, 0.25]),
                                                 ("line", [1.0, 0.5, 0.0])])
    def test_scan_needs_two_grid_points(self, domain, values):
        k = table_kernel(domain, values)
        for n_points in (0, 1):
            with pytest.raises(ValidationError, match="n_points"):
                spectral_extremes(k, n_points=n_points)
        # 1 + cos w + cos(2w)/2 peaks at 2.5 (w = 0) and bottoms out at 1/4 (w = 2pi/3);
        # the hat 1 - |t|/2 has the transform 4 sin^2(w) / w^2, peaking at 2
        ext = spectral_extremes(k, n_points=2)
        assert ext.sup == pytest.approx(2.5 if domain == "lattice" else 2.0, abs=1e-12)
        if domain == "lattice":
            assert ext.inf == pytest.approx(0.25, abs=1e-12)

    def test_non_summable_rejected(self):
        with pytest.raises(ValidationError):
            DecayBound(C=1.0, r=1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            StationaryKernel(domain="lattice", name="arma")


class TestCrossCheck:
    def test_ar1_finite_section_converges(self):
        rep = circulant_cross_check(ar1_kernel(0.5), 400)
        assert 2.9 <= rep.toeplitz_max <= 3.0
        assert rep.spectral_sup == pytest.approx(3.0, abs=1e-15)

    def test_trivial_white_noise_section(self):
        rep = circulant_cross_check(ar1_kernel(0.0), 2)
        assert rep.toeplitz_min == pytest.approx(1.0, abs=1e-15)
        assert rep.toeplitz_max == pytest.approx(1.0, abs=1e-15)

    def test_gap_shrinks_with_refinement(self):
        g400 = circulant_cross_check(ar1_kernel(0.5), 400).gap
        g800 = circulant_cross_check(ar1_kernel(0.5), 800).gap
        assert g800 <= g400

    def test_sections_stay_inside_the_density_range(self):
        for beta in (0.3, 0.7):
            rep = circulant_cross_check(ar1_kernel(beta), 200)
            assert rep.toeplitz_max <= rep.spectral_sup + 1e-10
            assert rep.toeplitz_min >= rep.spectral_inf - 1e-10

    def test_line_kernel_rejected(self):
        with pytest.raises(ValidationError):
            circulant_cross_check(ou_kernel(), 10)


class TestLineTransform:
    """The closed-form cosine transform of a piecewise-linear line table."""

    FREQS = [0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.49, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.51, 1.0,
             10.0, 100.0]

    @staticmethod
    def _segmentwise(values, w):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            w = mpmath.mpf(w)
            total = mpmath.mpf(0)
            for a in range(len(values) - 1):
                fa, fb = mpmath.mpf(values[a]), mpmath.mpf(values[a + 1])
                total += mpmath.quad(
                    lambda s: (fa + (fb - fa) * (s - a)) * mpmath.cos(w * s), [a, a + 1])
            return float(2 * total)

    def test_matches_high_precision_integral(self):
        vals = [1.0, 0.62, -0.15, 0.4, 0.05, 0.0]
        k = table_kernel("line", vals)
        got = spectral_density(k, self.FREQS)
        want = [self._segmentwise(vals, w) for w in self.FREQS]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_even_and_trapezoid_at_zero(self):
        vals = np.array([1.0, 0.62, -0.15, 0.4, 0.05, 0.0])
        k = table_kernel("line", vals)
        w = np.array(self.FREQS)
        np.testing.assert_array_equal(spectral_density(k, -w), spectral_density(k, w))
        assert spectral_density(k, 0.0) == pytest.approx(2.0 * np.trapezoid(vals), rel=1e-15)

    def test_single_value_table_is_zero(self):
        # a radius-0 line table is the zero function off the origin
        assert spectral_density(table_kernel("line", [1.0]), [0.0, 2.0]).tolist() == [0.0, 0.0]


class TestKacMurdockSzego:
    @pytest.mark.parametrize("n", [1, 2, 3, 20, 400, 2000])
    def test_ar1_section_matches_dense(self, n):
        idx = np.arange(n)
        for beta in (-0.99, -0.5, 0.0, 0.1, 0.5, 0.9, 0.99):
            rep = circulant_cross_check(ar1_kernel(beta), n)
            dense = np.linalg.eigvalsh(beta ** np.abs(idx[:, None] - idx[None, :]))
            assert rep.toeplitz_min == pytest.approx(dense[0], rel=1e-12, abs=0)
            assert rep.toeplitz_max == pytest.approx(dense[-1], rel=1e-12, abs=0)

    def test_repeatable(self):
        k = ar1_kernel(0.73)
        assert circulant_cross_check(k, 999) == circulant_cross_check(k, 999)

    def test_table_section_matches_named_kernel(self):
        # the dense path for tables and the KMS path agree on the same kernel
        tab = table_kernel("lattice", 0.6 ** np.arange(300))
        rep = circulant_cross_check(tab, 250)
        kms = circulant_cross_check(ar1_kernel(0.6), 250)
        assert rep.toeplitz_min == pytest.approx(kms.toeplitz_min, rel=1e-12)
        assert rep.toeplitz_max == pytest.approx(kms.toeplitz_max, rel=1e-12)
