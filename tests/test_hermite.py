import math

import numpy as np
import pytest

from nlcorr import (
    CoefficientOverflowError,
    DegenerateInputError,
    HermiteExpansion,
    ValidationError,
    expand,
    gauss_hermite_rule,
    hermite_eval,
    nl_gram,
    pairwise_gaussian_cov,
)
from nlcorr import spectra
from nlcorr.hermite import hermite_design, piecewise_linear, resolve_function


def _hand_hermite(m, x):
    # normalized family written out by differentiating the Rodrigues form
    x = np.asarray(x, dtype=float)
    table = {
        0: np.ones_like(x),
        1: x,
        2: (x ** 2 - 1) / math.sqrt(2),
        3: (x ** 3 - 3 * x) / math.sqrt(6),
        4: (x ** 4 - 6 * x ** 2 + 3) / math.sqrt(24),
        5: (x ** 5 - 10 * x ** 3 + 15 * x) / math.sqrt(120),
    }
    return table[m]


class TestHermiteEval:
    def test_first_is_identity(self):
        x = np.linspace(-3, 3, 21)
        np.testing.assert_array_equal(hermite_eval(1, x), x)

    def test_second_root_at_one(self):
        assert hermite_eval(2, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert isinstance(hermite_eval(2, 1.0), float)
        assert isinstance(hermite_eval(0, 1.0), float)

    def test_third_root_at_sqrt3(self):
        assert hermite_eval(3, math.sqrt(3.0)) == pytest.approx(0.0, abs=1e-14)

    def test_recurrence_matches_hand_formulas(self):
        x = np.linspace(-4, 4, 33)
        for m in range(6):
            np.testing.assert_allclose(hermite_eval(m, x), _hand_hermite(m, x),
                                       atol=1e-12, rtol=1e-12)

    def test_design_table_consistent(self):
        x = np.linspace(-2, 2, 9)
        d = hermite_design(x, 8)
        for m in range(9):
            np.testing.assert_allclose(d[:, m], hermite_eval(m, x), atol=1e-13)

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            hermite_eval(-1, 0.0)


class TestQuadrature:
    def test_one_point_rule(self):
        rule = gauss_hermite_rule(1)
        np.testing.assert_array_equal(rule.nodes, [0.0])
        np.testing.assert_array_equal(rule.weights, [1.0])

    def test_two_point_rule(self):
        # matching moments 1, 0, 1 by hand gives nodes +-1, weights 1/2
        rule = gauss_hermite_rule(2)
        np.testing.assert_allclose(np.sort(rule.nodes), [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)

    def test_fourth_moment_with_three_nodes(self):
        rule = gauss_hermite_rule(3)
        assert rule.integrate(lambda x: x ** 4) == pytest.approx(3.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        for n in (1, 2, 5, 20, 40, 64):
            assert abs(gauss_hermite_rule(n).weights.sum() - 1.0) <= 1e-13

    def test_exact_for_normal_moments(self):
        # E Z^{2k} = (2k-1)!!, exact up to degree 2n - 1
        rule = gauss_hermite_rule(8)
        moment = 1.0
        for k in range(1, 8):
            moment *= 2 * k - 1
            got = rule.integrate(lambda x, k=k: x ** (2 * k))
            assert got == pytest.approx(moment, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 8, 64, 200])
    def test_matches_numpy_hermegauss(self, n):
        # tail weights below ~1e-20 carry no relative accuracy in either
        # Golub-Welsch implementation, so weights are compared absolutely
        from numpy.polynomial.hermite_e import hermegauss

        nodes, weights = hermegauss(n)
        rule = gauss_hermite_rule(n)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rule.weights, weights / weights.sum(), rtol=0, atol=1e-14)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValidationError):
            gauss_hermite_rule(0)

    def test_orthonormality(self):
        rule = gauss_hermite_rule(40)
        design = hermite_design(rule.nodes, 10)
        gram = design.T @ (rule.weights[:, None] * design)
        assert np.max(np.abs(gram - np.eye(11))) <= 1e-10


class TestExpand:
    def test_linear(self):
        rule = gauss_hermite_rule(32)
        e = expand(lambda x: x, 8, rule)
        assert e.coeffs[0] == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(e.coeffs[1:], 0.0, atol=1e-12)

    def test_centered_square(self):
        # <x^2 - 1, (x^2 - 1)/sqrt(2)> = sqrt(2) by hand
        rule = gauss_hermite_rule(32)
        e = expand(lambda x: x ** 2 - 1.0, 8, rule)
        assert e.coeffs[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        others = np.delete(e.coeffs, 1)
        np.testing.assert_allclose(others, 0.0, atol=1e-12)
        assert e.mean == pytest.approx(0.0, abs=1e-12)

    def test_cube(self):
        # x^3 = 3 H_1 + sqrt(6) H_3 by hand
        rule = gauss_hermite_rule(32)
        e = expand(lambda x: x ** 3, 8, rule)
        assert e.coeffs[0] == pytest.approx(3.0, abs=1e-11)
        assert e.coeffs[2] == pytest.approx(math.sqrt(6.0), abs=1e-11)

    def test_parseval_for_polynomials(self, rng):
        rule = gauss_hermite_rule(40)
        for _ in range(10):
            coeffs = rng.standard_normal(7)
            raw = lambda x, c=coeffs: np.polyval(c, x)
            scale = math.sqrt(rule.integrate(lambda x: raw(x) ** 2))
            f = lambda x: raw(x) / scale  # unit second moment
            e = expand(f, 8, rule)
            assert e.mean ** 2 + e.norm2 == pytest.approx(1.0, abs=1e-10)
            assert e.tail_mass <= 1e-10

    def test_tail_mass_reported_for_truncation(self):
        rule = gauss_hermite_rule(48)
        e = expand(lambda x: np.sign(x), 4, rule)
        assert e.tail_mass > 0.01  # the sign function has slow Hermite decay

    def test_overflow_rejected(self):
        rule = gauss_hermite_rule(64)
        with pytest.raises(CoefficientOverflowError):
            expand(lambda x: np.exp(x ** 4), 4, rule)

    def test_under_resolved_rule_rejected(self):
        with pytest.raises(ValidationError):
            expand(lambda x: x, 8, gauss_hermite_rule(8))

    def test_json_roundtrip(self):
        e = HermiteExpansion(coeffs=np.array([1.0, 0.5, 0.0]))
        again = HermiteExpansion.from_json_dict(e.to_json_dict())
        np.testing.assert_array_equal(again.coeffs, e.coeffs)


class TestPairwiseGaussianCov:
    def test_linear_pair(self):
        a = HermiteExpansion.unit(1, 4)
        for rho in (-0.7, 0.0, 0.3):
            assert pairwise_gaussian_cov(a, a, rho) == pytest.approx(rho, abs=1e-15)

    def test_quadratic_pair_gives_rho_squared(self):
        a = HermiteExpansion.unit(2, 4)
        assert pairwise_gaussian_cov(a, a, 0.6) == pytest.approx(0.36, abs=1e-15)

    def test_cross_orders_vanish(self):
        a = HermiteExpansion.unit(1, 4)
        b = HermiteExpansion.unit(2, 4)
        assert pairwise_gaussian_cov(a, b, 0.9) == 0.0

    def test_matches_two_dimensional_quadrature(self):
        # independent oracle: integrate H_m(x) H_n(rho x + sqrt(1-rho^2) y)
        # against the product normal with a tensor rule
        rule = gauss_hermite_rule(40)
        x, wx = rule.nodes, rule.weights
        for rho in (-0.9, 0.3):
            s = math.sqrt(1.0 - rho * rho)
            for m in range(1, 5):
                for n in range(1, 5):
                    vals = np.array(
                        [
                            wx @ hermite_eval(n, rho * xi + s * x)
                            for xi in x
                        ]
                    )
                    got = float((wx * hermite_eval(m, x)) @ vals)
                    want = rho ** m if m == n else 0.0
                    assert got == pytest.approx(want, abs=1e-9)

    def test_rho_out_of_range(self):
        a = HermiteExpansion.unit(1, 2)
        with pytest.raises(ValidationError):
            pairwise_gaussian_cov(a, a, 1.5)


class TestNlGram:
    def test_linear_transforms_reproduce_sigma(self, rng):
        sigma = spectra.random_corr_matrix(4, rng)
        exps = [HermiteExpansion.unit(1, 8) for _ in range(4)]
        gram = nl_gram(sigma, exps, np.ones((4, 4)))
        np.testing.assert_array_equal(gram, sigma)

    def test_quadratic_pair(self):
        sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
        exps = [HermiteExpansion.unit(2, 8)] * 2
        gram = nl_gram(sigma, exps, np.ones((2, 2)))
        np.testing.assert_allclose(gram, [[1.0, 0.36], [0.36, 1.0]], atol=1e-15)

    def test_spectrum_containment_sweep(self, rng):
        for _ in range(40):
            p = int(rng.integers(2, 7))
            sigma = spectra.random_corr_matrix(p, rng)
            w = spectra.random_weight_matrix(p, rng)
            exps = [
                HermiteExpansion(coeffs=rng.standard_normal(8)) for _ in range(p)
            ]
            lo, hi = spectra.extreme_eigs(sigma * w)
            inner = spectra.full_spectrum(nl_gram(sigma, exps, w))
            assert inner[0] >= lo - 1e-8 and inner[-1] <= hi + 1e-8

    def test_mixed_truncation_orders_pad_with_zeros(self):
        sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
        short = HermiteExpansion(coeffs=np.array([1.0]))          # H_1
        long = HermiteExpansion(coeffs=np.array([0.0, 1.0, 0.0]))  # H_2
        gram = nl_gram(sigma, [short, long], np.ones((2, 2)))
        # cross orders vanish, so the off-diagonal correlation is zero
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-15)

    def test_zero_norm_rejected(self, rng):
        sigma = spectra.random_corr_matrix(2, rng)
        exps = [HermiteExpansion.unit(1, 4), HermiteExpansion(coeffs=np.zeros(4))]
        with pytest.raises(DegenerateInputError):
            nl_gram(sigma, exps, np.ones((2, 2)))

    def test_expansion_count_mismatch(self, rng):
        sigma = spectra.random_corr_matrix(3, rng)
        with pytest.raises(ValidationError):
            nl_gram(sigma, [HermiteExpansion.unit(1, 2)], np.ones((3, 3)))


class TestFunctionCatalog:
    def test_plain_names(self):
        x = np.array([-1.5, 0.0, 2.0])
        np.testing.assert_array_equal(resolve_function("identity")(x), x)
        np.testing.assert_array_equal(resolve_function("square")(x), x ** 2)
        np.testing.assert_array_equal(resolve_function("sign")(x), np.sign(x))

    def test_indicator(self):
        f = resolve_function("indicator:0.5")
        np.testing.assert_array_equal(f(np.array([0.0, 1.0])), [0.0, 1.0])

    def test_piecewise_table(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("-1.0,-2.0\n1.0,2.0\n")
        f = resolve_function(f"table:{path}")
        assert f(0.0) == pytest.approx(0.0)
        assert f(0.5) == pytest.approx(1.0)

    def test_piecewise_requires_increasing(self):
        with pytest.raises(ValidationError):
            piecewise_linear([1.0, 0.0], [0.0, 1.0])

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            resolve_function("sqrtish")
