"""Hand values for the benchmark's independent references."""

import math

import numpy as np
import pytest

import references as ref

SQRT_HALF = math.sqrt(0.5)


def test_nested_matrix_pair_is_sqrt_half():
    r = ref.nested_matrix([1, 2])
    assert r[0, 1] == pytest.approx(SQRT_HALF, abs=1e-15)
    assert ref.extreme_eigs(r) == pytest.approx((1 - SQRT_HALF, 1 + SQRT_HALF), abs=1e-15)


def test_group_r1_of_nested_groups_is_the_nested_matrix():
    groups = [range(1, m + 1) for m in (1, 3, 4)]
    np.testing.assert_allclose(ref.group_r1(groups), ref.nested_matrix([1, 3, 4]), atol=1e-15)


def test_shadow_ok():
    assert ref.shadow_ok([[1, 2], [1, 3]], [[2], [3]])
    assert not ref.shadow_ok([[1, 2], [1, 3]], [[2], [2]])
    assert not ref.shadow_ok([[1, 2], [1, 3]], [[2, 4], [3]])


def test_sum_laws():
    assert ref.binomial_pmf(2) == [0.25, 0.5, 0.25]
    rademacher = [(-1, -1.0), (1, 1.0)]
    assert ref.sum_law(rademacher, [0.5, 0.5], 2) == [(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)]
    lattice = ref.sum_law([(-1, -1.0), (0, 0.0), (1, 1.0)], [0.25, 0.5, 0.25], 3)
    assert len(lattice) == 7
    # {-1, 0, 1} with (1/4, 1/2, 1/4) is the law of half a sum of two signs
    assert [q for _, q in lattice] == pytest.approx(ref.binomial_pmf(6), abs=1e-15)


def test_non_lattice_support_counts_are_exact():
    coords = [(0, 0, 0.0), (1, 0, 1.0), (0, 1, math.sqrt(2.0))]
    laws = [ref.sum_law(coords, [0.2, 0.5, 0.3], m) for m in (2, 5, 8)]
    assert [len(law) for law in laws] == [6, 21, 45]
    for law in laws:
        assert sum(q for _, q in law) == pytest.approx(1.0, abs=1e-14)
    assert laws[0][-1] == pytest.approx((2 * math.sqrt(2.0), 0.09), abs=1e-15)


def test_cauchy_sin_corr_limits():
    assert ref.cauchy_sin_corr(0.3, 2, 2) == 1.0
    assert ref.cauchy_sin_corr(1e-6, 1, 2) == pytest.approx(SQRT_HALF, abs=1e-6)
    assert ref.cauchy_sin_corr(1e-3, 2, 1) == ref.cauchy_sin_corr(1e-3, 1, 2)


def test_ar1_symbol_range_contains_the_toeplitz_sections():
    inf, sup = ref.ar1_symbol_range(0.5)
    assert (inf, sup) == pytest.approx((1 / 3, 3.0), abs=1e-15)
    ev = np.linalg.eigvalsh(ref.ar1_toeplitz(0.5, 200))
    assert inf < ev[0] and ev[-1] < sup


def test_hermite_sin_coeffs_match_quadrature():
    a = 0.8
    x, w = np.polynomial.hermite_e.hermegauss(80)
    w = w / w.sum()
    want = []
    for k in range(1, 7):
        he = np.polynomial.hermite_e.hermeval(x, [0] * k + [1])
        want.append(float(w @ (np.sin(a * x) * he)) / math.sqrt(math.factorial(k)))
    assert ref.hermite_sin_coeffs(a, 6) == pytest.approx(want, abs=1e-13)
    assert ref.hermite_sin_coeffs(a, 1)[0] == pytest.approx(a * math.exp(-a * a / 2), abs=1e-15)


def test_cosine_transform_of_one_segment():
    omega = np.array([0.0, 1e-3, 0.7, 5.0])
    got = ref.cosine_transform_pl([1.0, 0.0], omega)
    want = [1.0] + [2 * (1 - math.cos(w)) / w ** 2 for w in omega[1:]]
    np.testing.assert_allclose(got, want, atol=1e-9)
    assert got[0] == 2.0 * np.trapezoid([1.0, 0.0])


def test_cosine_transform_of_a_fine_exponential_table_is_two_over_one_plus_omega2():
    dt = 1e-3
    table = np.exp(-np.arange(0.0, 40.0 + dt / 2, dt))
    omega = np.array([0.0, 0.5, 2.0, 7.0])
    np.testing.assert_allclose(ref.cosine_transform_pl(table, omega, dt=dt),
                               2.0 / (1.0 + omega ** 2), atol=1e-6)


def test_brownian_nystrom_decreases_under_the_cap():
    tops = [np.linalg.eigvalsh(ref.brownian_nystrom(n))[-1] for n in (50, 100, 200)]
    assert tops[0] > tops[1] > tops[2] > 0.69
    assert tops[0] <= SQRT_HALF + 2e-3


def test_whitened_block_extremes_hand_cases():
    same = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
    assert ref.whitened_block_extremes(same, np.ones((2, 2)), bins=4) == pytest.approx((0, 2))
    independent = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    assert ref.whitened_block_extremes(independent, np.ones((2, 2)), bins=4) == pytest.approx(
        (1, 1))
    # pair (S_1, S_2) of Rademacher sums, each sign path once: 1 +- sqrt(1/2)
    paths = np.array([[a, a + b] for a in (-1, 1) for b in (-1, 1)], dtype=float)
    assert ref.whitened_block_extremes(paths, np.ones((2, 2)), bins=4) == pytest.approx(
        (1 - SQRT_HALF, 1 + SQRT_HALF), abs=1e-12)


def test_quantile_bins_keep_few_values_and_bin_many():
    assert list(ref.quantile_bins([3.0, 1.0, 3.0], bins=4)) == [1, 0, 1]
    codes = ref.quantile_bins(np.arange(100.0), bins=4)
    assert np.bincount(codes).tolist() == [25, 25, 25, 25]


def test_hoeffding_gaps():
    signs = np.array([-1.0, 1.0])
    f0 = np.outer(signs, signs) + signs[:, None] + signs[None, :]
    parts = [signs, np.outer(signs, signs)]
    assert ref.hoeffding_gaps(f0, [0.5, 0.5], parts) == pytest.approx((0, 0, 0), abs=1e-15)
    recon, var, cond = ref.hoeffding_gaps(f0, [0.5, 0.5], [signs, np.zeros((2, 2))])
    assert recon == pytest.approx(1.0) and var == pytest.approx(1.0) and cond == 0.0


def test_latent_corr_gap_is_small_for_a_gaussian_copula():
    rng = np.random.default_rng(0)
    sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
    z = rng.standard_normal((20_000, 2)) @ np.linalg.cholesky(sigma).T
    x = np.stack([np.exp(z[:, 0]), z[:, 1]], axis=1)
    assert ref.latent_corr_gap(x, ["exp", "identity"], sigma) < 4.0
