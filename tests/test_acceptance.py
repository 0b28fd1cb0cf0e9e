"""Acceptance gate: one test per criterion, at the stated tolerance and budget.

Each test prints a single pass line (visible with `pytest -s` or in the
captured output); a failed assertion marks the criterion red.
"""

import math
import time

import numpy as np
import pytest

from helpers import random_group_system, random_sorted_m, random_symmetric_table

import nlcorr as nc
from nlcorr import spectra
from nlcorr.groups import _product_weights, cauchy_sin_corr_closed_form
from nlcorr.hermite import hermite_design

RADEMACHER = nc.DiscreteLaw.rademacher()
SQRT_HALF = math.sqrt(0.5)


def _report(number: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"[acceptance] criterion {number:2d} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_01_pair_value_on_nested_rademacher_sums():
    started = time.perf_counter()
    joint = nc.nested_sums_joint([1, 2], RADEMACHER)
    value = nc.pair_max_corr(joint)
    assert value == pytest.approx(SQRT_HALF, abs=1e-10)
    _report(1, "two-sum maximal correlation sqrt(1/2)", started, 1.0)


def test_criterion_02_multivariate_nested_sum_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    cases = [[1, 2, 3]]
    while len(cases) < 21:
        p = int(rng.integers(2, 6))
        cases.append(random_sorted_m(rng, p=p, universe=12))
    for m in cases:
        joint = nc.nested_sums_joint(m, RADEMACHER)
        w = np.ones((len(m), len(m)))
        res = nc.exact_extremes(joint, w)
        lo, hi = spectra.extreme_eigs(nc.nested_sum_matrix(m))
        assert res.rho_max == pytest.approx(hi, abs=1e-9), m
        assert res.rho_min == pytest.approx(lo, abs=1e-9), m
    _report(2, "nested sums match the min/sqrt matrix", started, 30.0)


def test_criterion_03_group_sums_identity_and_argmin_order_one():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for case in range(20):
        p = int(rng.integers(2, 5))
        system = random_group_system(rng, p=p, universe=11, common=True)
        w = spectra.random_weight_matrix(p, rng)
        check = nc.assumption_c_check(system)
        assert check.feasible  # common element gives the shortcut witness
        joint = nc.group_sums_joint(system, RADEMACHER)
        res = nc.exact_extremes(joint, w)
        r = nc.group_matrix(system, 1).matrix
        lo, hi = spectra.extreme_eigs(r * w)
        assert res.rho_max == pytest.approx(hi, abs=1e-9), system.groups
        assert res.rho_min == pytest.approx(lo, abs=1e-9), system.groups
        symm = nc.extreme_symm(system, w)
        assert symm.min_by_ell[0] == pytest.approx(symm.rho_min, abs=1e-10)
        assert symm.argmin_ell == 1 or symm.min_by_ell[symm.argmin_ell - 1] == (
            pytest.approx(symm.min_by_ell[0], abs=1e-10)
        )
    _report(3, "group sums match the weighted group matrix", started, 60.0)


def test_criterion_04_schur_power_contraction_sweep():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(500):
        p = int(rng.integers(2, 9))
        sigma = spectra.random_corr_matrix(p, rng)
        w = spectra.random_weight_matrix(p, rng)
        m = int(rng.integers(1, 7))
        cert = nc.schur_power_contraction_check(sigma, w, m)
        assert cert.holds and cert.margin >= -1e-8
    _report(4, "500 Schur-power contraction certificates", started, 10.0)


def test_criterion_05_transformed_gram_containment_and_attainment():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(200):
        p = int(rng.integers(2, 7))
        sigma = spectra.random_corr_matrix(p, rng)
        w = spectra.random_weight_matrix(p, rng)
        exps = [nc.HermiteExpansion(coeffs=rng.standard_normal(8)) for _ in range(p)]
        lo, hi = spectra.extreme_eigs(sigma * w)
        inner = spectra.full_spectrum(nc.nl_gram(sigma, exps, w))
        assert inner[0] >= lo - 1e-8 and inner[-1] <= hi + 1e-8
        # attainment: linear transforms reproduce the weighted matrix exactly
        linear = [nc.HermiteExpansion.unit(1, 8) for _ in range(p)]
        assert np.max(np.abs(nc.nl_gram(sigma, linear, w) - sigma * w)) <= 1e-12
    _report(5, "transformed Gram trapped by the weighted spectrum", started, 10.0)


def test_criterion_06_hermite_orthonormality_and_cross_moments():
    started = time.perf_counter()
    rule = nc.gauss_hermite_rule(40)
    design = hermite_design(rule.nodes, 10)
    gram = design.T @ (rule.weights[:, None] * design)
    assert np.max(np.abs(gram - np.eye(11))) <= 1e-10
    # cross moments E[H_m(X) H_n(Y)] = rho^m delta_mn, m, n <= 10, via a
    # 2-d tensor rule over X = x and Y = rho x + sqrt(1 - rho^2) x'
    x, wx = rule.nodes, rule.weights
    for rho in (-0.9, -0.3, 0.3, 0.9):
        s = math.sqrt(1.0 - rho * rho)
        y = rho * x[:, None] + s * x[None, :]
        dy = hermite_design(y.ravel(), 10).reshape(x.size, x.size, 11)
        inner = np.einsum("j,ijn->in", wx, dy)  # E[H_n(Y) | X = x_i]
        got = (design * wx[:, None]).T @ inner  # all (m, n) cross moments
        want = np.diag(rho ** np.arange(11))
        assert np.max(np.abs(got[1:, 1:] - want[1:, 1:])) <= 1e-9, rho
    _report(6, "orthonormality and pairwise cross moments", started, 30.0)


def test_criterion_07_stationary_closed_forms_and_sections():
    started = time.perf_counter()
    ext = nc.spectral_extremes(nc.ar1_kernel(0.5))
    assert ext.sup == pytest.approx(3.0, abs=1e-15)
    assert ext.inf == pytest.approx(1.0 / 3.0, abs=1e-15)
    # grid path on the tabulated version of the same kernel
    tab = nc.table_kernel(
        "lattice", 0.5 ** np.arange(120), decay=None
    )
    grid_ext = nc.spectral_extremes(tab)
    assert grid_ext.sup == pytest.approx(3.0, abs=1e-6)
    assert grid_ext.inf == pytest.approx(1.0 / 3.0, abs=1e-6)
    ou = nc.spectral_extremes(nc.ou_kernel())
    assert (ou.inf, ou.sup) == (0.0, 2.0)
    rep = nc.circulant_cross_check(nc.ar1_kernel(0.5), 800)
    assert rep.gap < 0.05
    _report(7, "autoregressive and exponential closed forms", started, 60.0)


def test_criterion_08_partial_sum_kernel_refinement():
    started = time.perf_counter()
    estimates = [nc.brownian_lambda_max(n) for n in (500, 1000, 2000)]
    assert estimates[0] > estimates[1] > estimates[2]  # monotone refinement
    assert all(e <= SQRT_HALF + 2e-3 for e in estimates)
    r = nc.nested_sum_matrix(list(range(1, 401)))
    scaled = spectra.full_spectrum(r)[-1] / 400.0
    assert abs(scaled - estimates[-1]) <= 0.02
    _report(8, "partial-sum kernel refinement and cap", started, 60.0)


def test_criterion_09_heavy_tail_sin_construction():
    started = time.perf_counter()
    m = [1, 2, 3]
    for t in (0.5, 0.05, 1e-3):
        res = nc.sin_construction_corr(t, m, nc.CauchyLaw())
        for j in range(3):
            for k in range(3):
                want = cauchy_sin_corr_closed_form(t, m[j], m[k])
                assert abs(res.corr[j, k] - want) <= 1e-10
    limit = nc.sin_construction_corr(1e-3, m, nc.CauchyLaw())
    assert np.max(np.abs(limit.corr - nc.nested_sum_matrix(m))) <= 1e-3
    _report(9, "heavy-tail attainment via the sin construction", started, 30.0)


def test_criterion_10_interaction_decomposition_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    for _ in range(50):
        s = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        vals = np.sort(rng.standard_normal(s))
        probs = rng.gamma(1.0, size=s)
        law = nc.DiscreteLaw(values=vals, probs=probs / probs.sum())
        f0 = random_symmetric_table(rng, law, m)
        dec = nc.hoeffding_decompose(f0, law)
        assert np.max(np.abs(dec.reconstruct() - dec.centered)) <= 1e-12
        for ell, comp in enumerate(dec.components, start=1):
            for axis in range(ell):
                reduced = np.tensordot(comp, law.probs, axes=([axis], [0]))
                assert np.max(np.abs(reduced)) <= 1e-12
        mass = _product_weights(law.probs, m)
        total = float(np.sum(mass * dec.centered ** 2))
        assert abs(sum(dec.variance_components()) - total) <= 1e-12
    _report(10, "50 interaction decompositions, all identities", started, 20.0)


def test_criterion_11_compatibility_bound_and_sandwich():
    started = time.perf_counter()
    sigma = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    design = nc.CopulaDesign(
        sigma_z=sigma,
        transforms=("identity", "probit_uniform", "exp"),
        n=100_000,
        seed=1101,
    )
    data = nc.sample_design(design)
    rep = nc.empirical_phi_star(
        data,
        nc.BasisSpec("histogram", 8),
        nc.CompatibilityQuery(active=(0,), xi0=3.0, q=1),
        n_dirs=200,
        seed=11,
    )
    assert rep.se > 0.0
    assert rep.phi_hat >= 0.5 - 3.0 * rep.se

    catalogs = [
        (("identity",) * 3, ["zero"] * 3, ["hermite2"] * 3),
        (("identity",) * 3, ["zero"] * 3, ["cube"] * 3),
        (("identity", "probit_uniform", "exp"), ["zero"] * 3, ["identity"] * 3),
        (("identity",) * 3, ["identity"] * 3, ["cube"] * 3),
        (("probit_uniform",) * 3, ["zero"] * 3, ["square"] * 3),
    ]
    for seed in range(5):
        transforms, f, f_hat = catalogs[seed % len(catalogs)]
        for variant in (0, 1):
            out = nc.sandwich_check(
                sigma, transforms, f, f_hat, n_mc=150_000, seed=100 + 2 * seed + variant
            )
            assert out.holds, (seed, variant)
    _report(11, "compatibility bound and error sandwich", started, 300.0)
