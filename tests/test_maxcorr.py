import tracemalloc

import numpy as np
import pytest

from helpers import random_joint

from nlcorr import (
    DegenerateInputError,
    DimensionMismatchError,
    DiscreteJoint,
    DiscreteLaw,
    ValidationError,
    ace_estimate,
    exact_extremes,
    nested_sum_matrix,
    nested_sums_joint,
    pair_max_corr,
    rayleigh_quotient,
)
from nlcorr import additive, spectra
from nlcorr.maxcorr import SampleTables, _bin_column, _sorted_quantiles, quantile_bin_column

SQRT_HALF = np.sqrt(0.5)
RADEMACHER = DiscreteLaw.rademacher()


def _independent_pair() -> DiscreteJoint:
    idx = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    return DiscreteJoint.from_atoms([[-1, 1], [-1, 1]], idx, np.full(4, 0.25))


def _coupled_pair() -> DiscreteJoint:
    idx = np.array([[0, 0], [1, 1]])
    return DiscreteJoint.from_atoms([[-1, 1], [-1, 1]], idx, np.array([0.5, 0.5]))


class TestDiscreteJoint:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            DiscreteJoint.from_atoms([[0, 1], [0, 1]], np.array([[0, 0]]), np.array([0.5]))

    def test_negative_probability_rejected(self):
        idx = np.array([[0, 0], [1, 1]])
        with pytest.raises(ValidationError):
            DiscreteJoint.from_atoms([[0, 1], [0, 1]], idx, np.array([1.5, -0.5]))

    def test_zero_mass_support_points_pruned(self):
        idx = np.array([[0, 0], [2, 1]])
        j = DiscreteJoint.from_atoms([[5, 6, 7], [0, 1]], idx, np.array([0.5, 0.5]))
        assert j.supports[0] == (5, 7)  # the unused label 6 disappeared
        np.testing.assert_allclose(j.marginal(0), [0.5, 0.5])

    def test_degenerate_variable_rejected(self):
        idx = np.array([[0, 0], [0, 1]])
        with pytest.raises(DegenerateInputError):
            DiscreteJoint.from_atoms([[4, 9], [0, 1]], idx, np.array([0.5, 0.5]))

    def test_duplicate_atoms_merged(self):
        idx = np.array([[0, 0], [0, 0], [1, 1]])
        j = DiscreteJoint.from_atoms([[0, 1], [0, 1]], idx, np.array([0.25, 0.25, 0.5]))
        assert j.atom_prob.size == 2
        np.testing.assert_allclose(sorted(j.atom_prob), [0.5, 0.5])

    @pytest.mark.parametrize("p, size", [(3, 5), (22, 8)], ids=["int64-code", "row-sort"])
    def test_duplicate_atoms_merged_in_row_order(self, rng, p, size):
        # 8^22 = 2^66 index codes do not fit in int64, so that case sorts rows
        distinct = rng.integers(0, size, size=(60, p))
        idx = distinct[rng.integers(0, 60, size=500)]
        prob = rng.random(500)
        prob /= prob.sum()
        j = DiscreteJoint.from_atoms([list(range(size))] * p, idx, prob)
        want: dict = {}
        for row, q in zip(map(tuple, idx.tolist()), prob):
            want[row] = want.get(row, 0.0) + q
        got = {tuple(j.supports[k][i] for k, i in enumerate(row)): q
               for row, q in zip(j.atom_idx.tolist(), j.atom_prob)}
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in got) <= 1e-15
        assert j.atom_idx.tolist() == sorted(j.atom_idx.tolist())

    def test_bivariate_and_marginal_consistency(self, rng):
        j = random_joint(rng, (3, 4, 2))
        p01 = j.bivariate(0, 1)
        np.testing.assert_allclose(p01.sum(axis=1), j.marginal(0), atol=1e-15)
        np.testing.assert_allclose(p01.sum(axis=0), j.marginal(1), atol=1e-15)
        np.testing.assert_allclose(j.bivariate(1, 0), p01.T, atol=0)

    def test_json_roundtrip(self, rng):
        j = random_joint(rng, (2, 3))
        again = DiscreteJoint.from_json_dict(j.to_json_dict())
        np.testing.assert_allclose(again.atom_prob, j.atom_prob, atol=0)
        assert again.supports == j.supports

    def test_from_samples_counts(self):
        cols = [np.array([0, 0, 1, 1]), np.array([3, 3, 3, 4])]
        j = DiscreteJoint.from_samples(cols)
        np.testing.assert_allclose(j.marginal(0), [0.5, 0.5])
        np.testing.assert_allclose(j.marginal(1), [0.75, 0.25])


class TestExactExtremes:
    def test_independent_pair_decouples(self):
        res = exact_extremes(_independent_pair(), np.ones((2, 2)))
        assert res.rho_max == pytest.approx(1.0, abs=1e-12)
        assert res.rho_min == pytest.approx(1.0, abs=1e-12)

    def test_identical_variables(self):
        res = exact_extremes(_coupled_pair(), np.ones((2, 2)))
        assert res.rho_max == pytest.approx(2.0, abs=1e-12)
        assert res.rho_min == pytest.approx(0.0, abs=1e-12)

    def test_nested_pair_versus_exhaustive_grid(self):
        # independent oracle: scan the 2-sphere of centered function pairs
        # (1 dof for the first sum, 2 for the second) on a fine angular grid
        joint = nested_sums_joint([1, 2], RADEMACHER)
        w = np.ones((2, 2))
        res = exact_extremes(joint, w)
        b1 = np.array([1.0, -1.0])
        b2 = [np.array([1.0, 0.0, -1.0]), np.array([1.0, -1.0, 1.0])]
        angles = np.linspace(0.0, np.pi, 301)
        th, ph = (a.ravel()[:, None] for a in np.meshgrid(angles, angles, indexing="ij"))
        f1 = np.cos(th) * b1
        f2 = np.sin(th) * (np.cos(ph) * b2[0] + np.sin(ph) * b2[1])
        keep = np.maximum(np.abs(f1).max(axis=1), np.abs(f2).max(axis=1)) >= 1e-9
        r = rayleigh_quotient(joint, w, [f1[keep], f2[keep]])
        best_hi, best_lo = r.max(), r.min()
        assert best_hi <= res.rho_max + 1e-9
        assert best_lo >= res.rho_min - 1e-9
        assert best_hi == pytest.approx(res.rho_max, abs=1e-3)
        assert best_lo == pytest.approx(res.rho_min, abs=1e-3)
        np.testing.assert_allclose(
            (res.rho_min, res.rho_max), (1 - SQRT_HALF, 1 + SQRT_HALF), atol=1e-9
        )

    def test_achievers_reproduce_the_ratio(self, rng):
        for _ in range(10):
            p = int(rng.integers(2, 5))
            sizes = rng.integers(2, 5, size=p)
            joint = random_joint(rng, sizes)
            w = spectra.random_weight_matrix(p, rng)
            res = exact_extremes(joint, w)
            assert rayleigh_quotient(joint, w, res.f_max) == pytest.approx(
                res.rho_max, abs=1e-9
            )
            assert rayleigh_quotient(joint, w, res.f_min) == pytest.approx(
                res.rho_min, abs=1e-9
            )

    def test_sandwich_on_random_candidates(self, rng):
        joint = random_joint(rng, (3, 3, 2))
        w = spectra.random_weight_matrix(3, rng)
        res = exact_extremes(joint, w)
        for _ in range(100):
            funcs = [rng.standard_normal(s) for s in joint.sizes]
            r = rayleigh_quotient(joint, w, funcs)
            assert res.rho_min - 1e-9 <= r <= res.rho_max + 1e-9

    def test_batched_ratio_matches_per_row_calls(self, rng):
        for sizes in [(2, 3), (3, 3, 2), (4, 2, 3, 2)]:
            joint = random_joint(rng, sizes)
            w = spectra.random_weight_matrix(len(sizes), rng)
            funcs = [rng.standard_normal((25, s)) for s in joint.sizes]
            batched = rayleigh_quotient(joint, w, funcs)
            rows = [rayleigh_quotient(joint, w, [f[b] for f in funcs]) for b in range(25)]
            assert batched.shape == (25,)
            assert all(type(r) is float for r in rows)
            np.testing.assert_allclose(batched, rows, rtol=0, atol=1e-14)

    def test_batched_ratio_rejects_mismatched_batches(self, rng):
        joint = random_joint(rng, (2, 3))
        w = np.ones((2, 2))
        with pytest.raises(ValidationError):
            rayleigh_quotient(joint, w, [np.ones((4, 2)), np.ones((5, 3))])
        with pytest.raises(ValidationError):
            rayleigh_quotient(joint, w, [np.ones((4, 2)), np.ones(3)])

    def test_relabel_invariance(self, rng):
        joint = random_joint(rng, (3, 4))
        w = spectra.random_weight_matrix(2, rng)
        res = exact_extremes(joint, w)
        # permute the support of variable 0 and re-index the atoms
        perm = rng.permutation(3)
        inv = np.argsort(perm)
        idx = joint.atom_idx.copy()
        idx[:, 0] = inv[idx[:, 0]]
        supports = [list(np.array(joint.supports[0])[perm]), list(joint.supports[1])]
        relabeled = DiscreteJoint.from_atoms(supports, idx, joint.atom_prob)
        res2 = exact_extremes(relabeled, w)
        assert res2.rho_max == pytest.approx(res.rho_max, abs=1e-10)
        assert res2.rho_min == pytest.approx(res.rho_min, abs=1e-10)

    def test_rescaling_candidates_leaves_ratio_unchanged(self, rng):
        joint = random_joint(rng, (3, 3))
        w = np.ones((2, 2))
        funcs = [rng.standard_normal(3), rng.standard_normal(3)]
        r1 = rayleigh_quotient(joint, w, funcs)
        r2 = rayleigh_quotient(joint, w, [2.5 * f for f in funcs])
        assert r2 == pytest.approx(r1, abs=1e-12)

    def test_diagonal_weight_gives_weight_spectrum(self, rng):
        joint = random_joint(rng, (3, 2, 4))
        w = np.diag([0.5, 2.0, 1.25])
        res = exact_extremes(joint, w)
        assert res.rho_min == pytest.approx(0.5, abs=1e-12)
        assert res.rho_max == pytest.approx(2.0, abs=1e-12)

    def test_weight_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            exact_extremes(random_joint(rng, (2, 2)), np.ones((3, 3)))

    def test_nested_sums_match_min_sqrt_matrix(self):
        w = np.ones((3, 3))
        res = exact_extremes(nested_sums_joint([1, 2, 3], RADEMACHER), w)
        lo, hi = spectra.extreme_eigs(nested_sum_matrix([1, 2, 3]))
        assert res.rho_max == pytest.approx(hi, abs=1e-9)
        assert res.rho_min == pytest.approx(lo, abs=1e-9)

    def test_nested_sum_identity_at_universe_fourteen(self):
        m = [2, 7, 14]
        res = exact_extremes(nested_sums_joint(m, RADEMACHER), np.ones((3, 3)))
        lo, hi = spectra.extreme_eigs(nested_sum_matrix(m))
        assert res.rho_max == pytest.approx(hi, abs=1e-9)
        assert res.rho_min == pytest.approx(lo, abs=1e-9)


class TestPairMaxCorr:
    def test_independent(self):
        assert pair_max_corr(_independent_pair()) == pytest.approx(0.0, abs=1e-12)

    def test_invertible_function_dependence(self):
        # X2 = g(X1) with invertible g: relabeled one-to-one coupling
        idx = np.array([[0, 1], [1, 0], [2, 2]])
        joint = DiscreteJoint.from_atoms(
            [[0, 1, 2], [10, 20, 30]], idx, np.array([0.2, 0.5, 0.3])
        )
        assert pair_max_corr(joint) == pytest.approx(1.0, abs=1e-12)

    def test_two_sum_value_is_sqrt_half(self):
        joint = nested_sums_joint([1, 2], RADEMACHER)
        assert pair_max_corr(joint) == pytest.approx(SQRT_HALF, abs=1e-10)

    def test_requires_two_variables(self, rng):
        with pytest.raises(ValidationError):
            pair_max_corr(random_joint(rng, (2, 2, 2)))

    def test_matches_block_eigenproblem(self, rng):
        for _ in range(10):
            joint = random_joint(rng, rng.integers(2, 6, size=2))
            r = pair_max_corr(joint)
            res = exact_extremes(joint, np.ones((2, 2)))
            assert res.rho_max == pytest.approx(1.0 + r, abs=1e-10)
            assert res.rho_min == pytest.approx(1.0 - r, abs=1e-10)

    def test_offdiagonal_weights_give_symmetric_pair_extremes(self, rng):
        # with W = 1{j != k} the two-variable extremes are +-(max correlation)
        offdiag = np.ones((2, 2)) - np.eye(2)
        for _ in range(8):
            joint = random_joint(rng, rng.integers(2, 5, size=2))
            r = pair_max_corr(joint)
            res = exact_extremes(joint, offdiag)
            assert res.rho_max == pytest.approx(r, abs=1e-10)
            assert res.rho_min == pytest.approx(-r, abs=1e-10)


class TestAceEstimate:
    def test_exact_frequencies_match_oracle(self):
        # samples enumerating every atom with its exact dyadic frequency
        joint = nested_sums_joint([1, 2, 3], RADEMACHER)
        n = 64
        rows = []
        for idx, p in zip(joint.atom_idx, joint.atom_prob):
            count = round(p * n)
            vals = [joint.supports[j][idx[j]] for j in range(3)]
            rows.extend([vals] * count)
        data = np.array(rows, dtype=float)
        assert data.shape == (n, 3)
        w = np.ones((3, 3))
        res = ace_estimate(data, w)
        exact = exact_extremes(joint, w)
        assert res.converged
        assert res.rho_max == pytest.approx(exact.rho_max, abs=1e-9)
        assert res.rho_min == pytest.approx(exact.rho_min, abs=1e-9)
        # the reported residuals certify the eigenvalue error of the iterates
        assert all(r <= 1e-5 for r in res.residuals)
        assert abs(res.rho_max - exact.rho_max) <= res.residuals[0] + 1e-12

    def test_gaussian_copula_samples_recover_latent_lambda_max(self):
        sigma = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
        design = additive.CopulaDesign(
            sigma_z=sigma, transforms=("identity",) * 3, n=100_000, seed=99
        )
        data = additive.sample_design(design)
        res = ace_estimate(data, np.ones((3, 3)), bins=16)
        assert res.rho_max == pytest.approx(2.0, abs=0.05)

    def test_deterministic_under_seed(self, rng):
        data = rng.standard_normal((500, 2))
        r1 = ace_estimate(data, np.ones((2, 2)))
        r2 = ace_estimate(data, np.ones((2, 2)))
        assert r1.rho_max == r2.rho_max and r1.rho_min == r2.rho_min
        for a, b in zip(r1.f_max, r2.f_max):
            np.testing.assert_array_equal(a, b)

    def test_matches_oracle_on_binned_joint_at_p12(self):
        # strongly correlated latent design, where the extreme eigenvalues of
        # the empirical whitened block matrix sit close to their neighbours
        a = np.random.default_rng(1729).standard_normal((12, 12))
        sigma = a @ a.T + 1e-6 * np.eye(12)
        d = 1.0 / np.sqrt(np.diag(sigma))
        sigma = d[:, None] * sigma * d[None, :]
        design = additive.CopulaDesign(
            sigma_z=sigma, transforms=("identity",) * 12, n=5000, seed=1729
        )
        data = additive.sample_design(design)
        w = np.ones((12, 12))
        res = ace_estimate(data, w)
        joint = DiscreteJoint.from_samples(
            [quantile_bin_column(data[:, j], 16) for j in range(12)]
        )
        exact = exact_extremes(joint, w)
        assert res.rho_max == pytest.approx(exact.rho_max, abs=1e-12)
        assert res.rho_min == pytest.approx(exact.rho_min, abs=1e-12)
        assert max(res.residuals) <= 1e-10

    def test_constant_column_rejected(self):
        data = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(DegenerateInputError, match="variable 0"):
            ace_estimate(data, np.ones((2, 2)))
        with pytest.raises(DegenerateInputError, match="variable 1"):
            ace_estimate(data[:, ::-1], np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, rng, bad):
        data = rng.standard_normal((500, 3))
        data[17, 1] = bad
        with pytest.raises(ValidationError, match="column 1"):
            ace_estimate(data, np.ones((3, 3)))

    @pytest.mark.parametrize("bins", [-3, 0, 1])
    def test_bins_below_two_rejected(self, rng, bins):
        data = rng.standard_normal((50, 2))
        with pytest.raises(ValidationError, match="bins"):
            ace_estimate(data, np.ones((2, 2)), bins=bins)
        with pytest.raises(ValidationError, match="bins"):
            quantile_bin_column(data[:, 0], bins)

    def test_quantile_binning_bounds_support(self, rng):
        data = rng.standard_normal((1000, 2))
        res = ace_estimate(data, np.ones((2, 2)), bins=8)
        assert all(len(f) <= 8 for f in res.f_max)

    def test_invariant_under_monotone_marginal_transforms(self, rng):
        # quantile bins see only the ranks, so strictly monotone transforms
        # of the columns produce the identical empirical joint and estimates
        base = rng.standard_normal((2000, 3)) @ np.linalg.cholesky(
            np.full((3, 3), 0.4) + 0.6 * np.eye(3)
        ).T
        warped = np.column_stack([np.exp(base[:, 0]), base[:, 1] ** 3, 5 * base[:, 2]])
        r1 = ace_estimate(base, np.ones((3, 3)), bins=12)
        r2 = ace_estimate(warped, np.ones((3, 3)), bins=12)
        assert r1.rho_max == r2.rho_max and r1.rho_min == r2.rho_min


def _reference_bins(col, bins):
    """The binning formula written out: distinct values, else quantile-bin numbers."""
    col = np.asarray(col, dtype=float)
    if np.unique(col).size <= bins:
        return col
    edges = np.quantile(col, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.searchsorted(edges, col, side="right").astype(float)


def _tied_column(rng, n):
    # half the sample sits on one value, so several interior quantiles
    # coincide and the bins between them stay empty
    col = rng.standard_normal(n)
    col[rng.random(n) < 0.5] = 0.25
    return col


_SAMPLE_CASES = {
    "continuous": lambda rng, n: rng.standard_normal((n, 4)) @ rng.standard_normal((4, 4)),
    "integers": lambda rng, n: rng.integers(-3, 5, size=(n, 3)).astype(float),
    "rounded": lambda rng, n: np.round(rng.uniform(0.0, 1.5, size=(n, 3)), 1),
    "heavy-ties": lambda rng, n: np.column_stack(
        [_tied_column(rng, n), _tied_column(rng, n), rng.standard_normal(n)]),
    "two-point": lambda rng, n: np.column_stack(
        [rng.integers(0, 2, n) * 2.5 - 1.0, rng.standard_normal(n)]),
    "mixed": lambda rng, n: np.column_stack([
        rng.standard_normal(n), rng.integers(0, 5, n), np.round(rng.uniform(0, 1, n), 1),
        _tied_column(rng, n), rng.integers(0, 2, n), np.exp(rng.standard_normal(n))]),
}


class TestSampleTables:
    """The pair-table source against the atom joint of the same binned sample."""

    BINS = 16

    @pytest.fixture(params=sorted(_SAMPLE_CASES))
    def case(self, request):
        rng = np.random.default_rng(list(_SAMPLE_CASES).index(request.param))
        data = _SAMPLE_CASES[request.param](rng, 3000)
        # correlate the columns through their ranks so the extremes are not trivial
        data = data[np.argsort(data[:, 0] + 0.5 * rng.standard_normal(data.shape[0]))]
        b = rng.uniform(0.2, 1.5, size=(data.shape[1],) * 2)
        return request.param, data, b + b.T

    def test_quantile_bin_column_matches_reference(self, case):
        _, data, _ = case
        for col in data.T:
            np.testing.assert_array_equal(
                quantile_bin_column(col, self.BINS), _reference_bins(col, self.BINS))

    def test_same_law_and_extremes_as_atom_joint(self, case):
        name, data, w = case
        tables = SampleTables.from_samples(data, self.BINS)
        atoms = DiscreteJoint.from_samples([_reference_bins(c, self.BINS) for c in data.T])
        assert tables.supports == atoms.supports
        assert tables.codes.dtype == np.uint8 and tables.codes.flags.c_contiguous
        # the atom joint adds up copies of 1/n, each sum within n eps of the count over n
        n, p = data.shape
        tol = n * np.finfo(float).eps
        for j in range(p):
            np.testing.assert_allclose(tables.marginal(j), atoms.marginal(j), rtol=0, atol=tol)
            for k in range(j + 1, p):
                np.testing.assert_allclose(
                    tables.bivariate(j, k), atoms.bivariate(j, k), rtol=0, atol=tol)
        if name == "heavy-ties":
            assert tables.sizes[0] < self.BINS < np.unique(data[:, 0]).size

        new, old = ace_estimate(data, w, bins=self.BINS), exact_extremes(atoms, w)
        assert max(new.residuals) <= 1e-12
        assert abs(new.rho_max - old.rho_max) <= 1e-12
        assert abs(new.rho_min - old.rho_min) <= 1e-12
        for f_new, f_old, rho in ((new.f_max, old.f_max, new.rho_max),
                                  (new.f_min, old.f_min, new.rho_min)):
            a, b = np.concatenate(f_new), np.concatenate(f_old)
            np.testing.assert_allclose(np.sign(a @ b) * a, b, rtol=0, atol=1e-10)
            assert abs(rayleigh_quotient(tables, w, f_new) - rho) <= 1e-12


def _searchsorted_bins(col, bins):
    """The binary-search form of ``_bin_column``: labels and intp codes."""
    srt = np.sort(col)
    labels = np.unique(srt)
    if labels.size <= bins:
        return labels, np.searchsorted(labels, col)
    edges = np.quantile(srt, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    codes = np.searchsorted(edges, col, side="right")
    used = np.bincount(codes, minlength=bins) > 0
    return np.flatnonzero(used).astype(float), (np.cumsum(used) - 1)[codes]


class TestNarrowCodes:
    """The comparison-count coding and narrow pair codes against intp references."""

    @pytest.mark.parametrize("bins", [2, 16, 255, 256, 257, 1024])
    def test_bin_codes_equal_the_binary_search(self, rng, bins):
        n = 6000
        columns = {
            "continuous": rng.standard_normal(n),
            "heavy-ties": _tied_column(rng, n),
            "rounded": np.round(rng.uniform(0.0, 3.0, n), 1),
            # 60 % of the mass on the minimum: bins below that quantile stay empty
            "mass-at-min": np.where(rng.random(n) < 0.6, -5.0, rng.standard_normal(n)),
        }
        for name, col in columns.items():
            labels, codes = _bin_column(col, bins)
            want_labels, want_codes = _searchsorted_bins(col, bins)
            assert codes.dtype == (np.uint8 if bins <= 256 else np.uint16), name
            np.testing.assert_array_equal(labels, want_labels, err_msg=name)
            np.testing.assert_array_equal(codes, want_codes, err_msg=name)
        assert _bin_column(columns["mass-at-min"], bins)[0].size < bins

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 1000, 100_000])
    def test_sorted_quantiles_equal_np_quantile(self, rng, n):
        columns = {
            "continuous": rng.standard_normal(n),
            "integer-tied": rng.integers(-3, 4, n).astype(float),
            "rounded": np.round(rng.uniform(0.0, 3.0, n), 1),
        }
        for bins in (2, 3, 7, 16, 255, 256, 1024):
            q = np.linspace(0.0, 1.0, bins + 1)[1:-1]
            for name, col in columns.items():
                srt = np.sort(col)
                np.testing.assert_array_equal(
                    _sorted_quantiles(srt, q), np.quantile(srt, q), err_msg=f"{name} {bins}")

    @pytest.mark.parametrize("sizes", [(16, 17), (17, 16), (2, 200), (16, 16)])
    def test_pair_counts_equal_intp_bincount(self, rng, sizes):
        n = 5000
        codes = np.stack([rng.permutation(np.arange(n) % s) for s in sizes]).astype(np.uint8)
        tables = SampleTables(supports=tuple(tuple(range(s)) for s in sizes), codes=codes)
        wide = codes.astype(np.intp)
        want = np.bincount(wide[0] * sizes[1] + wide[1], minlength=sizes[0] * sizes[1])
        np.testing.assert_array_equal(
            tables.bivariate(0, 1), want.reshape(sizes) / n)
        np.testing.assert_array_equal(tables.marginal(1), np.bincount(wide[1]) / n)

    def test_ace_peak_memory_at_1e5_by_40(self):
        data = np.random.default_rng(11).standard_normal((100_000, 40))
        data[:, 1:] += data[:, :1]
        tracemalloc.start()
        try:
            ace_estimate(data, np.ones((40, 40)), bins=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one-byte (40, 1e5) code table is 4 MB; intp codes alone were 32 MB
        assert peak < 12e6
