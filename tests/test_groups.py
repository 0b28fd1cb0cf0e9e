import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_shadow_status,
    enumerated_group_sums_joint,
    group_cross_cov,
    product_basis,
    random_group_system,
    random_symmetric_table,
    sin_corr_enumerate,
)

from nlcorr import (
    BudgetExceededError,
    CauchyLaw,
    DegenerateInputError,
    DiscreteLaw,
    GroupSystem,
    ValidationError,
    assumption_c_check,
    exact_extremes,
    extreme_symm,
    group_matrix,
    group_sums_joint,
    hoeffding_decompose,
    nested_sum_matrix,
    nested_sums_joint,
    sin_construction_corr,
    solve_ct,
)
from nlcorr import groups, spectra
from nlcorr.groups import cauchy_sin_corr_closed_form, _product_weights, _verify_shadow

RADEMACHER = DiscreteLaw.rademacher()
SQRT_HALF = math.sqrt(0.5)


class TestNestedSumMatrix:
    def test_identical_lengths_give_ones(self):
        np.testing.assert_array_equal(nested_sum_matrix([4, 4, 4]), np.ones((3, 3)))

    def test_pair_value(self):
        r = nested_sum_matrix([1, 2])
        assert r[0, 1] == pytest.approx(SQRT_HALF, abs=1e-15)

    def test_matches_exact_enumeration_of_sum_covariances(self):
        # independent oracle: enumerate Rademacher sign vectors and compute
        # Corr(S_j, S_k) directly
        m = [1, 2, 3]
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        sums = np.cumsum(signs, axis=1)
        cov = sums.T @ sums / signs.shape[0]
        d = np.sqrt(np.diag(cov))
        np.testing.assert_allclose(nested_sum_matrix(m), cov / np.outer(d, d), atol=1e-14)
        assert nested_sum_matrix(m)[0, 2] == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert nested_sum_matrix(m)[1, 2] == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_zero_length_rejected(self):
        with pytest.raises(ValidationError):
            nested_sum_matrix([0, 2])


class TestGroupMatrix:
    def test_order_one_reduces_to_nested(self):
        system = GroupSystem.from_lists([[1], [1, 2], [1, 2, 3]])
        r1 = group_matrix(system, 1)
        np.testing.assert_allclose(r1.matrix, nested_sum_matrix([1, 2, 3]), atol=1e-15)
        assert r1.active == (0, 1, 2)

    def test_order_two_example(self):
        system = GroupSystem.from_lists([[1, 2], [1, 2, 3]])
        r2 = group_matrix(system, 2)
        assert r2.matrix[0, 1] == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert r2.active == (0, 1)

    def test_order_two_matches_product_function_covariance(self):
        # 8-atom enumeration of E[h^(2) h^(2)] with Rademacher seed values
        system = GroupSystem.from_lists([[1, 2], [1, 2, 3]])
        cov = group_cross_cov(system, 2, RADEMACHER.values, RADEMACHER)
        np.testing.assert_allclose(cov, group_matrix(system, 2).matrix, atol=1e-12)

    def test_disjoint_groups_offdiagonal_zero(self):
        system = GroupSystem.from_lists([[1, 2], [3], [4, 5, 6]])
        for ell in (1, 2, 3):
            r = group_matrix(system, ell)
            off = r.matrix - np.diag(np.diag(r.matrix))
            np.testing.assert_array_equal(off, np.zeros((3, 3)))

    def test_inactive_variables_flagged(self):
        system = GroupSystem.from_lists([[1], [1, 2, 3]])
        r2 = group_matrix(system, 2)
        assert r2.active == (1,)
        assert r2.matrix[0, 0] == 0.0 and r2.matrix[1, 1] == 1.0

    def test_entries_bounded_by_order_one(self, rng):
        for _ in range(20):
            system = random_group_system(rng, p=4, universe=8, common=False)
            r1 = group_matrix(system, 1).matrix
            for ell in range(1, system.ell_star + 1):
                rl = group_matrix(system, ell)
                ix = list(rl.active)
                assert np.all(rl.matrix[np.ix_(ix, ix)] >= -1e-15)
                assert np.all(
                    rl.matrix[np.ix_(ix, ix)] <= r1[np.ix_(ix, ix)] + 1e-12
                )

    def test_order_out_of_range(self):
        system = GroupSystem.from_lists([[1, 2]])
        with pytest.raises(ValidationError):
            group_matrix(system, 3)


class TestExtremeSymm:
    def test_disjoint_groups(self):
        system = GroupSystem.from_lists([[1], [2, 3], [4, 5, 6]])
        res = extreme_symm(system, np.ones((3, 3)))
        assert res.rho_max == pytest.approx(1.0, abs=1e-12)
        assert res.rho_min == pytest.approx(1.0, abs=1e-12)

    def test_nested_matches_nested_matrix(self):
        system = GroupSystem.from_lists([[1], [1, 2], [1, 2, 3]])
        res = extreme_symm(system, np.ones((3, 3)))
        lo, hi = spectra.extreme_eigs(nested_sum_matrix([1, 2, 3]))
        assert res.rho_max == pytest.approx(hi, abs=1e-12)
        assert res.rho_min == pytest.approx(lo, abs=1e-12)
        assert res.argmin_ell == 1

    def test_chain_hand_eigenvalues(self):
        # R^(1) tridiagonal with off-diagonal 1/2: eigenvalues 1, 1 +- sqrt(2)/2
        system = GroupSystem.from_lists([[1, 2], [2, 3], [3, 4]])
        res = extreme_symm(system, np.ones((3, 3)))
        assert res.rho_max == pytest.approx(1 + SQRT_HALF, abs=1e-12)
        assert res.rho_min == pytest.approx(1 - SQRT_HALF, abs=1e-12)

    def test_lambda_max_monotone_over_orders(self, rng):
        for _ in range(20):
            system = random_group_system(rng, p=4, universe=9, common=False)
            w = spectra.random_weight_matrix(4, rng)
            top = spectra.extreme_eigs(group_matrix(system, 1).matrix * w)[1]
            for ell in range(1, system.ell_star + 1):
                rl = group_matrix(system, ell)
                ix = list(rl.active)
                sub = (rl.matrix * w)[np.ix_(ix, ix)]
                assert np.linalg.eigvalsh(sub)[-1] <= top + 1e-10

    def test_weight_dimension_mismatch(self):
        system = GroupSystem.from_lists([[1], [2]])
        with pytest.raises(Exception):
            extreme_symm(system, np.ones((3, 3)))

    def test_group_sums_oracle_beyond_rademacher(self):
        # linear functions of the block sums attain the extremes for any
        # finite-variance law, so the sums-joint oracle matches R o W even
        # off the two-point case
        from nlcorr import exact_extremes, group_sums_joint

        law = DiscreteLaw(
            values=np.array([-1.0, 0.0, 2.0]), probs=np.array([0.3, 0.4, 0.3])
        )
        system = GroupSystem.from_lists([[1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 7, 8]])
        assert assumption_c_check(system).feasible
        w = np.ones((3, 3))
        joint = group_sums_joint(system, law)
        res = exact_extremes(joint, w)
        lo, hi = spectra.extreme_eigs(group_matrix(system, 1).matrix * w)
        assert res.rho_max == pytest.approx(hi, abs=1e-9)
        assert res.rho_min == pytest.approx(lo, abs=1e-9)

    def test_non_lattice_sums_are_not_split_by_rounding(self):
        # 1 + 1 + sqrt 2 and sqrt 2 + 1 + 1 round to different floats; the
        # sums a + b sqrt 2 with a + b <= m give (m+1)(m+2)/2 support points
        from nlcorr import exact_extremes, nested_sums_joint

        law = DiscreteLaw(
            values=np.array([0.0, 1.0, math.sqrt(2.0)]), probs=np.array([0.2, 0.5, 0.3])
        )
        joint = nested_sums_joint((2, 5, 8), law)
        assert joint.sizes == (6, 21, 45)
        res = exact_extremes(joint, np.ones((3, 3)))
        lo, hi = spectra.extreme_eigs(nested_sum_matrix((2, 5, 8)))
        assert res.rho_max == pytest.approx(hi, abs=1e-9)
        assert res.rho_min == pytest.approx(lo, abs=1e-9)

    @pytest.mark.parametrize(
        "law, sizes, atoms",
        [
            (RADEMACHER, (3, 5, 8), 3 * 3 * 4),
            (DiscreteLaw(values=np.array([-1.0, 0.0, 1.0]), probs=np.array([0.3, 0.3, 0.4])),
             (5, 9, 15), 5 * 5 * 7),
        ],
    )
    def test_lattice_sums_keep_every_support_point(self, law, sizes, atoms):
        # atoms are the joint values of the independent increments over
        # lengths 2, 2 and 3
        from nlcorr import nested_sums_joint

        joint = nested_sums_joint((2, 4, 7), law)
        assert joint.sizes == sizes
        assert joint.atom_idx.shape[0] == atoms


LAWS = {
    "rademacher": RADEMACHER,
    "ternary": DiscreteLaw(values=np.array([-1.0, 0.0, 1.0]), probs=np.array([0.3, 0.3, 0.4])),
    "sqrt2": DiscreteLaw(
        values=np.array([0.0, 1.0, math.sqrt(2.0)]), probs=np.array([0.2, 0.5, 0.3])
    ),
    "skip-one": DiscreteLaw(values=np.array([-1.0, 0.0, 2.0]), probs=np.array([0.3, 0.4, 0.3])),
    "skewed": DiscreteLaw(values=np.array([0.0, 1.0]), probs=np.array([0.9, 0.1])),
}

SYSTEMS = {
    "nested": [[1, 2], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6, 7]],
    "repeated-m": [[1, 2, 3], [1, 2, 3]],
    "disjoint": [[1, 2], [3, 4, 5], [6]],
    "identical": [[2, 4, 6], [2, 4, 6], [1, 2]],
    "contained": [[1, 2, 3, 4, 5, 6], [2, 3, 4], [5, 6, 7]],
    "chain": [[1, 2, 3], [3, 4, 5], [5, 6, 7], [1, 7]],
}


def assert_same_joint(system, law, w):
    joint = group_sums_joint(system, law)
    reference = enumerated_group_sums_joint(system, law)
    assert joint.sizes == reference.sizes
    np.testing.assert_array_equal(joint.atom_idx, reference.atom_idx)
    for got, want in zip(joint.supports, reference.supports):
        # 1e-15 relative: a value above 8 has an ulp of 1.8e-15, and the two
        # builders round their sums in different orders
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
    # the reference adds up to s^u products per atom one after another, so its
    # masses carry up to s^u eps relative error of their own
    label_tuples = law.size ** len(system.universe)
    np.testing.assert_allclose(
        joint.atom_prob, reference.atom_prob,
        rtol=label_tuples * np.finfo(float).eps, atol=1e-15,
    )
    res, ref = exact_extremes(joint, w), exact_extremes(reference, w)
    assert res.rho_max == pytest.approx(ref.rho_max, abs=1e-12)
    assert res.rho_min == pytest.approx(ref.rho_min, abs=1e-12)


class TestGroupSumsJoint:
    @pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
    @pytest.mark.parametrize("lists", SYSTEMS.values(), ids=SYSTEMS.keys())
    def test_matches_enumeration(self, law, lists):
        system = GroupSystem.from_lists(lists)
        w = np.ones((system.nvars, system.nvars))
        assert_same_joint(system, law, w)

    @pytest.mark.parametrize("law", [LAWS[k] for k in ("rademacher", "ternary", "skewed")],
                             ids=["rademacher", "ternary", "skewed"])
    @pytest.mark.parametrize("lists", SYSTEMS.values(), ids=SYSTEMS.keys())
    def test_masses_match_exact_rationals(self, law, lists):
        # integer values keep every sum exact; the float probabilities are
        # taken as the exact binary fractions they are
        system = GroupSystem.from_lists(lists)
        joint = group_sums_joint(system, law)
        probs = [Fraction(q) for q in law.probs]
        pos = {lab: i for i, lab in enumerate(system.universe)}
        exact = {}
        for tup in itertools.product(range(law.size), repeat=len(pos)):
            key = tuple(sum(law.values[tup[pos[lab]]] for lab in g) for g in system.groups)
            mass = math.prod((probs[i] for i in tup), start=Fraction(1))
            exact[key] = exact.get(key, 0) + mass
        got = {tuple(joint.supports[j][i] for j, i in enumerate(row)): float(q)
               for row, q in zip(joint.atom_idx, joint.atom_prob)}
        assert got.keys() == exact.keys()
        assert max(abs(got[k] - exact[k]) for k in got) <= 1e-15

    @pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
    def test_matches_enumeration_on_random_systems(self, rng, law):
        universe = 12 if law.size == 2 else 8
        for _ in range(6):
            p = int(rng.integers(1, 5))
            system = random_group_system(rng, p=p, universe=universe, common=False)
            w = spectra.random_weight_matrix(p, rng)
            assert_same_joint(system, law, w)

    @given(
        law=st.sampled_from(list(LAWS.values())),
        lists=st.lists(
            st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True),
            min_size=1, max_size=4,
        ),
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    def test_matches_enumeration_property(self, law, lists):
        system = GroupSystem.from_lists(lists)
        w = np.ones((system.nvars, system.nvars))
        assert_same_joint(system, law, w)

    def test_many_blocks_over_few_cells(self):
        # every union of four 2-label cells, three times over: 81 product
        # atoms, but the 45 support sizes multiply to about 2e31, past the
        # int64 label code, so the atoms go to from_atoms unmerged
        cells = [[1, 2], [3, 4], [5, 6], [7, 8]]
        unions = [sum(pick, []) for r in range(1, 5) for pick in itertools.combinations(cells, r)]
        system = GroupSystem.from_lists(unions * 3)
        assert math.prod(group_sums_joint(system, RADEMACHER).sizes) >= 2 ** 63
        assert_same_joint(system, RADEMACHER, np.ones((45, 45)))

    @pytest.mark.parametrize(
        "law, m",
        [
            (RADEMACHER, (100, 250)),
            (RADEMACHER, (40, 100, 180)),
            (LAWS["ternary"], (30, 80)),
        ],
        ids=["rademacher-100-250", "rademacher-40-100-180", "ternary-30-80"],
    )
    def test_nested_sums_in_the_hundreds(self, law, m):
        joint = nested_sums_joint(m, law)
        res = exact_extremes(joint, np.ones((len(m), len(m))))
        lo, hi = spectra.extreme_eigs(nested_sum_matrix(m))
        assert res.rho_max == pytest.approx(hi, abs=1e-9)
        assert res.rho_min == pytest.approx(lo, abs=1e-9)

    def test_group_system_over_two_hundred_labels(self, rng):
        system = GroupSystem.from_lists([
            range(1, 101), [1, *range(101, 201)], range(1, 201), [1, *range(181, 201)],
        ])
        assert len(system.universe) == 200
        assert assumption_c_check(system).feasible
        w = spectra.random_weight_matrix(4, rng)
        res = exact_extremes(group_sums_joint(system, RADEMACHER), w)
        lo, hi = spectra.extreme_eigs(group_matrix(system, 1).matrix * w)
        assert res.rho_max == pytest.approx(hi, abs=1e-9)
        assert res.rho_min == pytest.approx(lo, abs=1e-9)

    def test_budget_counts_cell_product_atoms(self, monkeypatch):
        # three cells of 300 labels: 301^3 product atoms
        with pytest.raises(BudgetExceededError, match="27270901 cell-support product atoms"):
            nested_sums_joint((300, 600, 900), RADEMACHER)
        # cells of 2, 5 and 5 labels: 3 * 6 * 6 = 108 product atoms
        monkeypatch.setattr(groups, "ATOM_BUDGET", 108)
        assert nested_sums_joint((2, 7, 12), RADEMACHER).sizes == (3, 8, 13)
        monkeypatch.setattr(groups, "ATOM_BUDGET", 107)
        with pytest.raises(BudgetExceededError, match="108 cell-support product atoms"):
            nested_sums_joint((2, 7, 12), RADEMACHER)
        # a single cell whose sum alone has too many support points
        monkeypatch.setattr(groups, "ATOM_BUDGET", 20)
        with pytest.raises(BudgetExceededError, match="support points"):
            nested_sums_joint((50,), RADEMACHER)

    def test_non_lattice_sums_merge_at_every_length(self, monkeypatch):
        # each convolution power and each block sum merges rounding splits:
        # a + b sqrt 2 with a + b <= m gives (m+1)(m+2)/2 support points
        joint = nested_sums_joint((5, 12, 20), LAWS["sqrt2"])
        assert joint.sizes == (21, 91, 231)
        # cells of 5, 7 and 8 labels: 21 * 36 * 45 product atoms, no more
        monkeypatch.setattr(groups, "ATOM_BUDGET", 21 * 36 * 45)
        nested_sums_joint((5, 12, 20), LAWS["sqrt2"])
        res = exact_extremes(joint, np.ones((3, 3)))
        lo, hi = spectra.extreme_eigs(nested_sum_matrix((5, 12, 20)))
        assert res.rho_max == pytest.approx(hi, abs=1e-12)
        assert res.rho_min == pytest.approx(lo, abs=1e-12)


class TestShadowSystem:
    def test_nested_shortcut(self):
        system = GroupSystem.from_lists([[1], [1, 2], [1, 2, 3]])
        res = assumption_c_check(system)
        assert res.feasible
        assert res.witness == (frozenset(), frozenset({2}), frozenset({2, 3}))

    def test_disjoint_feasible(self):
        system = GroupSystem.from_lists([[1, 2], [3, 4], [5]])
        res = assumption_c_check(system)
        assert res.feasible

    def test_triangle_without_common_element(self):
        # pairwise intersections of size 1 need pairwise-disjoint shadows
        system = GroupSystem.from_lists([[1, 2], [2, 3], [1, 3]])
        res = assumption_c_check(system)
        assert res.feasible
        w = res.witness
        for j in range(3):
            assert len(w[j]) <= 1
            for k in range(j + 1, 3):
                assert len(w[j] & w[k]) == 0

    def test_witness_implies_minimum_at_order_one(self, rng):
        # whenever a shadow system exists the minimum over orders is at l = 1
        for _ in range(15):
            system = random_group_system(rng, p=3, universe=7, common=bool(rng.integers(2)))
            w = spectra.random_weight_matrix(3, rng)
            res = assumption_c_check(system)
            if not res.feasible:
                continue
            symm = extreme_symm(system, w)
            r1 = group_matrix(system, 1).matrix
            lo = np.linalg.eigvalsh(r1 * w)[0]
            assert symm.rho_min == pytest.approx(lo, abs=1e-10)

    def test_infeasible_or_unknown_is_reported_honestly(self):
        # a tight pattern: big pairwise intersections but tiny size budgets
        system = GroupSystem.from_lists([[1, 2], [1, 3], [2, 3]])
        res = assumption_c_check(system)
        assert res.status in ("feasible", "infeasible", "unknown")
        if res.status != "feasible":
            assert res.witness is None

    def test_genuinely_infeasible_instance(self):
        # shadows S2 = {a}, S3 = {b} are forced into S5 along with the two
        # labels of S4 and one more from S1, so S5 needs four distinct labels
        # against its size cap of three; exhaustive search proves infeasibility
        system = GroupSystem.from_lists(
            [[1, 2, 4], [1, 4], [3, 4], [1, 2, 3], [1, 2, 3, 4]]
        )
        res = assumption_c_check(system)
        assert res.status == "infeasible"
        assert res.witness is None
        # the order-one minimum still prevails on this instance numerically
        symm = extreme_symm(system, np.ones((5, 5)))
        assert symm.argmin_ell == 1
        assert symm.rho_min == pytest.approx(0.0, abs=1e-12)

    def test_statuses_match_a_brute_force_reference(self, rng):
        # five groups over four or five labels: few enough holder-set counts
        # to enumerate, and tight enough that some systems are infeasible
        seen = {"feasible": 0, "infeasible": 0}
        while sum(seen.values()) < 240:
            system = random_group_system(
                rng, p=5, universe=int(rng.integers(4, 6)), common=sum(seen.values()) % 4 == 0
            )
            expected = brute_force_shadow_status(system)
            if expected is None:
                continue
            res = assumption_c_check(system)
            assert res.status == expected, system.groups
            if res.feasible:
                assert _verify_shadow(system, res.witness)
            else:
                assert res.witness is None
            seen[expected] += 1
        assert seen["infeasible"] >= 5

    def test_thirty_groups_without_a_common_label_stop_at_the_budget(self, monkeypatch):
        system = random_group_system(np.random.default_rng(3), p=30, universe=40, common=False)
        assert not frozenset.intersection(*system.groups)
        monkeypatch.setattr(groups, "SHADOW_NODE_BUDGET", 2000)
        started = time.perf_counter()
        res = assumption_c_check(system)
        assert time.perf_counter() - started < 0.5
        assert res.status == "unknown"
        assert res.witness is None


class TestHoeffding:
    def test_single_argument_is_identity(self):
        law = DiscreteLaw(values=np.array([0.0, 1.0, 3.0]), probs=np.array([0.3, 0.5, 0.2]))
        f0 = np.array([1.0, -2.0, 4.0])
        dec = hoeffding_decompose(f0, law)
        np.testing.assert_allclose(dec.components[0], dec.centered, atol=1e-15)

    def test_pure_first_order_sum(self):
        law = DiscreteLaw(values=np.array([-1.0, 2.0]), probs=np.array([2 / 3, 1 / 3]))
        y = law.values
        f0 = y[:, None, None] + y[None, :, None] + y[None, None, :]
        dec = hoeffding_decompose(f0, law)
        np.testing.assert_allclose(dec.components[0], y - law.mean(), atol=1e-12)
        for comp in dec.components[1:]:
            np.testing.assert_allclose(comp, 0.0, atol=1e-12)

    def test_pairwise_product_rademacher(self):
        f0 = np.outer(RADEMACHER.values, RADEMACHER.values)
        dec = hoeffding_decompose(f0, RADEMACHER)
        np.testing.assert_allclose(dec.components[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(dec.components[1], f0, atol=1e-15)
        assert dec.variance_components() == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_identities_on_random_symmetric_functions(self, rng):
        for _ in range(12):
            s = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            vals = np.sort(rng.standard_normal(s))
            probs = rng.gamma(1.0, size=s)
            law = DiscreteLaw(values=vals, probs=probs / probs.sum())
            f0 = random_symmetric_table(rng, law, m)
            dec = hoeffding_decompose(f0, law)
            # reconstruction on every atom
            np.testing.assert_allclose(dec.reconstruct(), dec.centered, atol=1e-12)
            # conditional-mean-zero: integrating any single argument kills it
            for ell, comp in enumerate(dec.components, start=1):
                for axis in range(ell):
                    reduced = np.tensordot(comp, law.probs, axes=([axis], [0]))
                    np.testing.assert_allclose(reduced, 0.0, atol=1e-12)
            # variance identity
            mass = _product_weights(law.probs, m)
            total = float(np.sum(mass * dec.centered ** 2))
            assert sum(dec.variance_components()) == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("m", [6, 8, 10])
    def test_identities_hold_at_high_order(self, rng, m):
        # h(y_1 + ... + y_m) with a random h is exactly symmetric; the
        # subtract-the-embedded-lower-orders construction missed the
        # conditional-mean identity by 1e-11 at m=6 and by O(1) at m=10
        counts = np.indices((2,) * m).sum(axis=0)
        for _ in range(5):
            f0 = rng.standard_normal(m + 1)[counts]
            dec = hoeffding_decompose(f0, RADEMACHER)
            assert [c.shape for c in dec.components] == [(2,) * ell for ell in range(1, m + 1)]
            np.testing.assert_allclose(dec.reconstruct(), dec.centered, atol=1e-12)
            for ell, comp in enumerate(dec.components, start=1):
                for axis in range(ell):
                    reduced = np.tensordot(comp, RADEMACHER.probs, axes=([axis], [0]))
                    np.testing.assert_allclose(reduced, 0.0, atol=1e-12)
            total = float(np.sum(_product_weights(RADEMACHER.probs, m) * dec.centered ** 2))
            assert sum(dec.variance_components()) == pytest.approx(total, abs=1e-12)

    def test_asymmetric_input_rejected(self):
        f0 = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            hoeffding_decompose(f0, RADEMACHER)

    def test_budget_guard(self, monkeypatch):
        law = DiscreteLaw(values=np.arange(4.0), probs=np.full(4, 0.25))
        monkeypatch.setattr(groups, "ATOM_BUDGET", 10 ** 5)
        with pytest.raises(BudgetExceededError):
            hoeffding_decompose(np.zeros((4,) * 12), law)


class TestProductBasis:
    def test_order_one_is_normalized_sum(self):
        system = GroupSystem.from_lists([[1, 2, 3, 4]])
        tab = product_basis(system, 0, 1, RADEMACHER.values, RADEMACHER)
        grids = np.indices((2, 2, 2, 2))
        expected = RADEMACHER.values[grids].sum(axis=0) / 2.0
        np.testing.assert_allclose(tab, expected, atol=1e-14)
        mass = _product_weights(RADEMACHER.probs, 4)
        assert float(np.sum(mass * tab ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_variance_at_any_order(self, rng):
        law = DiscreteLaw(values=np.array([-1.0, 0.5, 2.0]), probs=np.array([0.3, 0.4, 0.3]))
        system = GroupSystem.from_lists([[1, 2, 3]])
        for ell in (1, 2, 3):
            tab = product_basis(system, 0, ell, rng.standard_normal(3), law)
            mass = _product_weights(law.probs, 3)
            assert float(np.sum(mass * tab ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_cross_covariances_reproduce_group_matrix(self, rng):
        for _ in range(8):
            system = random_group_system(rng, p=3, universe=6, common=bool(rng.integers(2)))
            law = DiscreteLaw.bernoulli(0.4)
            h0 = rng.standard_normal(2)
            for ell in range(1, system.ell_star + 1):
                cov = group_cross_cov(system, ell, h0, law)
                rl = group_matrix(system, ell)
                ix = list(rl.active)
                np.testing.assert_allclose(
                    cov[np.ix_(ix, ix)], rl.matrix[np.ix_(ix, ix)], atol=1e-12
                )

    def test_order_beyond_block_size_rejected(self):
        system = GroupSystem.from_lists([[1, 2], [5, 6, 7]])
        with pytest.raises(ValidationError):
            product_basis(system, 0, 3, RADEMACHER.values, RADEMACHER)

    def test_degenerate_seed_rejected(self):
        system = GroupSystem.from_lists([[1, 2]])
        with pytest.raises(DegenerateInputError):
            product_basis(system, 0, 1, np.ones(2), RADEMACHER)


class TestSolveCt:
    def test_symmetric_law_gives_zero(self):
        for t in (0.1, 0.5, 1.0):
            assert solve_ct(t, RADEMACHER) == pytest.approx(0.0, abs=1e-15)

    def test_bernoulli_half_gives_half_t(self):
        # tan(c) = sin t / (1 + cos t) = tan(t/2) by the half-angle identity
        law = DiscreteLaw.bernoulli(0.5)
        for t in (0.2, 0.8, 1.6):
            assert solve_ct(t, law) == pytest.approx(t / 2.0, abs=1e-12)

    def test_cauchy_symmetric(self):
        assert solve_ct(0.3, CauchyLaw()) == pytest.approx(0.0, abs=1e-15)

    def test_vanishing_cosine_rejected(self):
        with pytest.raises(ValidationError):
            solve_ct(math.pi / 2.0, RADEMACHER)

    def test_degenerate_sin_rejected(self):
        # all support differences are multiples of pi, so sin(t(Y1 - Y2)) = 0
        # almost surely at t = 1 while E cos(tY) = 1/2 stays away from zero
        law = DiscreteLaw(values=np.array([0.0, math.pi]), probs=np.array([0.75, 0.25]))
        with pytest.raises(DegenerateInputError):
            solve_ct(1.0, law)

    @pytest.mark.parametrize("t", [4e-15, 1e-150])
    def test_tiny_t_is_not_degenerate(self, t):
        # sin(2t) is 2t to full relative accuracy, far from the rounding of 2t
        assert solve_ct(t, RADEMACHER) == 0.0
        corr = sin_construction_corr(t, [1, 2], RADEMACHER).corr
        assert corr[0, 1] == pytest.approx(SQRT_HALF, abs=1e-14)

    def test_sin_below_float_resolution_rejected(self):
        # sin(2t)^2 = 4e-600 underflows, and with it every variance of the transform
        with pytest.raises(DegenerateInputError, match="float resolution"):
            solve_ct(1e-300, RADEMACHER)


class TestSinConstruction:
    def test_rademacher_pair_near_limit(self):
        res = sin_construction_corr(0.01, [1, 2], RADEMACHER)
        assert res.corr[0, 1] == pytest.approx(SQRT_HALF, abs=1e-3)

    def test_enumeration_matches_analytic_path(self):
        law = DiscreteLaw.bernoulli(0.3)
        for t in (0.3, 0.05):
            enum, enum_ct = sin_corr_enumerate(t, [1, 2, 4], law)
            anal = sin_construction_corr(t, [1, 2, 4], law)
            np.testing.assert_allclose(enum, anal.corr, atol=1e-11)
            assert enum_ct == pytest.approx(anal.c_t, abs=1e-15)

    def test_cauchy_closed_form(self):
        m = [1, 2, 3]
        res = sin_construction_corr(0.05, m, CauchyLaw())
        for j in range(3):
            for k in range(3):
                want = cauchy_sin_corr_closed_form(0.05, m[j], m[k])
                assert res.corr[j, k] == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-5, 1e-3, 0.5])
    def test_cauchy_closed_form_is_cancellation_free(self, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            tt = mpmath.mpf(t)
            for a, b in ((1, 2), (1, 3), (2, 3), (2, 7)):
                want = mpmath.exp(-(b - a) * tt) * mpmath.sqrt(
                    (1 - mpmath.exp(-2 * a * tt)) / (1 - mpmath.exp(-2 * b * tt)))
                assert abs(cauchy_sin_corr_closed_form(t, a, b) - float(want)) <= 1e-15

    def test_cauchy_approaches_nested_matrix(self):
        m = [1, 2, 3]
        res = sin_construction_corr(1e-3, m, CauchyLaw())
        np.testing.assert_allclose(res.corr, nested_sum_matrix(m), atol=1e-3)

    def test_discrete_approaches_nested_matrix(self):
        law = DiscreteLaw.bernoulli(0.3)
        res = sin_construction_corr(1e-3, [1, 2, 4], law)
        np.testing.assert_allclose(res.corr, nested_sum_matrix([1, 2, 4]), atol=1e-3)

    def test_gap_is_order_t(self):
        # fit the linear constant on the coarse grid, check it bounds the rest
        law = DiscreteLaw.bernoulli(0.3)
        r = nested_sum_matrix([1, 2, 4])
        ts = (0.1, 0.05, 0.01)
        gaps = [
            float(np.max(np.abs(sin_construction_corr(t, [1, 2, 4], law).corr - r)))
            for t in ts
        ]
        c = max(g / t for g, t in zip(gaps, ts))
        for g, t in zip(gaps, ts):
            assert g <= c * t + 1e-12

    def test_rademacher_pair_is_sqrt_half_down_to_tiny_t(self):
        # alpha = cos t and E sin^2 S'_k = (1 - cos^k 2t)/2 make the (1, 2)
        # entry exactly sqrt(1/2) wherever cos t > 0
        for t in np.logspace(-9.0, 0.0, 20):
            res = sin_construction_corr(float(t), [1, 2], RADEMACHER)
            assert abs(res.corr[0, 1] - SQRT_HALF) <= 1e-14

    def test_cauchy_matches_closed_form_down_to_tiny_t(self):
        m = [1, 2, 3]
        for t in np.logspace(-9.0, 0.0, 20):
            res = sin_construction_corr(float(t), m, CauchyLaw())
            want = [[cauchy_sin_corr_closed_form(float(t), a, b) for b in m] for a in m]
            np.testing.assert_allclose(res.corr, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "m, t",
        [
            ((2, 7, 12, 25), 0.3),
            # phi(2t) = cos 2t < 0 puts theta at pi; just past pi/4 it is
            # near 0, where 1 - |phi|^2 would cancel
            ((1, 2, 3), 1.0),
            ((1, 2, 3), math.pi / 4 + 1e-8),
        ],
    )
    def test_rademacher_closed_form(self, m, t):
        c, c2 = math.cos(t), math.cos(2.0 * t)
        want = [
            [c ** abs(b - a) * math.sqrt((1 - c2 ** min(a, b)) / (1 - c2 ** max(a, b))) for b in m]
            for a in m
        ]
        res = sin_construction_corr(t, m, RADEMACHER)
        np.testing.assert_allclose(res.corr, want, rtol=0, atol=1e-13)

    def test_zero_modulus_corner(self):
        # phi(2t) = cos 2t vanishes at t = pi/4, so every E sin^2 S'_k is 1/2
        res = sin_construction_corr(math.pi / 4, [1, 2], RADEMACHER)
        assert abs(res.corr[0, 1] - SQRT_HALF) <= 1e-14
        # phi(s) = cos^2(s/2) is exactly 0.0 in floating point at s = pi
        law = DiscreteLaw(values=np.array([-1.0, 0.0, 1.0]), probs=np.array([0.25, 0.5, 0.25]))
        assert law.log_abs_cf(math.pi) == -math.inf
        m = [1, 2, 4]
        res = sin_construction_corr(math.pi / 2, m, law)
        alpha = 0.5 + 0.5 * math.cos(math.pi / 2)
        np.testing.assert_allclose(
            res.corr, [[alpha ** abs(a - b) for b in m] for a in m], rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(res.corr, sin_corr_enumerate(math.pi / 2, m, law)[0], atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        values=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4, unique=True),
        weights=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        m=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        t=st.floats(1e-3, 1.0),
    )
    def test_matches_enumeration(self, values, weights, m, t):
        vals = np.array(values)
        probs = np.array(weights[: vals.size])
        law = DiscreteLaw(values=vals, probs=probs / probs.sum())
        try:
            solve_ct(t, law)
        except ValidationError:
            assume(False)
        m = sorted(m)
        want, want_ct = sin_corr_enumerate(t, m, law)
        res = sin_construction_corr(t, m, law)
        np.testing.assert_allclose(res.corr, want, rtol=0, atol=1e-12)
        assert res.c_t == want_ct
