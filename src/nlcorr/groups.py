"""Correlation spectra of nested sums and group systems over iid variables.

Machinery for symmetric functions of variable groups G_1, ..., G_p drawn from
one iid sequence:

- the nested-sum correlation matrix R_jk = (m_j ^ m_k) / sqrt(m_j m_k),
- the order-l interaction matrices
      R^(l)_jk = C(|G_j n G_k|, l) / sqrt(C(|G_j|, l) C(|G_k|, l))
  restricted to the active sets J^(l) = {j : |G_j| >= l}, with 0/0 = 0,
- extreme symmetric nonlinear correlations: the maximum is always the largest
  eigenvalue of R o W; the minimum is the smallest eigenvalue of
  (R^(l) o W)_{J^(l)} minimized over l, collapsing to l = 1 whenever a shadow
  system per the combinatorial feasibility condition exists,
- the shadow-system search: a common label answers at once; otherwise a
  depth-first search on an explicit stack gives each fresh label to the
  first pair of groups, in lexicographic order, still short of its target,
  together with a clique of later groups whose pairs are still short, the
  labels of one pair in nonincreasing order of holders. It answers
  "feasible" with a verified witness, "infeasible" when the stack empties,
  or "unknown" after ``SHADOW_NODE_BUDGET`` steps,
- the Hoeffding decomposition of a symmetric tabulated function into pure
  interaction orders, with its reconstruction, conditional-mean-zero, and
  variance identities,
- exact joint laws of the block sums for the finite-support oracle, built
  from independent Venn-cell sums (labels in exactly the same groups) and
  the law's convolution powers, never from the s^u label tuples,
- the sin-transform construction sin(t S - m c_t) whose correlations converge
  to R as t -> 0+ even without second moments; c_t in (-pi/2, pi/2) solves
  E[sin(tY - c_t)] = 0, and the correlations follow exactly from the law's
  characteristic function, for any t and sum length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    DimensionMismatchError,
    ValidationError,
)
from .maxcorr import DiscreteJoint
from .spectra import as_corr_matrix, as_weight_matrix, full_spectrum

ATOM_BUDGET = 10 ** 6
EXACT_TOL = 1e-12
# steps off the shadow-system search stack before it answers "unknown"
SHADOW_NODE_BUDGET = 200_000


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteLaw:
    """A finite-support law with positive-mass atoms; must be non-degenerate."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        q = np.asarray(self.probs, dtype=float)
        if v.ndim != 1 or v.shape != q.shape or v.size < 1:
            raise ValidationError("law needs matching 1-d value/probability vectors")
        if np.unique(v).size != v.size:
            raise ValidationError("law support values must be distinct")
        if np.any(q < 0) or abs(float(q.sum()) - 1.0) > EXACT_TOL:
            raise ValidationError("law probabilities must be nonnegative and sum to 1")
        keep = q > 0
        v, q = v[keep], q[keep]
        if v.size < 2:
            raise DegenerateInputError("law is concentrated at a single point")
        order = np.argsort(v)
        object.__setattr__(self, "values", v[order])
        object.__setattr__(self, "probs", q[order])

    @property
    def size(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(self.probs @ self.values)

    def trig_moments(self, t: float) -> tuple[float, float]:
        """(E cos(tY), E sin(tY)) by direct summation."""
        return (
            float(self.probs @ np.cos(t * self.values)),
            float(self.probs @ np.sin(t * self.values)),
        )

    def log_abs_cf(self, s: float) -> float:
        """log|E e^{isY}|, free of cancellation at both ends of |phi| in [0, 1].

        Near |phi| = 1 the pair form 1 - |phi|^2 = 2 sum_ab p_a p_b
        sin^2(s(a - b)/2) keeps 1 - |phi| to full relative accuracy; below
        |phi|^2 = 1/2 the moments give |phi| directly, which the pair form
        would lose to cancellation as |phi| -> 0. Returns -inf at phi = 0.
        """
        c, sn = self.trig_moments(s)
        if c * c + sn * sn < 0.5:
            mod = math.hypot(c, sn)
            return math.log(mod) if mod > 0.0 else -math.inf
        diffs = self.values[:, None] - self.values[None, :]
        pair_sum = float(self.probs @ np.sin(s * diffs / 2.0) ** 2 @ self.probs)
        return 0.5 * math.log1p(-2.0 * pair_sum)

    @classmethod
    def rademacher(cls) -> "DiscreteLaw":
        return cls(values=np.array([-1.0, 1.0]), probs=np.array([0.5, 0.5]))

    @classmethod
    def bernoulli(cls, p: float) -> "DiscreteLaw":
        if not 0.0 < p < 1.0:
            raise ValidationError("bernoulli parameter must lie in (0, 1)")
        return cls(values=np.array([0.0, 1.0]), probs=np.array([1.0 - p, p]))


@dataclass(frozen=True)
class CauchyLaw:
    """Standard Cauchy; closed-form trig moments from the characteristic function."""

    def trig_moments(self, t: float) -> tuple[float, float]:
        return (math.exp(-abs(t)), 0.0)

    def log_abs_cf(self, s: float) -> float:
        """log|E e^{isY}| = -|s|."""
        return -abs(s)


def named_law(name: str):
    """Resolve 'rademacher', 'bernoulli(p)', or 'cauchy' to a law object."""
    key = name.strip().lower()
    if key == "rademacher":
        return DiscreteLaw.rademacher()
    if key == "cauchy":
        return CauchyLaw()
    if key.startswith("bernoulli(") and key.endswith(")"):
        return DiscreteLaw.bernoulli(float(key[len("bernoulli("):-1]))
    raise ValidationError(f"unknown law {name!r}")


# ---------------------------------------------------------------------------
# group systems and their matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSystem:
    """Index groups G_1..G_p of positive-integer labels over one iid sequence."""

    groups: tuple[frozenset[int], ...]

    def __post_init__(self):
        gs = tuple(frozenset(int(i) for i in g) for g in self.groups)
        if len(gs) < 1:
            raise ValidationError("need at least one group")
        for j, g in enumerate(gs):
            if not g:
                raise ValidationError(f"group {j} is empty")
            if any(i < 1 for i in g):
                raise ValidationError(f"group {j} has non-positive labels")
        object.__setattr__(self, "groups", gs)

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "GroupSystem":
        return cls(groups=tuple(frozenset(g) for g in lists))

    @property
    def nvars(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    @property
    def ell_star(self) -> int:
        return max(self.sizes)

    @property
    def universe(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*self.groups)))

    def intersection_sizes(self) -> np.ndarray:
        p = self.nvars
        out = np.zeros((p, p), dtype=np.int64)
        for j in range(p):
            for k in range(p):
                out[j, k] = len(self.groups[j] & self.groups[k])
        return out


def nested_sum_matrix(m) -> np.ndarray:
    """Correlation matrix of nested partial sums: (m_j ^ m_k) / sqrt(m_j m_k)."""
    mv = np.asarray(m, dtype=np.int64)
    if mv.ndim != 1 or mv.size < 1:
        raise ValidationError("need a 1-d vector of sum lengths")
    if np.any(mv < 1):
        raise ValidationError("sum lengths must be positive integers")
    mf = mv.astype(float)
    r = np.minimum(mf[:, None], mf[None, :]) / np.sqrt(np.outer(mf, mf))
    return as_corr_matrix(r)


@dataclass(frozen=True)
class EllMatrix:
    """Order-l interaction matrix with its active set J^(l).

    ``matrix`` is p x p with rows/columns of inactive variables zeroed;
    ``active`` lists the indices of J^(l) = {j : |G_j| >= l}.
    """

    matrix: np.ndarray
    active: tuple[int, ...]


def group_matrix(system: GroupSystem, ell: int) -> EllMatrix:
    """The order-l matrix R^(l) of a group system, with the convention 0/0 = 0."""
    if not 1 <= ell <= system.ell_star:
        raise ValidationError(
            f"order must satisfy 1 <= l <= {system.ell_star}, got {ell}"
        )
    p = system.nvars
    sizes = system.sizes
    inter = system.intersection_sizes()
    active = tuple(j for j in range(p) if sizes[j] >= ell)
    mat = np.zeros((p, p))
    for j in active:
        for k in active:
            # exact integers up to one correctly rounded division: the
            # product of the two combs can pass the float range
            num = math.comb(int(inter[j, k]), ell)
            mat[j, k] = math.sqrt(num * num / (math.comb(sizes[j], ell) * math.comb(sizes[k], ell)))
    return EllMatrix(matrix=mat, active=active)


@dataclass(frozen=True)
class SymmExtremes:
    """Extreme symmetric nonlinear correlations of a group system."""

    rho_max: float
    rho_min: float
    argmin_ell: int
    min_by_ell: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "rho_max": self.rho_max,
            "rho_min": self.rho_min,
            "argmin_ell": self.argmin_ell,
            "min_by_ell": list(self.min_by_ell),
        }


def extreme_symm(system: GroupSystem, w) -> SymmExtremes:
    """Extremes over symmetric transforms of the groups, weighted by W.

    The maximum is the largest eigenvalue of R^(1) o W. The minimum scans the
    smallest eigenvalue of (R^(l) o W) restricted to the active set over all
    orders l = 1..max_j |G_j| and reports the attaining order.
    """
    ww = as_weight_matrix(w)
    if ww.shape[0] != system.nvars:
        raise DimensionMismatchError("weight matrix dimension differs from group count")
    r1 = group_matrix(system, 1)
    rho_max = float(full_spectrum(r1.matrix * ww)[-1])
    mins = []
    for ell in range(1, system.ell_star + 1):
        rl = group_matrix(system, ell)
        ix = np.asarray(rl.active, dtype=np.int64)
        sub = (rl.matrix * ww)[np.ix_(ix, ix)]
        mins.append(float(np.linalg.eigvalsh(sub)[0]))
    argmin = int(np.argmin(mins))
    return SymmExtremes(
        rho_max=rho_max,
        rho_min=mins[argmin],
        argmin_ell=argmin + 1,
        min_by_ell=tuple(mins),
    )


# ---------------------------------------------------------------------------
# shadow-system feasibility (the combinatorial condition behind argmin l = 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShadowSystemResult:
    """Outcome of the shadow-system search.

    ``status`` is "feasible" (witness attached), "infeasible" (search space
    exhausted), or "unknown" (node budget hit before exhaustion).
    """

    status: str
    witness: tuple[frozenset[int], ...] | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _verify_shadow(system: GroupSystem, shadow) -> bool:
    inter = system.intersection_sizes()
    p = system.nvars
    for j in range(p):
        if len(shadow[j]) > len(system.groups[j]) - 1:
            return False
        for k in range(j + 1, p):
            target = max(int(inter[j, k]) - 1, 0)
            if len(shadow[j] & shadow[k]) != target:
                return False
    return True


def assumption_c_check(system: GroupSystem) -> ShadowSystemResult:
    """Search for shadow groups with intersections (|G_j n G_k| - 1)_+ and sizes <= |G_j| - 1.

    A common element i0 of all groups yields the immediate witness
    G_j \\ {i0}. Otherwise a depth-first search on an explicit stack adds
    fresh labels, each held by at least two shadows. A label goes to the first
    pair (j, k) still short of its target; its holders are j, k and a clique,
    among the groups after k, of still-short pairs, grown one group at a time.
    The labels of one pair come in nonincreasing order of holder tuple, so
    each multiset is visited once, and a state where a pair lacks more labels
    than a holder has room for is cut. The status is "feasible" with a witness
    that ``_verify_shadow`` accepts, "infeasible" when the stack empties, or
    "unknown" when ``SHADOW_NODE_BUDGET`` steps off the stack run out first.
    """
    p = system.nvars
    common = frozenset.intersection(*system.groups)
    if common:
        i0 = min(common)
        witness = tuple(g - {i0} for g in system.groups)
        if not _verify_shadow(system, witness):
            raise AssertionError("common-element shortcut produced an invalid witness")
        return ShadowSystemResult(status="feasible", witness=witness)

    inter = system.intersection_sizes()
    # res[j][k]: labels the pair (j, k) still lacks; room[j]: labels shadow j can still take
    res = [[max(int(inter[j, k]) - 1, 0) if j != k else 0 for k in range(p)] for j in range(p)]
    room = [len(g) - 1 for g in system.groups]
    # an entry commits the label ``holders`` on top of ``labels``, a linked list
    # of (holders, rest), or grows it by one of ``cands``; the root commits none
    stack = [(res, room, None, (), [])]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > SHADOW_NODE_BUDGET:
            return ShadowSystemResult(status="unknown")
        res, room, labels, holders, cands = stack.pop()
        last = labels[0] if labels and labels[0][:2] == holders[:2] else None
        for n, i in enumerate(cands):
            grown = holders + (i,)
            if last is None or grown <= last:
                stack.append((res, room, labels, grown, [x for x in cands[n + 1:] if res[i][x]]))
        res, room = list(res), list(room)
        for j in holders:
            room[j] -= 1
            row = res[j] = res[j][:]
            for k in holders:
                row[k] -= k != j
        if any(max(res[j]) > room[j] for j in holders):
            continue
        if holders:
            labels = (holders, labels)
        pair = next(((j, k) for j in range(holders[0] if holders else 0, p)
                     for k in range(j + 1, p) if res[j][k]), None)
        if pair is None:
            break
        j, k = pair
        cands = [i for i in range(k + 1, p) if res[j][i] and res[k][i]]
        stack.append((res, room, labels, pair, cands))
    else:
        return ShadowSystemResult(status="infeasible")

    shadow = [set() for _ in range(p)]
    label = max(system.universe) + 1
    while labels:
        holders, labels = labels
        for j in holders:
            shadow[j].add(label)
        label += 1
    witness = tuple(frozenset(s) for s in shadow)
    if not _verify_shadow(system, witness):
        raise AssertionError("shadow search produced an invalid witness")
    return ShadowSystemResult(status="feasible", witness=witness)


# ---------------------------------------------------------------------------
# Hoeffding decomposition of symmetric tabulated functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HoeffdingDecomposition:
    """Interaction components of a centered symmetric tabulated function.

    ``components[l - 1]`` tabulates the order-l component on support^l. The
    decomposition satisfies, atom by atom,

    - reconstruction: f_0 = sum_l sum_{i_1 < ... < i_l} f_{0,l}(y_{i_1..i_l}),
    - conditional-mean-zero: integrating any single argument of f_{0,l}
      against the law gives 0,
    - the variance identity E f_0^2 = sum_l C(m, l) E f_{0,l}^2.
    """

    law: DiscreteLaw
    order: int
    centered: np.ndarray
    components: tuple[np.ndarray, ...]

    def variance_components(self) -> tuple[float, ...]:
        """C(m, l) E[f_{0,l}^2] per order l."""
        out = []
        for ell, comp in enumerate(self.components, start=1):
            mass = _product_weights(self.law.probs, ell)
            out.append(math.comb(self.order, ell) * float(np.sum(mass * comp ** 2)))
        return tuple(out)

    def reconstruct(self) -> np.ndarray:
        m = self.order
        total = np.zeros_like(self.centered)
        for ell, comp in enumerate(self.components, start=1):
            for axes in itertools.combinations(range(m), ell):
                total = total + _embed(comp, axes, m, self.law.size)
        return total


def _product_weights(probs: np.ndarray, ell: int) -> np.ndarray:
    w = probs
    for _ in range(ell - 1):
        w = np.multiply.outer(w, probs)
    return w


def _embed(comp: np.ndarray, axes, m: int, s: int) -> np.ndarray:
    shape = [1] * m
    for pos, ax in enumerate(axes):
        shape[ax] = s
    # symmetric components make the axis order within `axes` irrelevant
    return comp.reshape(shape)


def _check_symmetric(arr: np.ndarray, m: int) -> None:
    # adjacent transpositions generate the full symmetric group
    for i in range(m - 1):
        perm = list(range(m))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if np.max(np.abs(arr - np.transpose(arr, perm))) > EXACT_TOL:
            raise ValidationError("function table is not permutation symmetric")


def hoeffding_decompose(f0, law: DiscreteLaw) -> HoeffdingDecomposition:
    """Decompose a symmetric tabulated function into pure interaction orders.

    ``f0`` is an array of shape (s, ..., s) with one axis per argument. The
    function is centered first if its mean is not already zero. Components
    come from the projector (ANOVA) form of Hoeffding (1948) and Efron & Stein
    (1981): the order-k component is prod_{i <= k} (I - E_i) applied to
    E[f_0 | Y_1..Y_k], E_i averaging out argument i against the law. Each
    order costs one subtraction per argument and carries no remainder, so
    rounding errors do not cascade from lower orders.
    """
    arr = np.asarray(f0, dtype=float)
    m = arr.ndim
    s = law.size
    if arr.shape != (s,) * m:
        raise ValidationError(
            f"function table shape {arr.shape} does not match support size {s}"
        )
    if s ** m > ATOM_BUDGET:
        raise BudgetExceededError(f"enumeration budget exceeded: {s}^{m} atoms")
    _check_symmetric(arr, m)
    mass = _product_weights(law.probs, m)
    mean = float(np.sum(mass * arr))
    centered = arr - mean

    components: list[np.ndarray] = []
    cond = centered
    for k in range(m, 0, -1):
        comp = cond
        for axis in range(k):
            comp = comp - np.expand_dims(np.tensordot(comp, law.probs, axes=([axis], [0])), axis)
        components.append(comp)
        cond = np.tensordot(cond, law.probs, axes=([k - 1], [0]))
    components.reverse()
    return HoeffdingDecomposition(
        law=law, order=m, centered=centered, components=tuple(components)
    )


# ---------------------------------------------------------------------------
# iid-sum joints for the exact oracle
#
# A block sum splits into independent sums over Venn cells, the sets of
# labels that belong to exactly the same groups, so the joint law needs only
# the convolution powers of the law, one per cell size (Dembo, Kagan & Shepp
# 2001 use the same split for nested partial sums). ``ATOM_BUDGET`` bounds
# the number of atoms actually built: the product of the cells' support sizes.
# ---------------------------------------------------------------------------


def _merge_rounded_sums(sums: np.ndarray, n_terms: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of float sums of ``n_terms`` terms of size <= ``scale``.

    The same exact sum reached in another order may differ in its last bits,
    by at most about n eps sum|y_i|, so adjacent sorted values closer than
    n^2 eps scale are one value, represented by the smallest. Returns the
    values and, for each sum, the index of its value.
    """
    vals, inv = np.unique(sums, return_inverse=True)
    tol = n_terms ** 2 * np.finfo(float).eps * scale
    first = np.concatenate(([True], np.diff(vals) > tol))
    return vals[first], (np.cumsum(first) - 1)[inv]


def _sum_laws(law: DiscreteLaw, lengths) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Support and pmf of Y_1 + ... + Y_n for each n in ``lengths``.

    Convolution powers by repeated convolution with the law, rounding splits
    merged after every step. A power with more than ``ATOM_BUDGET`` support points
    raises, since every later power is at least as large.
    """
    scale = float(np.abs(law.values).max())
    vals, probs = law.values, law.probs
    out = {}
    for n in range(1, max(lengths) + 1):
        if n > 1:
            vals, lab = _merge_rounded_sums((vals[:, None] + law.values).ravel(), n, scale)
            probs = np.bincount(lab, weights=np.outer(probs, law.probs).ravel(), minlength=vals.size)
            if vals.size > ATOM_BUDGET:
                raise BudgetExceededError(
                    f"enumeration budget exceeded: a {n}-term sum has {vals.size} support "
                    f"points, over the budget of {ATOM_BUDGET} cell-support product atoms"
                )
        if n in lengths:
            out[n] = (vals, probs)
    return out


def group_sums_joint(system: GroupSystem, law: DiscreteLaw) -> DiscreteJoint:
    """Exact joint law of the block sums sum_{i in G_j} Y_i from Venn-cell sums.

    Labels in exactly the same groups form one Venn cell; the cell sums are
    independent, each with the convolution power of the law for its size, and
    every block sum is the sum of its cells' sums (for nested sums the cells
    are the independent increments). The atoms are the product of the cells'
    supports, at most ``ATOM_BUDGET`` of them, each with the product of its cells'
    masses.
    """
    cells: dict[tuple[bool, ...], int] = {}
    for lab in system.universe:
        key = tuple(lab in g for g in system.groups)
        cells[key] = cells.get(key, 0) + 1
    laws = _sum_laws(law, set(cells.values()))
    cell_laws = [laws[n] for n in cells.values()]
    shape = tuple(vals.size for vals, _ in cell_laws)
    count = math.prod(shape)
    if count > ATOM_BUDGET:
        raise BudgetExceededError(
            f"enumeration budget exceeded: {count} cell-support product atoms "
            f"over {len(shape)} Venn cells"
        )
    # the atoms fill a C-order grid with one axis per cell; a block sum varies
    # only along its own cells' axes, so it is summed and labelled on that
    # sub-grid and broadcast to the full grid
    def along(c: int, a: np.ndarray) -> np.ndarray:
        return a.reshape([-1 if i == c else 1 for i in range(len(shape))])

    weight = cell_laws[0][1]
    for _, probs in cell_laws[1:]:
        weight = np.multiply.outer(weight, probs)
    scale = float(np.abs(law.values).max())
    supports, labels = [], []
    for j, g in enumerate(system.groups):
        sums = np.zeros([1] * len(shape))
        for c, (key, (vals, _)) in enumerate(zip(cells, cell_laws)):
            if key[j]:
                sums = sums + along(c, vals)
        vals, lab = _merge_rounded_sums(sums.ravel(), len(g), scale)
        supports.append(vals.tolist())
        labels.append(lab.reshape(sums.shape))
    # product atoms with the same label in every block are one atom of the
    # joint. When the labels' mixed-radix code (block 0 most significant, so
    # codes sort as label rows do) fits in int64, they are merged here by code,
    # built on the sub-grids, so that no (count, p) label array is formed
    sizes = [len(s) for s in supports]
    if math.prod(sizes) >= 2 ** 63:
        idx = np.stack([np.broadcast_to(lab, shape).ravel() for lab in labels], axis=1)
        return DiscreteJoint.from_atoms(supports, idx, weight.ravel())
    code = np.zeros([1] * len(shape), dtype=np.int64)
    for lab, n in zip(labels, sizes):
        code = code * n + lab
    code, inv = np.unique(code.ravel(), return_inverse=True)
    mass = np.bincount(inv, weights=weight.ravel())
    idx = np.empty((code.size, len(sizes)), dtype=np.int64)
    for j in reversed(range(len(sizes))):
        code, idx[:, j] = np.divmod(code, sizes[j])
    return DiscreteJoint.from_atoms(supports, idx, mass)


def nested_sums_joint(m, law: DiscreteLaw) -> DiscreteJoint:
    """Exact joint law of the nested partial sums S_{m_1}, ..., S_{m_p}."""
    mv = [int(x) for x in m]
    if any(x < 1 for x in mv):
        raise ValidationError("sum lengths must be positive")
    system = GroupSystem.from_lists([range(1, x + 1) for x in mv])
    return group_sums_joint(system, law)


# ---------------------------------------------------------------------------
# the sin construction (heavy-tail attainment)
# ---------------------------------------------------------------------------


def solve_ct(t: float, law) -> float:
    """The phase c_t in (-pi/2, pi/2) with E[sin(tY - c_t)] = 0.

    Requires E[cos(tY)] != 0 at this t and a non-degenerate sin transform
    (P{sin(t(Y1 - Y2)) = 0} < 1 for discrete laws); invalid t are rejected.
    """
    if t <= 0:
        raise ValidationError("t must be positive")
    ec, es = law.trig_moments(t)
    if abs(ec) < 1e-14:
        raise ValidationError(f"E cos(tY) vanishes at t={t}; pick another t")
    if isinstance(law, DiscreteLaw):
        # sin x counts as zero within the rounding of x itself (x = k pi), and
        # where its square, which the transform's variances scale with,
        # underflows the normal floats
        x = t * (law.values[:, None] - law.values[None, :])
        sin_x = np.abs(np.sin(x))
        fin = np.finfo(float)
        if np.all((sin_x <= 4.0 * fin.eps * np.abs(x)) | (sin_x * sin_x < fin.tiny)):
            raise DegenerateInputError(
                f"sin(t(Y1 - Y2)) vanishes almost surely, or below float "
                f"resolution, at t={t}"
            )
    ct = math.atan(es / ec)
    residual = abs(math.cos(ct) * es - math.sin(ct) * ec)  # E sin(tY - c_t)
    if residual > EXACT_TOL:
        raise ValidationError(f"phase solve residual {residual} exceeds tolerance")
    return ct


@dataclass(frozen=True)
class SinConstructionResult:
    """Correlation matrix of the sin-transformed nested sums at parameter t."""

    corr: np.ndarray
    c_t: float


def sin_construction_corr(t: float, m, law) -> SinConstructionResult:
    """Correlation matrix of sin(t S_{m_j} - m_j c_t) for nested sums of the law.

    Entries converge to the nested-sum matrix entrywise as t -> 0+, which
    realizes the extreme correlations without any moment condition. They are
    exact for every law with a characteristic function, from independent
    increments: with Y' = tY - c_t, alpha = E cos Y' and S'_k a sum of k
    terms, corr = alpha^{b - a} sqrt(E sin^2 S'_a / E sin^2 S'_b) for a <= b.
    With r e^{i theta} = E e^{2iY'}, E sin^2 S'_k = (1 - r^k cos k theta)/2 is
    evaluated as (-expm1(k log r) + 2 r^k sin^2(k theta / 2))/2, so it keeps
    full relative accuracy as t -> 0+ (r -> 1) and at r = 0.
    """
    mv = [int(x) for x in m]
    if not mv or any(x < 1 for x in mv):
        raise ValidationError("need one or more positive sum lengths")
    ct = solve_ct(t, law)
    ec, es = law.trig_moments(t)
    alpha = math.cos(ct) * ec + math.sin(ct) * es
    ec2, es2 = law.trig_moments(2.0 * t)
    theta = math.atan2(es2, ec2) - 2.0 * ct
    log_r = law.log_abs_cf(2.0 * t)  # -inf where r = 0, giving r^k = 0

    def sin2(k: np.ndarray) -> np.ndarray:
        """E sin^2 S'_k."""
        k_log_r = k * log_r
        return (-np.expm1(k_log_r) + 2.0 * np.exp(k_log_r) * np.sin(k * theta / 2.0) ** 2) / 2.0

    k = np.asarray(mv, dtype=np.int64)
    lo, hi = np.minimum.outer(k, k), np.maximum.outer(k, k)
    sin2_lo = sin2(lo)  # every sum length is on its diagonal
    if np.any(sin2_lo <= 0):
        raise DegenerateInputError("sin transform is degenerate at this t")
    corr = alpha ** (hi - lo) * np.sqrt(sin2_lo / sin2(hi))
    return SinConstructionResult(corr=corr, c_t=ct)


def cauchy_sin_corr_closed_form(t: float, m_small: int, m_large: int) -> float:
    """Reference value for the standard Cauchy sin construction.

    e^{-(n - m) t} sqrt((1 - e^{-2 m t}) / (1 - e^{-2 n t})) for m <= n, from
    the product expansion of the characteristic function; both differences
    are taken by expm1, so the value keeps full accuracy as t -> 0+.
    """
    if m_small > m_large:
        m_small, m_large = m_large, m_small
    return math.exp(-(m_large - m_small) * t) * math.sqrt(
        math.expm1(-2.0 * m_small * t) / math.expm1(-2.0 * m_large * t)
    )
