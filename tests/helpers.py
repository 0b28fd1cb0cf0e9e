"""Shared random-instance generators and s^u enumeration references."""

import itertools
import math

import numpy as np

from nlcorr import (
    BudgetExceededError,
    DegenerateInputError,
    DiscreteJoint,
    DiscreteLaw,
    GroupSystem,
    ValidationError,
    solve_ct,
)
from nlcorr.groups import ATOM_BUDGET


def atom_grid(size: int, width: int) -> np.ndarray:
    """All index tuples of support^width as an (size^width, width) array."""
    flat = np.arange(size ** width)
    return np.stack(np.unravel_index(flat, (size,) * width), axis=1)


def random_joint(rng, sizes) -> DiscreteJoint:
    """A dense random joint pmf over the given support sizes."""
    sizes = list(sizes)
    n_atoms = int(np.prod(sizes))
    prob = rng.gamma(1.0, size=n_atoms)
    prob /= prob.sum()
    idx = np.array(list(itertools.product(*[range(s) for s in sizes])), dtype=np.int64)
    supports = [list(range(s)) for s in sizes]
    return DiscreteJoint.from_atoms(supports, idx, prob)


def random_symmetric_table(rng, law: DiscreteLaw, m: int) -> np.ndarray:
    """A random permutation-symmetric tabulated function on support^m."""
    raw = rng.standard_normal((law.size,) * m)
    out = np.zeros_like(raw)
    for perm in itertools.permutations(range(m)):
        out += np.transpose(raw, perm)
    return out


def random_group_system(rng, *, p: int, universe: int, common: bool) -> GroupSystem:
    """Random groups over labels 1..universe, optionally sharing label 1."""
    groups = []
    for _ in range(p):
        size = int(rng.integers(1, universe))
        labels = set(rng.choice(np.arange(1, universe + 1), size=size, replace=False).tolist())
        if common:
            labels.add(1)
        groups.append(sorted(labels))
    return GroupSystem.from_lists(groups)


def random_sorted_m(rng, *, p: int, universe: int) -> list[int]:
    m = np.sort(rng.integers(1, universe + 1, size=p))
    return [int(x) for x in m]


def enumerated_group_sums_joint(
    system: GroupSystem, law: DiscreteLaw, *, budget: int = ATOM_BUDGET
) -> DiscreteJoint:
    """Reference joint law of the block sums: enumerates all s^u label tuples."""
    universe = system.universe
    u = len(universe)
    s = law.size
    if s ** u > budget:
        raise BudgetExceededError(f"enumeration budget exceeded: {s}^{u} atoms")
    pos = {lab: i for i, lab in enumerate(universe)}
    idx = atom_grid(s, u)
    weight = np.prod(law.probs[idx], axis=1)
    yvals = law.values[idx]
    sums = np.zeros((idx.shape[0], system.nvars))
    for j, g in enumerate(system.groups):
        cols = [pos[lab] for lab in sorted(g)]
        sums[:, j] = yvals[:, cols].sum(axis=1)
    supports, atom_idx = [], []
    for j, g in enumerate(system.groups):
        vals, inv = np.unique(sums[:, j], return_inverse=True)
        # the same sum reached in another order may differ in its last bits;
        # two roundings of a sum of n terms differ by at most n eps sum|y_i|
        tol = len(g) ** 2 * np.finfo(float).eps * float(np.abs(law.values).max())
        first = np.concatenate(([True], np.diff(vals) > tol))
        supports.append(vals[first].tolist())
        atom_idx.append((np.cumsum(first) - 1)[inv])
    return DiscreteJoint.from_atoms(supports, np.stack(atom_idx, axis=1), weight)


def standardize_h0(h0_values, law: DiscreteLaw) -> np.ndarray:
    """Center and scale a tabulated seed function to mean 0, variance 1."""
    h = np.asarray(h0_values, dtype=float)
    if h.shape != law.values.shape:
        raise ValidationError("h0 must be tabulated on the law support")
    h = h - float(law.probs @ h)
    var = float(law.probs @ h ** 2)
    if var <= 0.0:
        raise DegenerateInputError("h0 has zero variance under the law")
    return h / math.sqrt(var)


def elementary_symmetric(values: np.ndarray, ell: int, axis: int = -1) -> np.ndarray:
    """Elementary symmetric polynomial e_l across one axis of an array."""
    vals = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    e = np.zeros((ell + 1,) + vals.shape[1:])
    e[0] = 1.0
    for v in vals:
        for k in range(ell, 0, -1):
            e[k] = e[k] + e[k - 1] * v
    return e[ell]


def product_basis(
    system: GroupSystem, j: int, ell: int, h0_values, law: DiscreteLaw
) -> np.ndarray:
    """The normalized order-l product function of block j, tabulated on support^m_j.

    C(m_j, l)^{-1/2} sum_{|S| = l} prod_{i in S} h0(Y_i), with h0 standardized
    to mean 0 and variance 1; the result has unit variance and its
    cross-covariances across blocks reproduce R^(l).
    """
    if not 0 <= j < system.nvars:
        raise ValidationError(f"block index {j} out of range")
    mj = system.sizes[j]
    if not 1 <= ell <= mj:
        raise ValidationError(f"order {ell} exceeds block size {mj}")
    h = standardize_h0(h0_values, law)
    s = law.size
    if s ** mj > ATOM_BUDGET:
        raise BudgetExceededError(f"enumeration budget exceeded: {s}^{mj} atoms")
    grids = np.indices((s,) * mj)
    hvals = h[grids]  # shape (mj, s, ..., s)
    e = elementary_symmetric(hvals, ell, axis=0)
    return e / math.sqrt(math.comb(mj, ell))


def group_cross_cov(
    system: GroupSystem, ell: int, h0_values, law: DiscreteLaw
) -> np.ndarray:
    """Exact covariance matrix of the order-l product functions across blocks.

    Enumerates the label universe; entries for inactive blocks are zero. The
    attainment cross-check against the R^(l) formula.
    """
    universe = system.universe
    u = len(universe)
    s = law.size
    if s ** u > ATOM_BUDGET:
        raise BudgetExceededError(f"enumeration budget exceeded: {s}^{u} atoms")
    h = standardize_h0(h0_values, law)
    pos = {lab: i for i, lab in enumerate(universe)}
    idx = atom_grid(s, u)
    weight = np.prod(law.probs[idx], axis=1)
    hvals = h[idx]  # (atoms, u)
    p = system.nvars
    feats = np.zeros((idx.shape[0], p))
    for j, g in enumerate(system.groups):
        if system.sizes[j] < ell:
            continue
        cols = [pos[lab] for lab in sorted(g)]
        e = elementary_symmetric(hvals[:, cols], ell, axis=1)
        feats[:, j] = e / math.sqrt(math.comb(len(cols), ell))
    mu = weight @ feats
    centered = feats - mu
    return (centered * weight[:, None]).T @ centered


def sin_corr_enumerate(t: float, m, law: DiscreteLaw) -> tuple[np.ndarray, float]:
    """Reference sin-construction correlations: enumerates all s^max(m) tuples."""
    ct = solve_ct(t, law)
    mp = max(m)
    s = law.size
    if s ** mp > ATOM_BUDGET:
        raise BudgetExceededError(f"enumeration budget exceeded: {s}^{mp} atoms")
    idx = atom_grid(s, mp)
    weight = np.prod(law.probs[idx], axis=1)
    sums = np.cumsum(law.values[idx], axis=1)
    cols = np.array([mi - 1 for mi in m])
    feats = np.sin(t * sums[:, cols] - np.asarray(m, dtype=float) * ct)
    mu = weight @ feats
    centered = feats - mu
    cov = (centered * weight[:, None]).T @ centered
    d = np.sqrt(np.diag(cov))
    if np.any(d <= 0):
        raise DegenerateInputError("sin transform is degenerate at this t")
    return cov / np.outer(d, d), ct
