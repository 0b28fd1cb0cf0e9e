"""Shared random-instance generators and loop-form references of batched kernels."""

import itertools
import math

import numpy as np

from nlcorr import (
    BudgetExceededError,
    CompatibilityQuery,
    DegenerateInputError,
    DiscreteJoint,
    DiscreteLaw,
    GroupSystem,
    ValidationError,
    solve_ct,
)
from nlcorr.additive import _basis_columns
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


def brute_force_shadow_status(system: GroupSystem) -> str | None:
    """"feasible" or "infeasible" by trying every multiplicity of every holder set.

    A shadow label matters only through the set of shadows holding it, and one
    held by a single shadow meets no target, so a shadow system is a count for
    each subset of at least two groups, at most the smallest target among its
    pairs. Tries all such counts at once, or returns None when there are more
    than 200000 of them.
    """
    p = system.nvars
    inter = system.intersection_sizes()
    pairs = list(itertools.combinations(range(p), 2))
    target = np.array([max(int(inter[pair]) - 1, 0) for pair in pairs])
    caps = np.array([len(g) - 1 for g in system.groups])
    subsets = [s for r in range(2, p + 1) for s in itertools.combinations(range(p), r)]
    shape = [1 + min(target[pairs.index(pair)] for pair in itertools.combinations(s, 2))
             for s in subsets]
    if math.prod(shape) > 200_000:
        return None
    counts = np.indices(shape, dtype=np.int16).reshape(len(subsets), -1).T
    covers = np.array([[set(pair) <= set(s) for pair in pairs] for s in subsets], dtype=np.int16)
    holds = np.array([[j in s for j in range(p)] for s in subsets], dtype=np.int16)
    ok = np.all(counts @ covers == target, axis=1) & np.all(counts @ holds <= caps, axis=1)
    return "feasible" if ok.any() else "infeasible"


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


def quantile_standardize_stable(data) -> np.ndarray:
    """Reference for ``quantile_standardize``: midranks from a stable argsort per column."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    out = np.empty_like(data)
    for j in range(data.shape[1]):
        order = np.argsort(data[:, j], kind="stable")
        ranks = np.empty(n)
        ranks[order] = np.arange(n)
        out[:, j] = (ranks + 0.5) / n
    return out


def _block_penalties(alpha, gram, slices) -> np.ndarray:
    """Pen_j = ||alpha_j||_G, the empirical L2 norm of each block's component."""
    return np.sqrt(np.clip([alpha[sl] @ gram[sl, sl] @ alpha[sl] for sl in slices], 0.0, None))


def _cone_ratio(alpha, gram, slices, query: CompatibilityQuery) -> tuple[float, bool]:
    """(ratio, in_cone) for stacked coefficients alpha; 0/0 counts as out."""
    num_all = float(alpha @ gram @ alpha)
    pens = _block_penalties(alpha, gram, slices)
    active = np.zeros(len(slices), dtype=bool)
    active[list(query.active)] = True
    s_act, s_inact = float(pens[active].sum()), float(pens[~active].sum())
    if s_inact == 0.0:
        in_cone = s_act > 0.0
    else:
        in_cone = s_act / s_inact > query.xi0
    size = len(query.active)
    if query.q == 2:
        denom = float(np.sum(pens ** 2))
    else:
        denom = float(pens[active].sum()) ** 2
    if denom <= 0.0:
        return math.inf, in_cone
    scale = size ** (2 - query.q)
    return scale * num_all / denom, in_cone


def phi_star_loop(data, basis, query, *, n_dirs=200, seed=0, n_boot=64) -> dict:
    """Reference for ``empirical_phi_star``: one candidate direction at a time.

    Draws each random direction and its active-only companion in turn,
    projects and scores them one call at a time, takes the eigen-direction
    from scipy's generalized symmetric eigensolve, and bootstraps by
    gathering the resampled rows. Returns the report's fields.
    """
    from scipy.linalg import eigh as generalized_eigh

    data = np.asarray(data, dtype=float)
    n, p = data.shape
    data01 = quantile_standardize_stable(data)
    blocks = [_basis_columns(data01[:, j], basis) for j in range(p)]
    design = np.concatenate(blocks, axis=1)
    sizes = [b.shape[1] for b in blocks]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    slices = [slice(offsets[j], offsets[j + 1]) for j in range(p)]
    centered = design - design.mean(axis=0)
    gram = centered.T @ centered / n

    def block_reduce(j):
        vals, vecs = np.linalg.eigh(gram[slices[j], slices[j]])
        return vecs[:, vals > max(1e-12, vals[-1] * 1e-10)]

    reducers = [block_reduce(j) for j in range(p)]
    red_offsets = np.concatenate(([0], np.cumsum([r.shape[1] for r in reducers])))
    lift = np.zeros((offsets[-1], red_offsets[-1]))
    for j in range(p):
        lift[slices[j], red_offsets[j]:red_offsets[j + 1]] = reducers[j]
    gram_r = lift.T @ gram @ lift
    block_r = np.zeros_like(gram_r)
    for j in range(p):
        sl = slice(red_offsets[j], red_offsets[j + 1])
        block_r[sl, sl] = gram_r[sl, sl]
    eigen_dir = lift @ generalized_eigh(gram_r, block_r)[1][:, 0]

    inactive = [j for j in range(p) if j not in query.active]

    def cone_project(alpha):
        if not inactive:
            return alpha
        out = alpha.copy()
        pens = _block_penalties(out, gram, slices)
        s_act = float(pens[list(query.active)].sum())
        s_inact = float(pens[inactive].sum())
        if s_act <= 0.0:
            return None
        if s_inact > 0.0 and s_act / s_inact <= query.xi0:
            shrink = 0.5 * s_act / (query.xi0 * s_inact)
            for j in inactive:
                out[slices[j]] *= shrink
        return out

    rng = np.random.default_rng(seed)
    pool = [(eigen_dir, False)]
    eigen_cone = cone_project(eigen_dir)
    if eigen_cone is not None:
        pool.append((eigen_cone, True))
    for _ in range(n_dirs):
        alpha = cone_project(rng.standard_normal(offsets[-1]))
        if alpha is not None:
            pool.append((alpha, True))
        alpha_act = np.zeros(offsets[-1])
        for j in query.active:
            alpha_act[slices[j]] = rng.standard_normal(sizes[j])
        pool.append((alpha_act, True))

    evaluated = []
    for alpha, require_cone in pool:
        ratio, in_cone = _cone_ratio(alpha, gram, slices, query)
        if math.isfinite(ratio) and (in_cone or not require_cone):
            evaluated.append((ratio, alpha, in_cone))
    evaluated.sort(key=lambda triple: triple[0])
    phi_hat, argmin, in_cone = evaluated[0]

    values = np.stack([centered[:, sl] @ argmin[sl] for sl in slices], axis=1)
    ones, unit = np.ones(p), [slice(j, j + 1) for j in range(p)]
    boots = np.empty(n_boot)
    for b in range(n_boot):
        sub = values[rng.integers(0, n, size=n)]
        sub = sub - sub.mean(axis=0)
        boots[b] = _cone_ratio(ones, sub.T @ sub / n, unit, query)[0]
    se = float(np.nanstd(np.where(np.isfinite(boots), boots, np.nan), ddof=1))
    return {"phi_hat": float(phi_hat), "se": se, "argmin_direction": argmin,
            "argmin_in_cone": bool(in_cone), "n_directions": len(evaluated)}
