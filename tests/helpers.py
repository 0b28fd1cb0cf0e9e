"""Shared random-instance generators for the property sweeps."""

import itertools

import numpy as np

from nlcorr import BudgetExceededError, DiscreteJoint, DiscreteLaw, GroupSystem
from nlcorr.groups import ATOM_BUDGET, _atom_grid


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
    idx = _atom_grid(s, u)
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
