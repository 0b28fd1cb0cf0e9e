"""Workload inputs, made from the benchmark seed with numpy alone.

The workload process and the checking process both call these functions, so
each sees the same inputs for the same seed without passing arrays between
processes. The estimator workload's ACE samples use the fixed seed
``ACE_SEED`` (the package's default seed): at p=40 the estimator fails on
every seed, and a kept failure must not depend on the run's seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ACE_SEED = 1729
TRANSFORMS = ("identity", "probit_uniform", "exp")
SQRT2 = math.sqrt(2.0)

# support values as (integer coordinates..., real value), see references.sum_law
RADEMACHER = {"values": [-1.0, 1.0], "probs": [0.5, 0.5], "coords": [(-1, -1.0), (1, 1.0)]}
NON_LATTICE = {
    "values": [0.0, 1.0, SQRT2],
    "probs": [0.2, 0.5, 0.3],
    "coords": [(0, 0, 0.0), (1, 0, 1.0), (0, 1, SQRT2)],
    "m": [2, 5, 8],
}


def corr_matrix(rng, p: int) -> np.ndarray:
    """normalize(A A' + 1e-6 I) for standard normal A: strongly correlated, full rank."""
    a = rng.standard_normal((p, p))
    s = a @ a.T + 1e-6 * np.eye(p)
    d = 1.0 / np.sqrt(np.diag(s))
    s = d[:, None] * s * d[None, :]
    np.fill_diagonal(s, 1.0)
    return 0.5 * (s + s.T)


def weight_matrix(rng, p: int) -> np.ndarray:
    b = np.abs(rng.standard_normal((p, p)))
    return b + b.T


def copula_samples(seed: int, n: int, p: int) -> np.ndarray:
    """n Gaussian-copula rows with latent correlation corr_matrix(p), identity margins."""
    rng = np.random.default_rng(seed)
    sigma = corr_matrix(rng, p)
    return rng.standard_normal((n, p)) @ np.linalg.cholesky(sigma).T


def symmetric_table(rng, size: int, m: int) -> np.ndarray:
    """A random permutation-symmetric table on support^m: the mean over all axis orders."""
    raw = rng.standard_normal((size,) * m)
    perms = list(itertools.permutations(range(m)))
    return sum(np.transpose(raw, perm) for perm in perms) / len(perms)


def lattice_law(rng) -> dict:
    q = rng.dirichlet([4.0, 4.0, 4.0])
    return {"values": [-1.0, 0.0, 1.0], "probs": (q / q.sum()).tolist(),
            "coords": [(-1, -1.0), (0, 0.0), (1, 1.0)]}


def group_system(rng, p: int, universe: int) -> list[list[int]]:
    """p random groups that all share label 1 and together cover labels 1..universe.

    Covering every label fixes the enumeration size at 2^universe atoms, so
    the cost of a run does not depend on its seed.
    """
    groups = []
    for _ in range(p):
        size = int(rng.integers(2, universe))
        labels = rng.choice(np.arange(2, universe + 1), size=size - 1, replace=False)
        groups.append(set(labels.tolist()) | {1})
    for label in range(2, universe + 1):
        if not any(label in g for g in groups):
            groups[label % p].add(label)
    return [sorted(g) for g in groups]


def nested_rademacher_joint(m) -> dict:
    """Joint-law JSON of nested Rademacher sums, by enumerating all 2^max(m) sign vectors."""
    top = max(m)
    signs = np.array(list(itertools.product((-1, 1), repeat=top)))
    sums = np.cumsum(signs, axis=1)[:, [k - 1 for k in m]]
    supports = [list(range(-k, k + 1, 2)) for k in m]
    atoms = {}
    for row in sums:
        key = tuple((v + k) // 2 for v, k in zip(row.tolist(), m))
        atoms[key] = atoms.get(key, 0) + 1
    return {
        "supports": supports,
        "atoms": [{"idx": list(k), "p": c / 2 ** top} for k, c in sorted(atoms.items())],
    }


# ---------------------------------------------------------------------------
# per-workload inputs
# ---------------------------------------------------------------------------


def cli_cold(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    groups = group_system(rng, 4, 8)
    return {
        "eig": corr_matrix(rng, 5),
        "schur": corr_matrix(rng, 4),
        "power": int(rng.integers(2, 5)),
        "hermite_a": round(float(rng.uniform(0.5, 1.5)), 4),
        "oracle_m": sorted(rng.choice(np.arange(1, 7), size=3, replace=False).tolist()),
        "ace": copula_samples(int(rng.integers(1, 2**31)), 2000, 3),
        "groups": groups,
        "hoeffding_f0": symmetric_table(rng, 2, 3),
        "copula_sigma": corr_matrix(rng, 4),
        "sandwich_sigma": corr_matrix(rng, 3),
        "child_seed": int(rng.integers(1, 2**31)),
    }


def exact_oracle(seed: int) -> dict:
    # the sum lengths stay fixed: the enumeration's cost depends on them, the
    # seed draws the weights, the lattice law, the pair and the group systems
    rng = np.random.default_rng(seed)
    pair = sorted(rng.choice(np.arange(1, 13), size=2, replace=False).tolist())
    systems = [group_system(rng, 5, 14) for _ in range(2)]
    lattice = lattice_law(rng)
    tables = [(RADEMACHER, symmetric_table(rng, 2, 5)) for _ in range(3)]
    tables += [(lattice, symmetric_table(rng, 3, 4)) for _ in range(3)]
    return {
        "rad_m": [2, 7, 12, 18],
        "rad_w": weight_matrix(rng, 4),
        "pair": pair,
        "systems": systems,
        "system_w": [weight_matrix(rng, 5) for _ in systems],
        "lattice": lattice,
        "lattice_m": [3, 7, 11],
        "lattice_w": weight_matrix(rng, 3),
        "tables": tables,
    }


def operators(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    step = 8.0 * math.pi / 64
    return {
        "ns": [500, 1000, 2000],
        "ar1_beta": 0.5,
        "ar1_n": 2000,
        "lattice_table": 0.5 ** np.arange(61.0),
        "section_n": 1000,
        "line_table": np.exp(-np.arange(5.0)),
        # one frequency per cell of a 64-cell grid over [0, 8 pi], kept off 0
        "freqs": (np.arange(64) + rng.uniform(0.1, 0.9, size=64)) * step,
    }


def estimators(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sandwich = []
    pairs = [("identity", "sin"), ("square", "identity"), ("sign", "sin:2")]
    for f, f_hat in pairs:
        sandwich.append({
            "sigma": corr_matrix(rng, 4),
            "transforms": [TRANSFORMS[j % 2] for j in range(4)],
            "f": [f] * 4,
            "f_hat": [f_hat] * 4,
            "n_mc": 200_000,
            "seed": int(rng.integers(1, 2**31)),
        })
    return {
        "ace8": copula_samples(ACE_SEED, 100_000, 8),
        "ace40": copula_samples(ACE_SEED, 100_000, 40),
        "design_sigma": corr_matrix(rng, 8),
        "design_transforms": [TRANSFORMS[j % 3] for j in range(8)],
        "design_n": 20_000,
        "design_seed": int(rng.integers(1, 2**31)),
        "phi_dirs": 1000,
        "phi_seed": int(rng.integers(1, 2**31)),
        "sandwich": sandwich,
    }


MAKERS = {
    "cli-cold": cli_cold,
    "exact-oracle": exact_oracle,
    "operators": operators,
    "estimators": estimators,
}
