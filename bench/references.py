"""Independent reference values for the benchmark's checks.

Every function here is built from the paper's closed forms or from plain
numpy/scipy linear algebra. None of them imports ``nlcorr``, so a fault in the
package cannot leak into the value it is checked against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import null_space, toeplitz
from scipy.special import ndtri

SQRT_HALF = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# nested sums and group systems
# ---------------------------------------------------------------------------


def nested_matrix(m) -> np.ndarray:
    """R_jk = min(m_j, m_k) / sqrt(m_j m_k), the nested-sum correlation matrix."""
    mv = np.asarray(m, dtype=float)
    return np.minimum.outer(mv, mv) / np.sqrt(np.outer(mv, mv))


def group_r1(groups) -> np.ndarray:
    """R^(1)_jk = |G_j n G_k| / sqrt(|G_j| |G_k|) of a group system."""
    sets = [set(g) for g in groups]
    p = len(sets)
    out = np.empty((p, p))
    for j in range(p):
        for k in range(p):
            out[j, k] = len(sets[j] & sets[k]) / math.sqrt(len(sets[j]) * len(sets[k]))
    return out


def extreme_eigs(a) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix by a dense solve."""
    ev = np.linalg.eigvalsh(np.asarray(a, dtype=float))
    return float(ev[0]), float(ev[-1])


def shadow_ok(groups, witness) -> bool:
    """Shadow groups have sizes <= |G_j| - 1 and intersections (|G_j n G_k| - 1)_+."""
    sets = [set(g) for g in groups]
    shadow = [set(s) for s in witness]
    if len(shadow) != len(sets):
        return False
    for j, (g, s) in enumerate(zip(sets, shadow)):
        if len(s) > len(g) - 1:
            return False
        for k in range(j + 1, len(sets)):
            if len(s & shadow[k]) != max(len(g & sets[k]) - 1, 0):
                return False
    return True


def binomial_pmf(m: int) -> list[float]:
    """Law of a sum of m Rademacher signs on its support -m, -m+2, ..., m."""
    return [math.comb(m, k) / 2.0 ** m for k in range(m + 1)]


def sum_law(coords, probs, m: int) -> list[tuple[float, float]]:
    """Exact law of Y_1 + ... + Y_m for an iid finite law, as sorted (value, mass).

    Each support value is given by integer coordinates over a basis of reals
    that is linearly independent over the rationals, together with its real
    value as the last coordinate: {0, 1, sqrt 2} is ((0, 0, 0.0), (1, 0, 1.0),
    (0, 1, 1.414...)). Two sums are equal exactly when their integer
    coordinates agree, so the support count is exact; a lattice law needs one
    integer coordinate.
    """
    laws = {}
    for combo in itertools.combinations_with_replacement(range(len(coords)), m):
        key = tuple(sum(coords[i][c] for i in combo) for c in range(len(coords[0]) - 1))
        counts = [combo.count(i) for i in range(len(coords))]
        mass = math.factorial(m)
        for i, c in enumerate(counts):
            mass = mass / math.factorial(c) * probs[i] ** c
        value = sum(coords[i][-1] for i in combo)
        old = laws.get(key, (value, 0.0))
        laws[key] = (old[0], old[1] + mass)
    return sorted(laws.values())


# ---------------------------------------------------------------------------
# closed forms for the sin construction, stationary kernels, Hermite, Nystrom
# ---------------------------------------------------------------------------


def cauchy_sin_corr(t: float, m: int, n: int) -> float:
    """e^{-(n-m)t} sqrt((1 - e^{-2mt}) / (1 - e^{-2nt})) for Cauchy nested sums, m <= n."""
    m, n = min(m, n), max(m, n)
    return math.exp(-(n - m) * t) * math.sqrt(
        (1.0 - math.exp(-2.0 * m * t)) / (1.0 - math.exp(-2.0 * n * t))
    )


def ar1_symbol_range(beta: float) -> tuple[float, float]:
    """(inf, sup) of (1 - b^2) / (1 + b^2 - 2 b cos w), the AR(1) symbol."""
    b = abs(beta)
    return (1.0 - b) / (1.0 + b), (1.0 + b) / (1.0 - b)


def ar1_toeplitz(beta: float, n: int) -> np.ndarray:
    return toeplitz(beta ** np.arange(n, dtype=float))


def hermite_sin_coeffs(a: float, order: int) -> list[float]:
    """E[sin(aZ) h_k(Z)], k = 1..order, for normalized Hermite h_k = He_k / sqrt(k!).

    By Gaussian integration by parts E[f(Z) He_k(Z)] = E[f^(k)(Z)], and
    E sin(aZ) = 0, E cos(aZ) = e^{-a^2/2}.
    """
    out = []
    for k in range(1, order + 1):
        if k % 2 == 0:
            out.append(0.0)
        else:
            sign = -1.0 if (k // 2) % 2 else 1.0
            out.append(sign * a ** k * math.exp(-a * a / 2.0) / math.sqrt(math.factorial(k)))
    return out


def brownian_nystrom(n: int) -> np.ndarray:
    """(1/n) min(s, t)/sqrt(st) on the midpoint grid t_i = (i - 1/2)/n."""
    t = (np.arange(1, n + 1) - 0.5) / n
    return np.minimum.outer(t, t) / np.sqrt(np.outer(t, t)) / n


def cosine_transform_pl(values, omega, dt: float = 1.0) -> np.ndarray:
    """2 int_0^T K(s) cos(ws) ds for K piecewise linear through values at s = i dt.

    Segment by segment, int (f + g (s - a)) cos(ws) ds has the closed form
    [K(s) sin(ws)/w + g cos(ws)/w^2]; at w = 0 it is the trapezoid rule.
    """
    f = np.asarray(values, dtype=float)
    s = np.arange(f.size) * dt
    slope = np.diff(f) / dt
    out = []
    for w in np.atleast_1d(np.asarray(omega, dtype=float)):
        if w == 0.0:
            out.append(2.0 * float(np.trapezoid(f, dx=dt)))
            continue
        sin_part = f[1:] * np.sin(w * s[1:]) - f[:-1] * np.sin(w * s[:-1])
        cos_part = slope * (np.cos(w * s[1:]) - np.cos(w * s[:-1]))
        out.append(2.0 * float(np.sum(sin_part / w + cos_part / (w * w))))
    return np.asarray(out)


# ---------------------------------------------------------------------------
# finite-support oracle from samples
# ---------------------------------------------------------------------------


def quantile_bins(col, bins: int) -> np.ndarray:
    """Integer codes of a column: its distinct values, or ``bins`` quantile bins."""
    col = np.asarray(col, dtype=float)
    if np.unique(col).size > bins:
        edges = np.quantile(col, np.linspace(0.0, 1.0, bins + 1)[1:-1])
        col = np.searchsorted(edges, col, side="right")
    return np.unique(col, return_inverse=True)[1]


def whitened_block_extremes(samples, w, bins: int) -> tuple[float, float]:
    """Extremes of the whitened block matrix of a binned sample by a dense eigensolve.

    Blocks W_jk V_j' D_j^{-1/2} P_jk D_k^{-1/2} V_k with V_j an orthonormal
    basis (from an SVD) of the complement of sqrt(p_j); its extreme
    eigenvalues are the extreme nonlinear correlations of the empirical joint.
    """
    data = np.asarray(samples, dtype=float)
    n, p = data.shape
    codes = [quantile_bins(data[:, j], bins) for j in range(p)]
    margs = [np.bincount(c) / n for c in codes]
    bases = [null_space(np.sqrt(m)[None, :]) for m in margs]
    offsets = np.concatenate(([0], np.cumsum([b.shape[1] for b in bases])))
    h = np.zeros((offsets[-1], offsets[-1]))
    for j in range(p):
        h[offsets[j]:offsets[j + 1], offsets[j]:offsets[j + 1]] = w[j][j] * np.eye(bases[j].shape[1])
        for k in range(j + 1, p):
            sj, sk = margs[j].size, margs[k].size
            joint = np.bincount(codes[j] * sk + codes[k], minlength=sj * sk).reshape(sj, sk) / n
            q = joint / np.sqrt(np.outer(margs[j], margs[k]))
            block = w[j][k] * (bases[j].T @ q @ bases[k])
            h[offsets[j]:offsets[j + 1], offsets[k]:offsets[k + 1]] = block
            h[offsets[k]:offsets[k + 1], offsets[j]:offsets[j + 1]] = block.T
    return extreme_eigs(h)


# ---------------------------------------------------------------------------
# Hoeffding identities and Gaussian-copula designs
# ---------------------------------------------------------------------------


def hoeffding_gaps(f0, probs, components) -> tuple[float, float, float]:
    """(reconstruction, variance, conditional-mean) gaps of an interaction decomposition.

    ``components[l-1]`` tabulates the order-l part on support^l. The centered
    table must equal the sum of all components embedded on every l-subset of
    axes, E f0^2 must equal sum_l C(m, l) E f_l^2, and integrating any one
    argument of f_l must give zero.
    """
    f0 = np.asarray(f0, dtype=float)
    q = np.asarray(probs, dtype=float)
    m, s = f0.ndim, q.size

    def mass(order):
        out = np.ones(())
        for _ in range(order):
            out = np.multiply.outer(out, q)
        return out

    centered = f0 - float(np.sum(mass(m) * f0))
    total = np.zeros_like(centered)
    var_sum = 0.0
    cond = 0.0
    for ell, comp in enumerate(components, start=1):
        comp = np.asarray(comp, dtype=float).reshape((s,) * ell)
        for axes in itertools.combinations(range(m), ell):
            shape = [s if ax in axes else 1 for ax in range(m)]
            total = total + comp.reshape(shape)
        var_sum += math.comb(m, ell) * float(np.sum(mass(ell) * comp ** 2))
        cond = max(cond, float(np.max(np.abs(np.tensordot(comp, q, axes=([ell - 1], [0]))))))
    variance = float(np.sum(mass(m) * centered ** 2))
    return float(np.max(np.abs(total - centered))), abs(variance - var_sum), cond


_INVERSE_TRANSFORMS = {
    "identity": lambda x: x,
    "probit_uniform": ndtri,
    "exp": np.log,
}


def latent_corr_gap(x, transforms, sigma) -> float:
    """Largest gap between the latent sample correlation and S^z, in units of 1/sqrt(n)."""
    x = np.asarray(x, dtype=float)
    z = np.stack([_INVERSE_TRANSFORMS[t](x[:, j]) for j, t in enumerate(transforms)], axis=1)
    gap = np.max(np.abs(np.corrcoef(z, rowvar=False) - np.asarray(sigma)))
    return float(gap * math.sqrt(x.shape[0]))
