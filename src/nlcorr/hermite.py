"""Normalized Hermite polynomials and pairwise-Gaussian covariance machinery.

The probabilists' Hermite family, normalized to an orthonormal system for the
standard normal law, is evaluated by the stable three-term recurrence

    sqrt(m + 1) H_{m+1}(x) = x H_m(x) - sqrt(m) H_{m-1}(x),  H_0 = 1, H_1 = x.

For a bivariate normal pair (X, Y) with correlation rho the family is
bi-orthogonal across the pair: E[H_m(X) H_n(Y)] = rho^m when m == n and 0
otherwise. That single identity drives everything here: covariances of
transformed marginals are weighted sums of rho powers, and the Gram matrix of
transformed pairwise-Gaussian coordinates is trapped inside the spectrum of
the underlying (Schur-weighted) correlation matrix.

Quadrature is Gauss-Hermite in the probabilists' convention, computed by
Golub-Welsch on the symmetric Jacobi tridiagonal and rescaled to the N(0, 1)
weight so the weights sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CoefficientOverflowError,
    DegenerateInputError,
    DimensionMismatchError,
    ValidationError,
)
from .spectra import as_corr_matrix, as_weight_matrix

DEFAULT_ORDER = 16


def hermite_eval(m: int, x):
    """Normalized probabilists' Hermite polynomial H_m at x (scalar or array).

    Column m of ``hermite_design``; a scalar x gives a float.
    """
    if m < 0:
        raise ValidationError("Hermite order must be nonnegative")
    x = np.asarray(x, dtype=float)
    col = hermite_design(x.ravel(), m)[:, m]
    return col.reshape(x.shape) if x.ndim else float(col[0])


def hermite_design(x, max_order: int) -> np.ndarray:
    """Table of H_0..H_max_order at the points x, shape (len(x), max_order + 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, max_order + 1))
    out[:, 0] = 1.0
    if max_order >= 1:
        out[:, 1] = x
    for k in range(1, max_order):
        out[:, k + 1] = (x * out[:, k] - math.sqrt(k) * out[:, k - 1]) / math.sqrt(k + 1)
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights for the standard normal weight."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f: Callable) -> float:
        """Integral of f against N(0, 1) at quadrature resolution."""
        return float(self.weights @ np.asarray(f(self.nodes), dtype=float))


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule, exact for N(0,1)-moments up to degree 2n - 1.

    Golub-Welsch: nodes are eigenvalues of the Jacobi tridiagonal with zero
    diagonal and off-diagonal sqrt(1..n-1); weights are the squared first
    eigenvector components (total mass one in the probabilists' convention).
    """
    if n < 1:
        raise ValidationError("quadrature rule needs n >= 1 nodes")
    if n == 1:
        return QuadratureRule(nodes=np.zeros(1), weights=np.ones(1))
    off = np.sqrt(np.arange(1, n, dtype=float))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0, :] ** 2
    return QuadratureRule(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class HermiteExpansion:
    """Truncated centered Hermite expansion: coefficients a_1..a_M.

    The constant term is excluded (represented functions are centered); the
    dropped a_0 and the quadrature tail mass beyond the truncation order are
    kept as diagnostics.
    """

    coeffs: np.ndarray
    mean: float = 0.0
    tail_mass: float = 0.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValidationError("expansion needs a 1-d coefficient vector a_1..a_M")
        if not np.all(np.isfinite(c)):
            raise CoefficientOverflowError("expansion coefficients are not finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size

    @property
    def norm2(self) -> float:
        """Second moment of the represented centered function, sum of a_m^2."""
        return float(self.coeffs @ self.coeffs)

    @classmethod
    def unit(cls, m: int, order: int) -> "HermiteExpansion":
        """The single basis function H_m as an expansion of the given order."""
        if not 1 <= m <= order:
            raise ValidationError("unit expansion needs 1 <= m <= order")
        c = np.zeros(order)
        c[m - 1] = 1.0
        return cls(coeffs=c)

    def to_json_dict(self) -> dict:
        return {"M": self.order, "coeffs": [float(a) for a in self.coeffs]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "HermiteExpansion":
        coeffs = np.asarray(obj["coeffs"], dtype=float)
        if int(obj.get("M", coeffs.size)) != coeffs.size:
            raise ValidationError("expansion JSON: M does not match len(coeffs)")
        return cls(coeffs=coeffs)


def expand(f: Callable, order: int, rule: QuadratureRule) -> HermiteExpansion:
    """Hermite coefficients a_m = E[f(Z) H_m(Z)], m = 1..order, by quadrature.

    The rule degree should exceed the order with margin for non-polynomial f.
    Raises CoefficientOverflowError when f is non-finite at a node (growth
    faster than Gaussian decay).
    """
    if order < 1:
        raise ValidationError("truncation order must be >= 1")
    if rule.nodes.size < order + 1:
        raise ValidationError(
            f"a {rule.nodes.size}-point rule cannot resolve order {order}; "
            f"need at least {order + 1} nodes"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(f(rule.nodes), dtype=float)
    if fx.shape != rule.nodes.shape:
        fx = np.broadcast_to(fx, rule.nodes.shape).astype(float)
    if not np.all(np.isfinite(fx)):
        raise CoefficientOverflowError("function is non-finite at quadrature nodes")
    design = hermite_design(rule.nodes, order)
    coeffs = design.T @ (rule.weights * fx)
    mean = float(coeffs[0])
    second_moment = float(rule.weights @ fx ** 2)
    tail = max(0.0, second_moment - float(coeffs @ coeffs))
    return HermiteExpansion(coeffs=coeffs[1:], mean=mean, tail_mass=tail)


def pairwise_gaussian_cov(a: HermiteExpansion, b: HermiteExpansion, rho: float) -> float:
    """Covariance of f(X), g(Y) for bivariate normal (X, Y) with correlation rho.

    Equals sum_m a_m b_m rho^m by the cross-order orthogonality of the Hermite
    system under a bivariate normal pair.
    """
    if abs(rho) > 1.0 + 1e-15:
        raise ValidationError("correlation must lie in [-1, 1]")
    rho = float(np.clip(rho, -1.0, 1.0))
    m = min(a.order, b.order)
    powers = rho ** np.arange(1, m + 1)
    return float(np.sum(a.coeffs[:m] * b.coeffs[:m] * powers))


def nl_gram(sigma, expansions, w) -> np.ndarray:
    """Schur-weighted correlation matrix of Hermite-transformed coordinates.

    Entry (j, k) is W_jk * sum_m a_m(j) a_m(k) Sigma_jk^m / (|a(j)| |a(k)|),
    the correlation of the transformed pair times the weight. With all
    expansions equal to H_1 this is exactly Sigma o W, which is why the
    weighted linear extremes are attained within the transformed family.
    """
    s = as_corr_matrix(sigma)
    ww = as_weight_matrix(w)
    p = s.shape[0]
    if ww.shape != s.shape:
        raise DimensionMismatchError("weight matrix dimension differs from sigma")
    exps = list(expansions)
    if len(exps) != p:
        raise ValidationError(f"need one expansion per variable, got {len(exps)} for p={p}")
    order = max(e.order for e in exps)
    coef = np.zeros((p, order))
    for j, e in enumerate(exps):
        if e.norm2 <= 0.0:
            raise DegenerateInputError(f"expansion {j} has zero norm")
        coef[j, : e.order] = e.coeffs
    norms = np.sqrt(np.sum(coef ** 2, axis=1))
    # powers[m-1] holds Sigma^(m) elementwise
    gram = np.zeros((p, p))
    power = np.ones_like(s)
    for m in range(1, order + 1):
        power = power * s
        gram += np.outer(coef[:, m - 1], coef[:, m - 1]) * power
    gram /= np.outer(norms, norms)
    return gram * ww


# ---------------------------------------------------------------------------
# named transform catalog (CLI surface)
# ---------------------------------------------------------------------------


def piecewise_linear(xs, ys) -> Callable:
    """Piecewise-linear interpolant through (xs, ys), constant beyond the ends."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs.shape != ys.shape:
        raise ValidationError("piecewise table needs matching x/y columns, length >= 2")
    if np.any(np.diff(xs) <= 0):
        raise ValidationError("piecewise table x-values must be strictly increasing")
    return lambda x: np.interp(x, xs, ys)


_PLAIN_FUNCTIONS: dict[str, Callable] = {
    "identity": lambda x: np.asarray(x, dtype=float),
    "square": lambda x: np.asarray(x, dtype=float) ** 2,
    "cube": lambda x: np.asarray(x, dtype=float) ** 3,
    "sign": lambda x: np.sign(x),
    "sin": lambda x: np.sin(x),
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    "hermite2": lambda x: hermite_eval(2, x),
    "hermite3": lambda x: hermite_eval(3, x),
}


def resolve_function(name: str) -> Callable:
    """Resolve a catalog name to a callable.

    Plain names: identity, square, cube, sign, sin, zero, hermite2, hermite3.
    Parameterized: "sin:a" for the scaled sine sin(a x), "indicator:c" for the
    threshold indicator 1{x > c}, "table:path.csv" for a piecewise-linear
    table (two CSV columns x, y).
    """
    key = name.strip()
    if key in _PLAIN_FUNCTIONS:
        return _PLAIN_FUNCTIONS[key]
    if key.startswith("sin:"):
        a = float(key.split(":", 1)[1])
        return lambda x: np.sin(a * np.asarray(x, dtype=float))
    if key.startswith("indicator:"):
        c = float(key.split(":", 1)[1])
        return lambda x: (np.asarray(x, dtype=float) > c).astype(float)
    if key.startswith("table:"):
        path = key.split(":", 1)[1]
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        return piecewise_linear(data[:, 0], data[:, 1])
    raise ValidationError(f"unknown function name {name!r}")
