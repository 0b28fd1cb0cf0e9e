"""Dense symmetric spectra, Schur products, and kernel discretization.

This module owns the linear side of the story:

- validated symmetric / correlation / weight matrices,
- extreme eigenvalues via full dense symmetric decomposition,
- the Schur-power contraction certificate: for a correlation matrix S and a
  nonnegative symmetric weight W, the spectrum of the elementwise power
  S^(m) Schur-multiplied by W stays inside the spectrum of S o W,
- Nystrom discretization of correlation kernels on (0, 1], in particular the
  partial-sum correlation kernel  k(s, t) = min(s, t) / sqrt(s t). That
  kernel is Markov (Brownian motion rescaled to unit variance), so its
  Nystrom matrix is semiseparable: a matrix-vector product costs O(n) with
  prefix sums, and its top eigenvalue comes from a few Lanczos steps
  (Lanczos 1950; full reorthogonalization as in Golub & Van Loan, Matrix
  Computations, section 10.1) without the matrix being formed. The
  operator's own top eigenvalue is known exactly, 4 / j_{0,1}^2 with j_{0,1}
  the first zero of the Bessel function J_0 (``J01``).

Everything is a pure function over immutable arrays; inputs are never
modified and results are freshly allocated.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, NLCorrError, ValidationError

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
CONTRACTION_TOL = 1e-8
LANCZOS_TOL = 1e-14
# first positive zero of J_0, correctly rounded (mpmath besseljzero(0, 1))
J01 = 2.404825557695773


# ---------------------------------------------------------------------------
# validated matrix constructors
# ---------------------------------------------------------------------------


def as_sym_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Validate a square symmetric matrix with finite entries and return a copy."""
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValidationError(f"{name} must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.max(np.abs(m - m.T), initial=0.0) > SYMMETRY_TOL:
        raise ValidationError(f"{name} is not symmetric within {SYMMETRY_TOL}")
    # exact symmetry downstream (eigvalsh reads one triangle anyway)
    m = 0.5 * (m + m.T)
    m.flags.writeable = False
    return m


def as_corr_matrix(a) -> np.ndarray:
    """Validate a correlation matrix: unit diagonal, |entries| <= 1, PSD.

    The PSD check tolerates eigenvalues down to ``-PSD_TOL`` so that
    correlation matrices assembled from sample covariances are admitted.
    """
    m = as_sym_matrix(a, name="correlation matrix")
    if np.max(np.abs(np.diag(m) - 1.0)) > SYMMETRY_TOL:
        raise ValidationError("correlation matrix must have unit diagonal")
    if np.max(np.abs(m)) > 1.0 + SYMMETRY_TOL:
        raise ValidationError("correlation entries must lie in [-1, 1]")
    lmin = float(np.linalg.eigvalsh(m)[0])
    if lmin < -PSD_TOL:
        raise ValidationError(
            f"correlation matrix is not positive semidefinite (lambda_min={lmin:.3e})"
        )
    return m


def as_weight_matrix(a) -> np.ndarray:
    """Validate a symmetric elementwise-nonnegative weight matrix."""
    m = as_sym_matrix(a, name="weight matrix")
    if np.min(m) < 0.0:
        raise ValidationError("weight matrix must be elementwise nonnegative")
    return m


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def schur(a, b) -> np.ndarray:
    """Schur (Hadamard, elementwise) product of two symmetric matrices."""
    ma = as_sym_matrix(a, name="left operand")
    mb = as_sym_matrix(b, name="right operand")
    if ma.shape != mb.shape:
        raise DimensionMismatchError(
            f"Schur product needs equal shapes, got {ma.shape} and {mb.shape}"
        )
    return ma * mb


def full_spectrum(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(as_sym_matrix(m))


def extreme_eigs(m) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    spec = full_spectrum(m)
    return float(spec[0]), float(spec[-1])


def offdiag_extremes(sigma) -> tuple[float, float]:
    """Extreme eigenvalues of the off-diagonal part of a correlation matrix.

    For a valid correlation matrix S these equal the extreme nonlinear
    correlations of a pairwise Gaussian vector:
    (lambda_min(S) - 1, lambda_max(S) - 1).
    """
    s = as_corr_matrix(sigma)
    lmin, lmax = extreme_eigs(s)
    return lmin - 1.0, lmax - 1.0


@dataclass(frozen=True)
class ContractionCertificate:
    """Result of a Schur-power contraction check.

    ``margin`` is the smallest distance from the inner spectrum to an endpoint
    of the outer interval; negative values measure the violation.
    """

    holds: bool
    margin: float
    inner: tuple[float, ...]
    outer: tuple[float, float]
    power: int

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "margin": self.margin,
            "inner": list(self.inner),
            "outer": list(self.outer),
            "power": self.power,
        }


def schur_power_contraction_check(sigma, w, m: int) -> ContractionCertificate:
    """Certify spectrum(S^(m) o W) inside [lambda_min(S o W), lambda_max(S o W)].

    S^(m) denotes the elementwise m-th power. The certificate holds when the
    inner spectrum stays inside the outer interval padded by ``CONTRACTION_TOL``.
    """
    s = as_corr_matrix(sigma)
    ww = as_weight_matrix(w)
    if s.shape != ww.shape:
        raise DimensionMismatchError(
            f"matrix dimensions differ: {s.shape} vs {ww.shape}"
        )
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValidationError(f"Schur power must be a positive integer, got {m!r}")
    lo, hi = extreme_eigs(s * ww)
    inner = full_spectrum((s ** m) * ww)
    margin = float(min(inner[0] - lo, hi - inner[-1]))
    return ContractionCertificate(
        holds=bool(margin >= -CONTRACTION_TOL),
        margin=margin,
        inner=tuple(float(x) for x in inner),
        outer=(lo, hi),
        power=int(m),
    )


# ---------------------------------------------------------------------------
# Nystrom discretization on (0, 1]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelGrid:
    """A symmetric kernel tabulated on quadrature nodes in (0, 1].

    For a uniform-measure grid the weights sum to one; the Nystrom matrix is
    sqrt(w_i) K(t_i, t_j) sqrt(w_j).
    """

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValidationError("kernel grid needs at least two nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValidationError("grid nodes must be strictly increasing")
        if weights.shape != nodes.shape or np.any(weights <= 0):
            raise ValidationError("quadrature weights must be positive, one per node")
        if abs(float(weights.sum()) - 1.0) > SYMMETRY_TOL:
            raise ValidationError("quadrature weights must sum to 1 for uniform grids")
        if values.shape != (nodes.size, nodes.size):
            raise ValidationError("kernel values must be n x n for n nodes")
        if not np.all(np.isfinite(values)):
            raise ValidationError("kernel values must be finite")
        if np.max(np.abs(values - values.T), initial=0.0) > SYMMETRY_TOL:
            raise ValidationError("kernel is not symmetric on the grid")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_kernel(cls, kernel: Callable, n: int) -> "KernelGrid":
        """Tabulate ``kernel`` on the midpoint grid t_i = (i - 1/2)/n, w_i = 1/n.

        The midpoint grid avoids the endpoint 0, where kernels such as the
        partial-sum correlation kernel are singular.
        """
        if n < 2:
            raise ValidationError("need n >= 2 grid nodes")
        t = (np.arange(1, n + 1) - 0.5) / n
        vals = np.asarray(kernel(t[:, None], t[None, :]), dtype=float)
        return cls(nodes=t, weights=np.full(n, 1.0 / n), values=vals)


def nystrom_eigs(grid: KernelGrid) -> np.ndarray:
    """Approximate operator spectrum from a kernel grid, ascending.

    Eigenvalues of the symmetric matrix sqrt(w_i) K(t_i, t_j) sqrt(w_j); the
    extremes converge to the operator extremes as the grid refines.
    """
    sw = np.sqrt(grid.weights)
    return np.linalg.eigvalsh(sw[:, None] * grid.values * sw[None, :])


def brownian_corr_kernel(s, t):
    """Correlation kernel of rescaled partial sums, min(s, t)/sqrt(s t).

    Defined on (0, 1] x (0, 1]; the kernel is singular at the origin, so grid
    nodes must exclude 0.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s <= 0) or np.any(t <= 0):
        raise ValidationError("kernel arguments must be positive")
    return np.minimum(s, t) / np.sqrt(s * t)


def _brownian_matvec(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """x -> A x for the n-point midpoint Nystrom matrix of min(s, t)/sqrt(s t), in O(n).

    Below the diagonal A_ij = sqrt(t_j / t_i) / n, so with prefix and suffix
    sums (A x)_i = (1/n) [t_i^{-1/2} sum_{j<=i} sqrt(t_j) x_j
    + sqrt(t_i) sum_{j>i} x_j / sqrt(t_j)]. The kernel is that of Brownian
    motion rescaled to unit variance, a Markov kernel, which is what makes
    it semiseparable.
    """
    rt = np.sqrt((np.arange(1, n + 1) - 0.5) / n)

    def apply(x: np.ndarray) -> np.ndarray:
        upper = np.zeros(n)
        upper[:-1] = np.cumsum((x / rt)[:0:-1])[::-1]
        return (np.cumsum(rt * x) / rt + rt * upper) / n

    return apply


def _lanczos_lambda_max(apply: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """Largest eigenvalue of a symmetric positive operator on R^n by Lanczos.

    Full reorthogonalization, started from the normalized all-ones vector (a
    positive kernel's top eigenvector is positive, so it overlaps the start).
    Stops once the Ritz residual ||A y - theta y|| = beta_k |s_k| falls to
    LANCZOS_TOL * theta; raises rather than return an unconverged value.
    """
    basis = np.empty((min(n, 16), n))
    q = np.full(n, 1.0 / np.sqrt(n))
    alphas: list[float] = []
    betas: list[float] = []
    for k in range(n):
        if k == basis.shape[0]:
            basis = np.vstack([basis, np.empty_like(basis)])
        basis[k] = q
        w = apply(q)
        alphas.append(float(q @ w))
        span = basis[: k + 1]
        for _ in range(2):
            w -= span.T @ (span @ w)
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, vecs = np.linalg.eigh(tri)
        theta = float(ritz[-1])
        if beta * abs(vecs[-1, -1]) <= LANCZOS_TOL * theta:
            return theta
        betas.append(beta)
        q = w / beta
    raise NLCorrError(f"Lanczos did not reach a residual of {LANCZOS_TOL:g} in {n} steps")


def brownian_lambda_max(n: int) -> float:
    """Largest Nystrom eigenvalue of the partial-sum kernel on an n-point grid.

    The same matrix as ``nystrom_eigs(KernelGrid.from_kernel(
    brownian_corr_kernel, n))``, never formed: Lanczos on the O(n) prefix-sum
    matvec. About ten steps suffice at every n. The grid value lies above the
    operator's exact top eigenvalue 4 / J01^2 = 0.6916602761225796 (J01 the
    first zero of J_0), by 1.6e-4 at n = 50, 1.0e-7 at n = 2000 and 4.1e-11
    at n = 10^5.
    """
    if n < 2:
        raise ValidationError("need n >= 2 grid nodes")
    return _lanczos_lambda_max(_brownian_matvec(n), n)


# ---------------------------------------------------------------------------
# random instances for property sweeps
# ---------------------------------------------------------------------------


def random_corr_matrix(p: int, rng: np.random.Generator) -> np.ndarray:
    """Generic full-rank correlation matrix: normalize(A A' + 1e-6 I), A standard normal."""
    a = rng.standard_normal((p, p))
    s = a @ a.T + 1e-6 * np.eye(p)
    d = 1.0 / np.sqrt(np.diag(s))
    return as_corr_matrix(d[:, None] * s * d[None, :])


def random_weight_matrix(p: int, rng: np.random.Generator) -> np.ndarray:
    """Generic nonnegative symmetric weights: |B| + |B|'."""
    b = np.abs(rng.standard_normal((p, p)))
    return as_weight_matrix(b + b.T)


# ---------------------------------------------------------------------------
# matrix I/O
# ---------------------------------------------------------------------------


def matrix_to_json_dict(m) -> dict:
    a = as_sym_matrix(m)
    return {"dim": int(a.shape[0]), "rows": [[float(x) for x in row] for row in a]}


def matrix_from_json_dict(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        rows = obj["rows"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("matrix JSON must carry 'dim' and 'rows'") from exc
    m = np.array(rows, dtype=float)
    if m.shape != (dim, dim):
        raise ValidationError(f"matrix JSON declares dim={dim} but rows have shape {m.shape}")
    return as_sym_matrix(m)


def load_matrix(path) -> np.ndarray:
    """Load a symmetric matrix from a .json ({"dim", "rows"}) or .csv file."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"matrix file not found: {p}")
    if p.suffix.lower() == ".json":
        with p.open() as fh:
            return matrix_from_json_dict(json.load(fh))
    with p.open(newline="") as fh:
        rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
    return as_sym_matrix(np.array(rows, dtype=float))
