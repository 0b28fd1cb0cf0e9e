"""Spectral densities and extreme eigenvalues of stationary weighted kernels.

A stationary weighted autocorrelation K(t) = rho(t) W(t), even and absolutely
summable (integrable), has the cosine spectral density

    lattice:  K*(w) = sum_s K(s) cos(w s),      w in [-pi, pi],
    line:     K*(w) = int K(s) cos(w s) ds,     w real,

and the extreme eigenvalues of the induced convolution operator are the
supremum and infimum of |K*(w)|. Closed forms are dispatched for the named
kernels: the autoregressive kernel rho(t) = beta^|t| has
K*(w) = (1 - beta^2)/(1 + beta^2 - 2 beta cos w) with extremes
(1 - |beta|)/(1 + |beta|) and (1 + |beta|)/(1 - |beta|); the exponential
(Ornstein-Uhlenbeck) kernel rho(t) = e^{-|t|} has K*(w) = 2/(1 + w^2) with
supremum 2 and infimum 0, the latter only approached as |w| grows.

Tabulated kernels carry a declared geometric decay bound |K(t)| <= C r^|t|
past the truncation radius; the analytic tail contribution is folded into the
reported tolerance. A line-domain table holds unit-spaced samples K(0..T) of
a piecewise-linear K, whose cosine transform is summed exactly segment by
segment (a Filon-type rule, Filon 1928), so no quadrature runs.

Finite sections [K(i - j)] of the lattice operator check the spectral
formula. For the autoregressive kernel the section is the Kac-Murdock-Szego
matrix (Kac, Murdock & Szego 1953), whose extreme eigenvalues are the symbol
(1 - b^2)/((1 - b)^2 + 4 b sin^2(theta/2)), b = |beta|, at the smallest and
largest root theta in (0, pi) of

    sin((n + 1) theta) - 2 b sin(n theta) + b^2 sin((n - 1) theta) = 0;

beta < 0 has the same spectrum through the similarity diag((-1)^i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NLCorrError, ValidationError

LATTICE = "lattice"
LINE = "line"


@dataclass(frozen=True)
class DecayBound:
    """Geometric envelope |K(t)| <= C r^|t| beyond the truncation radius."""

    C: float
    r: float

    def __post_init__(self):
        if not (self.C >= 0 and 0 <= self.r < 1):
            raise ValidationError("decay bound needs C >= 0 and 0 <= r < 1")

    def lattice_tail(self, radius: int) -> float:
        # 2 sum_{t > radius} C r^t
        return 2.0 * self.C * self.r ** (radius + 1) / (1.0 - self.r)

    def line_tail(self, radius: float) -> float:
        if self.C == 0.0 or self.r == 0.0:
            return 0.0
        return 2.0 * self.C * self.r ** radius / (-math.log(self.r))


@dataclass(frozen=True)
class StationaryKernel:
    """A weighted autocorrelation K(t) on the integer lattice or the real line.

    Either a named closed-form kernel ("ar1" with parameter beta, "ou") or a
    truncated table of values at t = 0..radius (even extension implied) with a
    decay bound certifying summability beyond the radius.
    """

    domain: str
    name: str
    beta: float | None = None
    table: np.ndarray | None = None
    decay: DecayBound | None = None

    def __post_init__(self):
        if self.domain not in (LATTICE, LINE):
            raise ValidationError(f"domain must be 'lattice' or 'line', got {self.domain!r}")
        if self.name == "ar1":
            if self.domain != LATTICE:
                raise ValidationError("the autoregressive kernel lives on the lattice")
            if self.beta is None or not abs(self.beta) < 1:
                raise ValidationError("ar1 needs |beta| < 1")
        elif self.name == "ou":
            if self.domain != LINE:
                raise ValidationError("the exponential kernel lives on the line")
        elif self.name == "table":
            if self.table is None:
                raise ValidationError("tabulated kernel needs values")
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 1 or tab.size < 1 or not np.all(np.isfinite(tab)):
                raise ValidationError("kernel table must be a finite 1-d array K(0..T)")
            object.__setattr__(self, "table", tab)
            if self.decay is None:
                object.__setattr__(self, "decay", DecayBound(C=0.0, r=0.0))
            if not math.isfinite(float(np.sum(np.abs(tab))) + self.tail_bound()):
                raise ValidationError("kernel is not absolutely summable under its decay bound")
        else:
            raise ValidationError(f"unknown kernel name {self.name!r}")

    @property
    def radius(self) -> int:
        return 0 if self.table is None else self.table.size - 1

    def value(self, t):
        """K(t), evenly extended; beyond a table's radius the value is 0."""
        t = np.abs(np.asarray(t, dtype=float))
        if self.name == "ar1":
            return np.asarray(self.beta, dtype=float) ** t
        if self.name == "ou":
            return np.exp(-t)
        ti = np.rint(t).astype(int) if self.domain == LATTICE else t
        if self.domain == LATTICE:
            out = np.zeros_like(t, dtype=float)
            inside = ti <= self.radius
            out[inside] = self.table[ti[inside]]
            return out
        grid = np.arange(self.table.size, dtype=float)
        return np.where(t <= self.radius, np.interp(t, grid, self.table), 0.0)

    def tail_bound(self) -> float:
        """Certified bound on the spectral-density truncation error."""
        if self.name in ("ar1", "ou"):
            return 0.0
        return (
            self.decay.lattice_tail(self.radius)
            if self.domain == LATTICE
            else self.decay.line_tail(self.radius)
        )


def ar1_kernel(beta: float) -> StationaryKernel:
    """Autoregressive kernel rho(t) = beta^|t| on the lattice; |beta| < 1."""
    return StationaryKernel(domain=LATTICE, name="ar1", beta=float(beta))


def ou_kernel() -> StationaryKernel:
    """Exponential kernel rho(t) = e^{-|t|} on the real line."""
    return StationaryKernel(domain=LINE, name="ou")


def table_kernel(domain: str, values, decay: DecayBound | None = None) -> StationaryKernel:
    """Tabulated kernel from values K(0), K(1), ..., K(T) with a decay bound."""
    return StationaryKernel(domain=domain, name="table", table=np.asarray(values, float), decay=decay)


def spectral_density(kernel: StationaryKernel, omega) -> np.ndarray | float:
    """Cosine spectral density K*(omega); closed forms dispatched exactly.

    On the lattice omega should lie in [-pi, pi] (the density is 2 pi
    periodic) and a table's density is its finite cosine sum; on the line any
    real omega is valid and a table's density is the exact transform of its
    piecewise-linear interpolant (``_line_transform``). For tabulated kernels
    the truncation-tail bound is available from ``kernel.tail_bound()``.
    """
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if kernel.name == "ar1":
        b = kernel.beta
        out = (1.0 - b * b) / (1.0 + b * b - 2.0 * b * np.cos(w))
    elif kernel.name == "ou":
        out = 2.0 / (1.0 + w * w)
    elif kernel.domain == LATTICE:
        if np.any(np.abs(w) > math.pi + 1e-12):
            raise ValidationError("lattice frequencies live in [-pi, pi]")
        t = np.arange(1, kernel.radius + 1, dtype=float)
        out = kernel.table[0] + 2.0 * np.cos(np.outer(w, t)) @ kernel.table[1:]
    else:
        out = _line_transform(kernel.table, w)
    return float(out[0]) if scalar else out


# S1(w) = int_{-1/2}^{1/2} u sin(w u) du
#       = sum_k (-1)^k w^(2k+1) / (4^(k+1) (2k+3) (2k+1)!);
# below |w| = 1/2 seven terms reach full precision, where the closed form
# 2 (sin(w/2)/w^2 - cos(w/2)/(2w)) would cancel
_S1_TAYLOR = tuple(
    (-1) ** k / (4.0 ** (k + 1) * (2 * k + 3) * math.factorial(2 * k + 1)) for k in range(7)
)


def _s1(w: np.ndarray) -> np.ndarray:
    out = np.empty_like(w)
    small = np.abs(w) < 0.5
    ws = w[small]
    acc = np.zeros_like(ws)
    for c in reversed(_S1_TAYLOR):
        acc = acc * (ws * ws) + c
    out[small] = acc * ws
    wl = w[~small]
    out[~small] = 2.0 * (np.sin(0.5 * wl) / (wl * wl) - np.cos(0.5 * wl) / (2.0 * wl))
    return out


def _line_transform(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """2 int_0^T K(s) cos(w s) ds for K piecewise linear through table[0..T].

    On segment a, centred at c_a = a + 1/2 with mean m_a and slope g_a,
    K = m_a + g_a u for u in [-1/2, 1/2], and the even and odd parts give

        K*(w) = 2 sum_a [m_a cos(w c_a) S0(w) - g_a sin(w c_a) S1(w)],

    S0 = sin(w/2)/(w/2) and S1 = int u sin(w u) du over [-1/2, 1/2]. At w = 0
    this is twice the trapezoid rule.
    """
    mean = 0.5 * (table[1:] + table[:-1])
    slope = np.diff(table)
    angle = np.outer(w, np.arange(table.size - 1) + 0.5)
    s0 = np.sinc(w / (2.0 * math.pi))
    return 2.0 * (s0 * (np.cos(angle) @ mean) - _s1(w) * (np.sin(angle) @ slope))


@dataclass(frozen=True)
class SpectralExtremes:
    """Extremes of |K*| with their frequencies and attainment flags.

    ``sup_attained``/``inf_attained`` distinguish extrema reached at a finite
    frequency from asymptotic limits (the line infimum is reached only as
    |omega| grows when K* never vanishes at finite omega). ``sign_change``
    flags densities taking both signs, where the absolute value matters.
    """

    inf: float
    sup: float
    arg_inf: float | None
    arg_sup: float
    inf_attained: bool
    sup_attained: bool
    sign_change: bool
    tol: float

    def as_dict(self) -> dict:
        return {
            "inf": self.inf,
            "sup": self.sup,
            "arg_inf": self.arg_inf,
            "arg_sup": self.arg_sup,
            "inf_attained": self.inf_attained,
            "sup_attained": self.sup_attained,
            "sign_change": self.sign_change,
            "tol": self.tol,
        }


def _refine(fun: Callable, x: float, h: float, lo: float, hi: float) -> tuple[float, float]:
    """Minimize the vectorized ``fun`` near x by zooming in on [x - h, x + h].

    Each pass scans 33 points of the window (clipped to [lo, hi]), recentres
    on the best one and shrinks h eightfold, to two grid spacings, until h
    falls below 1e-12.
    """
    while True:
        grid = np.linspace(max(lo, x - h), min(hi, x + h), 33)
        vals = fun(grid)
        i = int(np.argmin(vals))
        x, fx = float(grid[i]), float(vals[i])
        if h < 1e-12:
            return x, fx
        h /= 8.0


def spectral_extremes(kernel: StationaryKernel, *, n_points: int = 4001) -> SpectralExtremes:
    """Supremum and infimum of |K*(omega)| with attaining frequencies.

    Named kernels use their closed forms. Otherwise the density is scanned on
    ``n_points`` frequencies (by evenness only omega >= 0 is needed) and the
    best cell of each extreme is polished by a zooming grid search
    (``_refine``) until its window is narrower than 1e-12. On the line the
    density vanishes at infinity, so the infimum is 0 whenever the grid never
    dips to zero, reported as not attained.
    """
    if n_points < 2:
        raise ValidationError(f"n_points must be at least 2, got {n_points}")
    if kernel.name == "ar1":
        b = abs(kernel.beta)
        sup = (1.0 + b) / (1.0 - b)
        inf = (1.0 - b) / (1.0 + b)
        arg_sup = 0.0 if kernel.beta >= 0 else math.pi
        arg_inf = math.pi if kernel.beta >= 0 else 0.0
        if b == 0.0:
            arg_sup, arg_inf = 0.0, 0.0
        return SpectralExtremes(
            inf=inf, sup=sup, arg_inf=arg_inf, arg_sup=arg_sup,
            inf_attained=True, sup_attained=True, sign_change=False, tol=0.0,
        )
    if kernel.name == "ou":
        return SpectralExtremes(
            inf=0.0, sup=2.0, arg_inf=None, arg_sup=0.0,
            inf_attained=False, sup_attained=True, sign_change=False, tol=0.0,
        )

    if kernel.domain == LATTICE:
        w_hi = math.pi
    else:
        # beyond T * w ~ many oscillations the transform is tail-dominated
        w_hi = max(8.0 * math.pi, 64.0 / max(kernel.radius, 1))
    grid = np.linspace(0.0, w_hi, n_points)
    dens = np.asarray(spectral_density(kernel, grid))
    absd = np.abs(dens)
    step = grid[1] - grid[0]
    i_max, i_min = int(np.argmax(absd)), int(np.argmin(absd))

    def neg_abs(w):
        return -np.abs(spectral_density(kernel, w))

    def pos_abs(w):
        return np.abs(spectral_density(kernel, w))

    arg_sup, neg_sup = _refine(neg_abs, grid[i_max], step, 0.0, w_hi)
    sup = -neg_sup
    arg_inf, inf = _refine(pos_abs, grid[i_min], step, 0.0, w_hi)

    tol = kernel.tail_bound()
    sign_change = bool(dens.min() < -tol and dens.max() > tol)
    if kernel.domain == LINE and inf > tol:
        # density decays to zero at infinity, so zero is the true infimum
        return SpectralExtremes(
            inf=0.0, sup=float(sup), arg_inf=None, arg_sup=float(arg_sup),
            inf_attained=False, sup_attained=True, sign_change=sign_change, tol=tol,
        )
    return SpectralExtremes(
        inf=float(inf), sup=float(sup), arg_inf=float(arg_inf), arg_sup=float(arg_sup),
        inf_attained=True, sup_attained=True, sign_change=sign_change, tol=tol,
    )


@dataclass(frozen=True)
class CrossCheckReport:
    """Finite-section validation of the spectral formula on the lattice."""

    n: int
    toeplitz_min: float
    toeplitz_max: float
    spectral_inf: float
    spectral_sup: float

    @property
    def gap(self) -> float:
        return max(
            abs(self.toeplitz_max - self.spectral_sup),
            abs(self.toeplitz_min - self.spectral_inf),
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "toeplitz_min": self.toeplitz_min,
            "toeplitz_max": self.toeplitz_max,
            "spectral_inf": self.spectral_inf,
            "spectral_sup": self.spectral_sup,
            "gap": self.gap,
        }


def _kms_root(b: float, n: int, lo: float, hi: float) -> float:
    """Bisect for the root in (lo, hi) of the KMS equation divided by sin(theta).

    The equation is evaluated as sin(n t) [(1 - b)^2 - 2 (1 + b^2) sin^2(t/2)]
    + (1 - b^2) sin(t) cos(n t), the same function with no cancellation as
    b -> 1; at t = 0 the quotient's limit n (1 - b)^2 + 1 - b^2 is used.
    """

    def g(t: float) -> float:
        h = math.sin(0.5 * t)
        return (math.sin(n * t) * ((1.0 - b) ** 2 - 2.0 * (1.0 + b * b) * h * h)
                + (1.0 - b * b) * math.sin(t) * math.cos(n * t))

    lo_positive = (n * (1.0 - b) ** 2 + 1.0 - b * b if lo == 0.0 else g(lo)) > 0.0
    if (g(hi) > 0.0) == lo_positive:
        raise NLCorrError(f"no sign change of the KMS equation on ({lo}, {hi}) at n={n}")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (g(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid


def _kms_extremes(beta: float, n: int) -> tuple[float, float]:
    """Extreme eigenvalues (min, max) of the n x n section [beta^|i - j|].

    The largest eigenvalue belongs to the root in (0, pi/(n+1)), the smallest
    to the root in ((n-1) pi/(n+1), n pi/(n+1)); each bisection step costs O(1).
    """
    b = abs(beta)
    if b == 0.0:
        return 1.0, 1.0

    def symbol(t: float) -> float:
        return (1.0 - b * b) / ((1.0 - b) ** 2 + 4.0 * b * math.sin(0.5 * t) ** 2)

    step = math.pi / (n + 1)
    t_large = _kms_root(b, n, (n - 1) * step, n * step)
    t_small = _kms_root(b, n, 0.0, step)
    return symbol(t_large), symbol(t_small)


def circulant_cross_check(kernel: StationaryKernel, n: int) -> CrossCheckReport:
    """Compare the n x n symmetric Toeplitz section against the spectral extremes.

    The Toeplitz eigenvalues live inside the density range and converge to the
    extremes as n grows, so the gap must shrink with refinement. The
    autoregressive section's extremes come from the Kac-Murdock-Szego
    equation (module docstring) by bisection; a tabulated kernel's section
    [K(|i - j|)] is formed and solved densely.
    """
    if kernel.domain != LATTICE:
        raise ValidationError("finite sections require a lattice kernel")
    if n < 1:
        raise ValidationError("section size must be positive")
    if kernel.name == "ar1":
        lo, hi = _kms_extremes(kernel.beta, n)
    else:
        idx = np.arange(n)
        col = kernel.value(idx)
        spec = np.linalg.eigvalsh(col[np.abs(idx[:, None] - idx[None, :])])
        lo, hi = float(spec[0]), float(spec[-1])
    extremes = spectral_extremes(kernel)
    return CrossCheckReport(
        n=int(n),
        toeplitz_min=lo,
        toeplitz_max=hi,
        spectral_inf=extremes.inf,
        spectral_sup=extremes.sup,
    )
