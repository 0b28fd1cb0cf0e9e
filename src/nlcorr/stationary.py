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
reported tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

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
            if not self.summable():
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

    def summable(self) -> bool:
        if self.name in ("ar1", "ou"):
            return True
        head = float(np.sum(np.abs(self.table)))
        tail = (
            self.decay.lattice_tail(self.radius)
            if self.domain == LATTICE
            else self.decay.line_tail(self.radius)
        )
        return math.isfinite(head + tail)

    def tail_bound(self) -> float:
        """Certified bound on the spectral-density truncation error."""
        if self.name in ("ar1", "ou"):
            return 0.0
        return (
            self.decay.lattice_tail(self.radius)
            if self.domain == LATTICE
            else self.decay.line_tail(self.radius)
        )

    def has_closed_form(self) -> bool:
        return self.name in ("ar1", "ou")


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
    periodic); on the line any real omega is valid. For tabulated kernels the
    truncation-tail bound is available from ``kernel.tail_bound()``.
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
        from scipy.integrate import quad

        vals = np.empty_like(w)
        upper = float(kernel.radius)
        for i, wi in enumerate(w):
            # full_output silences the subdivision chatter on kinked tables;
            # the integrand is piecewise smooth so the value itself is sound
            res = quad(
                lambda s: kernel.value(s) * math.cos(wi * s),
                0.0,
                upper,
                limit=400,
                full_output=1,
            )
            vals[i] = 2.0 * res[0]
        out = vals
    return float(out[0]) if scalar else out


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


def _refine(fun: Callable, lo: float, hi: float) -> tuple[float, float]:
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x), float(res.fun)


def spectral_extremes(
    kernel: StationaryKernel, *, n_points: int = 4001, refine: bool = True
) -> SpectralExtremes:
    """Supremum and infimum of |K*(omega)| with attaining frequencies.

    Named kernels use their closed forms. Otherwise the density is scanned on
    a frequency grid (by evenness only omega >= 0 is needed) and the best
    cells are polished by bounded scalar minimization. On the line the
    density vanishes at infinity, so the infimum is 0 whenever the grid never
    dips to zero, reported as not attained.
    """
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
        n_grid = n_points
    else:
        # beyond T * w ~ many oscillations the transform is tail-dominated;
        # each line evaluation costs a quadrature, so cap the scan density
        w_hi = max(8.0 * math.pi, 64.0 / max(kernel.radius, 1))
        n_grid = min(n_points, 801)
    grid = np.linspace(0.0, w_hi, n_grid)
    dens = np.asarray(spectral_density(kernel, grid))
    absd = np.abs(dens)
    step = grid[1] - grid[0]
    i_max, i_min = int(np.argmax(absd)), int(np.argmin(absd))

    def neg_abs(w):
        return -abs(float(spectral_density(kernel, w)))

    def pos_abs(w):
        return abs(float(spectral_density(kernel, w)))

    arg_sup, sup = grid[i_max], absd[i_max]
    arg_inf, inf = grid[i_min], absd[i_min]
    if refine:
        lo, hi = max(0.0, arg_sup - step), min(w_hi, arg_sup + step)
        x, v = _refine(neg_abs, lo, hi)
        arg_sup, sup = x, -v
        lo, hi = max(0.0, arg_inf - step), min(w_hi, arg_inf + step)
        arg_inf, inf = _refine(pos_abs, lo, hi)

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


def circulant_cross_check(kernel: StationaryKernel, n: int) -> CrossCheckReport:
    """Compare the n x n symmetric Toeplitz section against the spectral extremes.

    The Toeplitz eigenvalues live inside the density range and converge to the
    extremes as n grows, so the gap must shrink with refinement.
    """
    if kernel.domain != LATTICE:
        raise ValidationError("finite sections require a lattice kernel")
    if n < 1:
        raise ValidationError("section size must be positive")
    from scipy.linalg import toeplitz

    col = kernel.value(np.arange(n))
    spec = np.linalg.eigvalsh(toeplitz(col))
    extremes = spectral_extremes(kernel)
    return CrossCheckReport(
        n=int(n),
        toeplitz_min=float(spec[0]),
        toeplitz_max=float(spec[-1]),
        spectral_inf=extremes.inf,
        spectral_sup=extremes.sup,
    )
