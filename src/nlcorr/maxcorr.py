"""Exact extreme nonlinear correlation for finite-support joint distributions.

For variables with finite supports, the supremum (infimum) over centered
marginal transforms of the weighted-correlation Rayleigh ratio

    sum_jk W_jk E[f_j(X_j) f_k(X_k)]  /  sum_j E[f_j(X_j)^2]

is an ordinary symmetric eigenproblem in whitened per-variable coordinates.
Writing D_j for the diagonal marginal pmf, P_jk for the bivariate pmf matrix
(P_jj = D_j), and V_j for an orthonormal basis of the complement of sqrt(p_j),
the substitution f_j = D_j^{-1/2} V_j c_j turns the ratio into c' H c / c' c
with blocks

    H_jk = W_jk V_j' D_j^{-1/2} P_jk D_k^{-1/2} V_k ,

so the extreme values are the extreme eigenvalues of H and the achieving
transforms are read off the eigenvectors. The centering constraint
E[f_j] = 0 is exactly the orthogonality to sqrt(p_j).

The classical two-variable maximal correlation is the second-largest singular
value of D_1^{-1/2} P_12 D_2^{-1/2} (the largest is the trivial value 1).

The eigenproblem reads a joint law only through its pairwise laws: the
number of variables, the support sizes, the marginal pmfs and the bivariate
pmf tables (``PairwiseLaw``). ``DiscreteJoint`` supplies them from enumerated
atoms. The sample-based estimator (ACE, Breiman & Friedman 1985) supplies them
as ``SampleTables``: it codes each column by its distinct values, or by
quantile bins beyond ``bins`` distinct values, into the narrowest unsigned
integer type that holds the codes (one byte up to 256 bins), and counts
marginal and pair tables straight from the codes, so no atom of the n-sample
joint is built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    ValidationError,
)
from .spectra import as_weight_matrix

PROB_TOL = 1e-12


# ---------------------------------------------------------------------------
# joint distributions over finite product supports
# ---------------------------------------------------------------------------


class PairwiseLaw(Protocol):
    """The part of a finite-support joint law that the eigenproblem reads.

    ``marginal(j)`` is the pmf of variable j over its ``sizes[j]`` support
    points, and ``bivariate(j, k)`` the (sizes[j], sizes[k]) pmf table of the
    pair. Every support point must carry positive mass.
    """

    @property
    def nvars(self) -> int: ...

    @property
    def sizes(self) -> tuple[int, ...]: ...

    def marginal(self, j: int) -> np.ndarray: ...

    def bivariate(self, j: int, k: int) -> np.ndarray: ...


@dataclass(frozen=True)
class DiscreteJoint:
    """A joint pmf over a product of finite supports, stored as sparse atoms.

    Zero-mass support points are pruned at construction and every variable
    must keep at least two support points; probabilities are validated to be
    nonnegative and to sum to one.
    """

    supports: tuple[tuple[Any, ...], ...]
    atom_idx: np.ndarray
    atom_prob: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.atom_idx, dtype=np.int64)
        prob = np.asarray(self.atom_prob, dtype=float)
        if idx.ndim != 2 or idx.shape[0] != prob.size:
            raise ValidationError("atom indices and probabilities are inconsistent")
        object.__setattr__(self, "atom_idx", idx)
        object.__setattr__(self, "atom_prob", prob)

    @property
    def nvars(self) -> int:
        return len(self.supports)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.supports)

    @classmethod
    def from_atoms(cls, supports, idx, prob) -> "DiscreteJoint":
        """Build and validate a joint from (index tuple, probability) atoms."""
        supports = [list(s) for s in supports]
        idx = np.asarray(idx, dtype=np.int64)
        prob = np.asarray(prob, dtype=float)
        if idx.ndim != 2 or idx.shape[1] != len(supports):
            raise ValidationError("atom index array must be (n_atoms, p)")
        if prob.ndim != 1 or prob.size != idx.shape[0]:
            raise ValidationError("need one probability per atom")
        if np.any(prob < -PROB_TOL) or not np.all(np.isfinite(prob)):
            raise ValidationError("probabilities must be nonnegative and finite")
        if abs(float(prob.sum()) - 1.0) > PROB_TOL:
            raise ValidationError(f"probabilities sum to {prob.sum()!r}, not 1")
        for j, s in enumerate(supports):
            if len(set(map(repr, s))) != len(s):
                raise ValidationError(f"support {j} has duplicate labels")
            if np.any(idx[:, j] < 0) or np.any(idx[:, j] >= len(s)):
                raise ValidationError(f"atom index out of range for variable {j}")
        # merge duplicated atoms
        uniq, inverse = _unique_rows(idx, [len(s) for s in supports])
        mass = np.bincount(inverse, weights=prob, minlength=uniq.shape[0])
        keep = mass > 0.0
        uniq, mass = uniq[keep], mass[keep]
        # prune zero-mass support points, re-index
        new_supports = []
        for j, s in enumerate(supports):
            used = np.zeros(len(s), dtype=bool)
            used[uniq[:, j]] = True
            if int(used.sum()) < 2:
                raise DegenerateInputError(
                    f"variable {j} is degenerate after pruning (support size "
                    f"{int(used.sum())})"
                )
            remap = -np.ones(len(s), dtype=np.int64)
            remap[np.flatnonzero(used)] = np.arange(int(used.sum()))
            uniq[:, j] = remap[uniq[:, j]]
            new_supports.append(tuple(v for v, u in zip(s, used) if u))
        return cls(
            supports=tuple(new_supports),
            atom_idx=uniq,
            atom_prob=mass,
        )

    def marginal(self, j: int) -> np.ndarray:
        return np.bincount(
            self.atom_idx[:, j], weights=self.atom_prob, minlength=self.sizes[j]
        )

    def bivariate(self, j: int, k: int) -> np.ndarray:
        """Bivariate pmf matrix P_jk on the pruned supports."""
        sj, sk = self.sizes[j], self.sizes[k]
        flat = self.atom_idx[:, j] * sk + self.atom_idx[:, k]
        return np.bincount(flat, weights=self.atom_prob, minlength=sj * sk).reshape(sj, sk)

    @classmethod
    def from_samples(cls, columns: Sequence[np.ndarray]) -> "DiscreteJoint":
        """Empirical joint of already-discrete columns of equal length."""
        cols = [np.asarray(c) for c in columns]
        n = cols[0].size
        if any(c.ndim != 1 or c.size != n for c in cols):
            raise ValidationError("columns must be 1-d and of equal length")
        supports, idx = [], []
        for c in cols:
            vals, inv = np.unique(c, return_inverse=True)
            supports.append(vals.tolist())
            idx.append(inv)
        return cls.from_atoms(
            supports, np.stack(idx, axis=1), np.full(n, 1.0 / n)
        )

    def to_json_dict(self) -> dict:
        return {
            "supports": [list(s) for s in self.supports],
            "atoms": [
                {"idx": [int(i) for i in row], "p": float(p)}
                for row, p in zip(self.atom_idx, self.atom_prob)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DiscreteJoint":
        try:
            supports = obj["supports"]
            atoms = obj["atoms"]
        except (KeyError, TypeError) as exc:
            raise ValidationError("joint JSON must carry 'supports' and 'atoms'") from exc
        idx = np.array([a["idx"] for a in atoms], dtype=np.int64)
        prob = np.array([a["p"] for a in atoms], dtype=float)
        return cls.from_atoms(supports, idx, prob)

    @classmethod
    def load(cls, path) -> "DiscreteJoint":
        with Path(path).open() as fh:
            return cls.from_json_dict(json.load(fh))


def _unique_rows(idx: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(idx, axis=0, return_inverse=True)`` for index rows below ``sizes``.

    Rows are sorted through their mixed-radix code (first column most
    significant), which orders them as the row sort does, so a single 1-d
    integer sort replaces the row-wise one whenever the codes fit in int64.
    """
    if math.prod(sizes) >= 2 ** 63:
        uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
        return uniq, inverse.ravel()
    code = np.zeros(idx.shape[0], dtype=np.int64)
    for j, n in enumerate(sizes):
        code = code * n + idx[:, j]
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return idx[first], inverse


# ---------------------------------------------------------------------------
# the whitened block eigenproblem
# ---------------------------------------------------------------------------


def _complement_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of unit vector v (Householder columns)."""
    u = v.copy()
    u[0] += 1.0 if v[0] >= 0 else -1.0
    h = np.eye(v.size) - 2.0 * np.outer(u, u) / (u @ u)
    return h[:, 1:]


def _assemble_blocks(joint: PairwiseLaw, w: np.ndarray):
    """The symmetric matrix H plus the per-variable whitening data."""
    p = joint.nvars
    margs = [joint.marginal(j) for j in range(p)]
    inv_sqrt = [1.0 / np.sqrt(m) for m in margs]
    bases = [_complement_basis(np.sqrt(m)) for m in margs]
    sizes = [m.size - 1 for m in margs]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    h = np.zeros((offsets[-1], offsets[-1]))
    for j in range(p):
        for k in range(j, p):
            if j == k:
                block = w[j, j] * np.eye(sizes[j])
            else:
                q = inv_sqrt[j][:, None] * joint.bivariate(j, k) * inv_sqrt[k][None, :]
                block = w[j, k] * (bases[j].T @ q @ bases[k])
            h[offsets[j]:offsets[j + 1], offsets[k]:offsets[k + 1]] = block
            if j != k:
                h[offsets[k]:offsets[k + 1], offsets[j]:offsets[j + 1]] = block.T
    return h, margs, inv_sqrt, bases, offsets


@dataclass(frozen=True)
class ExtremeResult:
    """Extreme Rayleigh values with achieving per-variable functions.

    The achiever functions are tabulated on the pruned supports, centered
    under the marginals, with the stacked whitened coordinates normalized to
    unit length; ``variances`` holds the per-variable second moments E f_j^2.
    ``zero_blocks`` flags variables whose optimizer component vanishes.
    ``residuals`` holds ||H x - lambda x|| of the (max, min) eigenpairs, which
    bounds the error of each returned value. The eigensolve is direct, so
    ``converged`` is always true and ``iterations`` always (0, 0).
    """

    rho_max: float
    rho_min: float
    f_max: tuple[np.ndarray, ...]
    f_min: tuple[np.ndarray, ...]
    variances_max: tuple[float, ...]
    variances_min: tuple[float, ...]
    zero_blocks_max: tuple[int, ...]
    zero_blocks_min: tuple[int, ...]
    converged: bool = True
    iterations: tuple[int, int] = (0, 0)
    residuals: tuple[float, float] = (0.0, 0.0)

    def as_dict(self) -> dict:
        return {
            "rho_max": self.rho_max,
            "rho_min": self.rho_min,
            "f_max": [list(map(float, f)) for f in self.f_max],
            "f_min": [list(map(float, f)) for f in self.f_min],
            "variances_max": list(self.variances_max),
            "variances_min": list(self.variances_min),
            "zero_blocks_max": list(self.zero_blocks_max),
            "zero_blocks_min": list(self.zero_blocks_min),
            "converged": self.converged,
            "residuals": list(self.residuals),
        }


def _unstack(vec, margs, inv_sqrt, bases, offsets):
    funcs, variances, zero_blocks = [], [], []
    for j, m in enumerate(margs):
        c = vec[offsets[j]:offsets[j + 1]]
        f = inv_sqrt[j] * (bases[j] @ c)
        var = float(c @ c)
        funcs.append(f)
        variances.append(var)
        if var <= 1e-12:
            zero_blocks.append(j)
    return tuple(funcs), tuple(variances), tuple(zero_blocks)


def exact_extremes(joint: PairwiseLaw, w) -> ExtremeResult:
    """Exact extreme nonlinear correlations of a finite-support joint law.

    Returns the extreme eigenvalues of the whitened block matrix together with
    the back-transformed achieving functions. Plugging the achievers into the
    defining Rayleigh ratio reproduces the returned values.
    """
    ww = as_weight_matrix(w)
    if ww.shape[0] != joint.nvars:
        raise DimensionMismatchError(
            f"weight matrix is {ww.shape[0]}x{ww.shape[0]} but the joint has "
            f"{joint.nvars} variables"
        )
    h, margs, inv_sqrt, bases, offsets = _assemble_blocks(joint, ww)
    eigvals, eigvecs = np.linalg.eigh(h)
    vecs = eigvecs[:, [-1, 0]]
    res_max, res_min = np.linalg.norm(h @ vecs - vecs * eigvals[[-1, 0]], axis=0)
    f_min, var_min, zero_min = _unstack(eigvecs[:, 0], margs, inv_sqrt, bases, offsets)
    f_max, var_max, zero_max = _unstack(eigvecs[:, -1], margs, inv_sqrt, bases, offsets)
    return ExtremeResult(
        rho_max=float(eigvals[-1]),
        rho_min=float(eigvals[0]),
        f_max=f_max,
        f_min=f_min,
        variances_max=var_max,
        variances_min=var_min,
        zero_blocks_max=zero_max,
        zero_blocks_min=zero_min,
        residuals=(float(res_max), float(res_min)),
    )


def rayleigh_quotient(joint: PairwiseLaw, w, funcs) -> float | np.ndarray:
    """The weighted-correlation ratio for given per-variable function tables.

    Functions are centered under their marginals before evaluation, so any
    finite tables are admissible; the total variance must be positive. Tables
    of shape (B, s_j) sharing a leading batch axis give an array of B ratios,
    one per row; tables of shape (s_j,) give a single float.
    """
    ww = as_weight_matrix(w)
    p = joint.nvars
    fs = [np.asarray(funcs[j], dtype=float) for j in range(p)]
    batch = fs[0].shape[:-1]
    margs = [joint.marginal(j) for j in range(p)]
    for j in range(p):
        if len(batch) > 1 or fs[j].shape != batch + (joint.sizes[j],):
            raise ValidationError(f"function {j} must be tabulated on support {j}")
        fs[j] = fs[j] - (fs[j] @ margs[j])[..., None]
    num = 0.0
    den = 0.0
    for j in range(p):
        var = fs[j] ** 2 @ margs[j]
        den = den + var
        num = num + ww[j, j] * var
        for k in range(j + 1, p):
            cross = np.sum((fs[j] @ joint.bivariate(j, k)) * fs[k], axis=-1)
            num = num + 2.0 * ww[j, k] * cross
    if np.any(den <= 0.0):
        raise DegenerateInputError("all candidate functions are constants")
    ratio = num / den
    return ratio if batch else float(ratio)


def pair_max_corr(joint: PairwiseLaw) -> float:
    """Classical maximal correlation of a two-variable finite joint law.

    Second-largest singular value of D_1^{-1/2} P_12 D_2^{-1/2}; the largest
    singular value is the trivial 1 carried by the constant direction.
    """
    if joint.nvars != 2:
        raise ValidationError(f"pair_max_corr needs exactly 2 variables, got {joint.nvars}")
    p1, p2 = joint.marginal(0), joint.marginal(1)
    q = joint.bivariate(0, 1) / np.sqrt(np.outer(p1, p2))
    sv = np.linalg.svd(q, compute_uv=False)
    if abs(sv[0] - 1.0) > 1e-8:
        raise ValidationError(f"leading singular value {sv[0]} deviates from 1")
    if sv.size < 2:
        return 0.0
    return float(np.clip(sv[1], 0.0, 1.0))


# ---------------------------------------------------------------------------
# sample-based estimator
# ---------------------------------------------------------------------------


def _narrow_uint(count: int) -> np.dtype:
    """The narrowest unsigned integer dtype that holds the codes 0 .. count - 1."""
    return np.min_scalar_type(max(count - 1, 0))


def _sorted_quantiles(srt: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(srt, q)`` of an already sorted array, without its partition.

    numpy's default ("linear") rule: the value at virtual index (n - 1) q,
    interpolated between its two neighbours as numpy's ``_lerp`` does, from
    the upper neighbour where the weight is at least 1/2, so the edges are
    bit-identical to ``np.quantile``'s.
    """
    pos = (srt.size - 1) * q
    lo = np.floor(pos)
    g = pos - lo
    i = lo.astype(np.intp)
    below = srt[i]
    above = srt[np.minimum(i + 1, srt.size - 1)]
    d = above - below
    return np.where(g >= 0.5, above - d * (1 - g), below + d * g)


def _bin_column(col: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Support labels and integer codes of a finite column; ``labels[codes]`` bins it.

    A column with at most ``bins`` distinct values keeps them as its support.
    Otherwise it is cut at its interior ``bins``-quantiles, a value equal to
    an edge going to the bin above it, and the support is the bin numbers
    that occur: heavy ties can leave a bin empty.

    A value's code is the number of cut points at or below it: the distinct
    values after the first, or the quantile edges. It is counted by one
    comparison pass over the column per cut point, so coding costs
    O(n * bins) on top of the sort. On a 2-vCPU x86 machine that beats a
    binary search per value up to about 256 bins (a 1e5-row column: 0.35 ms
    against 3 ms at 16 bins) and loses beyond (30 ms against 8 ms at 1024
    bins). Codes have the dtype ``_narrow_uint(bins)``, one byte up to 256
    bins.
    """
    if bins < 2:
        raise ValidationError(f"bins must be at least 2, got {bins}")
    srt = np.sort(col)
    first = np.empty(srt.size, dtype=bool)
    first[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    distinct = np.count_nonzero(first) <= bins
    if distinct:
        labels = srt[first]
        cuts = labels[1:]
    else:
        cuts = _sorted_quantiles(srt, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    codes = np.zeros(col.size, dtype=_narrow_uint(bins))
    for cut in cuts:
        codes += col >= cut
    if distinct:
        return labels, codes
    used = np.bincount(codes, minlength=bins) > 0
    if not used.all():
        codes = (np.cumsum(used) - 1).astype(codes.dtype)[codes]
    return np.flatnonzero(used).astype(float), codes


def quantile_bin_column(col: np.ndarray, bins: int) -> np.ndarray:
    """Reduce a finite column to at most ``bins`` quantile bins.

    Returns the column's values when it has at most ``bins`` distinct values,
    else each value's bin number.
    """
    labels, codes = _bin_column(np.asarray(col, dtype=float), bins)
    return labels[codes]


@dataclass(frozen=True)
class SampleTables:
    """Empirical pairwise laws of a coded sample, counted without atoms.

    Row j of the C-contiguous (p, n) ``codes`` holds each sample's index into
    ``supports[j]``, and every support point occurs. ``from_samples`` stores
    the codes in the narrowest unsigned dtype that holds ``bins`` codes (one
    byte up to 256 bins). Marginal and bivariate pmfs are code counts over n;
    a pair is counted through its code ``codes[j] * s_k + codes[k]``, built in
    the narrowest unsigned dtype that holds s_j * s_k codes. The n-atom
    empirical joint the counts come from is never enumerated.
    """

    supports: tuple[tuple[float, ...], ...]
    codes: np.ndarray

    @property
    def nvars(self) -> int:
        return len(self.supports)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.supports)

    @classmethod
    def from_samples(cls, samples, bins: int = 16) -> "SampleTables":
        """Code each column of an n x p sample table by ``quantile_bin_column``'s rule."""
        data = np.asarray(samples, dtype=float)
        if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] < 1:
            raise ValidationError("samples must be an n x p table with n >= 2 and p >= 1")
        n, p = data.shape
        codes = np.empty((p, n), dtype=_narrow_uint(bins))
        supports = []
        for j in range(p):
            col = np.ascontiguousarray(data[:, j])
            if not np.isfinite(col).all():
                raise ValidationError(f"samples column {j} holds non-finite values")
            labels, codes[j] = _bin_column(col, bins)
            if labels.size < 2:
                raise DegenerateInputError(f"variable {j} is constant (support size 1)")
            supports.append(tuple(labels.tolist()))
        return cls(supports=tuple(supports), codes=codes)

    def marginal(self, j: int) -> np.ndarray:
        return np.bincount(self.codes[j], minlength=self.sizes[j]) / self.codes.shape[1]

    def bivariate(self, j: int, k: int) -> np.ndarray:
        """Bivariate pmf matrix P_jk: counts of the code pairs over n."""
        sj, sk = self.sizes[j], self.sizes[k]
        flat = self.codes[j].astype(_narrow_uint(sj * sk))
        flat *= sk
        flat += self.codes[k]
        return np.bincount(flat, minlength=sj * sk).reshape(sj, sk) / self.codes.shape[1]


def ace_estimate(samples, w, *, bins: int = 16) -> ExtremeResult:
    """Extreme nonlinear correlations of the empirical joint of raw samples.

    Columns are coded by their empirical supports (quantile bins beyond
    ``bins`` distinct values), and the exact extremes of the resulting
    empirical joint law are returned, computed from its pair tables.
    """
    return exact_extremes(SampleTables.from_samples(samples, bins), w)
