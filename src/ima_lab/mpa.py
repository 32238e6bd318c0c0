"""Spurious-solution constructors: the rotated-Gaussian measure-preserving
automorphism, the two-dimensional Darmois construction, and the
counterexample maps f o a and f o O^T o dm^{-1} assembled from them as
:class:`ima_lab.mixing.ComposedMap` chains (the name is importable from
here too).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import FactorialDistribution, Gaussian, UnivariateLaw
from .errors import (
    DimensionMismatchError,
    DomainError,
    NonPositiveDensityError,
    NormalizationError,
    OutOfTableError,
    SupportError,
    TrivialRotationError,
    reject_codes,
)
from .mixing import ComposedMap, LinearMap, MixingMap, Stage, check_orthonormal

_CDF_CLAMP = 1e-15
#: tail mass at which the Darmois table cuts an unbounded support
_LAW_TAIL = 1e-9
#: tolerance of :func:`is_signed_permutation` on each entry
_SIGNED_PERMUTATION_TOL = 1e-12


class ClampWarning(UserWarning):
    """Raised (as a warning) when CDF values had to be clamped away from 0/1."""


def rotation_matrix_2d(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s], [s, c]])


def is_signed_permutation(R: np.ndarray) -> bool:
    """True when every row and column holds exactly one entry of magnitude 1
    and the others vanish, each to within :data:`_SIGNED_PERMUTATION_TOL`."""
    R = np.asarray(R, dtype=float)
    mask = np.abs(np.abs(R) - 1.0) <= _SIGNED_PERMUTATION_TOL
    small = np.abs(R) <= _SIGNED_PERMUTATION_TOL
    return bool(np.all(mask | small) and np.all(mask.sum(axis=0) == 1) and np.all(mask.sum(axis=1) == 1))


# ---------------------------------------------------------------------------
# rotated-Gaussian MPA
# ---------------------------------------------------------------------------

class RotatedGaussianMPA(Stage):
    """Latent-space automorphism F_s^{-1} o Phi o R o Phi^{-1} o F_s that
    leaves the factorial source distribution invariant.

    ``evaluate`` and ``jacobian`` broadcast over leading axes, (..., d) ->
    (..., d) and (..., d, d), so ``evaluate_batch`` is ``evaluate``, and
    ``forward_batch`` takes one forward pass for both.  CDF values are
    clamped into [1e-15, 1 - 1e-15]; ``evaluate`` and ``forward_batch``
    warn with the number clamped.  Immutable and thread-safe.
    """

    def __init__(self, source: FactorialDistribution, rotation: np.ndarray):
        rotation = np.asarray(rotation, dtype=float)
        d = source.dim
        if rotation.shape != (d, d):
            raise DimensionMismatchError(f"rotation must be {d}x{d}, got {rotation.shape}")
        check_orthonormal(rotation, 1e-12, "rotation is not orthonormal")
        self.source = source
        self.rotation = rotation
        self.d = self.m = d

    def _forward(self, S) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(Z, Z_rot, Y, clamps) at points S of shape (..., d): the
        gaussianized points, their rotation, the outputs, and the number
        of CDF values clamped on the way."""
        S = np.asarray(S, dtype=float)
        if S.ndim < 1 or S.shape[-1] != self.d:
            raise DimensionMismatchError(f"expected points of shape (..., {self.d}), got {S.shape}")
        laws = self.source.components
        for i, law in enumerate(laws):
            lo, hi = law.support
            outside = ~((lo < S[..., i]) & (S[..., i] < hi))
            if outside.any():
                raise SupportError(
                    f"coordinate {i} = {S[..., i][outside][0]} outside open support ({lo}, {hi})"
                )
        U = np.stack([law.cdf(S[..., i]) for i, law in enumerate(laws)], axis=-1)
        clamped = np.clip(U, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
        clamps = int(np.count_nonzero(clamped != U))
        Z = special.ndtri(clamped)
        # one matrix-vector product per point, bit for bit the scalar R @ z
        Z_rot = (self.rotation @ Z[..., None])[..., 0]
        U_out = special.ndtr(Z_rot)
        clamped = np.clip(U_out, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
        clamps += int(np.count_nonzero(clamped != U_out))
        # quantile, not quantile_array: Laplace's math.log differs from np.log
        # in the last bit, and the spurious CSV pins this one
        Y = np.stack([law.quantile(clamped[..., i]) for i, law in enumerate(laws)], axis=-1)
        return Z, Z_rot, Y, clamps

    @staticmethod
    def _warn_clamps(clamps: int) -> None:
        if clamps:
            warnings.warn(f"{clamps} CDF values clamped during MPA evaluation", ClampWarning,
                          stacklevel=3)

    def evaluate(self, s) -> np.ndarray:
        _, _, Y, clamps = self._forward(s)
        self._warn_clamps(clamps)
        return Y

    evaluate_batch = evaluate

    def jacobian(self, s, forward=None) -> np.ndarray:
        """D_out(s) R D_in(s) with D_in = diag(p_i(s_i)/phi(z_i)) and
        D_out = diag(phi(z'_i)/p_i(y_i)).  ``forward`` is ``_forward(s)``
        when the caller already has it."""
        S = np.asarray(s, dtype=float)
        Z, Z_rot, Y, _ = self._forward(S) if forward is None else forward
        laws = self.source.components
        p_in = np.stack([law.pdf(S[..., i]) for i, law in enumerate(laws)], axis=-1)
        p_out = np.stack([law.pdf(Y[..., i]) for i, law in enumerate(laws)], axis=-1)
        if np.any(p_out <= 0.0):
            raise SupportError("output landed outside the support of a component law")
        phi = Gaussian(0.0, 1.0).pdf
        scale_in = p_in / phi(Z)
        scale_out = phi(Z_rot) / p_out
        return self.rotation * (scale_out[..., :, None] * scale_in[..., None, :])

    def forward_batch(self, S):
        """``evaluate``, ``jacobian`` and the codes from one forward pass."""
        forward = self._forward(S)
        _, _, Y, clamps = forward
        J = self.jacobian(S, forward)
        self._warn_clamps(clamps)
        return Y, J, np.zeros(len(J), dtype=np.int8)


# ---------------------------------------------------------------------------
# joint density specs for the Darmois construction (d = 2)
# ---------------------------------------------------------------------------

def _law_bounds(law: UnivariateLaw) -> tuple[float, float]:
    """The law's support, with an infinite end cut at tail mass
    :data:`_LAW_TAIL`."""
    lo, hi = law.support
    if math.isinf(lo):
        lo = law.quantile(_LAW_TAIL)
    if math.isinf(hi):
        hi = law.quantile(1.0 - _LAW_TAIL)
    return lo, hi


@dataclass(frozen=True)
class RotatedFactorial:
    """Density of x = O s for factorial s: p(x) = p_s(O^T x) (|det O| = 1)."""

    laws: tuple[UnivariateLaw, UnivariateLaw]
    rotation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        if R.shape != (2, 2):
            raise DimensionMismatchError("rotation must be 2x2")
        check_orthonormal(R, 1e-12, "rotation is not orthonormal")
        object.__setattr__(self, "rotation", R)

    def rectangle(self):
        b1 = _law_bounds(self.laws[0])
        b2 = _law_bounds(self.laws[1])
        R = self.rotation
        # interval arithmetic on x = R s
        half = [abs(R[i, 0]) * max(abs(b1[0]), abs(b1[1])) + abs(R[i, 1]) * max(abs(b2[0]), abs(b2[1]))
                for i in range(2)]
        return (-half[0], half[0]), (-half[1], half[1])

    def density(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        Rt = self.rotation.T
        # s = R^T x at every grid node (x1[i], x2[j]), broadcast from the axes
        # into fresh grids, which the densities may work on in place
        P = np.asarray(self.laws[0]._pdf_in_place((Rt[0, 0] * x1)[:, None] + (Rt[0, 1] * x2)[None, :]))
        P *= self.laws[1]._pdf_in_place((Rt[1, 0] * x1)[:, None] + (Rt[1, 1] * x2)[None, :])
        return P


# ---------------------------------------------------------------------------
# Darmois construction (d = 2)
# ---------------------------------------------------------------------------

class DarmoisMap:
    """Recursive conditional-CDF transform of a bivariate density,
    tabulated by trapezoid quadrature on a uniform grid.

    forward: (x1, x2) -> (F_1(x1), F(x2 | x1)) in (0, 1)^2; the Jacobian
    is lower triangular by construction.  Linear interpolation between
    nodes keeps every tabulated CDF strictly increasing, so the
    per-coordinate inverse is exact on the interpolant.  ``evaluate``,
    ``inverse`` and ``jacobian`` broadcast over leading axes, (..., 2) ->
    (..., 2) and (..., 2, 2).
    """

    d = m = 2

    def __init__(self, spec, resolution: int = 512):
        if resolution < 128:
            raise DomainError(f"resolution must be >= 128, got {resolution}")
        (lo1, hi1), (lo2, hi2) = spec.rectangle()
        self.spec = spec
        self.resolution = int(resolution)
        self.x1 = np.linspace(lo1, hi1, resolution)
        self.x2 = np.linspace(lo2, hi2, resolution)
        # the density's grid is a fresh array, which the table takes over
        # and works on in place
        P = np.asarray(spec.density(self.x1, self.x2), dtype=float)
        if P.shape != (resolution, resolution):
            raise DimensionMismatchError("density grid has wrong shape")
        # a NaN makes the minimum NaN, which fails the comparison
        if not (P.min() > 0.0 and P.max() < math.inf):
            raise NonPositiveDensityError(
                "density must be strictly positive and finite on its bounding rectangle"
            )
        h1 = self.x1[1] - self.x1[0]
        h2 = self.x2[1] - self.x2[0]
        # the trapezoid sums along x2, formed once: np.trapezoid's row sums
        # ((h2 S) / 2).sum(axis=1), then the cumulative (0.5 S) h2
        S = P[:, 1:] + P[:, :-1]
        T = h2 * S
        T /= 2.0
        row_mass = T.sum(axis=1)
        total = float(np.trapezoid(row_mass, dx=h1))
        if abs(total - 1.0) > 1e-4:
            raise NormalizationError(f"quadrature mass {total:.6f} deviates from 1 by > 1e-4")
        self.total_mass = total
        P /= total
        self.joint = P
        self.marginal_pdf = row_mass / total
        cdf1 = np.concatenate([[0.0], np.cumsum(0.5 * (row_mass[1:] + row_mass[:-1]) * h1)])
        self.marginal_cdf = cdf1 / cdf1[-1]
        np.multiply(S, 0.5, out=S)
        S *= h2
        cond = np.empty((resolution, resolution))
        cond[:, 0] = 0.0
        np.cumsum(S, axis=1, out=cond[:, 1:])
        cond /= cond[:, -1:].copy()
        self.conditional_cdf_table = cond
        self.h1 = h1
        self.h2 = h2

    def _inside(self, X: np.ndarray, margin: float) -> np.ndarray:
        """True for the points of X (..., 2) more than ``margin`` inside the
        tabulated rectangle."""
        return (
            (self.x1[0] + margin < X[..., 0]) & (X[..., 0] < self.x1[-1] - margin)
            & (self.x2[0] + margin < X[..., 1]) & (X[..., 1] < self.x2[-1] - margin)
        )

    def _points(self, X, margin: float = 0.0) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim < 1 or X.shape[-1] != 2:
            raise DimensionMismatchError(f"expected points of shape (..., 2), got {X.shape}")
        if not self._inside(X, margin).all():
            raise OutOfTableError("some points fall outside the tabulated rectangle")
        return X

    def _cell(self, x: np.ndarray, start: float, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Index i of the grid cell (start + i h, start + (i + 1) h) that
        holds each x, and x's weight w in it, on an axis of the table."""
        pos = (x - start) / h
        i = np.clip(np.floor(pos), 0, self.resolution - 2).astype(np.intp)
        return i, pos - i

    def _row(self, x1: np.ndarray):
        """Node j of the conditional-CDF row at each x1, linearly blended
        between the table rows around it; a function of j."""
        i, w = self._cell(x1, self.x1[0], self.h1)
        C = self.conditional_cdf_table
        return lambda j: (1.0 - w) * C[i, j] + w * C[i + 1, j]

    def _interp(self, x: np.ndarray, xp, fp) -> np.ndarray:
        """``np.interp(x, xp, fp)`` at each element of x, bit for bit, where
        xp(j) and fp(j) give node j of that element's own table.  The
        blended rows are never built: only the nodes the bisection visits."""
        n = self.resolution
        # numpy's binary search: the last node j with xp(j) <= x, -1 if none
        lo = np.zeros(x.shape, dtype=np.intp)
        hi = np.full(x.shape, n)
        for _ in range(n.bit_length()):
            mid = np.minimum((lo + hi) >> 1, n - 1)
            below = xp(mid) <= x
            searching = lo < hi
            lo = np.where(searching & below, mid + 1, lo)
            hi = np.where(searching & ~below, mid, hi)
        j = np.clip(lo - 1, 0, n - 2)
        x_j, f_j = xp(j), fp(j)
        # the slope of a row past either end may divide by zero; those rows
        # take numpy's node value below
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (fp(j + 1) - f_j) / (xp(j + 1) - x_j) * (x - x_j) + f_j
        # numpy returns the node value left of the table, on a node, and at
        # or past the last node
        return np.where(lo == 0, fp(0), np.where(lo == n, fp(n - 1), np.where(x == x_j, f_j, out)))

    def _conditional(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """F(x2 | x1) by linear interpolation along the blended row."""
        return self._interp(x2, lambda j: self.x2[j], self._row(x1))

    def evaluate(self, x) -> np.ndarray:
        X = self._points(x)
        u1 = np.interp(X[..., 0], self.x1, self.marginal_cdf)
        return np.stack([u1, self._conditional(X[..., 0], X[..., 1])], axis=-1)

    def inverse(self, u) -> np.ndarray:
        U = np.asarray(u, dtype=float)
        if U.ndim < 1 or U.shape[-1] != 2:
            raise DimensionMismatchError(f"expected points of shape (..., 2), got {U.shape}")
        if not np.all((0.0 < U) & (U < 1.0)):
            raise DomainError("inverse arguments must lie in (0, 1)^2")
        x1 = np.interp(U[..., 0], self.marginal_cdf, self.x1)
        x2 = self._interp(U[..., 1], self._row(x1), lambda j: self.x2[j])
        return np.stack([x1, x2], axis=-1)

    def jacobian(self, x) -> np.ndarray:
        """[[p_1(x1), 0], [dF(x2|x1)/dx1, p(x2|x1)]]; the upper-right
        entry is exactly zero, the lower-left uses a one-grid-cell
        central difference.  Points within one cell of the table edge
        raise OutOfTableError."""
        X = self._points(x, margin=self.h1)
        x1, x2 = X[..., 0], X[..., 1]
        p1 = np.interp(x1, self.x1, self.marginal_pdf)
        # bilinear interpolation of the joint density
        i, w1 = self._cell(x1, self.x1[0], self.h1)
        j, w2 = self._cell(x2, self.x2[0], self.h2)
        P = self.joint
        joint = (
            (1 - w1) * (1 - w2) * P[i, j]
            + w1 * (1 - w2) * P[i + 1, j]
            + (1 - w1) * w2 * P[i, j + 1]
            + w1 * w2 * P[i + 1, j + 1]
        )
        d21 = (self._conditional(x1 + self.h1, x2) - self._conditional(x1 - self.h1, x2)) / (
            2.0 * self.h1
        )
        J = np.zeros(X.shape + (2,))
        J[..., 0, 0] = p1
        J[..., 1, 0] = d21
        J[..., 1, 1] = joint / p1
        return J


def darmois_build(spec, resolution: int = 512) -> DarmoisMap:
    return DarmoisMap(spec, resolution)


class DarmoisInverse(Stage):
    """Inverse Darmois stage (0,1)^2 -> rectangle; its Jacobian is the
    triangular inverse of the forward Jacobian at the preimage; both
    broadcast over leading axes."""

    d = m = 2

    def __init__(self, dm: DarmoisMap):
        self.dm = dm

    def evaluate(self, u) -> np.ndarray:
        return self.dm.inverse(u)

    evaluate_batch = evaluate

    def jacobian(self, u, preimage=None) -> np.ndarray:
        """``preimage`` is ``inverse(u)`` when the caller already has it."""
        X = self.dm.inverse(u) if preimage is None else preimage
        J = self.dm.jacobian(X)
        a, c, b = J[..., 0, 0], J[..., 1, 0], J[..., 1, 1]
        inv = np.zeros_like(J)
        inv[..., 0, 0] = 1.0 / a
        inv[..., 1, 0] = -c / (a * b)
        inv[..., 1, 1] = 1.0 / b
        return inv

    def forward_batch(self, U):
        """``(X, J, code)`` at the rows of U: a row whose preimage lies
        within one table cell of the edge, where ``jacobian`` raises
        OutOfTableError, is refused with that error's code.  The preimages
        are computed once, for the outputs X (at the kept rows), the codes
        and the Jacobian."""
        U = np.asarray(U, dtype=float)
        X = self.dm.inverse(U)
        kept = self.dm._inside(X, self.dm.h1)
        X = X[kept]
        J = np.full((len(U), 2, 2), np.nan)
        J[kept] = self.jacobian(U[kept], X)
        return X, J, reject_codes(~kept, OutOfTableError)


# ---------------------------------------------------------------------------
# spurious solutions
# ---------------------------------------------------------------------------

def spurious_mpa(f: MixingMap, a: RotatedGaussianMPA) -> ComposedMap:
    """f o a: push latents through the automorphism, then mix."""
    return ComposedMap([a, f])


def spurious_darmois(f: MixingMap, O: np.ndarray, dm: DarmoisMap) -> ComposedMap:
    """f o O^T o dm^{-1}: the counterexample built from the Darmois
    construction applied to the rotated latents."""
    O = np.asarray(O, dtype=float)
    if O.shape != (2, 2):
        raise DimensionMismatchError("rotation must be 2x2")
    return ComposedMap([DarmoisInverse(dm), LinearMap(O.T), f])


def require_nontrivial_rotation(R: np.ndarray) -> np.ndarray:
    """Reject signed permutations (the theorems exclude them)."""
    R = np.asarray(R, dtype=float)
    if is_signed_permutation(R):
        raise TrivialRotationError(
            "rotation is a signed permutation; the spurious-solution theorems require "
            "a basis vector that is not mapped onto another basis vector"
        )
    return R
