"""Spurious-solution constructors: the rotated-Gaussian measure-preserving
automorphism, the two-dimensional Darmois construction, and the chain-rule
composition machinery that assembles the counterexample maps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import FactorialDistribution, UnivariateLaw
from .errors import (
    DimensionMismatchError,
    DomainError,
    NonPositiveDensityError,
    NormalizationError,
    OutOfTableError,
    SupportError,
    TrivialRotationError,
    ValidationError,
)
from .mixing import (
    FULL_SPACE,
    LinearMap,
    MixingMap,
    chain_jacobian_batch,
)
from .seeding import generator

_CDF_CLAMP = 1e-15


class ClampWarning(UserWarning):
    """Raised (as a warning) when CDF values had to be clamped away from 0/1."""


def rotation_matrix_2d(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s], [s, c]])


def is_signed_permutation(R: np.ndarray, tol: float = 1e-12) -> bool:
    """True when every row and column holds exactly one entry of magnitude 1."""
    R = np.asarray(R, dtype=float)
    mask = np.abs(np.abs(R) - 1.0) <= tol
    small = np.abs(R) <= tol
    return bool(np.all(mask | small) and np.all(mask.sum(axis=0) == 1) and np.all(mask.sum(axis=1) == 1))


# ---------------------------------------------------------------------------
# rotated-Gaussian MPA
# ---------------------------------------------------------------------------

class RotatedGaussianMPA:
    """Latent-space automorphism F_s^{-1} o Phi o R o Phi^{-1} o F_s that
    leaves the factorial source distribution invariant.

    ``evaluate`` and ``jacobian`` broadcast over leading axes, (..., d) ->
    (..., d) and (..., d, d), so the batch methods are one call each.  CDF
    values are clamped into [1e-15, 1 - 1e-15]; ``evaluate`` warns with
    the number clamped.  Immutable and thread-safe.
    """

    def __init__(self, source: FactorialDistribution, rotation: np.ndarray):
        rotation = np.asarray(rotation, dtype=float)
        d = source.dim
        if rotation.shape != (d, d):
            raise DimensionMismatchError(f"rotation must be {d}x{d}, got {rotation.shape}")
        defect = np.max(np.abs(rotation.T @ rotation - np.eye(d)))
        if defect > 1e-12:
            raise ValidationError(f"rotation is not orthonormal (defect {defect:.3e})")
        self.source = source
        self.rotation = rotation
        self.d = d
        self.d_in = d
        self.d_out = d

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
        # the scalar quantile: Laplace.quantile_array's np.log differs from
        # quantile's math.log in the last bit, and the spurious CSV pins this one
        Y = np.stack([
            np.reshape([law.quantile(u) for u in clamped[..., i].ravel().tolist()], Z.shape[:-1])
            for i, law in enumerate(laws)
        ], axis=-1)
        return Z, Z_rot, Y, clamps

    def evaluate(self, s) -> np.ndarray:
        _, _, Y, clamps = self._forward(s)
        if clamps:
            warnings.warn(f"{clamps} CDF values clamped during MPA evaluation", ClampWarning,
                          stacklevel=2)
        return Y

    __call__ = evaluate
    evaluate_batch = evaluate

    def jacobian(self, s) -> np.ndarray:
        """D_out(s) R D_in(s) with D_in = diag(p_i(s_i)/phi(z_i)) and
        D_out = diag(phi(z'_i)/p_i(y_i))."""
        S = np.asarray(s, dtype=float)
        Z, Z_rot, Y, _ = self._forward(S)
        laws = self.source.components
        p_in = np.stack([law.pdf(S[..., i]) for i, law in enumerate(laws)], axis=-1)
        p_out = np.stack([law.pdf(Y[..., i]) for i, law in enumerate(laws)], axis=-1)
        if np.any(p_out <= 0.0):
            raise SupportError("output landed outside the support of a component law")
        phi = lambda t: np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        d_in = p_in / phi(Z)
        d_out = phi(Z_rot) / p_out
        return self.rotation * (d_out[..., :, None] * d_in[..., None, :])

    def jacobian_batch(self, S):
        return self.jacobian(S), np.zeros(len(S), dtype=bool)


# ---------------------------------------------------------------------------
# joint density specs for the Darmois construction (d = 2)
# ---------------------------------------------------------------------------

def _law_bounds(law: UnivariateLaw, tail: float = 1e-9) -> tuple[float, float]:
    lo, hi = law.support
    if math.isinf(lo):
        lo = law.quantile(tail)
    if math.isinf(hi):
        hi = law.quantile(1.0 - tail)
    return lo, hi


@dataclass(frozen=True)
class IndependentProduct:
    """p(x1, x2) = p_1(x1) p_2(x2)."""

    laws: tuple[UnivariateLaw, UnivariateLaw]

    def rectangle(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return _law_bounds(self.laws[0]), _law_bounds(self.laws[1])

    def density(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return np.outer(self.laws[0].pdf(x1), self.laws[1].pdf(x2))

    def sample(self, n: int, seed: int) -> np.ndarray:
        return FactorialDistribution(self.laws).sample(n, seed)


@dataclass(frozen=True)
class CorrelatedGaussian:
    """Bivariate Gaussian with standard margins and correlation rho."""

    rho: float
    half_width: float = 8.0

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"correlation must lie in (-1, 1), got {self.rho}")

    def rectangle(self):
        r = self.half_width
        return (-r, r), (-r, r)

    def density(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)[:, None]
        x2 = np.asarray(x2, dtype=float)[None, :]
        det = 1.0 - self.rho**2
        quad = (x1**2 - 2.0 * self.rho * x1 * x2 + x2**2) / det
        return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))

    def conditional_cdf(self, x1: float, x2: float) -> float:
        """Closed-form conditional CDF, the oracle the tables are checked against."""
        z = (x2 - self.rho * x1) / math.sqrt(1.0 - self.rho**2)
        return float(special.ndtr(z))

    def sample(self, n: int, seed: int) -> np.ndarray:
        gen = generator(seed)
        g = gen.standard_normal((n, 2))
        x1 = g[:, 0]
        x2 = self.rho * g[:, 0] + math.sqrt(1.0 - self.rho**2) * g[:, 1]
        return np.column_stack([x1, x2])


@dataclass(frozen=True)
class RotatedFactorial:
    """Density of x = O s for factorial s: p(x) = p_s(O^T x) (|det O| = 1)."""

    laws: tuple[UnivariateLaw, UnivariateLaw]
    rotation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        if R.shape != (2, 2):
            raise DimensionMismatchError("rotation must be 2x2")
        if np.max(np.abs(R.T @ R - np.eye(2))) > 1e-12:
            raise ValidationError("rotation is not orthonormal")
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
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        Rt = self.rotation.T
        s1 = Rt[0, 0] * X1 + Rt[0, 1] * X2
        s2 = Rt[1, 0] * X1 + Rt[1, 1] * X2
        return np.asarray(self.laws[0].pdf(s1)) * np.asarray(self.laws[1].pdf(s2))

    def sample(self, n: int, seed: int) -> np.ndarray:
        s = FactorialDistribution(self.laws).sample(n, seed)
        return s @ self.rotation.T


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

    d_in = 2
    d_out = 2

    def __init__(self, spec, resolution: int = 512):
        if resolution < 128:
            raise DomainError(f"resolution must be >= 128, got {resolution}")
        (lo1, hi1), (lo2, hi2) = spec.rectangle()
        self.spec = spec
        self.resolution = int(resolution)
        self.x1 = np.linspace(lo1, hi1, resolution)
        self.x2 = np.linspace(lo2, hi2, resolution)
        P = np.asarray(spec.density(self.x1, self.x2), dtype=float)
        if P.shape != (resolution, resolution):
            raise DimensionMismatchError("density grid has wrong shape")
        if np.any(P <= 0.0) or not np.all(np.isfinite(P)):
            raise NonPositiveDensityError(
                "density must be strictly positive and finite on its bounding rectangle"
            )
        h1 = self.x1[1] - self.x1[0]
        h2 = self.x2[1] - self.x2[0]
        row_mass = np.trapezoid(P, dx=h2, axis=1)
        total = float(np.trapezoid(row_mass, dx=h1))
        if abs(total - 1.0) > 1e-4:
            raise NormalizationError(f"quadrature mass {total:.6f} deviates from 1 by > 1e-4")
        self.total_mass = total
        self.joint = P / total
        self.marginal_pdf = row_mass / total
        cdf1 = np.concatenate([[0.0], np.cumsum(0.5 * (row_mass[1:] + row_mass[:-1]) * h1)])
        self.marginal_cdf = cdf1 / cdf1[-1]
        cond = np.concatenate(
            [np.zeros((resolution, 1)), np.cumsum(0.5 * (P[:, 1:] + P[:, :-1]) * h2, axis=1)],
            axis=1,
        )
        self.conditional_cdf_table = cond / cond[:, -1:]
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

    __call__ = evaluate

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


class DarmoisInverse:
    """Inverse Darmois stage (0,1)^2 -> rectangle; its Jacobian is the
    triangular inverse of the forward Jacobian at the preimage; both
    broadcast over leading axes."""

    d_in = 2
    d_out = 2

    def __init__(self, dm: DarmoisMap):
        self.dm = dm

    def evaluate(self, u) -> np.ndarray:
        return self.dm.inverse(u)

    __call__ = evaluate
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

    def jacobian_batch(self, U):
        """Rows whose preimage lies within one table cell of the edge are
        rejected, as the scalar ``jacobian`` raises OutOfTableError there.
        The preimages are computed once, for the mask and the Jacobian."""
        U = np.asarray(U, dtype=float)
        X = self.dm.inverse(U)
        rejected = ~self.dm._inside(X, self.dm.h1)
        J = np.full((len(U), 2, 2), np.nan)
        J[~rejected] = self.jacobian(U[~rejected], X[~rejected])
        return J, rejected


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _stage_dims(stage) -> tuple[int, int]:
    if hasattr(stage, "d_in") and hasattr(stage, "d_out"):
        return stage.d_in, stage.d_out
    raise ValidationError(f"stage {stage!r} does not expose its dimensions")


class ComposedMap(MixingMap):
    """Stage-wise composition; the Jacobian is the ordered chain-rule
    product of stage Jacobians.  Each stage exposes ``d_in``/``d_out`` and
    the scalar and batch ``evaluate``/``jacobian`` calls."""

    def __init__(self, stages, domain: str = FULL_SPACE):
        if not stages:
            raise ValidationError("composition needs at least one stage")
        dims = [_stage_dims(st) for st in stages]
        for (here_in, here_out), (next_in, _) in zip(dims[:-1], dims[1:]):
            if here_out != next_in:
                raise DimensionMismatchError(
                    f"stage output dim {here_out} does not match next input dim {next_in}"
                )
        self.stages = tuple(stages)
        self.d = dims[0][0]
        self.m = dims[-1][1]
        self.domain = domain

    def evaluate(self, s):
        x = np.asarray(s, dtype=float)
        for stage in self.stages:
            x = stage.evaluate(x)
        return x

    def evaluate_batch(self, S):
        X = np.asarray(S, dtype=float)
        for stage in self.stages:
            X = stage.evaluate_batch(X)
        return X

    def jacobian(self, s):
        """Chain of the stages' scalar Jacobians: the per-point reference
        for ``jacobian_batch``, and it raises the rejecting stage's own
        error, which the batch's mask cannot name."""
        x = np.asarray(s, dtype=float)
        J = None
        for stage in self.stages:
            Js = stage.jacobian(x)
            J = Js if J is None else Js @ J
            x = stage.evaluate(x)
        return J

    def jacobian_batch(self, S):
        return chain_jacobian_batch(self.stages, np.asarray(S, dtype=float), self.m, self.d)


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
