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

from .distributions import FactorialDistribution, Gaussian, UnivariateLaw
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
    evaluate_rows,
    jacobian_rows,
)
from .schema import require_keys
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

    Immutable and thread-safe; ``forward_with_clamps`` reports how many
    CDF values had to be clamped into [1e-15, 1 - 1e-15].
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

    def _check_support(self, s: np.ndarray) -> None:
        for i, law in enumerate(self.source.components):
            lo, hi = law.support
            if not lo < s[i] < hi:
                raise SupportError(f"coordinate {i} = {s[i]} outside open support ({lo}, {hi})")

    def _gaussianize(self, s: np.ndarray) -> tuple[np.ndarray, int]:
        u = np.array([float(law.cdf(si)) for law, si in zip(self.source.components, s)])
        clamped = np.clip(u, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
        n_clamps = int(np.sum(clamped != u))
        return special.ndtri(clamped), n_clamps

    def forward_with_clamps(self, s) -> tuple[np.ndarray, int]:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.d,):
            raise DimensionMismatchError(f"expected a point of shape ({self.d},)")
        self._check_support(s)
        z, n_clamps = self._gaussianize(s)
        z_rot = self.rotation @ z
        u_out = special.ndtr(z_rot)
        clamped = np.clip(u_out, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
        n_clamps += int(np.sum(clamped != u_out))
        y = np.array([law.quantile(float(ui)) for law, ui in zip(self.source.components, clamped)])
        if n_clamps:
            warnings.warn("CDF values clamped during MPA evaluation", ClampWarning, stacklevel=2)
        return y, n_clamps

    def evaluate(self, s) -> np.ndarray:
        return self.forward_with_clamps(s)[0]

    __call__ = evaluate

    def forward_batch(self, S: np.ndarray) -> tuple[np.ndarray, int]:
        """Vectorized forward map for (n, d) draws; returns (outputs,
        total clamp count).  Identical numbers to the scalar path."""
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[1] != self.d:
            raise DimensionMismatchError(f"expected draws of shape (n, {self.d})")
        U = np.column_stack([np.asarray(law.cdf(S[:, i])) for i, law in enumerate(self.source.components)])
        clamped = np.clip(U, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
        n_clamps = int(np.sum(clamped != U))
        Z = special.ndtri(clamped)
        Z_rot = Z @ self.rotation.T
        U_out = special.ndtr(Z_rot)
        out_clamped = np.clip(U_out, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
        n_clamps += int(np.sum(out_clamped != U_out))
        Y = np.column_stack(
            [law.quantile_array(out_clamped[:, i]) for i, law in enumerate(self.source.components)]
        )
        return Y, n_clamps

    def jacobian(self, s) -> np.ndarray:
        """D_out(s) R D_in(s) with D_in = diag(p_i(s_i)/phi(z_i)) and
        D_out = diag(phi(z'_i)/p_i(y_i))."""
        s = np.asarray(s, dtype=float)
        self._check_support(s)
        z, _ = self._gaussianize(s)
        z_rot = self.rotation @ z
        u_out = np.clip(special.ndtr(z_rot), _CDF_CLAMP, 1.0 - _CDF_CLAMP)
        y = np.array([law.quantile(float(ui)) for law, ui in zip(self.source.components, u_out)])
        phi = lambda t: np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        p_in = np.array([float(law.pdf(si)) for law, si in zip(self.source.components, s)])
        p_out = np.array([float(law.pdf(yi)) for law, yi in zip(self.source.components, y)])
        if np.any(p_out <= 0.0):
            raise SupportError("output landed outside the support of a component law")
        d_in = p_in / phi(z)
        d_out = phi(z_rot) / p_out
        return self.rotation * np.outer(d_out, d_in)

    # row loops over the scalar calls: ``forward_batch`` goes through
    # ``quantile_array``, which is not checked to match ``quantile`` bit for bit
    evaluate_batch = evaluate_rows
    jacobian_batch = jacobian_rows


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

    def to_config(self):
        return {"density": "independent", "laws": [law.to_config() for law in self.laws]}


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

    def to_config(self):
        return {"density": "correlated_gaussian", "rho": self.rho, "half_width": self.half_width}


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

    def to_config(self):
        return {
            "density": "rotated_factorial",
            "laws": [law.to_config() for law in self.laws],
            "rotation": np.asarray(self.rotation).tolist(),
        }


def density_spec_from_config(config: dict):
    from .distributions import law_from_config

    if not isinstance(config, dict) or "density" not in config:
        raise ValidationError("density spec needs a 'density' key")
    kind = config["density"]
    if kind == "independent":
        require_keys(config, {"density": True, "laws": True}, "density spec")
        return IndependentProduct(tuple(law_from_config(c) for c in config["laws"]))
    if kind == "correlated_gaussian":
        require_keys(config, {"density": True, "rho": True, "half_width": False}, "density spec")
        return CorrelatedGaussian(config["rho"], config.get("half_width", 8.0))
    if kind == "rotated_factorial":
        require_keys(config, {"density": True, "laws": True, "rotation": True}, "density spec")
        return RotatedFactorial(
            tuple(law_from_config(c) for c in config["laws"]),
            np.asarray(config["rotation"], dtype=float),
        )
    raise ValidationError(f"unknown density kind {kind!r}")


# ---------------------------------------------------------------------------
# Darmois construction (d = 2)
# ---------------------------------------------------------------------------

class DarmoisMap:
    """Recursive conditional-CDF transform of a bivariate density,
    tabulated by trapezoid quadrature on a uniform grid.

    forward: (x1, x2) -> (F_1(x1), F(x2 | x1)) in (0, 1)^2; the Jacobian
    is lower triangular by construction.  Linear interpolation between
    nodes keeps every tabulated CDF strictly increasing, so the
    per-coordinate inverse is exact on the interpolant.
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

    def _check_inside(self, x: np.ndarray, margin: float = 0.0) -> None:
        if not (self.x1[0] + margin < x[0] < self.x1[-1] - margin):
            raise OutOfTableError(f"x1={x[0]} outside the tabulated range")
        if not (self.x2[0] + margin < x[1] < self.x2[-1] - margin):
            raise OutOfTableError(f"x2={x[1]} outside the tabulated range")

    def _blend_row(self, x1: float) -> np.ndarray:
        """Conditional-CDF node values at x1, linearly blended between rows."""
        pos = (x1 - self.x1[0]) / self.h1
        i = int(np.clip(np.floor(pos), 0, self.resolution - 2))
        w = pos - i
        return (1.0 - w) * self.conditional_cdf_table[i] + w * self.conditional_cdf_table[i + 1]

    def marginal_transform(self, x1: float) -> float:
        return float(np.interp(x1, self.x1, self.marginal_cdf))

    def conditional_transform(self, x1: float, x2: float) -> float:
        return float(np.interp(x2, self.x2, self._blend_row(x1)))

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise DimensionMismatchError("expected a 2-vector")
        self._check_inside(x)
        return np.array([self.marginal_transform(x[0]), self.conditional_transform(x[0], x[1])])

    __call__ = evaluate

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized forward transform of (n, 2) points strictly inside
        the rectangle (bilinear interpolation of the CDF tables)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2:
            raise DimensionMismatchError("expected points of shape (n, 2)")
        if np.any(X[:, 0] <= self.x1[0]) or np.any(X[:, 0] >= self.x1[-1]) or \
           np.any(X[:, 1] <= self.x2[0]) or np.any(X[:, 1] >= self.x2[-1]):
            raise OutOfTableError("some points fall outside the tabulated rectangle")
        g1 = np.interp(X[:, 0], self.x1, self.marginal_cdf)
        pos1 = (X[:, 0] - self.x1[0]) / self.h1
        i = np.clip(np.floor(pos1).astype(int), 0, self.resolution - 2)
        w = pos1 - i
        pos2 = (X[:, 1] - self.x2[0]) / self.h2
        j = np.clip(np.floor(pos2).astype(int), 0, self.resolution - 2)
        v = pos2 - j
        C = self.conditional_cdf_table
        g2 = (1 - w) * ((1 - v) * C[i, j] + v * C[i, j + 1]) + w * (
            (1 - v) * C[i + 1, j] + v * C[i + 1, j + 1]
        )
        return np.column_stack([g1, g2])

    def inverse(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (2,):
            raise DimensionMismatchError("expected a 2-vector")
        if not (0.0 < u[0] < 1.0 and 0.0 < u[1] < 1.0):
            raise DomainError("inverse arguments must lie in (0, 1)^2")
        x1 = float(np.interp(u[0], self.marginal_cdf, self.x1))
        row = self._blend_row(x1)
        x2 = float(np.interp(u[1], row, self.x2))
        return np.array([x1, x2])

    def jacobian(self, x) -> np.ndarray:
        """[[p_1(x1), 0], [dF(x2|x1)/dx1, p(x2|x1)]]; the upper-right
        entry is exactly zero, the lower-left uses a one-grid-cell
        central difference."""
        x = np.asarray(x, dtype=float)
        self._check_inside(x, margin=self.h1)
        p1 = float(np.interp(x[0], self.x1, self.marginal_pdf))
        joint = self._bilinear_joint(x[0], x[1])
        cond_dens = joint / p1
        d21 = (
            self.conditional_transform(x[0] + self.h1, x[1])
            - self.conditional_transform(x[0] - self.h1, x[1])
        ) / (2.0 * self.h1)
        return np.array([[p1, 0.0], [d21, cond_dens]])

    def _bilinear_joint(self, x1: float, x2: float) -> float:
        pos1 = (x1 - self.x1[0]) / self.h1
        pos2 = (x2 - self.x2[0]) / self.h2
        i = int(np.clip(np.floor(pos1), 0, self.resolution - 2))
        j = int(np.clip(np.floor(pos2), 0, self.resolution - 2))
        w1 = pos1 - i
        w2 = pos2 - j
        P = self.joint
        return float(
            (1 - w1) * (1 - w2) * P[i, j]
            + w1 * (1 - w2) * P[i + 1, j]
            + (1 - w1) * w2 * P[i, j + 1]
            + w1 * w2 * P[i + 1, j + 1]
        )

    def cdf_tables_to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "marginal_cdf"] + [repr(float(v)) for v in self.x2])
            for i in range(self.resolution):
                writer.writerow(
                    [repr(float(self.x1[i])), repr(float(self.marginal_cdf[i]))]
                    + [repr(float(v)) for v in self.conditional_cdf_table[i]]
                )


def darmois_build(spec, resolution: int = 512) -> DarmoisMap:
    return DarmoisMap(spec, resolution)


class DarmoisInverse:
    """Inverse Darmois stage (0,1)^2 -> rectangle; its Jacobian is the
    triangular inverse of the forward Jacobian at the preimage."""

    d_in = 2
    d_out = 2

    def __init__(self, dm: DarmoisMap):
        self.dm = dm

    def evaluate(self, u) -> np.ndarray:
        return self.dm.inverse(u)

    __call__ = evaluate

    def jacobian(self, u) -> np.ndarray:
        x = self.dm.inverse(u)
        J = self.dm.jacobian(x)
        a, c, b = J[0, 0], J[1, 0], J[1, 1]
        return np.array([[1.0 / a, 0.0], [-c / (a * b), 1.0 / b]])

    evaluate_batch = evaluate_rows
    jacobian_batch = jacobian_rows


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
