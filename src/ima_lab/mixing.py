"""Mixing-function families with analytic Jacobians.

Families:

* linear maps (the base case of the concentration sweep),
* two-piece affine maps glued continuously across an axis-aligned
  boundary, optionally blended with the sinusoidal smooth step,
* grid-wise piecewise-affine maps on the unit cube whose Jacobian block
  switches at knots with spacing ``delta``, plus their C^1 smooth
  approximation of half-width ``eps``,
* conformal embeddings (orthonormal embedding composed with similarity
  and sphere-inversion primitives), which satisfy J^T J = lambda^2 I.

Every family exposes ``evaluate``/``jacobian`` and their batched twins
``evaluate_batch``/``jacobian_batch``; ``jacobian_fd`` provides the
central-difference oracle used by the tests.

Jacobian protocol: ``jacobian_batch(S)`` takes (n, d) points and returns
``(J, rejected)``, J of shape (n, m, d) and ``rejected`` a bool mask of
the rows whose scalar ``jacobian`` would raise one of
:data:`errors.REJECTABLE` (those rows of J are NaN).  Any other error is
raised, as the scalar call would.  Every family computes the batch
directly and its scalar ``jacobian`` is a batch of one; the spurious
stages of :mod:`ima_lab.mpa` broadcast over leading axes instead, like
``experiments.InverseElementwiseStage``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .contrast import RANK_TOL, local_contrast_from_gram
from .errors import (
    DimensionMismatchError,
    DomainError,
    NearPoleError,
    NonFiniteError,
    OnKnotError,
    OutOfDomainError,
    RankDeficientError,
    ValidationError,
)
from .distributions import SphericalSampler
from .seeding import generator, substream

UNIT_CUBE = "unit-cube"
FULL_SPACE = "all-of-Rd"

_KNOT_TOL = 1e-12


# ---------------------------------------------------------------------------
# smooth step
# ---------------------------------------------------------------------------

def smooth_step(s, eps: float):
    """Sinusoidal C^1 ramp: 0 for s <= -eps, 1 for s > eps, and
    sin(pi s / 2 eps)/2 + 1/2 in between."""
    if not eps > 0:
        raise DomainError(f"smoothing half-width eps must be positive, got {eps}")
    s = np.asarray(s, dtype=float)
    inside = 0.5 * np.sin(0.5 * np.pi * s / eps) + 0.5
    out = np.where(s <= -eps, 0.0, np.where(s > eps, 1.0, inside))
    return out if out.ndim else float(out)


def smooth_step_deriv(s, eps: float):
    """Derivative of :func:`smooth_step`: (pi/4 eps) cos(pi s / 2 eps)
    on (-eps, eps], zero outside."""
    if not eps > 0:
        raise DomainError(f"smoothing half-width eps must be positive, got {eps}")
    s = np.asarray(s, dtype=float)
    inside = (np.pi / (4.0 * eps)) * np.cos(0.5 * np.pi * s / eps)
    out = np.where((s <= -eps) | (s > eps), 0.0, inside)
    return out if out.ndim else float(out)


def _blend_coeff(s, eps: float):
    """q(s) = step(s) + s * step'(s); the Jacobian column of a blended
    affine pair is J0 q(knot - s) + J1 q(s - knot)."""
    s = np.asarray(s, dtype=float)
    return smooth_step(s, eps) + s * smooth_step_deriv(s, eps)


# ---------------------------------------------------------------------------
# batch protocol and map base class
# ---------------------------------------------------------------------------

def chain_jacobian_batch(stages, X: np.ndarray, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``jacobian_batch`` of the composition of ``stages`` (applied first to
    last) at the rows of X, by the chain rule on stacked stage Jacobians.
    A row rejected by one stage is dropped from the later ones, and the
    last stage is never evaluated."""
    n = len(X)
    alive = np.arange(n)
    J = None
    for i, stage in enumerate(stages):
        Js, rejected = stage.jacobian_batch(X)
        if rejected.any():
            keep = ~rejected
            alive, X, Js = alive[keep], X[keep], Js[keep]
            J = None if J is None else J[keep]
        J = Js if J is None else Js @ J
        if i + 1 < len(stages):
            X = stage.evaluate_batch(X)
    out = np.full((n, m, d), np.nan)
    out[alive] = J
    rejected = np.ones(n, dtype=bool)
    rejected[alive] = False
    return out, rejected


class MixingMap:
    """A map s -> x from R^d onto a d-dimensional manifold in R^m with an
    analytic Jacobian.  Immutable after construction; evaluation is pure.

    A subclass defines the batch calls ``evaluate_batch``/``jacobian_batch``
    (see the module docstring for the protocol) and their scalar twins."""

    d: int
    m: int
    domain: str = FULL_SPACE

    @property
    def d_in(self) -> int:
        return self.d

    @property
    def d_out(self) -> int:
        return self.m

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate_batch(self, S: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian_batch(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.evaluate(s)

    def fast_contrasts(self, S: np.ndarray) -> np.ndarray:
        """Unclamped local contrast at each row of S by a route cheaper than
        the SVD of its Jacobian, NaN on every row left to the SVD route.
        A map without such a route leaves them all."""
        return np.full(len(S), np.nan)

    def _jacobian_of_one(self, s, rejection: Exception | None = None) -> np.ndarray:
        """Jacobian at one point as a batch of one of ``jacobian_batch``;
        raises ``rejection`` where the batch rejects the point."""
        J, rejected = self.jacobian_batch(self._check_point(s)[None])
        if rejected[0]:
            raise rejection
        return J[0]

    def _check_point(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.d,):
            raise DimensionMismatchError(f"expected a point of shape ({self.d},), got {s.shape}")
        return self._check_points(s[None])[0]

    def _check_points(self, S) -> np.ndarray:
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[1] != self.d:
            raise DimensionMismatchError(f"expected points of shape (n, {self.d}), got {S.shape}")
        if not np.all(np.isfinite(S)):
            raise NonFiniteError("evaluation points contain non-finite entries")
        if self.domain == UNIT_CUBE and (np.any(S < 0.0) or np.any(S > 1.0)):
            raise OutOfDomainError("evaluation points outside the unit cube")
        return S


@dataclass(frozen=True)
class LinearMap(MixingMap):
    """f(s) = J s (+ offset); the Jacobian is constant."""

    J: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        if J.ndim != 2:
            raise DomainError("linear map needs a 2-d matrix")
        if not np.all(np.isfinite(J)):
            raise NonFiniteError("matrix contains non-finite entries")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "m", J.shape[0])
        object.__setattr__(self, "d", J.shape[1])
        if self.offset is not None:
            off = np.asarray(self.offset, dtype=float)
            if off.shape != (J.shape[0],):
                raise DimensionMismatchError("offset shape must match output dimension")
            object.__setattr__(self, "offset", off)

    def evaluate(self, s):
        s = self._check_point(s)
        out = self.J @ s
        return out if self.offset is None else out + self.offset

    def jacobian(self, s):
        return self._jacobian_of_one(s)

    def evaluate_batch(self, S):
        # one matrix-vector product per row, bit for bit the scalar J @ s
        out = (self.J @ np.asarray(S, dtype=float)[..., None])[..., 0]
        return out if self.offset is None else out + self.offset

    def jacobian_batch(self, S):
        S = self._check_points(S)
        return np.repeat(self.J[None], len(S), axis=0), np.zeros(len(S), dtype=bool)


# ---------------------------------------------------------------------------
# grid-wise piecewise-affine maps
# ---------------------------------------------------------------------------

class SmoothGridMap(MixingMap):
    """Coordinate-separable piecewise-affine map on [0, 1]^d.

    The cube is cut into cells of width ``delta`` per axis (half-open
    convention: cell t covers ((t-1) delta, t delta]); inside a cell the
    Jacobian column k is block t's column k.  ``eps > 0`` blends adjacent
    cells with the smooth step so the map is C^1; ``eps = 0`` keeps the
    raw map, whose Jacobian is refused on knots.
    """

    domain = UNIT_CUBE

    def __init__(self, blocks: np.ndarray, delta: float, eps: float = 0.0):
        blocks = np.asarray(blocks, dtype=float)
        if blocks.ndim != 3:
            raise DomainError("blocks must have shape (p, m, d)")
        if not np.all(np.isfinite(blocks)):
            raise NonFiniteError("blocks contain non-finite entries")
        if not 0.0 < delta <= 1.0:
            raise DomainError(f"grid width delta must lie in (0, 1], got {delta}")
        p_expected = math.ceil(1.0 / delta) + 1
        if blocks.shape[0] != p_expected:
            raise DomainError(
                f"delta={delta} needs p={p_expected} blocks, got {blocks.shape[0]}"
            )
        if eps < 0.0:
            raise DomainError(f"eps must be non-negative, got {eps}")
        if eps > 0.0 and not eps < delta / 4.0:
            raise DomainError(f"smoothing requires eps < delta/4, got eps={eps}, delta={delta}")
        self.blocks = blocks
        self.p = blocks.shape[0]
        self.m = blocks.shape[1]
        self.d = blocks.shape[2]
        self.delta = float(delta)
        self.eps = float(eps)
        # prefix[t] = delta * sum_{i < t} blocks[i]; the affine intercept of cell t+1
        self.prefix = np.concatenate(
            [np.zeros((1, self.m, self.d)), self.delta * np.cumsum(blocks, axis=0)[:-1]]
        )
        # block-column cross Grams, (d, d, p, p); lets the Gram of the
        # Jacobian at any point be assembled from the blend weights alone
        self._block_gram = np.einsum("tmi,umj->ijtu", blocks, blocks)
        # cell edges 0, delta, ..., p delta, where the blend windows sit
        self._edges = np.arange(self.p + 1) * self.delta

    @property
    def knots(self) -> np.ndarray:
        """Multiples of delta inside [0, 1] (cell boundaries)."""
        return np.arange(0, math.floor(1.0 / self.delta + _KNOT_TOL) + 1) * self.delta

    def _cells(self, coords: np.ndarray) -> np.ndarray:
        t = np.ceil(coords / self.delta).astype(int)
        return np.clip(t, 1, self.p)

    def _blend_values(self, coords: np.ndarray) -> np.ndarray:
        """Evaluator blend weights, shape coords.shape + (p,)."""
        x = coords[..., None] - self._edges  # ... x (p+1)
        if self.eps > 0.0:
            steps = smooth_step(x, self.eps)
        else:
            steps = (x > 0).astype(float)
        return steps[..., :-1] - steps[..., 1:]

    def _jacobian_weights(self, coords: np.ndarray) -> np.ndarray:
        """Jacobian blend weights (the q-coefficients), shape coords.shape + (p,).

        Outside the window (-eps, eps] of an edge, q is step + x * 0.0,
        which is exactly (x > eps); only the window entries pay for the
        sine and cosine of :func:`_blend_coeff`."""
        x = coords[..., None] - self._edges
        above = x > self.eps
        q = above.astype(float)
        window = ~(above | (x <= -self.eps))
        q[window] = _blend_coeff(x[window], self.eps)
        return q[..., :-1] - q[..., 1:]

    def evaluate(self, s):
        s = self._check_point(s)
        return self.evaluate_batch(s[None, :])[0]

    def evaluate_batch(self, S):
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[1] != self.d:
            raise DimensionMismatchError(f"expected points of shape (n, {self.d})")
        if self.eps > 0.0:
            v = self._blend_values(S)  # (n, d, p)
            # affine piece of cell t at coordinate s_k: blocks[t][:,k] (s_k - (t-1) delta) + prefix[t][:,k]
            offsets = S[:, :, None] - np.arange(self.p) * self.delta  # (n, d, p)
            slope_part = np.einsum("tmk,nkt,nkt->nm", self.blocks, offsets, v)
            const_part = np.einsum("tmk,nkt->nm", self.prefix, v)
            return slope_part + const_part
        t = self._cells(S) - 1  # (n, d) block indices
        idx_k = np.arange(self.d)
        slopes = self.blocks[t, :, idx_k[None, :]]  # (n, d, m)
        consts = self.prefix[t, :, idx_k[None, :]]  # (n, d, m)
        local = S - t * self.delta
        return np.einsum("ndm,nd->nm", slopes, local) + consts.sum(axis=1)

    def jacobian(self, s):
        return self._jacobian_of_one(s, OnKnotError(
            "unsmoothed grid map has no Jacobian on a knot; use eps > 0 or move the point"
        ))

    def jacobian_batch(self, S):
        S = self._check_points(S)
        if self.eps > 0.0:
            w = self._jacobian_weights(S)  # (n, d, p)
            return np.einsum("tmk,nkt->nmk", self.blocks, w), np.zeros(len(S), dtype=bool)
        # eps = 0: column k is block t's column k for the cell t holding s_k
        rejected = np.any(np.abs(S[:, :, None] - self.knots) <= _KNOT_TOL, axis=(1, 2))
        t = self._cells(S) - 1  # (n, d)
        J = self.blocks[t, :, np.arange(self.d)].transpose(0, 2, 1)
        J[rejected] = np.nan
        return J, rejected

    def gram_batch(self, S: np.ndarray) -> np.ndarray:
        """Stacked Jacobian Grams J(s)^T J(s), shape (n, d, d), assembled
        from blend weights and the precomputed block-column Grams (cost
        independent of m per point)."""
        S = np.asarray(S, dtype=float)
        w = self._jacobian_weights(S)  # (n, d, p)
        return np.einsum("nit,ijtu,nju->nij", w, self._block_gram, w)

    def fast_contrasts(self, S):
        """Gram-route contrasts for eps > 0, bit for bit
        ``local_contrast_from_gram(gram_batch(S))``, NaN where that hands a
        row to the SVD route.

        A row outside every window (-eps, eps] of an edge has one-hot
        Jacobian weights, so its Gram is the gather
        G_ij = _block_gram[i, j, t_i, t_j] of its cell t, and its contrast
        is scored once per occupied cell.  Only the window rows go through
        ``gram_batch``; one eigen-solve covers both stacks."""
        if self.eps == 0.0:
            return super().fast_contrasts(S)
        S = self._check_points(S)
        x = S[:, :, None] - self._edges  # (n, d, p+1), falling along the edges
        above = x > self.eps
        window = ~np.all(above | (x <= -self.eps), axis=(1, 2))
        # outside every window each coordinate of a cube point sees a run of
        # edges with x > eps, edge 0 at least, then edges with x <= -eps, edge
        # p at least; its weight of 1 sits on block t = (length of the run) - 1
        t = np.argmin(above, axis=2) - 1
        rows = np.flatnonzero(~window)
        if self.p ** self.d <= np.iinfo(np.intp).max:
            key = t[rows] @ self.p ** np.arange(self.d)
        else:  # no flat cell index fits: each row is its own cell
            key = rows
        keys, cell_of_row = np.unique(key, return_inverse=True)
        member = np.empty(len(keys), dtype=np.intp)
        member[cell_of_row] = rows  # one row of each occupied cell
        occupied = t[member]  # (c, d)
        k = np.arange(self.d)
        cell_grams = self._block_gram[k[:, None], k, occupied[:, :, None], occupied[:, None, :]]
        scored = local_contrast_from_gram(np.concatenate([cell_grams, self.gram_batch(S[window])]))
        values = np.empty(len(S))
        values[rows] = scored[cell_of_row]
        values[window] = scored[len(keys):]
        return values

    def boundary_mask(self, S: np.ndarray) -> np.ndarray:
        """True for points with some coordinate within eps of a knot."""
        S = np.asarray(S, dtype=float)
        return np.any(np.abs(S[:, :, None] - self.knots) <= self.eps, axis=(1, 2))


def sample_grid_map(
    d: int,
    m: int,
    delta: float,
    sampler: SphericalSampler | None = None,
    eps: float = 0.0,
    seed: int = 0,
    rank_tol: float = RANK_TOL,
) -> SmoothGridMap:
    """Draw a grid map: p = ceil(1/delta) + 1 blocks with i.i.d.
    spherically symmetric columns, deterministic per seed.

    When m > p*d the stacked block columns are checked for joint linear
    independence (RankDeficientError on failure); otherwise a warning is
    emitted since injectivity is no longer guaranteed.
    """
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"grid width delta must lie in (0, 1], got {delta}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    p = math.ceil(1.0 / delta) + 1
    if sampler is None:
        sampler = SphericalSampler.standard_gaussian(m)
    if sampler.ambient_dim != m:
        raise DimensionMismatchError(f"sampler ambient dimension {sampler.ambient_dim} != m={m}")
    blocks = sampler.sample_columns(d, [substream(seed, t) for t in range(p)])
    if m > p * d:
        stacked = blocks.transpose(1, 0, 2).reshape(m, p * d)
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] <= rank_tol * sv[0]:
            raise RankDeficientError("stacked block columns are not jointly independent")
    else:
        warnings.warn(
            f"m={m} <= p*d={p * d}: block columns cannot be jointly independent; "
            "injectivity is not guaranteed",
            stacklevel=2,
        )
    grid = SmoothGridMap(blocks, delta, eps)
    _check_knot_continuity(grid)
    return grid


def _check_knot_continuity(grid: SmoothGridMap) -> None:
    """Left/right evaluator limits of the unsmoothed map must agree at
    interior knots (they do by construction of the prefix sums)."""
    for t in range(1, grid.p):
        knot = t * grid.delta
        left = grid.blocks[t - 1] * grid.delta + grid.prefix[t - 1]
        right = grid.blocks[t] * (knot - t * grid.delta) + grid.prefix[t]
        gap = np.max(np.abs(left - right))
        if gap > _KNOT_TOL:
            raise ValidationError(f"evaluator discontinuous at knot {knot}: gap {gap:.3e}")


# ---------------------------------------------------------------------------
# two-piece affine maps
# ---------------------------------------------------------------------------

class TwoPieceMap(MixingMap):
    """Two affine pieces on R^d glued along the axis-aligned boundary
    {s_k = c}; the Jacobians differ in exactly column k, so the
    difference has column rank one."""

    domain = FULL_SPACE

    def __init__(self, J0: np.ndarray, J1: np.ndarray, k: int, c: float, eps: float = 0.0,
                 linear: bool = False):
        J0 = np.asarray(J0, dtype=float)
        J1 = np.asarray(J1, dtype=float)
        if J0.shape != J1.shape or J0.ndim != 2:
            raise DimensionMismatchError("J0 and J1 must be matrices of equal shape")
        if eps < 0.0:
            raise DomainError(f"eps must be non-negative, got {eps}")
        self.J0 = J0
        self.J1 = J1
        self.m, self.d = J0.shape
        if not 0 <= k < self.d:
            raise DomainError(f"column index k={k} out of range for d={self.d}")
        self.k = int(k)
        self.c = float(c)
        self.eps = float(eps)
        self.linear = bool(linear)
        # offset that makes the two pieces agree on the boundary
        self.c1 = self.c * (J0[:, k] - J1[:, k])
        boundary_gap = np.max(np.abs((self.J0 - self.J1) @ self._boundary_point() - self.c1))
        if boundary_gap > _KNOT_TOL:
            raise ValidationError(f"pieces disagree on the boundary by {boundary_gap:.3e}")

    def _boundary_point(self) -> np.ndarray:
        s = np.zeros(self.d)
        s[self.k] = self.c
        return s

    def evaluate(self, s):
        s = self._check_point(s)
        if self.eps == 0.0:
            if s[self.k] <= self.c:
                return self.J0 @ s
            return self.J1 @ s + self.c1
        shared = self.J0 @ s - self.J0[:, self.k] * s[self.k]
        sk = s[self.k]
        lo = self.J0[:, self.k] * sk
        hi = self.J1[:, self.k] * (sk - self.c) + self.J0[:, self.k] * self.c
        return shared + lo * smooth_step(self.c - sk, self.eps) + hi * smooth_step(sk - self.c, self.eps)

    def evaluate_batch(self, S):
        S = self._check_points(S)
        sk = S[:, self.k, None]
        if self.eps == 0.0:
            return np.where(sk <= self.c, S @ self.J0.T, S @ self.J1.T + self.c1)
        col0 = self.J0[:, self.k]
        shared = S @ self.J0.T - sk * col0
        lo = sk * col0
        hi = (sk - self.c) * self.J1[:, self.k] + col0 * self.c
        return shared + lo * smooth_step(self.c - sk, self.eps) + hi * smooth_step(sk - self.c, self.eps)

    def jacobian(self, s):
        return self._jacobian_of_one(s, OnKnotError(
            "unsmoothed two-piece map has no Jacobian on the boundary"
        ))

    def jacobian_batch(self, S):
        S = self._check_points(S)
        sk = S[:, self.k]
        if self.eps == 0.0:
            rejected = (np.abs(sk - self.c) <= _KNOT_TOL) & (not self.linear)
            J = np.where((sk <= self.c)[:, None, None], self.J0, self.J1)
            J[rejected] = np.nan
            return J, rejected
        J = np.repeat(self.J0[None], len(S), axis=0)
        J[:, :, self.k] = (
            self.J0[:, self.k] * _blend_coeff(self.c - sk, self.eps)[:, None]
            + self.J1[:, self.k] * _blend_coeff(sk - self.c, self.eps)[:, None]
        )
        return J, np.zeros(len(S), dtype=bool)


def make_two_piece(
    J0: np.ndarray,
    k: int,
    new_col: np.ndarray,
    c: float,
    eps: float = 0.0,
    rank_tol: float = RANK_TOL,
) -> TwoPieceMap:
    """Replace column k of J0 past the boundary {s_k = c}.

    ``new_col`` equal to the existing column degenerates to a single
    affine map (allowed, flagged ``linear``); otherwise new_col must be
    linearly independent of J0's columns.
    """
    J0 = np.asarray(J0, dtype=float)
    new_col = np.asarray(new_col, dtype=float)
    if J0.ndim != 2 or new_col.shape != (J0.shape[0],):
        raise DimensionMismatchError("new_col must be an m-vector matching J0's rows")
    linear = bool(np.array_equal(new_col, J0[:, k]))
    if not linear:
        stacked = np.column_stack([J0, new_col])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] <= rank_tol * sv[0]:
            raise RankDeficientError("new column is linearly dependent on J0's columns")
    J1 = J0.copy()
    J1[:, k] = new_col
    return TwoPieceMap(J0, J1, k, c, eps, linear=linear)


# ---------------------------------------------------------------------------
# conformal maps
# ---------------------------------------------------------------------------

class Similarity:
    """x -> scale * Q x + shift with Q orthogonal; conformal factor = scale."""

    def __init__(self, scale: float, Q: np.ndarray, shift: np.ndarray | None = None):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatchError("Q must be square")
        if not scale > 0:
            raise DomainError(f"similarity scale must be positive, got {scale}")
        defect = np.max(np.abs(Q.T @ Q - np.eye(Q.shape[0])))
        if defect > 1e-10:
            raise ValidationError(f"Q is not orthogonal (defect {defect:.3e})")
        self.scale = float(scale)
        self.Q = Q
        self.dim = Q.shape[0]
        self.shift = np.zeros(self.dim) if shift is None else np.asarray(shift, dtype=float)
        if self.shift.shape != (self.dim,):
            raise DimensionMismatchError("shift dimension must match Q")

    def evaluate_batch(self, X):
        # one matrix-vector product per row, bit for bit the scalar Q @ x
        return self.scale * (self.Q @ X[..., None])[..., 0] + self.shift

    def jacobian_batch(self, X):
        n = len(X)
        return np.broadcast_to(self.scale * self.Q, (n,) + self.Q.shape), np.zeros(n, dtype=bool)


class Inversion:
    """Sphere inversion x -> x / ||x||^2; conformal factor 1 / ||x||^2,
    pole at the origin."""

    def __init__(self, exclusion_radius: float = 1e-6):
        if not exclusion_radius > 0:
            raise DomainError("exclusion radius must be positive")
        self.exclusion_radius = float(exclusion_radius)

    def _near_pole(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(squared radii, mask of rows inside the exclusion radius)."""
        r2 = (X[:, None, :] @ X[:, :, None])[:, 0, 0]  # bit for bit the scalar x @ x
        return r2, np.sqrt(r2) < self.exclusion_radius

    def evaluate_batch(self, X):
        r2, near = self._near_pole(X)
        if near.any():
            raise NearPoleError(
                f"point at distance {math.sqrt(r2[near][0]):.3e} from the inversion pole"
            )
        return X / r2[:, None]

    def jacobian_batch(self, X):
        r2, near = self._near_pole(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            xhat = X / np.sqrt(r2)[:, None]
            J = (np.eye(X.shape[1]) - 2.0 * xhat[:, :, None] * xhat[:, None, :]) / r2[:, None, None]
        J[near] = np.nan
        return J, near


class ConformalMap(MixingMap):
    """Orthonormal embedding of a composition of conformal primitives;
    the Jacobian satisfies J^T J = lambda(s)^2 I on the admissible domain."""

    domain = FULL_SPACE

    def __init__(self, embed: np.ndarray, inner: tuple = ()):
        embed = np.asarray(embed, dtype=float)
        if embed.ndim != 2 or embed.shape[0] < embed.shape[1]:
            raise DimensionMismatchError("embedding must be a tall m x d matrix")
        defect = np.max(np.abs(embed.T @ embed - np.eye(embed.shape[1])))
        if defect > 1e-10:
            raise ValidationError(f"embedding columns not orthonormal (defect {defect:.3e})")
        self.embed = embed
        self.m, self.d = embed.shape
        for stage in inner:
            dim = getattr(stage, "dim", self.d)
            if dim != self.d:
                raise DimensionMismatchError("inner primitives must act on R^d")
        self.inner = tuple(inner)
        # the primitives, then the embedding as a last linear stage
        self._chain = self.inner + (LinearMap(embed),)

    def evaluate(self, s):
        return self.evaluate_batch(self._check_point(s)[None])[0]

    def evaluate_batch(self, S):
        X = self._check_points(S)
        for stage in self._chain:
            X = stage.evaluate_batch(X)
        return X

    def jacobian(self, s):
        return self._jacobian_of_one(s, NearPoleError("point too close to an inversion pole"))

    def jacobian_batch(self, S):
        return chain_jacobian_batch(self._chain, self._check_points(S), self.m, self.d)


def conformality_defect(cmap: ConformalMap, s) -> float:
    """max-norm deviation of J^T J / mean(diag) from the identity; at most
    ~1e-8 for valid conformal compositions."""
    J = cmap.jacobian(s)
    G = J.T @ J
    lam2 = float(np.trace(G)) / cmap.d
    if not lam2 > 0:
        raise RankDeficientError("conformal factor vanished")
    return float(np.max(np.abs(G / lam2 - np.eye(cmap.d))))


def random_conformal_map(
    d: int,
    m: int,
    seed: int,
    scale: float = 1.0,
    with_inversion: bool = False,
    shift_distance: float = 6.0,
    exclusion_radius: float = 1e-3,
) -> ConformalMap:
    """A seeded conformal map: random orthonormal embedding composed with
    a random similarity, optionally followed by a sphere inversion whose
    pole is pushed ``shift_distance`` away from the origin."""
    if not 1 <= d <= m:
        raise DomainError(f"need 1 <= d <= m, got d={d}, m={m}")
    gen = generator(seed)
    embed, _ = np.linalg.qr(gen.standard_normal((m, d)))
    Q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    stages: list = [Similarity(scale, Q)]
    if with_inversion:
        shift = np.full(d, shift_distance / math.sqrt(d))
        stages.append(Similarity(1.0, np.eye(d), shift))
        stages.append(Inversion(exclusion_radius))
    return ConformalMap(embed, tuple(stages))


# ---------------------------------------------------------------------------
# oracles and probes
# ---------------------------------------------------------------------------

def jacobian_fd(mapping: MixingMap, s, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, the verification oracle for the
    analytic ones."""
    if not h > 0:
        raise DomainError(f"step h must be positive, got {h}")
    s = np.asarray(s, dtype=float)
    if mapping.domain == UNIT_CUBE and (np.any(s < h) or np.any(s > 1.0 - h)):
        raise OutOfDomainError(f"point must be farther than h={h} from the cube boundary")
    cols = []
    for k in range(mapping.d):
        e = np.zeros(mapping.d)
        e[k] = h
        cols.append((mapping.evaluate(s + e) - mapping.evaluate(s - e)) / (2.0 * h))
    return np.column_stack(cols)


@dataclass(frozen=True)
class ProbeReport:
    """Result of a statistical injectivity probe."""

    n_pairs: int
    min_ratio: float
    median_ratio: float
    violation_count: int

    @property
    def injective(self) -> bool:
        return self.violation_count == 0

    @property
    def suspect_rank_deficiency(self) -> bool:
        """A collapsed direction shows up as a minimum image/latent
        distance ratio far below the typical one."""
        return self.min_ratio < 1e-2 * self.median_ratio


def injectivity_probe(
    mapping: MixingMap,
    n_pairs: int,
    seed: int,
    bounding_box: tuple[float, float] | None = None,
    min_separation: float = 1e-6,
    violation_distance: float = 1e-9,
) -> ProbeReport:
    """Draw random point pairs and report the minimum image-to-latent
    distance ratio; a pair whose images land closer than
    ``violation_distance`` counts as an injectivity violation.

    Half the pairs span the domain; the other half sit at the minimum
    separation along random directions, which is what exposes collapsed
    directions of a non-injective map.
    """
    if n_pairs < 1:
        raise DomainError("n_pairs must be >= 1")
    if mapping.domain == UNIT_CUBE:
        lo, hi = 0.0, 1.0
    elif bounding_box is not None:
        lo, hi = float(bounding_box[0]), float(bounding_box[1])
        if not hi > lo:
            raise DomainError("bounding box must satisfy hi > lo")
    else:
        raise ValidationError("maps on R^d need an explicit bounding_box for the probe")
    gen = generator(seed)
    n_global = n_pairs // 2
    n_local = n_pairs - n_global
    a_g = lo + (hi - lo) * gen.random((n_global, mapping.d))
    b_g = lo + (hi - lo) * gen.random((n_global, mapping.d))
    sep_g = np.linalg.norm(a_g - b_g, axis=1)
    while np.any(sep_g < min_separation):
        redo = sep_g < min_separation
        b_g[redo] = lo + (hi - lo) * gen.random((int(redo.sum()), mapping.d))
        sep_g = np.linalg.norm(a_g - b_g, axis=1)
    margin = 2.0 * min_separation
    a_l = (lo + margin) + (hi - lo - 2.0 * margin) * gen.random((n_local, mapping.d))
    dirs = gen.standard_normal((n_local, mapping.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    b_l = a_l + min_separation * dirs
    a = np.vstack([a_g, a_l])
    b = np.vstack([b_g, b_l])
    sep = np.linalg.norm(a - b, axis=1)
    image_dist = np.linalg.norm(mapping.evaluate_batch(a) - mapping.evaluate_batch(b), axis=1)
    ratios = image_dist / sep
    return ProbeReport(
        n_pairs=n_pairs,
        min_ratio=float(ratios.min()),
        median_ratio=float(np.median(ratios)),
        violation_count=int(np.sum(image_dist < violation_distance)),
    )
