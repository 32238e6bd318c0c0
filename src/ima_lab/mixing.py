"""Mixing-function families with analytic Jacobians.

Families:

* linear maps (the base case of the concentration sweep),
* two-piece affine maps glued continuously across an axis-aligned
  boundary, optionally blended with the sinusoidal smooth step,
* grid-wise piecewise-affine maps on the unit cube whose Jacobian block
  switches at knots with spacing ``delta``, plus their C^1 smooth
  approximation of half-width ``eps``,
* conformal embeddings (orthonormal embedding composed with similarity
  and sphere-inversion primitives), which satisfy J^T J = lambda^2 I: a
  :class:`ComposedMap`, the chain-rule composition of stages, as are the
  spurious solutions of :mod:`ima_lab.mpa` and the reparametrized maps.

Every family defines the batch calls ``evaluate_batch``/``jacobian_batch``
and nothing else per point: the single-point ``evaluate``/``jacobian`` of
:class:`MixingMap` are a batch of one.  ``jacobian_fd`` provides the
central-difference oracle used by the tests.

Jacobian protocol: two calls, each on (n, d) points.

* A map (:class:`MixingMap`) gives ``jacobian_batch(S) -> (J, code)``, J
  of shape (n, m, d) and ``code`` an int8 array that is 0 on a kept row
  and k on a row refused with ``errors.REJECTABLE[k - 1]`` (those rows of
  J are NaN); ``jacobian`` raises that error at such a point.  Any other
  error, such as a point outside the domain, is raised by both batch
  calls, and every map checks its points by ``MixingMap._check_points``.
  The Monte Carlo scorer and a composition's last stage make this call.
* Every :class:`Stage` names ``d`` and ``m`` and gives
  ``forward_batch(X) -> (Y, J, code)``: its outputs at the rows of code 0
  with its Jacobian and codes, the one call a :class:`ComposedMap` makes
  on each stage but the last.  A map makes its two batch calls; the
  conformal primitives, the spurious stages of :mod:`ima_lab.mpa` and
  ``experiments.InverseElementwiseStage`` are stages and not maps, and
  return the outputs their Jacobian computes on the way.  They leave
  their points to the composition to check; the last two broadcast their
  single-point calls over leading axes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .contrast import full_rank, full_rank_by_gram, local_contrast_from_gram
from .errors import (
    REJECTABLE,
    DimensionMismatchError,
    DomainError,
    NearPoleError,
    NonFiniteError,
    NumericalError,
    OnKnotError,
    OutOfDomainError,
    RankDeficientError,
    ValidationError,
    reject_codes,
)
from .distributions import SphericalSampler, column_sampler
from .seeding import generator, seed_list, stream_seeds

UNIT_CUBE = "unit-cube"
FULL_SPACE = "all-of-Rd"

_KNOT_TOL = 1e-12

#: bytes of flat offsets, products and partial sums, 80 d^2 a row, that one
#: row slice of :meth:`SmoothGridMap.gram_batch` holds, in buffers its slices
#: share: its gather temporaries stay this size however many rows it gathers
GATHER_SLICE_BYTES = 1 << 18


# ---------------------------------------------------------------------------
# smooth step
# ---------------------------------------------------------------------------

def smooth_step(s, eps: float):
    """Sinusoidal C^1 ramp: 0 for s <= -eps, 1 for s > eps, and
    sin(pi s / 2 eps)/2 + 1/2 in between."""
    if not eps > 0:
        raise DomainError(f"smoothing half-width eps must be positive, got {eps}")
    s = np.asarray(s, dtype=float)
    out = np.where(s <= -eps, 0.0, np.where(s > eps, 1.0, _step_inside(s, eps)))
    return out if out.ndim else float(out)


def smooth_step_deriv(s, eps: float):
    """Derivative of :func:`smooth_step`: (pi/4 eps) cos(pi s / 2 eps)
    on (-eps, eps], zero outside."""
    if not eps > 0:
        raise DomainError(f"smoothing half-width eps must be positive, got {eps}")
    s = np.asarray(s, dtype=float)
    out = np.where((s <= -eps) | (s > eps), 0.0, _deriv_inside(s, eps))
    return out if out.ndim else float(out)


def _blend_coeff(s, eps: float):
    """q(s) = step(s) + s * step'(s); the Jacobian column of a blended
    affine pair is J0 q(knot - s) + J1 q(s - knot)."""
    s = np.asarray(s, dtype=float)
    return smooth_step(s, eps) + s * smooth_step_deriv(s, eps)


# The ramps on their window (-eps, eps], where the functions above take
# these values: the grid maps evaluate them only there, in fewer numpy calls.

def _step_inside(s, eps: float):
    return 0.5 * np.sin(0.5 * np.pi * s / eps) + 0.5


def _deriv_inside(s, eps: float):
    return (np.pi / (4.0 * eps)) * np.cos(0.5 * np.pi * s / eps)


def _blend_inside(s, eps: float):
    return _step_inside(s, eps) + s * _deriv_inside(s, eps)


# ---------------------------------------------------------------------------
# batch protocol and map base class
# ---------------------------------------------------------------------------

class Stage:
    """A composition stage from R^d to R^m, which names ``d`` and ``m``:
    ``evaluate_batch(X)``, and ``forward_batch(X) -> (Y, J, code)``, its
    outputs at the rows of code 0 with its Jacobian and codes (see the
    module docstring), the one call a :class:`ComposedMap` makes on every
    stage but its last."""

    d: int
    m: int

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


class MixingMap(Stage):
    """A map s -> x from R^d onto a d-dimensional manifold in R^m with an
    analytic Jacobian.  Immutable after construction; evaluation is pure.

    A subclass defines the batch calls ``evaluate_batch``/``jacobian_batch``
    (see the module docstring for the protocol); the single-point calls
    are a batch of one, and ``jacobian`` raises the REJECTABLE error that
    the batch's code names."""

    domain: str = FULL_SPACE

    def forward_batch(self, X):
        """``jacobian_batch(X)``, then ``evaluate_batch`` on the rows it
        keeps: a map computes its outputs apart from its Jacobian."""
        J, code = self.jacobian_batch(X)
        return self.evaluate_batch(X[code == 0] if code.any() else X), J, code

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        """f(s) at one point: a batch of one of ``evaluate_batch``."""
        return self.evaluate_batch(np.asarray(s, dtype=float)[None])[0]

    def jacobian(self, s: np.ndarray) -> np.ndarray:
        """J(s) at one point: a batch of one of ``jacobian_batch``."""
        s = np.asarray(s, dtype=float)
        J, code = self.jacobian_batch(s[None])
        if code[0]:
            raise REJECTABLE[code[0] - 1](f"{type(self).__name__} has no Jacobian at {s.tolist()}")
        return J[0]

    def fast_contrasts(self, S: np.ndarray) -> np.ndarray:
        """Unclamped local contrast at each row of S by a route cheaper than
        the SVD of its Jacobian, NaN on every row left to the SVD route.
        A map without such a route leaves them all."""
        return np.full(len(S), np.nan)

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
    """f(s) = J s; the Jacobian is constant."""

    J: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        if J.ndim != 2:
            raise DomainError("linear map needs a 2-d matrix")
        if not np.all(np.isfinite(J)):
            raise NonFiniteError("matrix contains non-finite entries")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "m", J.shape[0])
        object.__setattr__(self, "d", J.shape[1])

    # the base batch of one, held in the class's own namespace, where the
    # benchmark's tracer (bench/tracing.py) patches LinearMap.jacobian by
    # name; likewise on SmoothGridMap, ComposedMap and ConformalMap
    jacobian = MixingMap.jacobian

    def evaluate_batch(self, S):
        # one matrix-vector product per row: a row does not depend on the batch
        return (self.J @ self._check_points(S)[..., None])[..., 0]

    def jacobian_batch(self, S):
        S = self._check_points(S)
        return np.repeat(self.J[None], len(S), axis=0), np.zeros(len(S), dtype=np.int8)


class ComposedMap(MixingMap):
    """Stage-wise composition, stages applied first to last: the one home
    of the chain rule and of the check that the stages chain.  Each stage
    is a :class:`Stage`, and the last one a :class:`MixingMap`.  The
    Jacobian is the ordered product of stacked stage Jacobians; a row one
    stage refuses is dropped from the later ones and keeps that stage's
    code, so ``jacobian`` raises the refusing stage's own error.  Every
    stage but the last is called once (``forward_batch``) for its outputs
    and Jacobian; the last one gives only its ``jacobian_batch``."""

    def __init__(self, stages):
        self.stages = tuple(stages)
        if not self.stages:
            raise ValidationError("composition needs at least one stage")
        if not isinstance(self.stages[-1], MixingMap):
            raise ValidationError(f"the last stage must be a map, not {type(self.stages[-1]).__name__}")
        for here, after in zip(self.stages, self.stages[1:]):
            if here.m != after.d:
                raise DimensionMismatchError(
                    f"stage output dim {here.m} does not match next input dim {after.d}"
                )
        self.d = self.stages[0].d
        self.m = self.stages[-1].m

    jacobian = MixingMap.jacobian  # held on the class, as on LinearMap

    def evaluate_batch(self, S):
        X = self._check_points(S)
        for stage in self.stages:
            X = self._stage_output(stage, stage.evaluate_batch(X))
        return X

    @staticmethod
    def _stage_output(stage, X):
        """The points a stage hands on, X.  They are computed, not given, so
        a non-finite one is a NumericalError (exit 3), which the next
        stage's point check would call a malformed input."""
        if not np.all(np.isfinite(X)):
            raise NumericalError(f"{type(stage).__name__} computed non-finite points")
        return X

    def jacobian_batch(self, S):
        X = self._check_points(S)
        code = np.zeros(len(X), dtype=np.int8)  # 0 on the rows no stage has refused
        J = None
        for i, stage in enumerate(self.stages, 1):
            if i < len(self.stages):
                X, Js, stage_code = stage.forward_batch(X)
                X = self._stage_output(stage, X)
            else:
                Js, stage_code = stage.jacobian_batch(X)
            if stage_code.any():
                keep = stage_code == 0
                code[code == 0] = stage_code  # X holds exactly the rows of code 0
                Js, J = Js[keep], None if J is None else J[keep]
            # a non-finite stage Jacobian makes NaN products, which the contrast
            # kernel refuses as a NumericalError; numpy need not warn first
            with np.errstate(invalid="ignore", over="ignore"):
                J = Js if J is None else Js @ J
        out = np.full((len(code), self.m, self.d), np.nan)
        out[code == 0] = J
        return out, code


# ---------------------------------------------------------------------------
# grid-wise piecewise-affine maps
# ---------------------------------------------------------------------------

def check_grid(delta: float, eps: float = 0.0) -> int:
    """The block count p = ceil(1/delta) + 1 of a grid of width delta,
    which a smoothing half-width eps may blend; DomainError for a width
    outside (0, 1] and an eps that is neither 0 nor inside (0, delta/4)."""
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"grid width delta must lie in (0, 1], got {delta}")
    if eps < 0.0:
        raise DomainError(f"eps must be non-negative, got {eps}")
    if eps > 0.0 and not eps < delta / 4.0:
        raise DomainError(f"smoothing requires eps < delta/4, got eps={eps}, delta={delta}")
    return math.ceil(1.0 / delta) + 1


class SmoothGridMap(MixingMap):
    """Coordinate-separable piecewise-affine map on [0, 1]^d.

    The cube is cut into cells of width ``delta`` per axis (half-open
    convention: cell t covers ((t-1) delta, t delta]); inside a cell the
    Jacobian column k is block t's column k.  ``eps > 0`` blends adjacent
    cells with the smooth step so the map is C^1; ``eps = 0`` keeps the
    raw map, whose Jacobian is refused on knots.  :func:`sample_grid_maps`
    builds a chunk of maps at once, checking their stacked blocks and
    computing their block Grams in one pass each; a map built on its own
    is the stack of one, through the same checks.

    A coordinate blends at most two adjacent blocks (:meth:`_blend_pair`),
    so the Jacobian and its Gram read two blocks per coordinate, not p.
    They sum the non-zero products of the dense blend over all p blocks
    in that blend's own order, so they give its bits (the Gram at d >= 2,
    see :meth:`gram_batch`).
    """

    domain = UNIT_CUBE

    def __init__(self, blocks: np.ndarray, delta: float, eps: float = 0.0):
        blocks = np.asarray(blocks, dtype=float)
        if blocks.ndim != 3:
            raise DomainError("blocks must have shape (p, m, d)")
        stack = blocks[None]
        _check_blocks(stack, delta, eps)
        self._set(blocks, delta, eps, _block_grams(stack)[0])

    @classmethod
    def _of_stack(cls, blocks, delta: float, eps: float, block_gram) -> "SmoothGridMap":
        """A map on one slice of stacked blocks that :func:`_check_blocks`
        has passed, with its slice of their block Grams."""
        grid = cls.__new__(cls)
        grid._set(blocks, delta, eps, block_gram)
        return grid

    def _set(self, blocks, delta, eps, block_gram) -> None:
        self.blocks = blocks
        self.p, self.m, self.d = blocks.shape
        self.delta = float(delta)
        self.eps = float(eps)
        # block-column cross Grams, (d, d, p, p); lets the Gram of the
        # Jacobian at any point be assembled from the blend weights alone
        self._block_gram = block_gram
        # the smallest signed int holding every block index and k0 - 1:
        # the routed indices are an eighth of the points' bytes at p < 128
        self._index_dtype = np.min_scalar_type(-self.p)

    @property
    def prefix(self) -> np.ndarray:
        """prefix[t] = delta * sum_{i < t} blocks[i], (p, m, d): the affine
        intercept of cell t+1, summed in order."""
        sums = self.delta * np.cumsum(self.blocks[:-1], axis=0)
        return np.concatenate([np.zeros((1, self.m, self.d)), sums])

    @property
    def knots(self) -> np.ndarray:
        """Multiples of delta inside [0, 1] (cell boundaries)."""
        return np.arange(0, math.floor(1.0 / self.delta + _KNOT_TOL) + 1) * self.delta

    def _route(self, S: np.ndarray, x0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The edge nearest each coordinate of points (..., d) in the cube,
        k0 = rint(s / delta), and the offset x0 = s - k0 delta: the only
        place a coordinate is located on the grid.  Past x0 > eps the
        coordinate is in block k0, at or below -eps in block k0 - 1, and in
        the window (-eps, eps] between it blends the two.

        This is exact because eps < delta/4 (:func:`check_grid`): every other
        edge is more than delta/4 away, with s - edge > eps below the
        coordinate and <= -eps above it, so no other edge holds a window or
        a knot within eps of the coordinate.  x0 itself is exact too
        (Sterbenz: s lies within delta/2 of its edge, so at k0 > 0 within a
        factor two of it), so x0 + k0 delta gives s back bit for bit.

        k0 comes in the map's small index dtype; x0 goes to the buffer
        ``x0``, a new array by default, or S itself, which a caller done
        with its points passes to route them in place.  The pass runs one
        coordinate at a time, so it holds one coordinate's float temporary
        besides S and x0."""
        x0 = np.empty_like(S) if x0 is None else x0
        k0 = np.empty(S.shape, dtype=self._index_dtype)
        edge = np.empty(S.shape[:-1])
        for i in range(S.shape[-1]):
            np.divide(S[..., i], self.delta, out=edge)
            np.rint(edge, out=edge)
            k0[..., i] = edge
            edge *= self.delta  # the edge: the whole float k0 times delta
            np.subtract(S[..., i], edge, out=x0[..., i])
        return k0, x0

    def _in_window(self, x0: np.ndarray) -> np.ndarray:
        return (-self.eps < x0) & (x0 <= self.eps)

    def _on_knot(self, k0: np.ndarray, x0: np.ndarray, tol: float) -> np.ndarray:
        """Points, routed by :meth:`_route`, with a coordinate within tol of
        a knot."""
        near = -tol <= x0  # |x0| <= tol, without a float temporary
        near &= x0 <= tol
        near &= k0 < len(self.knots)
        return _any_coordinate(near)

    def _blend_pair(self, k0: np.ndarray, x0: np.ndarray, ramp):
        """The two blocks that routed coordinates blend, and their weights:
        blocks (max(k0 - 1, 0), k0) with weights (1 - q, q), where q is 1
        past the window, 0 at or below it and ``ramp(x0, eps)`` inside it.
        The first weight is 0 at k0 = 0, which has no block below.  The only
        home of the window and ramp rule.  ``ramp`` takes the coordinates
        inside the window: :func:`_step_inside` for the evaluator and
        :func:`_blend_inside` for the Jacobian."""
        q = (x0 > self.eps).astype(float)
        window = self._in_window(x0)
        if window.any():  # never at eps = 0, where the ramps are undefined
            q[window] = ramp(x0[window], self.eps)
        return np.maximum(k0 - 1, 0), k0, np.where(k0 == 0, 0.0, 1.0 - q), q

    def _weights(self, k0: np.ndarray, x0: np.ndarray, ramp) -> np.ndarray:
        """The dense blend weights of routed coordinates, shape
        x0.shape + (p,): :meth:`_blend_pair` scattered into a row of zeros,
        one-hot at eps = 0.  Only the evaluator's product reads them."""
        lo, hi, w_lo, w_hi = self._blend_pair(k0, x0, ramp)
        v = np.zeros(x0.shape + (self.p,))
        np.put_along_axis(v, lo[..., None], w_lo[..., None], axis=-1)
        np.put_along_axis(v, hi[..., None], w_hi[..., None], axis=-1)  # over w_lo where k0 = 0
        return v

    jacobian = MixingMap.jacobian  # held on the class, as on LinearMap

    def evaluate_batch(self, S):
        S = self._check_points(S)
        v = self._weights(*self._route(S), _step_inside)  # (n, d, p)
        # the affine piece of block t at coordinate s_k is
        # blocks[t][:, k] (s_k - t delta) + prefix[t][:, k], weighted by v;
        # one vector-matrix product per row, so a row does not depend on the batch
        w = np.concatenate([(S[:, :, None] - np.arange(self.p) * self.delta) * v, v], axis=1)
        pieces = np.concatenate([self.blocks, self.prefix], axis=2).transpose(2, 0, 1)
        return (w.reshape(len(S), 1, 2 * self.d * self.p) @ pieces.reshape(-1, self.m))[:, 0]

    def jacobian_batch(self, S):
        k0, x0 = self._route(self._check_points(S))
        lo, hi, w_lo, w_hi = self._blend_pair(k0, x0, _blend_inside)
        # column k is blocks[lo, :, k] w_lo + blocks[hi, :, k] w_hi: the only
        # non-zero products of the dense blend, whose other terms add exact zeros
        columns, k = self.blocks.transpose(0, 2, 1), np.arange(self.d)
        a = columns[lo, k]
        a *= w_lo[..., None]
        b = columns[hi, k]
        b *= w_hi[..., None]
        # C-contiguous (n, m, d), not a transposed view: the column norms of
        # local_contrast_batch sum pairwise along memory, so a view's layout
        # would change their bits
        J = np.empty((len(k0), self.m, self.d))
        np.add(a, b, out=J.transpose(0, 2, 1))
        if self.eps > 0.0:
            return J, np.zeros(len(J), dtype=np.int8)
        # the raw map's weights are one-hot on the cell; it has no Jacobian on a knot
        rejected = self._on_knot(k0, x0, _KNOT_TOL)
        J[rejected] = np.nan
        return J, reject_codes(rejected, OnKnotError)

    def gram_batch(self, S: np.ndarray, block_grams=None, owner=None) -> np.ndarray:
        """Stacked Jacobian Grams J(s)^T J(s), shape (n, d, d), assembled
        from the blend pairs and the precomputed block-column Grams B (cost
        independent of m per point):

            G_ij = sum_t sum_u (w_it B_ij,tu) w_ju

        over the two blocks t of coordinate i and u of coordinate j, u
        inner and t outer, products left to right: the order in which the
        dense three-operand einsum over all p blocks sums them at d >= 2,
        so these are its bits.  At d = 1 that einsum's order depends on n
        and p, and the last bit may differ; a 1 x 1 Gram's contrast is 0.

        ``block_grams`` (T, d, d, p, p) and ``owner`` (n,) score the points
        on T maps of this map's grid (delta, eps, d) instead, row i on map
        ``owner[i]``, so one gather serves a whole chunk
        (:func:`grid_chunk_scores`); each row keeps its own map's bits.
        Stacked as :func:`_block_grams` lays them out, in (T, t, u, i, j)
        order, they are read without a copy.

        The gather runs over slices of rows that hold
        :data:`GATHER_SLICE_BYTES` of offsets and products, in buffers the
        slices share, so its temporaries are a fixed size; each row is
        gathered, weighted and summed as in one take over all rows."""
        pair = self._blend_pair(*self._route(self._check_points(S)), _blend_inside)
        p, d, k = self.p, self.d, np.arange(self.d)
        if block_grams is None:
            block_grams, owner = self._block_gram[None], np.zeros(len(S), dtype=np.intp)
        # flat takes of B in (T, t, u, i, j) order, where B[T, i, j, t, u] is
        # entry (((T p + t) p + u) d + i) d + j; few whole-slice steps,
        # because many small numpy calls contend for the interpreter lock in
        # the genericity pool.  The offsets are made in place, in the
        # narrowest signed int that holds every entry's, the column offsets
        # in t's own buffer; each slice widens its sums to intp
        flat = block_grams.transpose(0, 3, 4, 1, 2).reshape(-1)
        index = np.min_scalar_type(-flat.size)
        # (n, d, 2)
        t, w = np.stack(pair[:2], axis=-1, dtype=index), np.stack(pair[2:], axis=-1)
        del pair
        n = len(t)
        rows = (owner * p).astype(index)[:, None, None] + t
        rows *= p * d * d
        rows += (k * d)[:, None]
        cols = t
        cols *= d * d
        cols += k[:, None]
        rows, cols = rows[:, :, None, :, None], cols[:, None, :, None, :]
        w_i, w_j = w[:, :, None, :, None], w[:, None, :, None, :]
        G = np.empty((n, d, d))
        step = max(1, GATHER_SLICE_BYTES // (80 * d * d))
        offsets = np.empty((min(step, n), d, d, 2, 2), dtype=np.intp)  # (rows, i, j, t, u)
        products, u_sums = np.empty(offsets.shape), np.empty(offsets.shape[:-1])
        for start in range(0, n, step):
            s, size = slice(start, start + step), min(step, n - start)
            o, prod, u = offsets[:size], products[:size], u_sums[:size]
            np.add(rows[s], cols[s], out=o)
            flat.take(o, out=prod, mode="clip")  # in range; "raise" would buffer a copy
            prod *= w_i[s]  # (w_i B) w_j, in place
            prod *= w_j[s]
            np.add(prod[..., 0], prod[..., 1], out=u)
            np.add(u[..., 0], u[..., 1], out=G[s])
        return G

    def fast_contrasts(self, S):
        """Gram-route contrasts for eps > 0, bit for bit
        ``local_contrast_from_gram(gram_batch(S))``, NaN where that hands a
        row to the SVD route: the chunk of one of :func:`grid_chunk_scores`."""
        if self.eps == 0.0:
            return super().fast_contrasts(S)
        # a copy: the chunk pass routes its points in place
        return grid_chunk_scores([self], self._check_points(np.array(S, dtype=float))[None])[0][0]

    def boundary_mask(self, S: np.ndarray) -> np.ndarray:
        """True for points with some coordinate within eps of a knot."""
        return self._on_knot(*self._route(self._check_points(S)), self.eps)


def _any_coordinate(mask: np.ndarray) -> np.ndarray:
    """``np.any(mask, axis=-1)`` over the d coordinates of points, in d
    whole-array passes: numpy reduces a short last axis one row at a time,
    about 15 times slower at d = 2."""
    out = mask[..., 0].copy()
    for k in range(1, mask.shape[-1]):
        out |= mask[..., k]
    return out


def _check_blocks(blocks: np.ndarray, delta: float, eps: float) -> None:
    """Refuse stacked grid blocks (T, p, m, d) with a non-finite entry
    (NonFiniteError), and a grid that :func:`check_grid` refuses or other
    than the block count it returns (DomainError)."""
    if not np.all(np.isfinite(blocks)):
        raise NonFiniteError("blocks contain non-finite entries")
    p_expected = check_grid(delta, eps)
    if blocks.shape[1] != p_expected:
        raise DomainError(f"delta={delta} needs p={p_expected} blocks, got {blocks.shape[1]}")


def _block_grams(blocks: np.ndarray) -> np.ndarray:
    """Block-column cross Grams of stacked grid blocks, (T, p, m, d) ->
    (T, d, d, p, p); each map's slice is bit for bit its own einsum.

    At d >= 2 the einsum runs on a C-contiguous (m, T, p, d) copy, so its
    loop over m is outermost; it still sums over m in order, so the bits
    are the same, about twice as fast.  At d = 1 m is the contiguous axis
    of the blocks and that einsum sums it in another order, so d = 1 keeps
    the blocks' own layout."""
    if blocks.shape[-1] == 1:
        return np.einsum("stmi,sumj->sijtu", blocks, blocks)
    by_m = np.ascontiguousarray(blocks.transpose(2, 0, 1, 3))
    return np.einsum("msti,msuj->sijtu", by_m, by_m)


def grid_chunk_scores(grids, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-route contrasts and boundary masks of smoothed grid maps on one
    grid (delta, eps > 0, d), map j at the points S[j]: S is (T, n, d) and
    both results are (T, n).  Row i of map j is bit for bit
    ``local_contrast_from_gram(grids[j].gram_batch(S[j]))[i]`` and
    ``grids[j].boundary_mask(S[j])[i]``.  S is spent: a C-contiguous float
    S is overwritten by the routing, so the chunk holds its points only
    until they are routed.

    One routing pass (``SmoothGridMap._route``, in place) locates every
    coordinate.  A row outside every window has one-hot Jacobian weights
    on its cell t, so its Gram is the gather G_ij = _block_gram[i, j, t_i,
    t_j] of its map, scored once per occupied (map, cell), or once per row
    when the (map, cell) pairs outnumber the rows.  Only the window rows go
    through ``gram_batch``, one gather for all maps of the chunk, on their
    points rebuilt exactly from the routing; one eigen-solve covers the
    chunk, and one take fills the values.
    """
    grid = grids[0]
    T, n, d = S.shape
    if not grid.eps > 0.0 or T != len(grids) or any(
            (g.delta, g.eps, g.d) != (grid.delta, grid.eps, d) for g in grids):
        raise DomainError("a chunk needs one point set per smoothed grid map on one grid")
    points = grid._check_points(S.reshape(T * n, d))
    k0, x0 = grid._route(points, x0=points)
    del S, points
    window = np.flatnonzero(_any_coordinate(grid._in_window(x0)))
    boundary = grid._on_knot(k0, x0, grid.eps)
    window_points = x0[window] + k0[window] * grid.delta  # the points, bit for bit (see _route)
    t = k0  # in k0's buffer: the block of each coordinate outside the windows
    t -= x0 <= -grid.eps
    del k0, x0  # not held through the gathers and the eigen-solve (peak memory)
    # (T, d, d, p, p) in the (T, t, u, i, j) layout that gram_batch reads flat
    block_grams = np.stack([g._block_gram.transpose(2, 3, 0, 1) for g in grids]).transpose(0, 3, 4, 1, 2)
    # the window rows first, so that their gather's temporaries and the
    # cell bookkeeping below are never held at once (peak memory)
    window_grams = grid.gram_batch(window_points, block_grams, window // n)
    del window_points
    pairs = T * grid.p ** d  # a Python int: it cannot overflow
    if pairs <= T * n:  # a table of every (map, cell), no longer than the rows: no sort
        # key = (map) p^d + sum_i t_i p^i by Horner's rule, in place, column
        # by column, in the narrowest signed int that holds it.  A window
        # row's cell is keyed too: its score is never read
        key = np.empty((T, n), dtype=np.min_scalar_type(-pairs))
        key[...] = np.arange(T)[:, None]
        by_map = t.reshape(T, n, d)
        for i in range(d - 1, -1, -1):
            key *= grid.p
            key += by_map[:, :, i]
        seen = np.bincount(key.reshape(-1), minlength=pairs) > 0
        cell = (np.cumsum(seen, dtype=key.dtype) - 1)[key.reshape(-1)]
        del key, t
        keys = np.flatnonzero(seen)
        owner, occupied = keys // grid.p ** d, (keys[:, None] // grid.p ** np.arange(d)) % grid.p
    else:  # more (map, cell) pairs than rows: each row is its own cell
        cell = slice(None, T * n)
        owner, occupied = np.arange(T * n) // n, t
    k = np.arange(d)
    cell_grams = block_grams[owner[:, None, None], k[:, None], k, occupied[:, :, None], occupied[:, None, :]]
    scored = local_contrast_from_gram(np.concatenate([cell_grams, window_grams]))
    values = scored[cell]
    values[window] = scored[len(cell_grams):]
    return values.reshape(T, n), boundary.reshape(T, n)


def sample_grid_maps(
    d: int,
    m: int,
    delta: float,
    seeds,
    sampler: SphericalSampler | None = None,
    eps: float = 0.0,
) -> list[SmoothGridMap]:
    """One grid map per seed, deterministic per seed, from one
    ``sample_columns`` call and one pass each over the stacked blocks: the
    finite and shape checks and the block-Gram einsum.  Each map has
    p = :func:`check_grid` blocks with i.i.d. spherically symmetric columns.
    ``seeds`` is a 1-d sequence of seeds (an int is one seed).

    When m > p*d each map's stacked block columns are checked for joint
    linear independence (RankDeficientError on failure) by
    :func:`contrast.full_rank_by_gram`, from one eigen-solve of their
    Grams, which the block Grams hold; otherwise injectivity is not
    guaranteed, which :func:`sample_grid_map` warns of.
    """
    p = check_grid(delta, eps)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    sampler = column_sampler(m, sampler)
    seeds, _ = seed_list(seeds)
    T = len(seeds)
    blocks = sampler.sample_columns(d, stream_seeds(seeds, p)).reshape(T, p, m, d)
    _check_blocks(blocks, delta, eps)
    grams = _block_grams(blocks)
    if m > p * d:
        # column t d + i of a map's stacked block columns is blocks[t][:, i]
        eigvals = np.linalg.eigvalsh(grams.transpose(0, 3, 1, 4, 2).reshape(T, p * d, p * d))
        if not np.all(full_rank_by_gram(blocks.transpose(0, 2, 1, 3), eigvals)):
            raise RankDeficientError("stacked block columns are not jointly independent")
    return [SmoothGridMap._of_stack(b, delta, eps, g) for b, g in zip(blocks, grams)]


def sample_grid_map(
    d: int,
    m: int,
    delta: float,
    sampler: SphericalSampler | None = None,
    eps: float = 0.0,
    seed: int = 0,
) -> SmoothGridMap:
    """Draw a grid map, deterministic per seed: the batch of one of
    :func:`sample_grid_maps`, with a warning when m <= p*d."""
    grid = sample_grid_maps(d, m, delta, seed, sampler, eps)[0]
    if m <= grid.p * d:
        warnings.warn(
            f"m={m} <= p*d={grid.p * d}: block columns cannot be jointly independent; "
            "injectivity is not guaranteed",
            stacklevel=2,
        )
    return grid


# ---------------------------------------------------------------------------
# two-piece affine maps
# ---------------------------------------------------------------------------

class TwoPieceMap(MixingMap):
    """Two affine pieces on R^d glued along the axis-aligned boundary
    {s_k = c}; the Jacobians differ in column k alone, so the difference
    has column rank one and the pieces meet on the boundary.  Pieces that
    differ in another column are a DomainError."""

    def __init__(self, J0: np.ndarray, J1: np.ndarray, k: int, c: float, eps: float = 0.0):
        J0 = np.asarray(J0, dtype=float)
        J1 = np.asarray(J1, dtype=float)
        if J0.shape != J1.shape or J0.ndim != 2:
            raise DimensionMismatchError("J0 and J1 must be matrices of equal shape")
        if not (np.all(np.isfinite(J0)) and np.all(np.isfinite(J1))):
            raise NonFiniteError("J0 and J1 must have finite entries")
        if not math.isfinite(c):
            raise DomainError(f"boundary c must be finite, got {c}")
        if eps < 0.0:
            raise DomainError(f"eps must be non-negative, got {eps}")
        self.J0 = J0
        self.J1 = J1
        self.m, self.d = J0.shape
        if not 0 <= k < self.d:
            raise DomainError(f"column index k={k} out of range for d={self.d}")
        self.k = int(k)
        # pieces that differ outside column k do not meet on the boundary
        others = np.arange(self.d) != self.k
        if not np.array_equal(J0[:, others], J1[:, others]):
            raise DomainError(f"J0 and J1 must differ in column k={k} alone")
        self.c = float(c)
        self.eps = float(eps)
        # equal pieces are one affine map, which has a Jacobian on the boundary too
        self.linear = bool(np.array_equal(J0, J1))
        # offset that makes the two pieces agree on the boundary
        self.c1 = self.c * (J0[:, k] - J1[:, k])

    def evaluate_batch(self, S):
        S = self._check_points(S)
        sk = S[:, self.k, None]
        # one matrix-vector product per row, so a row does not depend on the batch
        piece0 = (self.J0 @ S[:, :, None])[:, :, 0]
        if self.eps == 0.0:
            return np.where(sk <= self.c, piece0, (self.J1 @ S[:, :, None])[:, :, 0] + self.c1)
        col0 = self.J0[:, self.k]
        shared = piece0 - sk * col0
        lo = sk * col0
        hi = (sk - self.c) * self.J1[:, self.k] + col0 * self.c
        return shared + lo * smooth_step(self.c - sk, self.eps) + hi * smooth_step(sk - self.c, self.eps)

    def jacobian_batch(self, S):
        S = self._check_points(S)
        sk = S[:, self.k]
        if self.eps == 0.0:
            rejected = (np.abs(sk - self.c) <= _KNOT_TOL) & (not self.linear)
            J = np.where((sk <= self.c)[:, None, None], self.J0, self.J1)
            J[rejected] = np.nan
            return J, reject_codes(rejected, OnKnotError)
        J = np.repeat(self.J0[None], len(S), axis=0)
        J[:, :, self.k] = (
            self.J0[:, self.k] * _blend_coeff(self.c - sk, self.eps)[:, None]
            + self.J1[:, self.k] * _blend_coeff(sk - self.c, self.eps)[:, None]
        )
        return J, np.zeros(len(S), dtype=np.int8)


def make_two_piece(
    J0: np.ndarray,
    k: int,
    new_col: np.ndarray,
    c: float,
    eps: float = 0.0,
) -> TwoPieceMap:
    """Replace column k of J0 past the boundary {s_k = c}.

    ``new_col`` equal to the existing column degenerates to a single
    affine map (allowed; the map is then ``linear``); otherwise new_col
    must be linearly independent of J0's columns.
    """
    J0 = np.asarray(J0, dtype=float)
    new_col = np.asarray(new_col, dtype=float)
    if J0.ndim != 2 or new_col.shape != (J0.shape[0],):
        raise DimensionMismatchError("new_col must be an m-vector matching J0's rows")
    J1 = J0.copy()
    J1[:, k] = new_col
    two_piece = TwoPieceMap(J0, J1, k, c, eps)
    if not two_piece.linear and not full_rank(np.linalg.svd(np.column_stack([J0, new_col]), compute_uv=False)):
        raise RankDeficientError("new column is linearly dependent on J0's columns")
    return two_piece


# ---------------------------------------------------------------------------
# conformal maps
# ---------------------------------------------------------------------------

def check_orthonormal(Q: np.ndarray, tol: float, message: str) -> None:
    """Refuse a matrix whose columns are not orthonormal, max |Q^T Q - I|
    > tol or NaN (a NaN entry), with a ValidationError of ``message`` and
    that defect."""
    defect = np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1])))
    if not defect <= tol:
        raise ValidationError(f"{message} (defect {defect:.3e})")


class Similarity(Stage):
    """x -> scale * Q x + shift with Q orthogonal; conformal factor = scale."""

    def __init__(self, scale: float, Q: np.ndarray, shift: np.ndarray | None = None):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatchError("Q must be square")
        if not scale > 0:
            raise DomainError(f"similarity scale must be positive, got {scale}")
        check_orthonormal(Q, 1e-10, "Q is not orthogonal")
        self.scale = float(scale)
        self.Q = Q
        self.d = self.m = Q.shape[0]
        self.shift = np.zeros(self.d) if shift is None else np.asarray(shift, dtype=float)
        if self.shift.shape != (self.d,):
            raise DimensionMismatchError("shift dimension must match Q")

    def evaluate_batch(self, X):
        # one matrix-vector product per row, bit for bit the scalar Q @ x
        return self.scale * (self.Q @ X[..., None])[..., 0] + self.shift

    def forward_batch(self, X):
        n = len(X)
        J = np.broadcast_to(self.scale * self.Q, (n,) + self.Q.shape)
        return self.evaluate_batch(X), J, np.zeros(n, dtype=np.int8)


class Inversion(Stage):
    """Sphere inversion x -> x / ||x||^2 on R^d; conformal factor
    1 / ||x||^2, pole at the origin."""

    def __init__(self, d: int, exclusion_radius: float = 1e-6):
        if not exclusion_radius > 0:
            raise DomainError("exclusion radius must be positive")
        self.d = self.m = int(d)
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

    def forward_batch(self, X):
        """One pole test for the outputs, the Jacobian and the codes."""
        r2, near = self._near_pole(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            xhat = X / np.sqrt(r2)[:, None]
            J = (np.eye(self.d) - 2.0 * xhat[:, :, None] * xhat[:, None, :]) / r2[:, None, None]
        J[near] = np.nan
        keep = ~near
        return X[keep] / r2[keep, None], J, reject_codes(near, NearPoleError)


class ConformalMap(ComposedMap):
    """Orthonormal embedding of a composition of conformal primitives: the
    composition of the primitives, then ``LinearMap(embed)``.  The
    Jacobian satisfies J^T J = lambda(s)^2 I on the admissible domain."""

    def __init__(self, embed: np.ndarray, inner: tuple = ()):
        embed = np.asarray(embed, dtype=float)
        if embed.ndim != 2 or embed.shape[0] < embed.shape[1]:
            raise DimensionMismatchError("embedding must be a tall m x d matrix")
        check_orthonormal(embed, 1e-10, "embedding columns not orthonormal")
        self.embed = embed
        self.inner = tuple(inner)
        super().__init__(self.inner + (LinearMap(embed),))

    jacobian = MixingMap.jacobian  # held on the class, as on LinearMap


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
        stages.append(Inversion(d, exclusion_radius))
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


#: latent distance of the probe's near pairs, and the least of its far pairs
_PROBE_SEPARATION = 1e-6
#: image distance below which a probed pair counts as an injectivity violation
_PROBE_VIOLATION_DISTANCE = 1e-9


def injectivity_probe(
    mapping: MixingMap,
    n_pairs: int,
    seed: int,
    bounding_box: tuple[float, float] | None = None,
) -> ProbeReport:
    """Draw random point pairs and report the minimum image-to-latent
    distance ratio; a pair whose images land closer than
    :data:`_PROBE_VIOLATION_DISTANCE` counts as an injectivity violation.

    Half the pairs span the domain; the other half sit at the minimum
    separation :data:`_PROBE_SEPARATION` along random directions, which is
    what exposes collapsed directions of a non-injective map.
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
    while np.any(sep_g < _PROBE_SEPARATION):
        redo = sep_g < _PROBE_SEPARATION
        b_g[redo] = lo + (hi - lo) * gen.random((int(redo.sum()), mapping.d))
        sep_g = np.linalg.norm(a_g - b_g, axis=1)
    margin = 2.0 * _PROBE_SEPARATION
    a_l = (lo + margin) + (hi - lo - 2.0 * margin) * gen.random((n_local, mapping.d))
    dirs = gen.standard_normal((n_local, mapping.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    b_l = a_l + _PROBE_SEPARATION * dirs
    a = np.vstack([a_g, a_l])
    b = np.vstack([b_g, b_l])
    sep = np.linalg.norm(a - b, axis=1)
    image_dist = np.linalg.norm(mapping.evaluate_batch(a) - mapping.evaluate_batch(b), axis=1)
    ratios = image_dist / sep
    return ProbeReport(
        n_pairs=n_pairs,
        min_ratio=float(ratios.min()),
        median_ratio=float(np.median(ratios)),
        violation_count=int(np.sum(image_dist < _PROBE_VIOLATION_DISTANCE)),
    )
