"""Rectangular-Jacobian IMA contrast, closed-form gap bounds, and the
theoretical concentration probability.

The local contrast of an m x d Jacobian J (m >= d, full column rank) is

    sum_i log ||J[:, i]||  -  1/2 log det(J^T J),

which is zero exactly when the columns are orthogonal.  The Gram
log-determinant is computed from the singular values of J (sum of
2 log sigma_i) rather than an explicit determinant, which would
underflow for ill-conditioned Jacobians.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonFiniteError, NumericalError, RankDeficientError, ZeroColumnError

#: relative singular-value threshold at or below which a Jacobian counts as
#: rank deficient (:func:`full_rank`); at most a tenth of sqrt(GRAM_RATIO_TOL),
#: which :func:`full_rank_by_gram` relies on
RANK_TOL = 1e-10

#: eigenvalue ratio of J^T J (the squared singular-value ratio of J) at or
#: below which :func:`local_contrast_from_gram` hands a row back as NaN.
#: eigvalsh resolves eigenvalues to about 1e-16 of the largest, so the Gram
#: route's value error grows like 1e-16 / ratio: about 1e-9 relative at
#: 1e-8, 1e-7 at 1e-10 and 1e-3 at 1e-14 (20 x 3 Jacobians).
GRAM_RATIO_TOL = 1e-8

#: nats within which a Gram-route value is too close to a threshold to be
#: compared with it; the caller re-scores such rows by the SVD.  On the
#: rows it resolves, the Gram route is within about d * 1e-16 /
#: GRAM_RATIO_TOL of the SVD route (3e-8 at d = 3); the largest gap
#: measured on 4000 matrices with eigenvalue ratios in (1, 1.3] times
#: GRAM_RATIO_TOL, m from 3 to 2048, was 2.4e-8.  The same holds for a
#: Gram equal to J^T J only to rounding, such as one scaled from the Gram
#: of unscaled columns (``distributions.ScaledColumns.gram``): 2.2e-8 on
#: 5100 such draws, d from 2 to 6, against 2.6e-8 for their computed J^T J.
#: A row left on the Gram route thus lies on the same side of the
#: threshold as its SVD value.
GRAM_SLACK = 1e-6

#: negative contrast values within this slack are clamped to zero
CLAMP_SLACK = 1e-12

_ZERO_COLUMN_FLOOR = 1e-300

#: sums of squares below the smallest normal float lose bits
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def _as_jacobian(J) -> np.ndarray:
    J = np.asarray(J, dtype=float)
    if J.ndim != 2:
        raise DomainError(f"expected a 2-d matrix, got shape {J.shape}")
    if not np.all(np.isfinite(J)):
        raise NonFiniteError("matrix contains non-finite entries")
    return J


def local_contrast_batch(J) -> np.ndarray:
    """Unclamped local IMA contrast of stacked Jacobians.

    ``J`` has shape (..., m, d) with m >= d >= 1; the result has shape (...).
    Rows that fail the rank check (:func:`full_rank`) come back as NaN so
    the caller can count rejections, the convention of
    :func:`local_contrast_from_gram`.  Each value and each rejection is bit
    for bit what the SVD of that one matrix gives.  A NaN or infinite entry
    of the (computed) stack is a NumericalError.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim < 2:
        raise DomainError(f"expected a stack of matrices (..., m, d), got shape {J.shape}")
    # the column norms sum pairwise along memory and in sequence across it,
    # so a transposed view would give other bits; free on a C-contiguous stack
    J = np.ascontiguousarray(J)
    if not np.all(np.isfinite(J)):
        raise NumericalError("computed Jacobian contains non-finite entries")
    m, d = J.shape[-2:]
    if not 1 <= d <= m:
        raise DomainError(f"Jacobian must be tall or square with a column (m >= d >= 1), got {m}x{d}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(J, axis=-2)
    sv = np.linalg.svd(J, compute_uv=False)
    # a matrix with a column whose sum of squares leaves the normal range (a
    # norm below sqrt of the smallest normal, where squares lose bits or
    # underflow, or an overflow to inf) is scored scaled by a power of two,
    # exactly, to a largest entry in [0.5, 1): the contrast does not change
    # under a scale, and its norms and singular values keep their bits.  A
    # column still that small after the scale fails the rank check.
    outside = (norms < _SQRT_TINY) | (norms == math.inf)
    if outside.any():
        outside = outside.any(axis=-1)
        rows = J[outside]
        exponent = np.frexp(np.max(np.abs(rows), axis=(-2, -1)))[1]
        rows = np.ldexp(rows, -exponent[:, None, None])
        norms[outside] = np.linalg.norm(rows, axis=-2)
        sv[outside] = np.linalg.svd(rows, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.sum(np.log(norms), axis=-1) - np.sum(np.log(sv), axis=-1)
    return np.where(full_rank(sv), value, np.nan)


def local_contrast_unclamped(J) -> float:
    """Local IMA contrast of one m x d Jacobian before the zero clamp; may
    come back a hair negative from floating point.  A batch of one of
    :func:`local_contrast_batch` that raises RankDeficientError where the
    batch gives NaN, and NonFiniteError on NaN/inf entries."""
    value = float(local_contrast_batch(_as_jacobian(J)[None])[0])
    if math.isnan(value):
        raise RankDeficientError(f"singular value ratio at or below RANK_TOL={RANK_TOL:.1e}")
    return value


def local_ima_contrast(J) -> float:
    """Local IMA contrast of a Jacobian matrix, in nats.

    Raises RankDeficientError where :func:`full_rank` fails, and
    NonFiniteError on NaN/inf entries.  The result is clamped to 0 when
    floating point pushes it within ``CLAMP_SLACK`` below zero.
    """
    return clamp_contrast(local_contrast_unclamped(J))


def clamp_contrast(value, out=None):
    """Clamp tiny negative contrast values (floating-point noise) to zero,
    a float to a float and an array to an array (into ``out`` when given,
    which may be the array itself): the only code that compares with
    :data:`CLAMP_SLACK`.  A value below -CLAMP_SLACK is more than rounding
    error and raises FloatingPointError, before anything is written.  A
    NaN entry is passed over by that check and stays NaN."""
    values = np.asarray(value, dtype=float)
    lowest = np.fmin.reduce(values, axis=None, initial=0.0)
    if lowest < -CLAMP_SLACK:
        raise FloatingPointError(f"contrast {lowest:.3e} below -{CLAMP_SLACK:.0e}; lost precision")
    clamped = np.maximum(values, 0.0, out=out)
    return clamped if clamped.ndim else float(clamped)


def local_contrast_from_gram(G: np.ndarray, eigvals: np.ndarray | None = None) -> np.ndarray:
    """Batched unclamped local contrast from stacked Gram matrices G = J^T J.

    ``G`` has shape (..., d, d); ``eigvals``, its ascending eigenvalues
    (..., d) when the caller has them already, are otherwise computed
    here by ``eigvalsh``.  Rows whose eigenvalue ratio is at most
    :data:`GRAM_RATIO_TOL` come back as NaN: there the Gram route can
    neither match the SVD route's value nor decide its rank check, so the
    caller scores them by the SVD of J (:func:`local_contrast_batch`),
    which also makes every rejection.  Used by the experiment fast path,
    whose cost per row does not depend on m.
    """
    G = np.asarray(G, dtype=float)
    if eigvals is None:
        eigvals = np.linalg.eigvalsh(G)
    diag = np.diagonal(G, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = 0.5 * (np.sum(np.log(diag), axis=-1) - np.sum(np.log(eigvals), axis=-1))
    return np.where(gram_resolved(eigvals), value, np.nan)


def gram_resolved(eigvals: np.ndarray) -> np.ndarray:
    """Rows of stacked ascending Gram eigenvalues (..., d) that the Gram
    route resolves: eigenvalue ratio above :data:`GRAM_RATIO_TOL`."""
    return eigvals[..., 0] > GRAM_RATIO_TOL * eigvals[..., -1]


def full_rank(sv: np.ndarray) -> np.ndarray:
    """Rows of stacked descending singular values (..., d) that pass the
    rank check: the smallest above :data:`RANK_TOL` times the largest."""
    return sv[..., -1] > RANK_TOL * sv[..., 0]


def full_rank_by_gram(J: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    """:func:`full_rank` of stacked matrices J (..., m, k), m >= k, from
    the ascending eigenvalues (..., k) of their Grams J^T J: rows that
    :func:`gram_resolved` resolves pass, and the SVD, taken of the other
    rows only, decides the rest.  The k columns may span several trailing
    axes, (..., m, p, d) with k = p d, so a transposed view is copied only
    on those rows.

    The Gram route can only accept a row: RANK_TOL is at most a tenth of
    sqrt(GRAM_RATIO_TOL), so an eigenvalue ratio above GRAM_RATIO_TOL puts
    the squared singular-value ratio (the two differ by the Gram's
    rounding, a few (m + k) * 1e-16) a hundredfold above RANK_TOL**2.  So
    every decision is the SVD's.  ``J`` needs only to give an array for
    ``J[rows]``, as :class:`distributions.ScaledColumns` does."""
    ok = gram_resolved(eigvals)
    if not ok.all():
        rows = J[~ok]
        ok[~ok] = full_rank(np.linalg.svd(rows.reshape(rows.shape[:2] + (-1,)), compute_uv=False))
    return ok


def hadamard_gap_upper_bound(d: int, eps: float) -> float:
    """Closed-form upper bound on the local contrast of any matrix whose
    normalized Gram off-diagonals are at most ``eps`` in magnitude:

        1/2 * ( -log(1 - (d-1) eps) - (d-1) log(1 + eps) ).
    """
    if d < 1:
        raise DomainError(f"d must be a positive integer, got {d}")
    if eps < 0.0:
        raise DomainError(f"eps must be non-negative, got {eps}")
    if (d - 1) * eps >= 1.0:
        raise DomainError(f"(d-1)*eps = {(d - 1) * eps:.6g} must be < 1")
    value = 0.5 * (-math.log1p(-(d - 1) * eps) - (d - 1) * math.log1p(eps))
    return clamp_contrast(value)


def theoretical_success_bound(m: int, d: int, delta: float, kappa: float = 1.0) -> float:
    """Lower bound on Pr[contrast <= delta] for isotropically sampled
    linear maps:  1 - min{1, exp(2 log d - kappa (m-1) delta^2 / d^2)}.

    ``kappa`` is the (unspecified) concentration constant; results are
    reported at the supplied value, never asserted against experiments.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if not kappa > 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    exponent = 2.0 * math.log(d) - kappa * (m - 1) * delta * delta / (d * d)
    if exponent >= 0.0:
        return 0.0
    return 1.0 - math.exp(exponent)


def offdiag_coherence(J) -> float:
    """Largest normalized off-diagonal Gram entry,

        max_{i != j} |<J[:,i], J[:,j]>| / (||J[:,i]|| ||J[:,j]||),

    defined as 0 for a single column."""
    J = _as_jacobian(J)
    norms = np.linalg.norm(J, axis=0)
    tiny = np.nonzero(norms < _ZERO_COLUMN_FLOOR)[0]
    if tiny.size:
        raise ZeroColumnError(f"column {tiny[0]} has numerically zero norm")
    W = J / norms
    G = W.T @ W
    np.fill_diagonal(G, 0.0)
    return float(np.max(np.abs(G)))
