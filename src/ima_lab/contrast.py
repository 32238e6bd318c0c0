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

from .errors import DomainError, NonFiniteError, RankDeficientError, ZeroColumnError

#: relative singular-value threshold below which a Jacobian counts as rank deficient
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
#: GRAM_RATIO_TOL, m from 3 to 2048, was 2.4e-8.  A row left on the Gram
#: route thus lies on the same side of the threshold as its SVD value.
GRAM_SLACK = 1e-6

#: negative contrast values within this slack are clamped to zero
CLAMP_SLACK = 1e-12

_ZERO_COLUMN_FLOOR = 1e-300


def _as_jacobian(J) -> np.ndarray:
    J = np.asarray(J, dtype=float)
    if J.ndim != 2:
        raise DomainError(f"expected a 2-d matrix, got shape {J.shape}")
    if not np.all(np.isfinite(J)):
        raise NonFiniteError("matrix contains non-finite entries")
    return J


def local_contrast_batch(J, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Unclamped local IMA contrast of stacked Jacobians.

    ``J`` has shape (..., m, d) with m >= d >= 1; the result has shape (...).
    Rows whose smallest singular value is at most ``rank_tol`` times the
    largest come back as NaN so the caller can count rejections, the
    convention of :func:`local_contrast_from_gram`.  Each value and each
    rejection is bit for bit what the SVD of that one matrix gives.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim < 2:
        raise DomainError(f"expected a stack of matrices (..., m, d), got shape {J.shape}")
    if not np.all(np.isfinite(J)):
        raise NonFiniteError("matrix contains non-finite entries")
    m, d = J.shape[-2:]
    if not 1 <= d <= m:
        raise DomainError(f"Jacobian must be tall or square with a column (m >= d >= 1), got {m}x{d}")
    sv = np.linalg.svd(J, compute_uv=False)
    rank_ok = sv[..., -1] > rank_tol * sv[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.sum(np.log(np.linalg.norm(J, axis=-2)), axis=-1) - np.sum(np.log(sv), axis=-1)
    return np.where(rank_ok, value, np.nan)


def local_contrast_unclamped(J, rank_tol: float = RANK_TOL) -> float:
    """Local IMA contrast of one m x d Jacobian before the zero clamp; may
    come back a hair negative from floating point.  A batch of one of
    :func:`local_contrast_batch` that raises RankDeficientError where the
    batch gives NaN."""
    value = float(local_contrast_batch(_as_jacobian(J)[None], rank_tol)[0])
    if math.isnan(value):
        raise RankDeficientError(f"singular value ratio below rank_tol={rank_tol:.1e}")
    return value


def local_ima_contrast(J, rank_tol: float = RANK_TOL) -> float:
    """Local IMA contrast of a Jacobian matrix, in nats.

    Raises RankDeficientError when the smallest singular value falls
    below ``rank_tol`` times the largest, and NonFiniteError on NaN/inf
    entries.  The result is clamped to 0 when floating point pushes it
    within ``CLAMP_SLACK`` below zero.
    """
    return clamp_contrast(local_contrast_unclamped(J, rank_tol))


def clamp_contrast(value: float) -> float:
    """Clamp tiny negative contrast values (floating-point noise) to zero."""
    if value < 0.0:
        if value < -CLAMP_SLACK:
            raise FloatingPointError(
                f"contrast {value:.3e} below -{CLAMP_SLACK:.0e}; Gram factorization lost precision"
            )
        return 0.0
    return value


def local_contrast_from_gram(G: np.ndarray) -> np.ndarray:
    """Batched unclamped local contrast from stacked Gram matrices G = J^T J.

    ``G`` has shape (..., d, d).  Rows whose eigenvalue ratio is at most
    :data:`GRAM_RATIO_TOL` come back as NaN: there the Gram route can
    neither match the SVD route's value nor decide its rank check, so the
    caller scores them by the SVD of J (:func:`local_contrast_batch`),
    which also makes every rejection.  Used by the experiment fast path,
    whose cost per row does not depend on m.
    """
    G = np.asarray(G, dtype=float)
    eigvals = np.linalg.eigvalsh(G)
    diag = np.diagonal(G, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = 0.5 * (np.sum(np.log(diag), axis=-1) - np.sum(np.log(eigvals), axis=-1))
    return np.where(gram_resolved(eigvals), value, np.nan)


def gram_resolved(eigvals: np.ndarray) -> np.ndarray:
    """Rows of stacked ascending Gram eigenvalues (..., d) that the Gram
    route resolves: eigenvalue ratio above :data:`GRAM_RATIO_TOL`."""
    return eigvals[..., 0] > GRAM_RATIO_TOL * eigvals[..., -1]


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
    d = J.shape[1]
    if d == 1:
        norms = np.linalg.norm(J, axis=0)
        if norms[0] < _ZERO_COLUMN_FLOOR:
            raise ZeroColumnError("column 0 has numerically zero norm")
        return 0.0
    norms = np.linalg.norm(J, axis=0)
    tiny = np.nonzero(norms < _ZERO_COLUMN_FLOOR)[0]
    if tiny.size:
        raise ZeroColumnError(f"column {tiny[0]} has numerically zero norm")
    W = J / norms
    G = W.T @ W
    np.fill_diagonal(G, 0.0)
    return float(np.max(np.abs(G)))
