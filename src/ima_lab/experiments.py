"""Monte Carlo estimation of the global contrast and the experiment
harness: concentration sweep over ambient dimension, genericity of
smoothed grid maps, spurious-solution contrast gaps, and
reparametrization-invariance checks.

Trials are independent tasks keyed by their index; each derives its own
counter-mixed sub-seed, and results are reduced in index order, so the
numerical output is identical for any worker-pool size.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import schema
from .contrast import (
    CLAMP_SLACK,
    GRAM_SLACK,
    local_contrast_batch,
    local_contrast_from_gram,
    theoretical_success_bound,
)
from .distributions import (
    FactorialDistribution,
    Laplace,
    SphericalSampler,
    Uniform,
    sample_factorial,
    sample_isotropic_matrix,
)
from .errors import (
    DegenerateMapError,
    DomainError,
    NonMonotoneError,
    ValidationError,
)
from .mixing import LinearMap, MixingMap, random_conformal_map, sample_grid_map
from .mpa import (
    ComposedMap,
    RotatedGaussianMPA,
    RotatedFactorial,
    darmois_build,
    require_nontrivial_rotation,
    rotation_matrix_2d,
    spurious_darmois,
    spurious_mpa,
)
from .seeding import substream

#: largest tolerated fraction of rejected Monte Carlo draws
MAX_REJECTION_FRACTION = 1e-3

#: bytes of stacked m x d Jacobians scored per contrast-kernel call.  The
#: stack and its temporaries stay resident while a chunk is scored, so
#: peak memory grows with this budget (2 MiB raised the sweep's peak RSS
#: by about 6 MiB, 256 KiB by under 1 MiB), while the per-call overhead
#: it amortizes is already small at 256 KiB.
CHUNK_BYTES = 256 * 1024


def _chunk_size(m: int, d: int) -> int:
    """Number of m x d float64 matrices scored per kernel call."""
    return max(1, CHUNK_BYTES // (8 * m * d))


def run_indexed(n: int, fn, threads: int = 1) -> list:
    """Evaluate ``fn(i)`` for i in range(n), reduced in index order.

    With ``threads > 1`` the tasks run on a thread pool; because every
    task seeds itself from its index, the results do not depend on the
    pool size or scheduling order.
    """
    if threads <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


# ---------------------------------------------------------------------------
# global-contrast estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContrastEstimate:
    """Monte Carlo estimate of the global contrast, in nats."""

    mean: float
    stderr: float
    n_samples: int
    clamp_count: int
    rejection_count: int


def _estimate_from_values(values: np.ndarray) -> ContrastEstimate:
    """Contrast estimate from per-draw unclamped contrasts, NaN where the
    draw was rejected."""
    rejected = np.isnan(values)
    rejections = int(np.sum(rejected))
    values = values[~rejected]
    if values.size and np.min(values) < -CLAMP_SLACK:
        raise FloatingPointError(
            f"contrast {np.min(values):.3e} below -{CLAMP_SLACK:.0e}; lost precision"
        )
    clamps = int(np.sum(values < 0.0))
    clamped = np.maximum(values, 0.0)
    if rejections > MAX_REJECTION_FRACTION * rejected.size:
        raise DegenerateMapError(
            f"{rejections}/{rejected.size} draws rejected (> {MAX_REJECTION_FRACTION:.1%})"
        )
    n = clamped.size
    mean = float(clamped.mean()) if n else 0.0
    stderr = float(clamped.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ContrastEstimate(mean, stderr, n, clamps, rejections)


def estimate_global_contrast(
    mapping: MixingMap,
    p_s: FactorialDistribution,
    n: int,
    seed: int,
) -> ContrastEstimate:
    """Mean local contrast over n i.i.d. latent draws from p_s.

    Draws whose Jacobian fails the rank check (or lands on a knot /
    inversion pole / table edge) are rejected and counted; more than
    0.1% rejections raises DegenerateMapError.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if p_s.dim != mapping.d:
        raise ValidationError(f"source dimension {p_s.dim} != map input dimension {mapping.d}")
    return _estimate_from_values(_score_draws(mapping, sample_factorial(p_s, n, seed)))


def _score_at_points(mapping: MixingMap, points: np.ndarray) -> np.ndarray:
    """Unclamped local contrast at each point, NaN where rejected: one
    ``jacobian_batch`` call and one SVD kernel call per chunk.  A point the
    map rejects, or whose Jacobian fails the kernel's rank check, is
    rejected."""
    chunk = _chunk_size(mapping.m, mapping.d)
    values = np.full(len(points), np.nan)
    for start in range(0, len(points), chunk):
        J, rejected = mapping.jacobian_batch(points[start:start + chunk])
        values[start:start + chunk][~rejected] = local_contrast_batch(J[~rejected])
    return values


def _score_draws(mapping: MixingMap, draws: np.ndarray) -> np.ndarray:
    """Unclamped local contrast at each draw, NaN where rejected, by the
    map's ``fast_contrasts``.  The rows it leaves NaN (all of them for a map
    without a fast route, the ill-conditioned ones on the Gram route) are
    scored by the SVD of their Jacobian, so value and rejection follow the
    SVD rule there."""
    values = mapping.fast_contrasts(draws)
    redo = np.isnan(values)
    if redo.any():
        values[redo] = _score_at_points(mapping, draws[redo])
    return values


def boundary_statistics(mask: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(fraction of draws with a coordinate within eps of a knot, mean
    contrast over those draws) for a smoothed grid map, from its
    ``boundary_mask`` and per-draw contrasts (NaN where rejected)."""
    if not mask.any():
        return 0.0, 0.0
    values = values[mask]
    values = np.maximum(values[~np.isnan(values)], 0.0)
    return float(mask.mean()), float(values.mean()) if values.size else 0.0


# ---------------------------------------------------------------------------
# concentration sweep (linear maps)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    m: int
    d: int
    delta: float
    trials: int
    empirical_success: float
    theoretical_bound_at_kappa: float
    kappa_used: float


def concentration_sweep(
    d: int,
    delta: float,
    m_list,
    trials: int,
    sampler_factory=None,
    kappa: float = 1.0,
    seed: int = 0,
    threads: int = 1,
) -> list[SweepRow]:
    """For each ambient dimension m, sample ``trials`` linear maps with
    isotropic columns and record the fraction whose (constant-in-s)
    contrast is at most delta, next to the closed-form bound at kappa.
    """
    m_list = sorted(m_list)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not delta > 0:
        raise DomainError("delta must be positive")
    if not m_list:
        raise DomainError("m_list must name at least one ambient dimension")
    if sampler_factory is None:
        sampler_factory = SphericalSampler.standard_gaussian
    rows = []
    for mi, m in enumerate(m_list):
        sampler = sampler_factory(m)
        # chunk bounds depend on m, d and trials only, never on threads
        chunk = _chunk_size(m, d)

        def one_chunk(c: int, m=m, sampler=sampler, mi=mi, chunk=chunk) -> int:
            seeds = [substream(seed, mi, i) for i in range(c * chunk, min(trials, (c + 1) * chunk))]
            J = sample_isotropic_matrix(m, d, sampler, seeds)
            values = local_contrast_from_gram(np.matrix_transpose(J) @ J)
            # the sampler's rank check follows the SVD kernel's, so no
            # re-scored row comes back NaN
            redo = np.isnan(values) | (np.abs(values - delta) <= GRAM_SLACK)
            if redo.any():
                values[redo] = local_contrast_batch(J[redo])
            return int(np.count_nonzero(values <= delta))

        successes = run_indexed(-(-trials // chunk), one_chunk, threads)
        rows.append(
            SweepRow(
                m=m,
                d=d,
                delta=delta,
                trials=trials,
                empirical_success=sum(successes) / trials,
                theoretical_bound_at_kappa=theoretical_success_bound(m, d, delta, kappa),
                kappa_used=kappa,
            )
        )
    return rows


def binomial_stderr(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)


def trend_nondecreasing(successes, trials: int, n_sigma: float = 2.0) -> bool:
    """True when no adjacent pair decreases by more than n_sigma combined
    binomial standard errors."""
    for a, b in zip(successes[:-1], successes[1:]):
        width = math.hypot(binomial_stderr(a, trials), binomial_stderr(b, trials))
        if b < a - n_sigma * width:
            return False
    return True


# ---------------------------------------------------------------------------
# genericity of smoothed grid maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenericityRow:
    m: int
    d: int
    delta_grid: float
    eps: float
    trials: int
    n_mc: int
    delta_contrast: float
    empirical_success: float
    boundary_fraction_mean: float
    boundary_contrast_mean: float
    construction_warning: bool


def expected_boundary_fraction(d: int, delta: float, eps: float) -> float:
    """Probability that a uniform draw on the cube has a coordinate within
    eps of a knot: 1 - (1 - 2 eps (p - 1))^d, exact when 1/delta is an
    integer (edge knots contribute half windows)."""
    p = math.ceil(1.0 / delta) + 1
    per_axis = 2.0 * eps * (p - 1)
    return 1.0 - (1.0 - per_axis) ** d


def genericity_experiment(
    d: int,
    m_list,
    delta_grid: float,
    eps: float,
    delta_contrast: float,
    trials: int,
    n_mc: int,
    seed: int = 0,
    threads: int = 1,
) -> list[GenericityRow]:
    """For each m, sample ``trials`` smoothed grid maps, estimate each
    map's global contrast with n_mc uniform draws, and record the success
    fraction plus the boundary-region draw statistics."""
    m_list = sorted(m_list)
    if not eps > 0:
        raise DomainError("genericity experiment needs a smoothed map (eps > 0)")
    if trials < 1 or n_mc < 1:
        raise DomainError(f"trials and n_mc must be >= 1, got {trials} and {n_mc}")
    if not m_list:
        raise DomainError("m_list must name at least one ambient dimension")
    p_s = FactorialDistribution.iid(Uniform(0.0, 1.0), d)
    rows = []
    for mi, m in enumerate(m_list):

        def one_trial(i: int, m=m, mi=mi):
            trial_seed = substream(seed, mi, i)
            grid = sample_grid_map(d, m, delta_grid, eps=eps, seed=substream(trial_seed, 0))
            draws = sample_factorial(p_s, n_mc, substream(trial_seed, 1))
            values = _score_draws(grid, draws)
            frac, bmean = boundary_statistics(grid.boundary_mask(draws), values)
            return _estimate_from_values(values).mean <= delta_contrast, frac, bmean

        # the warnings state is process-global, so it is swapped once here,
        # on the calling thread, and never from the pool's threads
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_indexed(trials, one_trial, threads)
        warned = False
        for w in caught:
            if "injectivity" in str(w.message):
                warned = True
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        rows.append(
            GenericityRow(
                m=m,
                d=d,
                delta_grid=delta_grid,
                eps=eps,
                trials=trials,
                n_mc=n_mc,
                delta_contrast=delta_contrast,
                empirical_success=sum(r[0] for r in results) / trials,
                boundary_fraction_mean=sum(r[1] for r in results) / trials,
                boundary_contrast_mean=sum(r[2] for r in results) / trials,
                construction_warning=warned,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# spurious-solution contrast gaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapBranch:
    name: str
    estimate: ContrastEstimate
    floor: float

    @property
    def exceeds_gap(self) -> bool:
        return self.estimate.mean > max(self.floor, 10.0 * self.estimate.stderr)

    @property
    def is_zero(self) -> bool:
        return self.estimate.mean <= 1e-6


@dataclass(frozen=True)
class GapReport:
    truth_mpa: GapBranch
    spurious_mpa: GapBranch
    truth_darmois: GapBranch
    spurious_darmois: GapBranch

    @property
    def passed(self) -> bool:
        return (
            self.truth_mpa.is_zero
            and self.truth_darmois.is_zero
            and self.spurious_mpa.exceeds_gap
            and self.spurious_darmois.exceeds_gap
        )

    def branches(self):
        return [self.truth_mpa, self.spurious_mpa, self.truth_darmois, self.spurious_darmois]


def spurious_gap_experiment(
    m: int = 5,
    source: FactorialDistribution | None = None,
    rotation: np.ndarray | None = None,
    darmois_resolution: int = 512,
    n_mc: int = 2000,
    floor: float = 1e-3,
    seed: int = 0,
) -> GapReport:
    """Contrast of a conformal ground truth against its two spurious
    companions: composition with the rotated-Gaussian automorphism, and
    the inverse Darmois construction of the rotated latents.

    Signed-permutation rotations are refused (the gap theorems exclude
    them).  The ground-truth estimates should vanish; the theorems
    assert strict positivity of the spurious ones, so the PASS flag
    demands each spurious mean exceed max(floor, 10 stderr).
    """
    if source is None:
        source = FactorialDistribution.iid(Laplace(0.0, 1.0), 2)
    if source.dim != 2:
        raise ValidationError("the gap experiment runs the d=2 construction")
    R = rotation_matrix_2d(math.radians(30.0)) if rotation is None else np.asarray(rotation, float)
    require_nontrivial_rotation(R)

    f = random_conformal_map(2, m, seed=substream(seed, 0))
    truth_mpa = estimate_global_contrast(f, source, n_mc, substream(seed, 1))

    a = RotatedGaussianMPA(source, R)
    spur_mpa = estimate_global_contrast(spurious_mpa(f, a), source, n_mc, substream(seed, 2))

    spec = RotatedFactorial(source.components, R)
    dm = darmois_build(spec, darmois_resolution)
    truth_darmois = estimate_global_contrast(f, source, n_mc, substream(seed, 3))
    p_u = FactorialDistribution.iid(Uniform(0.0, 1.0), 2)
    spur_darmois = estimate_global_contrast(
        spurious_darmois(f, R, dm), p_u, n_mc, substream(seed, 4)
    )

    return GapReport(
        truth_mpa=GapBranch("truth_mpa", truth_mpa, floor),
        spurious_mpa=GapBranch("spurious_mpa", spur_mpa, floor),
        truth_darmois=GapBranch("truth_darmois", truth_darmois, floor),
        spurious_darmois=GapBranch("spurious_darmois", spur_darmois, floor),
    )


@dataclass(frozen=True)
class GapRow:
    branch: str
    mean: float
    stderr: float
    n_samples: int
    clamp_count: int
    rejection_count: int
    floor: float
    exceeds_gap: bool
    is_zero: bool


def gap_report_rows(report: GapReport) -> list[GapRow]:
    return [
        GapRow(
            branch=b.name,
            mean=b.estimate.mean,
            stderr=b.estimate.stderr,
            n_samples=b.estimate.n_samples,
            clamp_count=b.estimate.clamp_count,
            rejection_count=b.estimate.rejection_count,
            floor=b.floor,
            exceeds_gap=b.exceeds_gap,
            is_zero=b.is_zero,
        )
        for b in report.branches()
    ]


# ---------------------------------------------------------------------------
# reparametrization invariance
# ---------------------------------------------------------------------------

class ElementwiseTransform:
    """Strictly monotone scalar transform with closed-form inverse."""

    def forward(self, x):
        raise NotImplementedError

    def inverse(self, y):
        raise NotImplementedError

    def dforward(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class AffineTransform(ElementwiseTransform):
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.a == 0.0:
            raise NonMonotoneError("affine transform needs a != 0")

    def forward(self, x):
        return self.a * x + self.b

    def inverse(self, y):
        return (y - self.b) / self.a

    def dforward(self, x):
        return self.a * np.ones_like(np.asarray(x, dtype=float))


class CubeTransform(ElementwiseTransform):
    """x -> x^3; monotone with inverse cbrt (derivative vanishes at 0,
    which has measure zero under the sources used here)."""

    def forward(self, x):
        return np.asarray(x, dtype=float) ** 3

    def inverse(self, y):
        return np.cbrt(np.asarray(y, dtype=float))

    def dforward(self, x):
        return 3.0 * np.asarray(x, dtype=float) ** 2


class TanhTransform(ElementwiseTransform):
    """x -> tanh(x), a bounded monotone warp for maps on all of R^d."""

    def forward(self, x):
        return np.tanh(np.asarray(x, dtype=float))

    def inverse(self, y):
        return np.arctanh(np.asarray(y, dtype=float))

    def dforward(self, x):
        # np.square, not ** 2: a 0-d cosh comes back as np.float64, whose
        # ** 2 is libm pow and can differ from the array result in the last bit
        return 1.0 / np.square(np.cosh(np.asarray(x, dtype=float)))


#: transform kind -> table of its keys besides 'kind'
_TRANSFORM_KINDS = {
    "affine": {"a": (schema.real, schema.OPTIONAL), "b": (schema.real, schema.OPTIONAL)},
    "cube": {},
    "tanh": {},
}


def transform_from_config(config: dict) -> ElementwiseTransform:
    kind, args = schema.choice(config, "kind", _TRANSFORM_KINDS, "transform")
    if kind == "affine":
        return AffineTransform(**args)
    return CubeTransform() if kind == "cube" else TanhTransform()


def _validate_monotone(transform: ElementwiseTransform, probe: np.ndarray) -> None:
    values = np.asarray([transform.forward(x) for x in probe])
    if not (np.all(np.diff(values) > 0) or np.all(np.diff(values) < 0)):
        raise NonMonotoneError(f"{transform!r} is not strictly monotone on the probe grid")


class InverseElementwiseStage:
    """Stage applying component-wise inverses h_i^{-1}; Jacobian is
    diag(1 / h_i'(h_i^{-1}(x_i))).  ``evaluate`` and ``jacobian`` broadcast
    over leading axes, (..., d) -> (..., d) and (..., d, d), so the batch
    methods are one call each."""

    def __init__(self, transforms):
        self.transforms = tuple(transforms)
        self.d_in = len(self.transforms)
        self.d_out = len(self.transforms)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([t.inverse(x[..., i]) for i, t in enumerate(self.transforms)], axis=-1)

    def jacobian(self, x):
        pre = self.evaluate(x)
        derivs = np.stack([t.dforward(pre[..., i]) for i, t in enumerate(self.transforms)], axis=-1)
        J = np.zeros(derivs.shape + (self.d_in,))
        diag = np.arange(self.d_in)
        J[..., diag, diag] = 1.0 / derivs
        return J

    evaluate_batch = evaluate

    def jacobian_batch(self, X):
        return self.jacobian(X), np.zeros(len(X), dtype=bool)


def permutation_matrix(perm) -> np.ndarray:
    perm = list(perm)
    d = len(perm)
    if sorted(perm) != list(range(d)):
        raise ValidationError(f"{perm} is not a permutation of 0..{d - 1}")
    P = np.zeros((d, d))
    for i, j in enumerate(perm):
        P[j, i] = 1.0
    return P


@dataclass(frozen=True)
class ReparamRow:
    config_index: int
    perm: str
    transforms: str
    n_samples: int
    mean_base: float
    stderr_base: float
    mean_reparam: float
    stderr_reparam: float
    abs_difference: float
    combined_stderr: float
    within_3sigma: bool


@dataclass(frozen=True)
class ReparamReport:
    mean_base: float
    stderr_base: float
    mean_reparam: float
    stderr_reparam: float
    n_samples: int

    @property
    def abs_difference(self) -> float:
        return abs(self.mean_base - self.mean_reparam)

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.stderr_base, self.stderr_reparam)

    @property
    def within_tolerance(self) -> bool:
        return self.abs_difference <= 3.0 * max(self.combined_stderr, 1e-12)


def reparam_invariance_check(
    mapping: MixingMap,
    p_s: FactorialDistribution,
    perm,
    transforms,
    n: int,
    seed: int,
) -> ReparamReport:
    """Paired estimate of C(f, p_s) against C(f o h^{-1} o P^{-1}, p_s~)
    where s~ = P h(s), using common random numbers; the global-contrast
    proposition predicts exact equality."""
    transforms = tuple(transforms)
    perm = list(perm)
    if len(transforms) != mapping.d:
        raise ValidationError("need one element-wise transform per latent dimension")
    if p_s.dim != mapping.d or len(perm) != mapping.d:
        raise ValidationError(
            f"source dimension {p_s.dim} and permutation length {len(perm)} must both be "
            f"the map input dimension {mapping.d}"
        )
    probe = np.linspace(-0.9, 0.9, 33) if mapping.domain != "unit-cube" else np.linspace(0.01, 0.99, 33)
    for t in transforms:
        _validate_monotone(t, probe)
    P = permutation_matrix(perm)

    draws = sample_factorial(p_s, n, seed)
    transformed = np.column_stack(
        [np.asarray(t.forward(draws[:, i])) for i, t in enumerate(transforms)]
    ) @ P.T

    reparam_map = ComposedMap([LinearMap(P.T), InverseElementwiseStage(transforms), mapping])

    base = _estimate_from_values(_score_at_points(mapping, draws))
    re = _estimate_from_values(_score_at_points(reparam_map, transformed))
    return ReparamReport(
        mean_base=base.mean,
        stderr_base=base.stderr,
        mean_reparam=re.mean,
        stderr_reparam=re.stderr,
        n_samples=n,
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def format_cell(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def rows_to_csv(path, rows) -> None:
    """Write dataclass rows (one type per file) with a mandatory header."""
    import csv

    rows = list(rows)
    if not rows:
        raise ValidationError("refusing to write an empty CSV")
    names = [f.name for f in fields(rows[0])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([format_cell(getattr(row, name)) for name in names])
