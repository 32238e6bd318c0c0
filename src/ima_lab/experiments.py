"""Monte Carlo estimation of the global contrast and the experiment
harness: concentration sweep over ambient dimension, genericity of
smoothed grid maps, spurious-solution contrast gaps, and
reparametrization-invariance checks.

Trials are independent tasks keyed by their index; each derives its own
counter-mixed sub-seed, and results are reduced in index order, so the
numerical output is identical for any worker-pool size.  Every runner
works in chunks sized by one rule (:func:`_chunks`): a chunk holds as many
items as :data:`CHUNK_BYTES` of traced peak memory holds in every phase
of its pass, at the bytes an item and the chunk itself cost there: a
sweep trial (:func:`_sweep_trial_bytes`), a row scored by the SVD
fallback (:func:`_score_row_bytes`), or a genericity trial in each of
three phases, the last of which also holds fixed bytes
(:func:`_genericity_trial_bytes`, which follow n_mc d), so chunk bounds
depend on the problem sizes alone.  A genericity chunk is one stacked
grid draw (``mixing.sample_grid_maps``), one batched draw of every
trial's points (``FactorialDistribution.sample`` on the trials' seeds),
and one routing pass, which writes over the points, one sliced
window-Gram gather and one eigen-solve over the stacked draws
(``mixing.grid_chunk_scores``).  Its trials' values are then clamped in
place and reduced together (:func:`_trial_statistics`): whole-chunk
passes give every trial's contrast mean and boundary statistics, and
only the trials holding rows left to the SVD draw their points again and
are scored one by one.  Every trial's seeds come from vectorized
``seeding.substreams`` passes.

The sweep and genericity runners hand every chunk of every ambient
dimension to one :func:`run_indexed` pass, in (m, chunk) order, and reduce
each m's results in chunk order (:func:`_run_chunks`): the pool drains once
a run, not once per m, and a thread that finishes the last chunks of one m
goes on to the next m's.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import schema
from .contrast import (
    GRAM_SLACK,
    clamp_contrast,
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
    NumericalError,
    ValidationError,
)
from .mixing import (
    GATHER_SLICE_BYTES,
    UNIT_CUBE,
    ComposedMap,
    LinearMap,
    MixingMap,
    Stage,
    check_grid,
    grid_chunk_scores,
    random_conformal_map,
    sample_grid_maps,
)
from .mpa import (
    RotatedGaussianMPA,
    RotatedFactorial,
    darmois_build,
    require_nontrivial_rotation,
    rotation_matrix_2d,
    spurious_darmois,
    spurious_mpa,
)
from .seeding import SeedBlock, substream, substreams

#: largest tolerated fraction of rejected Monte Carlo draws
MAX_REJECTION_FRACTION = 1e-3

#: traced peak bytes of one chunk of any runner, the budget of :func:`_chunks`.
#: It bounds the peak of the whole pass, not the Jacobians alone, so pool
#: tasks stay large enough for a second thread to pay: a chunk holds 33
#: sweep trials at m = 2048 and d = 3, where 256 KiB of Jacobians holds 5,
#: and 13 to 28 genericity trials.  Peaks traced at the workloads' shapes:
#: sweep 0.92 to 1.63 MB (d = 3, m = 8 to 2048), scorer 1.25 to 1.57 MB
#: (the spurious and reparam chains), genericity 1.41 to 1.51 MB (d = 2,
#: m = 16 to 1024, where drawing and routing the points peaks).
CHUNK_BYTES = 1_700_000


def _chunks(n: int, *phases: tuple[float, float]) -> list[slice]:
    """Slices of the chunks of n items, in order.  Each of ``phases``, the
    parts of a chunk's pass that peak apart, is a pair (bytes an item holds
    there, bytes the chunk holds there whatever its size); a chunk spans as
    many items as CHUNK_BYTES holds in every phase, at least one, and the
    last is cut at n when it slices.  They depend on the sizes alone, never
    on threads."""
    size = max(1, int(min((CHUNK_BYTES - fixed) // item for item, fixed in phases)))
    return [slice(start, start + size) for start in range(0, n, size)]


def _sweep_trial_bytes(m: int, d: int) -> float:
    """Traced peak bytes of one sweep trial (:func:`_sweep_chunk`), an upper
    bound measured on its chunk: its m d column floats, 2% over them for
    the stack, 3 d^2 floats of Gram and eigen-solve, and 32 floats of
    per-trial seeds, radii and values."""
    return 8 * (1.02 * m * d + 3 * d * d + 32)


def _score_row_bytes(m: int, d: int) -> float:
    """Traced peak bytes of one row scored by :func:`_score_at_points`, an
    upper bound measured on its chunks (grid, linear and conformal maps and
    their reparam and spurious chains): 3.3 m d floats (the batch's
    Jacobians, the kernel's squares and, when the map refuses a row, the
    kept rows' copy), 4 d^2 floats of stage Jacobians and 16 floats of
    points, codes and values."""
    return 8 * (3.3 * m * d + 4 * d * d + 16)


#: traced peak bytes a genericity chunk holds whatever its trial count, an
#: upper bound measured on its passes: while its points are scored, the
#: buffers of the window gather's slices and 32 KiB of cell tables and
#: small temporaries; while its maps are drawn, the block-Gram einsum's
#: buffers, about 133 KB at d >= 2, which it also bounds
_GENERICITY_FIXED_BYTES = GATHER_SLICE_BYTES + 32768


def _genericity_trial_bytes(n_mc: int, m: int, d: int, p: int, window: float) -> tuple:
    """Traced peak bytes of a genericity chunk in the three phases of its
    pass that peak apart, each a pair (bytes a trial, bytes the chunk
    whatever its size) for :func:`_chunks`: upper bounds measured on its
    passes.  A trial holds twice its (p d)^2 block Grams (they and the
    chunk's stack of them) and 2 KiB of objects (the map, its seeds'
    generators) throughout, and 5/4 of its p m d block floats once its map
    is drawn.
    - Drawing the maps: twice the block floats and 512 floats (the blocks
      and the copy that the block-Gram einsum reads), and the chunk's
      :data:`_GENERICITY_FIXED_BYTES`.
    - Drawing and routing the points: the larger of d + 1.5 floats a draw
      (the points, whose buffer the routing overwrites, one law's levels
      or one coordinate's temporary, and the small-int blocks) and 1.6 d
      (the routed offsets, and the small-int blocks and the byte masks of
      the window and knot tests, which grow with d).
    - Scoring them: 1 float a draw and 3 d^2 + 2 d + 3 floats for each
      Gram it scores (the blend weights, offsets and Gram of
      ``SmoothGridMap.gram_batch`` and the eigen-solve's copy), one a draw
      in a blend window, the ``window`` fraction of them, and one a (map,
      cell) pair, at most min(p^d, n_mc); and the chunk's
      :data:`_GENERICITY_FIXED_BYTES`.
    At the workload's shape (d 2, eps 0.01, n_mc 2000, m 16) the points
    phase binds: the chunk traces 3.35 floats a (trial, draw) drawing and
    routing the points, against 3.5 charged, and about 2 floats and 260 KB
    scoring them."""
    blocks = p * m * d
    held = 8 * 2 * (p * d) ** 2 + 2048
    grams = n_mc * window + min(p**d, n_mc)
    return (
        (8 * (2 * blocks + 512) + held, _GENERICITY_FIXED_BYTES),
        (8 * (n_mc * max(d + 1.5, 1.6 * d) + 1.25 * blocks) + held, 0.0),
        (8 * (n_mc + grams * (3 * d * d + 2 * d + 3) + 1.25 * blocks) + held, _GENERICITY_FIXED_BYTES),
    )


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


def _run_chunks(tasks: list[list], threads: int) -> list[list]:
    """Results of the chunk tasks of every ambient dimension, ``tasks[mi][c]()``,
    from one :func:`run_indexed` pass over all of them, in (m, chunk) order,
    so the pool drains once a run, not once per m; they come back per m,
    each in chunk order."""
    flat = [task for chunks in tasks for task in chunks]
    results = iter(run_indexed(len(flat), lambda i: flat[i](), threads))
    return [[next(results) for _ in chunks] for chunks in tasks]


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


def _clamped_draws(values: np.ndarray) -> np.ndarray:
    """The rejected mask of per-draw unclamped contrasts (..., n), NaN
    where the draw was rejected, which are clamped in place by
    ``clamp_contrast``: a kept draw is clamped, a rejected one stays NaN.
    The one home of the rejection limit: a row with more than
    :data:`MAX_REJECTION_FRACTION` of its draws rejected raises
    DegenerateMapError, after the clamp's own FloatingPointError, which
    the clamp raises before it writes."""
    rejected = np.isnan(values)
    clamp_contrast(values, out=values)
    n = rejected.shape[-1]
    rejections = rejected.sum(axis=-1)
    over = rejections > MAX_REJECTION_FRACTION * n
    if over.any():
        raise DegenerateMapError(
            f"{np.ravel(rejections)[over.argmax()]}/{n} draws rejected (> {MAX_REJECTION_FRACTION:.1%})"
        )
    return rejected


def _estimate_from_values(values: np.ndarray) -> ContrastEstimate:
    """Contrast estimate from per-draw unclamped contrasts, NaN where the
    draw was rejected, which it clamps in place."""
    # counted before the clamp; a rejected draw's NaN is not below 0
    clamps = int(np.count_nonzero(values < 0.0))
    clamped = values[~_clamped_draws(values)]
    n = clamped.size
    mean = float(clamped.mean()) if n else 0.0
    stderr = float(clamped.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ContrastEstimate(mean, stderr, n, clamps, values.size - n)


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
    draws = sample_factorial(p_s, n, seed)
    return _estimate_from_values(_score_at_points(mapping, draws, mapping.fast_contrasts(draws)))


def _score_at_points(mapping: MixingMap, points: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
    """Unclamped local contrast at each point, NaN where rejected: the one
    SVD fallback.  ``values`` holds contrasts a cheaper route already gave
    at the points (a map's ``fast_contrasts``), NaN on the rows it leaves
    to the SVD; those rows, or every row when ``values`` is None, are
    scored in place by one ``jacobian_batch`` call and one SVD kernel call
    per chunk, on the rows of code 0, so value and rejection follow the
    SVD rule there.  A point the map rejects, or whose Jacobian fails the
    kernel's rank check, is rejected."""
    if values is None:
        values = np.full(len(points), np.nan)
    redo = np.flatnonzero(np.isnan(values))
    for chunk in _chunks(len(redo), (_score_row_bytes(mapping.m, mapping.d), 0.0)):
        rows = redo[chunk]
        J, code = mapping.jacobian_batch(points[rows])
        kept = code == 0
        # a batch with no refused row is scored as it is, with no copy
        values[rows[kept]] = local_contrast_batch(J if kept.all() else J[kept])
    return values


def boundary_statistics(mask: np.ndarray, values: np.ndarray):
    """(fraction of draws with a coordinate within eps of a knot, mean
    contrast over those draws) for a smoothed grid map, from its
    ``boundary_mask`` and per-draw contrasts (NaN where rejected), each
    (n,): two floats, 0.0 and 0.0 with no boundary draw.

    Stacked (T, n) masks and contrasts of T maps give two (T,) arrays, row
    j bit for bit the call on row j, the 1-d call being the batch of one:
    a fraction is an exact count over n, and a mean one 1-d reduction over
    that row's slice of the clamped, kept boundary draws of all rows."""
    rows_mask, rows_values = np.atleast_2d(mask), np.atleast_2d(values)
    kept = rows_mask & ~np.isnan(rows_values)
    clamped = clamp_contrast(rows_values[kept])  # row by row, each row's draws in order
    ends = np.cumsum(np.count_nonzero(kept, axis=1)).tolist()
    means = [
        np.add.reduce(clamped[start:end]) / (end - start) if end > start else 0.0
        for start, end in zip([0] + ends, ends)
    ]
    fractions = np.count_nonzero(rows_mask, axis=1) / rows_mask.shape[1]
    if np.ndim(mask) == 1:
        return float(fractions[0]), float(means[0])
    return fractions, np.array(means, dtype=float)


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


def _sweep_chunk(m: int, d: int, delta: float, sampler, seeds: SeedBlock) -> int:
    """Successes, contrasts at most delta, among one sweep chunk's trials:
    their m x d draws in one ``sample_isotropic_matrix`` call, scored by
    the Gram route, with the rows it leaves or cannot place against delta
    re-scored by the SVD kernel."""
    J, G, eigvals = sample_isotropic_matrix(m, d, sampler, seeds, with_gram=True)
    values = local_contrast_from_gram(G, eigvals)
    # the sampler's rank check follows the SVD kernel's, so no re-scored row
    # comes back NaN
    redo = np.isnan(values) | (np.abs(values - delta) <= GRAM_SLACK)
    if redo.any():
        values[redo] = local_contrast_batch(J[redo])
    return int(np.count_nonzero(values <= delta))


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
    # the bound column needs m >= 2 and kappa > 0, the contrast m >= d
    if m_list[0] < max(2, d):
        raise DomainError(f"ambient dimension m must be >= max(2, d={d}), got {m_list[0]}")
    if not kappa > 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if sampler_factory is None:
        sampler_factory = SphericalSampler.standard_gaussian
    tasks = []
    for mi, m in enumerate(m_list):
        sampler = sampler_factory(m)
        # every chunk's streams come from one seed hash per m, shared
        # read-only by the pool's threads
        seeds = SeedBlock(substreams(substream(seed, mi), np.arange(trials)))
        tasks.append([functools.partial(_sweep_chunk, m, d, delta, sampler, seeds[chunk])
                      for chunk in _chunks(trials, (_sweep_trial_bytes(m, d), 0.0))])
    return [
        SweepRow(
            m=m,
            d=d,
            delta=delta,
            trials=trials,
            empirical_success=sum(successes) / trials,
            theoretical_bound_at_kappa=theoretical_success_bound(m, d, delta, kappa),
            kappa_used=kappa,
        )
        for m, successes in zip(m_list, _run_chunks(tasks, threads))
    ]


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


def _trial_statistics(maps, points, values: np.ndarray, boundary: np.ndarray):
    """(mean contrast, boundary fraction, boundary mean) of each trial of a
    genericity chunk, three (T,) arrays, from the maps, a call
    ``points(j)`` that gives trial j's (n, d) draws, and the draws'
    contrasts (NaN on rows the fast route left to the SVD) and boundary
    masks, C-contiguous (T, n) each.  Only the trials that hold such rows
    draw their points and are scored by :func:`_score_at_points`; the
    values are then clamped in place, and the rest is whole-chunk passes.
    Trial j is bit for bit the mean of ``_estimate_from_values`` and
    ``boundary_statistics`` of its own row."""
    for j in np.flatnonzero(np.isnan(values).any(axis=1)):
        _score_at_points(maps[j], points(j), values[j])
    try:
        rejected = _clamped_draws(values)
        # a row-wise mean of a C-contiguous stack sums each row as its own
        # 1-d mean does; a row with rejections is one 1-d mean of its kept draws
        means = values.mean(axis=1)
        for j in np.flatnonzero(rejected.any(axis=1)):
            means[j] = values[j][~rejected[j]].mean()
        return (means, *boundary_statistics(boundary, values))
    except (FloatingPointError, DegenerateMapError):
        # the chunk's passes name a failure of any trial; raise that of the
        # first failing trial, as one trial at a time would have, its
        # boundary statistics before its estimate.  The clamp writes only
        # once no value is below its slack, and keeps every NaN, so each
        # trial still fails as it would have
        for mask, v in zip(boundary, values):
            boundary_statistics(mask, v)
            _estimate_from_values(v)
        raise


def _chunk_statistics(d: int, m: int, delta: float, eps: float, n_mc: int, seeds: np.ndarray):
    """:func:`_trial_statistics` of one genericity chunk, from its trials'
    (k, 2) map and point seeds: the k maps in one ``sample_grid_maps``
    call, and their n_mc uniform draws each in one ``sample`` call, which
    one ``grid_chunk_scores`` pass routes in place and so spends.  A trial
    with rows left to the SVD draws its points again from its seed: slice
    j of the stacked draw is bit for bit the int-seed call."""
    grids = sample_grid_maps(d, m, delta, seeds[:, 0], eps=eps)
    p_s = FactorialDistribution.iid(Uniform(0.0, 1.0), d)
    scores = grid_chunk_scores(grids, p_s.sample(n_mc, seeds[:, 1]))
    return _trial_statistics(grids, lambda j: p_s.sample(n_mc, int(seeds[j, 1])), *scores)


def expected_boundary_fraction(d: int, delta: float, eps: float) -> float:
    """Probability that a uniform draw on the cube has a coordinate within
    eps of a knot: 1 - (1 - 2 eps (p - 1))^d, exact when 1/delta is an
    integer (edge knots contribute half windows).  A grid that
    :func:`check_grid` refuses is a DomainError."""
    p = check_grid(delta, eps)
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
    p = check_grid(delta_grid, eps)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if trials < 1 or n_mc < 1:
        raise DomainError(f"trials and n_mc must be >= 1, got {trials} and {n_mc}")
    if not m_list:
        raise DomainError("m_list must name at least one ambient dimension")
    if m_list[0] < d:  # before it sizes a chunk or draws a map
        raise DomainError(f"ambient dimension m must be >= d={d}, got {m_list[0]}")
    window = expected_boundary_fraction(d, delta_grid, eps)

    def one_chunk(m: int, seeds: np.ndarray) -> tuple:
        means, fractions, boundary_means = _chunk_statistics(d, m, delta_grid, eps, n_mc, seeds)
        return means <= delta_contrast, fractions, boundary_means

    tasks = []
    for mi, m in enumerate(m_list):
        # trial i's map and point seeds, substream(seed, mi, i, 0) and
        # substream(seed, mi, i, 1), for every trial in two vectorized passes
        seeds = substreams(substreams(substream(seed, mi), np.arange(trials))[:, None], np.arange(2))
        tasks.append([functools.partial(one_chunk, m, seeds[chunk])
                      for chunk in _chunks(trials, *_genericity_trial_bytes(n_mc, m, d, p, window))])
    rows = []
    for m, results in zip(m_list, _run_chunks(tasks, threads)):
        success, fractions, boundary_means = (np.concatenate(r) for r in zip(*results))
        rows.append(
            GenericityRow(
                m=m,
                d=d,
                delta_grid=delta_grid,
                eps=eps,
                trials=trials,
                n_mc=n_mc,
                delta_contrast=delta_contrast,
                empirical_success=int(np.count_nonzero(success)) / trials,
                # Python sums of floats, in trial order
                boundary_fraction_mean=sum(fractions.tolist()) / trials,
                boundary_contrast_mean=sum(boundary_means.tolist()) / trials,
                construction_warning=m <= p * d,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# spurious-solution contrast gaps
# ---------------------------------------------------------------------------

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


def _gap_row(branch: str, estimate: ContrastEstimate, floor: float) -> GapRow:
    """The branch's CSV row, with the gap flag rules: a spurious gap is a
    mean above max(floor, 10 stderr), a vanishing contrast a mean at most
    1e-6."""
    return GapRow(branch, **asdict(estimate), floor=floor,
                  exceeds_gap=estimate.mean > max(floor, 10.0 * estimate.stderr),
                  is_zero=estimate.mean <= 1e-6)


@dataclass(frozen=True)
class GapReport:
    truth_mpa: GapRow
    spurious_mpa: GapRow
    truth_darmois: GapRow
    spurious_darmois: GapRow

    @property
    def passed(self) -> bool:
        return (
            self.truth_mpa.is_zero
            and self.truth_darmois.is_zero
            and self.spurious_mpa.exceeds_gap
            and self.spurious_darmois.exceeds_gap
        )

    def branches(self) -> list[GapRow]:
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
    if m < 2 or n_mc < 1:
        raise DomainError(f"need m >= 2 and n_mc >= 1, got m={m}, n_mc={n_mc}")
    # the Darmois table draws nothing and refuses a resolution or a source
    # law it cannot tabulate, so it is built before the first draw
    dm = darmois_build(RotatedFactorial(source.components, R), darmois_resolution)

    f = random_conformal_map(2, m, seed=substream(seed, 0))
    truth_mpa = estimate_global_contrast(f, source, n_mc, substream(seed, 1))

    a = RotatedGaussianMPA(source, R)
    spur_mpa = estimate_global_contrast(spurious_mpa(f, a), source, n_mc, substream(seed, 2))

    truth_darmois = estimate_global_contrast(f, source, n_mc, substream(seed, 3))
    p_u = FactorialDistribution.iid(Uniform(0.0, 1.0), 2)
    spur_darmois = estimate_global_contrast(
        spurious_darmois(f, R, dm), p_u, n_mc, substream(seed, 4)
    )

    estimates = (truth_mpa, spur_mpa, truth_darmois, spur_darmois)
    return GapReport(*(_gap_row(b.name, e, floor) for b, e in zip(fields(GapReport), estimates)))


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
    # a transform may overflow on the probe (a = 1.7e308); numpy need not
    # warn before its steps are read
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(transform.forward(probe))
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise NonMonotoneError(f"{transform!r} is not strictly monotone on the probe grid")


class InverseElementwiseStage(Stage):
    """Stage applying component-wise inverses h_i^{-1}; Jacobian is
    diag(1 / h_i'(h_i^{-1}(x_i))).  ``evaluate`` and ``jacobian`` broadcast
    over leading axes, (..., d) -> (..., d) and (..., d, d), so
    ``evaluate_batch`` is ``evaluate``, and ``forward_batch`` takes one
    ``evaluate`` for both."""

    def __init__(self, transforms):
        self.transforms = tuple(transforms)
        self.d = self.m = len(self.transforms)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        # a point at or past the end of a transform's range (tanh saturates
        # at 1.0) has a non-finite inverse, which a composition refuses as a
        # NumericalError; numpy need not warn first
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.stack([t.inverse(x[..., i]) for i, t in enumerate(self.transforms)], axis=-1)

    def jacobian(self, x, preimage=None):
        """``preimage`` is ``evaluate(x)`` when the caller already has it."""
        pre = self.evaluate(x) if preimage is None else preimage
        derivs = np.stack([t.dforward(pre[..., i]) for i, t in enumerate(self.transforms)], axis=-1)
        J = np.zeros(derivs.shape + (self.d,))
        diag = np.arange(self.d)
        # a vanishing derivative gives an infinite entry, which the contrast
        # kernel refuses as a NumericalError; numpy need not warn first
        with np.errstate(divide="ignore", over="ignore"):
            J[..., diag, diag] = 1.0 / derivs
        return J

    evaluate_batch = evaluate

    def forward_batch(self, X):
        pre = self.evaluate(X)
        return pre, self.jacobian(X, pre), np.zeros(len(X), dtype=np.int8)


def permutation_matrix(perm) -> np.ndarray:
    perm = list(perm)
    d = len(perm)
    if sorted(perm) != list(range(d)):
        raise ValidationError(f"{perm} is not a permutation of 0..{d - 1}")
    P = np.zeros((d, d))
    for i, j in enumerate(perm):
        P[j, i] = 1.0
    return P


def check_reparam(mapping, p_s: FactorialDistribution, perm, transforms) -> np.ndarray:
    """The permutation matrix of ``perm``, once the source, permutation and
    transforms are checked against a map of input dimension ``mapping.d``
    on ``mapping.domain``: a built map, or a descriptor that names both, so
    a run can check every config before the first one runs."""
    if len(transforms) != mapping.d:
        raise ValidationError("need one element-wise transform per latent dimension")
    if p_s.dim != mapping.d or len(perm) != mapping.d:
        raise ValidationError(
            f"source dimension {p_s.dim} and permutation length {len(perm)} must both be "
            f"the map input dimension {mapping.d}"
        )
    probe = np.linspace(-0.9, 0.9, 33) if mapping.domain != UNIT_CUBE else np.linspace(0.01, 0.99, 33)
    for t in transforms:
        _validate_monotone(t, probe)
    return permutation_matrix(perm)


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
    """The numeric columns of a reparam CSV row.  The reparametrized mean
    is within 3 sigma when its distance from the base mean is at most
    three combined standard errors, floored at 1e-12."""

    n_samples: int
    mean_base: float
    stderr_base: float
    mean_reparam: float
    stderr_reparam: float
    abs_difference: float
    combined_stderr: float
    within_3sigma: bool


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
    proposition predicts exact equality.  The draws are scored by
    :func:`reparam_scores`."""
    base, re = reparam_scores(mapping, p_s, perm, transforms, n, seed)
    return _reparam_report(n, _estimate_from_values(base), _estimate_from_values(re))


def reparam_scores(
    mapping: MixingMap,
    p_s: FactorialDistribution,
    perm,
    transforms,
    n: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The paired local contrasts of :func:`reparam_invariance_check`,
    unclamped and NaN where rejected: f at n draws s of p_s, and the
    reparametrized map f o h^{-1} o P^{-1} at P h(s), draw by draw.  The
    proposition predicts they are equal point by point."""
    transforms = tuple(transforms)
    P = check_reparam(mapping, p_s, perm, transforms)

    draws = sample_factorial(p_s, n, seed)
    # a transform may overflow on a valid draw (a cube of 1e150); numpy need
    # not warn before the NumericalError below
    with np.errstate(over="ignore", invalid="ignore"):
        transformed = np.column_stack(
            [np.asarray(t.forward(draws[:, i])) for i, t in enumerate(transforms)]
        ) @ P.T
    if not np.all(np.isfinite(transformed)):
        raise NumericalError("a transform took a draw to a non-finite value")

    reparam_map = reparametrized_map(mapping, P, transforms)
    return _score_at_points(mapping, draws), _score_at_points(reparam_map, transformed)


def reparametrized_map(mapping: MixingMap, P: np.ndarray, transforms) -> ComposedMap:
    """f o h^{-1} o P^{-1} for a permutation matrix P, as a chain."""
    return ComposedMap([LinearMap(P.T), InverseElementwiseStage(transforms), mapping])


def _reparam_report(n: int, base: ContrastEstimate, re: ContrastEstimate) -> ReparamReport:
    diff, combined = abs(base.mean - re.mean), math.hypot(base.stderr, re.stderr)
    return ReparamReport(n, base.mean, base.stderr, re.mean, re.stderr, diff, combined,
                         diff <= 3.0 * max(combined, 1e-12))


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
