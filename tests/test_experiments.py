import functools
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ima_lab import experiments, mixing
from ima_lab.contrast import (
    CLAMP_SLACK,
    GRAM_RATIO_TOL,
    clamp_contrast,
    local_contrast_batch,
    local_contrast_from_gram,
    local_contrast_unclamped,
)
from ima_lab.distributions import (
    FactorialDistribution,
    Gaussian,
    Laplace,
    SphericalSampler,
    Uniform,
    sample_factorial,
    sample_isotropic_matrix,
)
from ima_lab.cli import main, run
from ima_lab.errors import (
    REJECTABLE,
    DegenerateMapError,
    DomainError,
    NonMonotoneError,
    OnKnotError,
    OutOfDomainError,
    RankDeficientError,
    TrivialRotationError,
    reject_codes,
)
from ima_lab.experiments import (
    AffineTransform,
    ContrastEstimate,
    CubeTransform,
    ElementwiseTransform,
    InverseElementwiseStage,
    TanhTransform,
    binomial_stderr,
    boundary_statistics,
    concentration_sweep,
    estimate_global_contrast,
    expected_boundary_fraction,
    genericity_experiment,
    permutation_matrix,
    reparam_invariance_check,
    reparam_scores,
    reparametrized_map,
    run_indexed,
    spurious_gap_experiment,
    transform_from_config,
    trend_nondecreasing,
)
from ima_lab.mixing import (
    LinearMap,
    MixingMap,
    SmoothGridMap,
    jacobian_fd,
    random_conformal_map,
    sample_grid_map,
)
from ima_lab.mpa import (
    ComposedMap,
    DarmoisInverse,
    RotatedFactorial,
    RotatedGaussianMPA,
    darmois_build,
    rotation_matrix_2d,
    spurious_darmois,
    spurious_mpa,
)
from ima_lab.seeding import SeedBlock, generator, substream, substreams
from test_jacobian_batch import reference_evaluate, reference_jacobian


def per_chunk(*phases):
    """Items a chunk holds under the one chunk rule in ``phases``, pairs
    (item bytes, fixed bytes) as ``experiments._chunks`` takes them."""
    return experiments._chunks(1, *phases)[0].stop


def assert_chunk_peaks_within_its_rule(make_chunk, phases, items=None):
    """The traced peak of one chunk of ``items`` items, the rule's own
    count by default, the call ``make_chunk(items)`` returns with its
    inputs made, against the rule's bytes for those items, a bound fixed by
    the rule: at most fixed bytes + items x item bytes in its costliest
    phase, which is at most the budget."""
    assert per_chunk(*phases) > 1
    items = per_chunk(*phases) if items is None else items
    chunk = make_chunk(items)
    chunk()  # first-call caches are not the chunk's
    tracemalloc.start()
    try:
        chunk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(fixed + items * item for item, fixed in phases) <= experiments.CHUNK_BYTES


class TestEstimateGlobalContrast:
    def test_orthonormal_linear_map_is_zero(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        f = LinearMap(Q)
        p_s = FactorialDistribution.iid(Gaussian(0, 1), 3)
        est = estimate_global_contrast(f, p_s, 500, seed=1)
        assert est.mean <= 1e-10
        assert est.n_samples == 500
        assert est.rejection_count == 0

    def test_conformal_map_is_zero(self):
        f = random_conformal_map(2, 6, seed=2, scale=1.3)
        p_s = FactorialDistribution.iid(Uniform(0, 1), 2)
        est = estimate_global_contrast(f, p_s, 500, seed=3)
        assert est.mean <= 1e-8

    def test_bitwise_determinism(self):
        g = sample_grid_map(d=2, m=24, delta=0.5, eps=0.01, seed=4)
        p_s = FactorialDistribution.iid(Uniform(0, 1), 2)
        a = estimate_global_contrast(g, p_s, 400, seed=5)
        b = estimate_global_contrast(g, p_s, 400, seed=5)
        assert a == b

    def test_fast_path_matches_general_path(self):
        g = sample_grid_map(d=2, m=24, delta=0.5, eps=0.01, seed=6)
        p_s = FactorialDistribution.iid(Uniform(0, 1), 2)
        fast = estimate_global_contrast(g, p_s, 300, seed=7)
        # general path on the same draws
        from ima_lab.contrast import local_contrast_unclamped
        from ima_lab.distributions import sample_factorial

        draws = sample_factorial(p_s, 300, seed=7)
        slow = np.array([max(local_contrast_unclamped(g.jacobian(s)), 0.0) for s in draws])
        assert fast.mean == pytest.approx(float(slow.mean()), abs=1e-12)

    def test_degenerate_map_detected(self):
        g = sample_grid_map(d=2, m=24, delta=0.5, eps=0.0, seed=8)  # raw map
        p_s = FactorialDistribution.iid(Uniform(0.5, 0.5 + 1e-15), 2)  # draws pinned to a knot
        with pytest.raises((DegenerateMapError, DomainError)):
            estimate_global_contrast(g, p_s, 200, seed=9)

    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_grid_draws_outside_the_cube_are_refused(self, eps):
        g = sample_grid_map(d=2, m=24, delta=0.5, eps=eps, seed=8)
        p_s = FactorialDistribution.iid(Uniform(0.1, 1.2), 2)
        with pytest.raises(OutOfDomainError):
            estimate_global_contrast(g, p_s, 200, seed=9)

    def test_dimension_check(self):
        f = LinearMap(np.eye(3))
        p_s = FactorialDistribution.iid(Gaussian(0, 1), 2)
        with pytest.raises(Exception):
            estimate_global_contrast(f, p_s, 100, seed=0)


class KinkedMap(MixingMap):
    """Map on R^2 whose Jacobian is refused on s_0 = 0.5 and is rank
    deficient on s_1 = 0, so both rejection routes can be placed."""

    d = 2
    m = 3

    def jacobian(self, s):
        if s[0] == 0.5:
            raise OnKnotError("on the kink")
        return np.array([[1.0, s[0]], [0.0, s[1]], [s[1], 0.0]])

    def jacobian_batch(self, S):
        J = np.zeros((len(S), 3, 2))
        J[:, 0, 0] = 1.0
        J[:, 0, 1] = S[:, 0]
        J[:, 1, 1] = S[:, 1]
        J[:, 2, 0] = S[:, 1]
        rejected = S[:, 0] == 0.5
        J[rejected] = np.nan
        return J, reject_codes(rejected, OnKnotError)


def scalar_estimate(mapping, points):
    """Reference for the chunked estimator: one scalar contrast per point."""
    values = []
    for s in points:
        try:
            values.append(local_contrast_unclamped(mapping.jacobian(s)))
        except (RankDeficientError, OnKnotError):
            values.append(np.nan)
    return experiments._estimate_from_values(np.asarray(values))


def chunked_estimate(mapping, points):
    return experiments._estimate_from_values(experiments._score_at_points(mapping, points))


class TestChunkedEstimate:
    def test_chunks_match_the_scalar_loop_with_both_rejection_routes(self, monkeypatch):
        points = np.random.default_rng(3).standard_normal((2000, 2))
        points[[4, 700]] = [[0.5, 1.0], [2.0, 0.0]]  # one refused, one rank deficient
        # 7 points per chunk, so the rejections fall in different chunks
        monkeypatch.setattr(experiments, "CHUNK_BYTES", int(7.5 * experiments._score_row_bytes(3, 2)))
        assert per_chunk((experiments._score_row_bytes(3, 2), 0.0)) == 7
        chunked = chunked_estimate(KinkedMap(), points)
        assert chunked == scalar_estimate(KinkedMap(), points)
        assert chunked.rejection_count == 2

    def test_only_the_nan_rows_are_scored_by_svd(self, monkeypatch):
        points = np.random.default_rng(5).standard_normal((200, 2))
        points[[9, 150]] = [[0.5, 1.0], [2.0, 0.0]]  # one refused, one rank deficient
        # 7 rows per chunk
        monkeypatch.setattr(experiments, "CHUNK_BYTES", int(7.5 * experiments._score_row_bytes(3, 2)))
        given = np.random.default_rng(6).uniform(0.0, 1.0, 200)
        redo = np.zeros(200, dtype=bool)
        redo[[0, 3, 4, 9, 17, 18, 19, 20, 21, 22, 23, 24, 60, 150, 199]] = True
        given[redo] = np.nan
        got = experiments._score_at_points(KinkedMap(), points, given.copy())
        assert np.array_equal(got[~redo].view(np.int64), given[~redo].view(np.int64))
        reference = per_point_scores(KinkedMap(), points[redo])
        assert np.array_equal(got[redo].view(np.int64), reference.view(np.int64))
        assert np.isnan(got[[9, 150]]).all() and np.count_nonzero(np.isnan(got)) == 2

    def test_one_chunk_matches_the_scalar_loop(self):
        points = np.random.default_rng(4).standard_normal((300, 2))
        assert chunked_estimate(KinkedMap(), points) == scalar_estimate(
            KinkedMap(), points
        )


def per_point_scores(mapping, points):
    """Reference for the batched scorer: one scalar Jacobian and one scalar
    contrast per point, NaN where either is rejected."""
    values = []
    for s in points:
        try:
            values.append(local_contrast_unclamped(mapping.jacobian(s)))
        except REJECTABLE:
            values.append(np.nan)
    return np.asarray(values)


_UNIFORM_01_99 = {"kind": "uniform", "params": {"a": 0.01, "b": 0.99}}

#: the README reparam config and the two of acceptance criterion 10
REPARAM_PARAMS = {
    "n_mc": 2000,
    "configs": [
        {"map": {"family": "grid", "d": 2, "m": 24, "delta": 0.5, "eps": 0.02},
         "source": [_UNIFORM_01_99] * 2,
         "perm": [1, 0],
         "transforms": [{"kind": "cube"}, {"kind": "affine", "a": 0.5, "b": 0.25}]},
        {"map": {"family": "grid", "d": 3, "m": 40, "delta": 0.5, "eps": 0.02},
         "source": [_UNIFORM_01_99] * 3,
         "perm": [2, 0, 1],
         "transforms": [{"kind": "cube"}, {"kind": "affine", "a": 0.5, "b": 0.25},
                        {"kind": "cube"}]},
        {"map": {"family": "conformal", "d": 2, "m": 7},
         "source": [{"kind": "gaussian", "params": {"mu": 0.0, "sigma": 1.0}}] * 2,
         "perm": [1, 0],
         "transforms": [{"kind": "tanh"}, {"kind": "affine", "a": -1.5, "b": 0.2}]},
    ],
}


class TestBatchedScoring:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries_match_the_per_point_reference(self, offset):
        grid = sample_grid_map(d=2, m=24, delta=0.5, eps=0.0, seed=30)  # raw: knots are refused
        n = per_chunk((experiments._score_row_bytes(24, 2), 0.0)) + offset
        points = np.random.default_rng(31).uniform(0.01, 0.99, (n, 2))
        points[[0, n // 2, n - 1], 0] = 0.5  # on a knot, in the first and the last chunk
        transforms = [CubeTransform(), AffineTransform(0.5, 0.25)]
        chain = ComposedMap([LinearMap(permutation_matrix([1, 0]).T),
                             InverseElementwiseStage(transforms), grid])
        transformed = np.column_stack([t.forward(points[:, i]) for i, t in enumerate(transforms)])
        for mapping, pts in ((grid, points), (chain, transformed @ permutation_matrix([1, 0]).T)):
            got = experiments._score_at_points(mapping, pts)
            assert np.array_equal(got.view(np.int64), per_point_scores(mapping, pts).view(np.int64))
            assert np.isnan(got[[0, n // 2, n - 1]]).all()

    @settings(deadline=None, max_examples=25)
    @given(
        name=st.sampled_from(["grid", "reparam chain", "spurious mpa", "spurious darmois"]),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        knots=st.lists(st.integers(0, 39), max_size=4),
    )
    def test_a_chunk_of_one_row_gives_the_same_scores(self, name, n, seed, knots):
        # a row's Jacobian, rejection and SVD score do not depend on the
        # other rows of its chunk
        mapping, points = scoring_case(name, n, seed, knots)
        scores = experiments._score_at_points(mapping, points)
        with mock.patch.object(experiments, "CHUNK_BYTES", 1):
            assert per_chunk((1.0, 0.0)) == 1  # every chunk is one row
            assert np.array_equal(bits(experiments._score_at_points(mapping, points)), bits(scores))

    @pytest.mark.parametrize("name", ["reparam grid chain 40x3", "spurious darmois"])
    def test_a_chunk_peaks_within_the_bytes_its_rule_assumes(self, name):
        # one chunk of a workload's scoring shape: Jacobians, rejections and
        # SVD scores
        mapping, _ = scoring_case(name, 1, 0, [])

        def chunk(rows):
            points = scoring_case(name, rows, 20250809, [])[1]
            return lambda: experiments._score_at_points(mapping, points)

        assert_chunk_peaks_within_its_rule(chunk, [(experiments._score_row_bytes(mapping.m, mapping.d), 0.0)])

    @pytest.mark.parametrize("seed", [20250809, 77])
    def test_reparam_configs_match_the_per_point_reference(self, seed, tmp_path, monkeypatch):
        config = {"command": "reparam", "params": REPARAM_PARAMS, "master_seed": seed}
        assert run(dict(config, output_dir=str(tmp_path / "batched"))) == 0
        monkeypatch.setattr(experiments, "_score_at_points", per_point_scores)
        assert run(dict(config, output_dir=str(tmp_path / "reference"))) == 0
        batched = (tmp_path / "batched" / "reparam.csv").read_bytes()
        assert batched == (tmp_path / "reference" / "reparam.csv").read_bytes()

    @pytest.mark.parametrize("seed", [20250809, 77])
    def test_spurious_config_matches_the_per_point_reference(self, seed, tmp_path, monkeypatch):
        config = {"command": "spurious", "params": SPURIOUS_PARAMS, "master_seed": seed}
        assert run(dict(config, output_dir=str(tmp_path / "batched"))) == 0
        for stage in (RotatedGaussianMPA, DarmoisInverse):
            monkeypatch.setattr(stage, "forward_batch", reference_forward_rows)
            monkeypatch.setattr(stage, "evaluate_batch", reference_evaluate_rows)
        assert run(dict(config, output_dir=str(tmp_path / "reference"))) == 0
        batched = (tmp_path / "batched" / "spurious.csv").read_bytes()
        assert batched == (tmp_path / "reference" / "spurious.csv").read_bytes()


@functools.cache
def scoring_map(name):
    """The maps of the scoring shapes: a raw grid map of the README reparam
    config's shape (24 x 2), whose knots are refused, and its reparam
    chain; the chain of the second reparam config (40 x 3); the README
    spurious config's two chains."""
    if name == "reparam grid chain 40x3":
        grid = sample_grid_map(d=3, m=40, delta=0.5, eps=0.02, seed=32)
        return reparametrized_map(grid, permutation_matrix([2, 0, 1]), REPARAM_TRANSFORMS[3])
    if name in ("grid", "reparam chain"):
        grid = sample_grid_map(d=2, m=24, delta=0.5, eps=0.0, seed=30)
        if name == "grid":
            return grid
        return reparametrized_map(grid, permutation_matrix([1, 0]), REPARAM_TRANSFORMS[2])
    f = random_conformal_map(2, 5, seed=33)
    source, R = FactorialDistribution.iid(Laplace(0.0, 1.0), 2), rotation_matrix_2d(math.radians(30.0))
    if name == "spurious mpa":
        return spurious_mpa(f, RotatedGaussianMPA(source, R))
    return spurious_darmois(f, R, darmois_build(RotatedFactorial(source.components, R), 512))


#: the element-wise transforms of the README reparam configs, by dimension
REPARAM_TRANSFORMS = {
    2: (CubeTransform(), AffineTransform(0.5, 0.25)),
    3: (CubeTransform(), AffineTransform(0.5, 0.25), CubeTransform()),
}


def scoring_case(name, n, seed, knots):
    """(map, n points) of a scoring shape, the points drawn as its run
    draws them; on the grid shapes the rows ``knots`` (mod n) have their
    first latent on the knot 0.5."""
    mapping, rng = scoring_map(name), np.random.default_rng(seed)
    if name == "spurious mpa":
        return mapping, rng.laplace(size=(n, 2))
    if name == "spurious darmois":
        return mapping, rng.uniform(0.0, 1.0, (n, 2))
    S = rng.uniform(0.01, 0.99, (n, mapping.d))
    S[np.asarray(knots, dtype=int) % n, 0] = 0.5
    if name == "grid":
        return mapping, S
    # P h(s), with P the chain's permutation: its first stage is P^T
    transforms = mapping.stages[1].transforms
    P = mapping.stages[0].J.T
    return mapping, np.column_stack([t.forward(S[:, i]) for i, t in enumerate(transforms)]) @ P.T


#: the README spurious config
SPURIOUS_PARAMS = {"m": 5, "rotation_deg": 30, "darmois_resolution": 512, "n_mc": 2000}


def reference_jacobian_rows(stage, S):
    """(J, code) point by point: the stage's reference Jacobian at each
    row, and the code of the REJECTABLE error where it raises one."""
    J = np.full((len(S), stage.m, stage.d), np.nan)
    code = np.zeros(len(S), dtype=np.int8)
    for i, s in enumerate(S):
        try:
            J[i] = reference_jacobian(stage, s)
        except REJECTABLE as exc:
            code[i] = REJECTABLE.index(type(exc)) + 1
    return J, code


def reference_evaluate_rows(stage, S):
    return np.array([reference_evaluate(stage, s) for s in S]).reshape(len(S), stage.m)


def reference_forward_rows(stage, S):
    """Per-point ``forward_batch``: :func:`reference_evaluate_rows` at the
    rows that :func:`reference_jacobian_rows` keeps, with its Jacobian and
    codes."""
    J, code = reference_jacobian_rows(stage, S)
    return reference_evaluate_rows(stage, S[code == 0]), J, code


def trial_by_trial_success(d, delta, m, mi, trials, seed):
    """Reference for the chunked sweep: one sampled matrix per trial."""
    sampler = SphericalSampler.standard_gaussian(m)
    hits = sum(
        local_contrast_unclamped(sample_isotropic_matrix(m, d, sampler, substream(seed, mi, i))) <= delta
        for i in range(trials)
    )
    return hits / trials


class TestConcentrationSweep:
    # m = 512, d = 3 gives 130 trials per chunk; m = 2048 gives 33
    CHUNKED = dict(d=3, delta=0.1, m_list=[512, 2048], seed=13)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries_leave_rows_unchanged(self, offset):
        trials = per_chunk((experiments._sweep_trial_bytes(512, 3), 0.0)) + offset
        rows = concentration_sweep(**self.CHUNKED, trials=trials)
        for mi, row in enumerate(rows):
            assert row.empirical_success == trial_by_trial_success(3, 0.1, row.m, mi, trials, 13)

    def test_chunked_rows_do_not_depend_on_threads(self):
        # chunks of 130 + 1 trials at m = 512 and 33 + 33 + 33 + 32 at m = 2048,
        # six tasks in one pool pass, which 8 threads outnumber
        trials = per_chunk((experiments._sweep_trial_bytes(512, 3), 0.0)) + 1
        assert [len(experiments._chunks(trials, (experiments._sweep_trial_bytes(m, 3), 0.0)))
                for m in self.CHUNKED["m_list"]] == [2, 4]
        one = concentration_sweep(**self.CHUNKED, trials=trials, threads=1)
        for threads in (2, 3, 8):
            assert concentration_sweep(**self.CHUNKED, trials=trials, threads=threads) == one

    @settings(deadline=None, max_examples=25)
    @given(
        d=st.integers(1, 4),
        m_list=st.lists(st.integers(4, 64), min_size=1, max_size=3, unique=True),
        delta=st.floats(0.01, 1.0),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_a_chunk_of_one_trial_gives_the_same_rows(self, d, m_list, delta, trials, seed):
        # a trial's draw, Gram route and SVD re-score do not depend on the
        # other trials of its chunk
        kwargs = dict(d=d, delta=delta, m_list=m_list, trials=trials, seed=seed)
        rows = concentration_sweep(**kwargs)
        with mock.patch.object(experiments, "CHUNK_BYTES", 1):
            assert per_chunk((1.0, 0.0)) == 1  # every chunk is one trial
            assert concentration_sweep(**kwargs) == rows

    @pytest.mark.parametrize("m", [8, 2048])
    def test_a_chunk_peaks_within_the_bytes_its_rule_assumes(self, m):
        # one chunk of the README sweep's shape: draws, Grams and scores
        sampler = SphericalSampler.standard_gaussian(m)

        def chunk(trials):
            seeds = SeedBlock(substreams(substream(20250809, 0), np.arange(trials)))
            return lambda: experiments._sweep_chunk(m, 3, 0.1, sampler, seeds)

        assert_chunk_peaks_within_its_rule(chunk, [(experiments._sweep_trial_bytes(m, 3), 0.0)])

    def test_d1_always_succeeds(self):
        rows = concentration_sweep(d=1, delta=0.05, m_list=[4, 16], trials=200, seed=10)
        assert all(r.empirical_success == 1.0 for r in rows)

    def test_rows_sorted_and_bound_column(self):
        from ima_lab.contrast import theoretical_success_bound

        rows = concentration_sweep(d=2, delta=0.2, m_list=[32, 8], trials=100, kappa=2.0, seed=11)
        assert [r.m for r in rows] == [8, 32]
        for r in rows:
            assert r.theoretical_bound_at_kappa == theoretical_success_bound(r.m, 2, 0.2, 2.0)
            assert r.kappa_used == 2.0

    def test_thread_count_invariance(self):
        kwargs = dict(d=2, delta=0.2, m_list=[8, 32], trials=100, seed=12)
        assert concentration_sweep(**kwargs, threads=1) == concentration_sweep(**kwargs, threads=4)

    @pytest.mark.parametrize("m", [8, 200])
    def test_delta_at_a_draws_svd_contrast_counts_as_the_svd_does(self, m):
        # the Gram route leaves a draw this close to delta to the SVD
        d, trials, seed = 3, 12, 21
        sampler = SphericalSampler.standard_gaussian(m)
        for i in range(trials):
            value = local_contrast_unclamped(sample_isotropic_matrix(m, d, sampler, substream(seed, 0, i)))
            for delta in (np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)):
                row, = concentration_sweep(d, delta, [m], trials, seed=seed)
                assert row.empirical_success == trial_by_trial_success(d, delta, m, 0, trials, seed)

    def test_draws_the_gram_route_cannot_resolve_count_as_the_svd_does(self):
        # the last column is the first plus t times noise: at t near 1e-4 the
        # Gram eigenvalue ratio is near GRAM_RATIO_TOL, so some rows come back NaN
        class NearDependent(SphericalSampler):
            def draw(self, d, seeds):
                g = np.empty((len(seeds), self.ambient_dim, d))
                for j, s in enumerate(seeds):
                    gen = generator(s)
                    gen.standard_normal(out=g[j])
                    g[j, :, -1] = g[j, :, 0] + gen.choice([3e-5, 1e-4, 3e-4, 1.0]) * g[j, :, -1]
                return g, None

        m, d, trials, seed = 8, 3, 40, 22
        J = sample_isotropic_matrix(m, d, NearDependent(m), [substream(seed, 0, i) for i in range(trials)])
        svd_values = local_contrast_batch(J)
        assert np.isnan(local_contrast_from_gram(np.matrix_transpose(J) @ J)).sum() >= 5
        for delta in np.unique(svd_values):
            row, = concentration_sweep(d, delta, [m], trials, sampler_factory=NearDependent, seed=seed)
            assert row.empirical_success == np.count_nonzero(svd_values <= delta) / trials

    #: (m, delta) of the exact-law check, with P(c <= delta) from 0.43 to 0.79
    EXACT_LAW_CASES = [(3, 0.1), (4, 0.3), (8, 0.05), (16, 0.02), (64, 0.005)]

    @pytest.mark.parametrize("radial", ["chi", "unit"])
    @pytest.mark.parametrize("case", range(len(EXACT_LAW_CASES)))
    def test_success_follows_the_exact_law_at_two_columns(self, radial, case):
        """At d = 2 the contrast of spherically symmetric columns is
        -1/2 log B with B ~ Beta((m - 1)/2, 1/2), whatever the radius law,
        so P(c <= delta) = I_{1 - exp(-2 delta)}(1/2, (m - 1)/2).  The bound
        was fixed before running: |z| <= 4, Bonferroni-corrected over the
        cases so the family errs as rarely as one |z| <= 4 check."""
        m, delta = self.EXACT_LAW_CASES[case]
        n_cases, trials = 2 * len(self.EXACT_LAW_CASES), 4000
        factory = SphericalSampler.standard_gaussian if radial == "chi" else SphericalSampler.unit
        seed = 7100 + 2 * case + (radial == "unit")
        row, = concentration_sweep(2, delta, [m], trials, sampler_factory=factory, seed=seed)
        p = special.betaincc((m - 1) / 2, 0.5, math.exp(-2.0 * delta))
        z = (row.empirical_success - p) / math.sqrt(p * (1.0 - p) / trials)
        assert abs(z) <= -special.ndtri(special.ndtr(-4.0) / n_cases)

    @pytest.mark.parametrize("d", [0, -1])
    def test_no_columns_is_a_domain_error(self, d):
        with pytest.raises(DomainError):
            concentration_sweep(d=d, delta=0.2, m_list=[8], trials=10)

    def test_no_ambient_dimension_is_a_domain_error(self):
        with pytest.raises(DomainError, match="m_list"):
            concentration_sweep(d=2, delta=0.2, m_list=[], trials=10)

    # an m below 2 (the bound's) or below d (the contrast's), and a kappa
    # at or below 0, as well as the checks above
    @pytest.mark.parametrize("bad", [{"trials": 0}, {"delta": 0.0}, {"m_list": []}, {"d": 0},
                                     {"m_list": [1]}, {"m_list": [16, 1]}, {"d": 1, "m_list": [1]},
                                     {"d": 3, "m_list": [2, 16]}, {"kappa": 0.0}, {"kappa": -1.0}])
    def test_empty_sweeps_are_a_domain_error_before_any_draw(self, bad, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a matrix")

        monkeypatch.setattr(experiments, "sample_isotropic_matrix", no_draws)
        kwargs = dict(d=2, delta=0.2, m_list=[8], trials=10, seed=15, threads=2)
        with pytest.raises(DomainError):
            concentration_sweep(**{**kwargs, **bad})


#: the workload's shape at its n_mc; d 3 at eps 0.05 and 0.1 at the
#: workload's n_mc, the tightest shapes; d 1 to 3 at eps 0.01 to 0.1 at a
#: smaller n_mc; and an m so large next to n_mc that drawing the maps peaks
GENERICITY_GUARD_SHAPES = (
    [(2, 0.01, 16, 2000), (2, 0.01, 1024, 2000), (3, 0.05, 16, 2000), (3, 0.1, 16, 2000)]
    + [(d, eps, m, 1000) for d in (1, 2, 3) for eps in (0.01, 0.05, 0.1) for m in (16, 1024)]
    + [(1, 0.01, 4096, 100), (2, 0.01, 4096, 100)]
)


class TestGenericity:
    def test_boundary_fraction_matches_analytic(self):
        rows = genericity_experiment(
            d=2, m_list=[32], delta_grid=0.5, eps=0.01, delta_contrast=0.1,
            trials=20, n_mc=2000, seed=13,
        )
        expected = expected_boundary_fraction(2, 0.5, 0.01)
        tol = 3.0 * np.sqrt(expected * (1 - expected) / (2000 * 20))
        assert abs(rows[0].boundary_fraction_mean - expected) <= tol

    @pytest.mark.parametrize("delta, eps", [(0.5, 0.3), (1.5, 0.1), (0.0, 0.0), (0.5, -0.01)])
    def test_boundary_fraction_refuses_a_grid_that_check_grid_refuses(self, delta, eps):
        with pytest.raises(DomainError):
            expected_boundary_fraction(2, delta, eps)

    def test_thread_count_invariance(self):
        kwargs = dict(d=2, m_list=[16], delta_grid=0.5, eps=0.01,
                      delta_contrast=0.1, trials=10, n_mc=500, seed=14)
        assert genericity_experiment(**kwargs, threads=1) == genericity_experiment(**kwargs, threads=3)

    def test_requires_smoothing(self):
        with pytest.raises(DomainError):
            genericity_experiment(d=2, m_list=[16], delta_grid=0.5, eps=0.0,
                                  delta_contrast=0.1, trials=5, n_mc=100, seed=15)

    # the grid checks: delta_grid outside (0, 1], eps at or past delta_grid/4;
    # an m below 1, refused before a chunk is sized from it, and below d
    @pytest.mark.parametrize("bad", [{"trials": 0}, {"trials": -1}, {"n_mc": 0}, {"m_list": []},
                                     {"delta_grid": 0.0}, {"delta_grid": 1.5},
                                     {"eps": 0.125}, {"eps": 0.3},
                                     {"m_list": [0]}, {"m_list": [-100], "n_mc": 300},
                                     {"m_list": [1]}, {"d": 0}, {"d": -1}])
    def test_empty_experiments_are_a_domain_error_before_any_map(self, bad, monkeypatch):
        def no_maps(*args, **kwargs):
            raise AssertionError("built a map")

        # the stacked sampler, by the name genericity calls and by the one
        # sample_grid_map calls
        monkeypatch.setattr(experiments, "sample_grid_maps", no_maps)
        monkeypatch.setattr(mixing, "sample_grid_maps", no_maps)
        kwargs = dict(d=2, m_list=[16], delta_grid=0.5, eps=0.01, delta_contrast=0.1,
                      trials=5, n_mc=100, seed=15, threads=2)
        with pytest.raises(DomainError):
            genericity_experiment(**{**kwargs, **bad})

    def test_boundary_statistics_zero_for_interior_sources(self):
        g = sample_grid_map(d=2, m=20, delta=0.5, eps=0.01, seed=16)
        draws = sample_factorial(FactorialDistribution.iid(Uniform(0.1, 0.4), 2), 500, seed=17)
        values = experiments._score_at_points(g, draws, g.fast_contrasts(draws))
        frac, mean_c = boundary_statistics(g.boundary_mask(draws), values)
        assert frac == 0.0 and mean_c == 0.0

    def test_smaller_eps_leaves_success_within_noise(self):
        # boundary mass scales with eps, so shrinking eps at fixed m moves
        # the success fraction by less than the binomial noise
        common = dict(d=2, m_list=[16], delta_grid=0.5, delta_contrast=0.1,
                      trials=100, n_mc=1000, seed=40)
        wide = genericity_experiment(eps=0.01, **common)[0]
        narrow = genericity_experiment(eps=0.0025, **common)[0]
        width = np.hypot(binomial_stderr(wide.empirical_success, 100),
                         binomial_stderr(narrow.empirical_success, 100))
        assert abs(wide.empirical_success - narrow.empirical_success) <= 2.0 * width

    def test_small_m_surfaces_construction_warning(self):
        rows = genericity_experiment(d=2, m_list=[4], delta_grid=0.5, eps=0.01,
                                     delta_contrast=0.5, trials=3, n_mc=100, seed=41)
        assert rows[0].construction_warning

    def test_pool_threads_leave_the_warnings_state_alone(self, recwarn):
        # the warnings state is process-global: swapping it from two pool
        # threads at once used to leave it changed, and let warnings escape
        for seed in range(10):
            filters, showwarning = list(warnings.filters), warnings.showwarning
            rows = genericity_experiment(d=2, m_list=[4], delta_grid=0.5, eps=0.01,
                                         delta_contrast=0.5, trials=40, n_mc=50,
                                         seed=seed, threads=2)
            assert rows[0].construction_warning
            assert warnings.filters == filters
            assert warnings.showwarning is showwarning
        assert not [w for w in recwarn if "injectivity" in str(w.message)]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "config",
        [
            dict(d=2, m_list=[4, 16, 64], delta_grid=0.5, eps=0.01),
            dict(d=3, m_list=[8, 40], delta_grid=0.3, eps=0.05),
        ],
    )
    def test_one_pass_equals_the_two_pass_reference(self, config, threads):
        kwargs = dict(config, delta_contrast=0.1, trials=12, n_mc=400, seed=42)
        assert genericity_experiment(**kwargs, threads=threads) == two_pass_genericity(**kwargs)

    @pytest.mark.parametrize("threads", [1, 2, 3, 12])
    def test_uneven_chunks_equal_the_two_pass_reference(self, threads, monkeypatch):
        # a budget of the scoring phase's fixed bytes and 5.5 trials at
        # m = 16 holds 5, 5 and 3 trials at m = 4, 16 and 64, whose blocks
        # cost more: the 13 trials split 5+5+3, 5+5+3 and 3+3+3+3+1, eleven
        # tasks in one pool pass, which 12 threads outnumber
        window = expected_boundary_fraction(2, 0.5, 0.01)
        trial_bytes, fixed = experiments._genericity_trial_bytes(200, 16, 2, 3, window)[-1]
        monkeypatch.setattr(experiments, "CHUNK_BYTES", int(fixed + 5.5 * trial_bytes))
        phases = [experiments._genericity_trial_bytes(200, m, 2, 3, window) for m in (4, 16, 64)]
        assert [per_chunk(*p) for p in phases] == [5, 5, 3]
        chunks, chunk_statistics = [], experiments._chunk_statistics

        def recorded(d, m, delta, eps, n_mc, seeds):
            chunks.append((m, len(seeds)))
            return chunk_statistics(d, m, delta, eps, n_mc, seeds)

        monkeypatch.setattr(experiments, "_chunk_statistics", recorded)
        kwargs = dict(d=2, m_list=[4, 16, 64], delta_grid=0.5, eps=0.01, delta_contrast=0.1,
                      trials=13, n_mc=200, seed=43)
        assert genericity_experiment(**kwargs, threads=threads) == two_pass_genericity(**kwargs)
        assert sorted(chunks) == [(4, 3), (4, 5), (4, 5), (16, 3), (16, 5), (16, 5),
                                  (64, 1), (64, 3), (64, 3), (64, 3), (64, 3)]

    def test_trials_left_to_the_svd_are_scored_on_their_points_drawn_again(self, monkeypatch):
        # the chunk's points are spent by the routing; trials 0 and 2 get rows
        # left to the SVD, which scores them on points drawn again from their
        # seeds: the chunk equals the per-trial loop on the draws held
        d, m, delta, eps, n_mc = 2, 16, 0.5, 0.01, 300
        seeds = substreams(substreams(substream(44, 0), np.arange(4))[:, None], np.arange(2))

        def spoiled(grids, S):
            values, boundary = mixing.grid_chunk_scores(grids, S)
            values[0, :7] = values[2, ::50] = np.nan
            return values, boundary

        p_s = FactorialDistribution.iid(Uniform(0.0, 1.0), d)
        maps = mixing.sample_grid_maps(d, m, delta, seeds[:, 0], eps=eps)
        draws = p_s.sample(n_mc, seeds[:, 1])
        values, boundary = spoiled(maps, draws.copy())
        reference = per_trial_statistics(maps, draws, values, boundary)
        sampled, sample = [], FactorialDistribution.sample

        def recorded(self, n, seed):
            sampled.append(np.array(seed).tolist())
            return sample(self, n, seed)

        monkeypatch.setattr(experiments, "grid_chunk_scores", spoiled)
        monkeypatch.setattr(FactorialDistribution, "sample", recorded)
        got = experiments._chunk_statistics(d, m, delta, eps, n_mc, seeds)
        assert sampled == [seeds[:, 1].tolist(), int(seeds[0, 1]), int(seeds[2, 1])]
        for column, expected in zip(got, reference):
            assert np.array_equal(bits(column), bits(expected))

    @settings(deadline=None, max_examples=25)
    @given(
        d=st.integers(1, 3),
        m_list=st.lists(st.integers(3, 40), min_size=1, max_size=3, unique=True),
        delta_grid=st.sampled_from([1.0, 0.5, 0.3]),
        trials=st.integers(1, 12),
        n_mc=st.integers(1, 150),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_a_chunk_of_one_trial_gives_the_same_rows(self, d, m_list, delta_grid, trials, n_mc, seed):
        # the stacked draws, the one gather and the one eigen-solve of a
        # chunk give each trial its own bits, whatever else shares the chunk
        kwargs = dict(d=d, m_list=[max(m, d) for m in m_list], delta_grid=delta_grid, eps=0.01,
                      delta_contrast=0.1, trials=trials, n_mc=n_mc, seed=seed)
        rows = genericity_experiment(**kwargs)
        with mock.patch.object(experiments, "CHUNK_BYTES", 1):
            assert per_chunk((1.0, 0.0)) == 1  # every chunk is one trial
            assert genericity_experiment(**kwargs) == rows

    @pytest.mark.parametrize("d, eps, m, n_mc", GENERICITY_GUARD_SHAPES)
    def test_a_chunk_peaks_within_the_bytes_its_rule_assumes(self, d, eps, m, n_mc):
        # one chunk: maps, points, scores and reduction
        assert_genericity_chunk_within_its_rule(d, eps, m, n_mc)

    @pytest.mark.parametrize("d, eps, m, n_mc", GENERICITY_GUARD_SHAPES)
    def test_a_chunk_of_one_trial_peaks_within_the_bytes_its_rule_assumes(self, d, eps, m, n_mc):
        # the chunk's fixed bytes are charged once, so a chunk of one trial
        # holds them too
        assert_genericity_chunk_within_its_rule(d, eps, m, n_mc, trials=1)

    def test_workload_chunks_hold_their_trial_floors(self):
        # the rule charges a chunk the peak of one phase, not the sum of
        # two, and its fixed bytes only in the phases that hold them
        window = expected_boundary_fraction(2, 0.5, 0.01)
        sizes = [per_chunk(*experiments._genericity_trial_bytes(2000, m, 2, 3, window)) for m in (16, 64, 256, 1024)]
        assert all(size >= floor for size, floor in zip(sizes, [28, 27, 22, 13]))


def assert_genericity_chunk_within_its_rule(d, eps, m, n_mc, trials=None):
    """:func:`assert_chunk_peaks_within_its_rule` on one genericity chunk of
    the given shape, on a 0.5 grid."""
    delta = 0.5
    phases = experiments._genericity_trial_bytes(
        n_mc, m, d, mixing.check_grid(delta, eps), expected_boundary_fraction(d, delta, eps))

    def chunk(trials):
        seeds = substreams(substreams(substream(20250809, 0), np.arange(trials))[:, None], np.arange(2))
        return lambda: experiments._chunk_statistics(d, m, delta, eps, n_mc, seeds)

    assert_chunk_peaks_within_its_rule(chunk, phases, trials)


def two_pass_genericity(d, m_list, delta_grid, eps, delta_contrast, trials, n_mc, seed):
    """Reference for the one-pass genericity trial: the contrast estimate
    and the boundary statistics each draw the same points and score their
    own Grams, with the boundary mask taken from the nearest knot."""
    p_s = FactorialDistribution.iid(Uniform(0.0, 1.0), d)
    rows = []
    for mi, m in enumerate(sorted(m_list)):
        successes, fracs, bmeans, warned = [], [], [], False
        for i in range(trials):
            trial_seed = substream(seed, mi, i)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                grid = sample_grid_map(d, m, delta_grid, eps=eps, seed=substream(trial_seed, 0))
            warned |= any("injectivity" in str(w.message) for w in caught)
            est = estimate_global_contrast(grid, p_s, n_mc, substream(trial_seed, 1))
            successes.append(est.mean <= delta_contrast)
            draws = sample_factorial(p_s, n_mc, substream(trial_seed, 1))
            nearest = np.abs(draws[:, :, None] - grid.knots).min(axis=2)
            mask = np.any(nearest <= eps, axis=1)
            frac, bmean = 0.0, 0.0
            if mask.any():
                values = local_contrast_from_gram(grid.gram_batch(draws[mask]))
                values = np.maximum(values[~np.isnan(values)], 0.0)
                frac, bmean = float(mask.mean()), float(values.mean()) if values.size else 0.0
            fracs.append(frac)
            bmeans.append(bmean)
        rows.append(
            experiments.GenericityRow(
                m=m, d=d, delta_grid=delta_grid, eps=eps, trials=trials, n_mc=n_mc,
                delta_contrast=delta_contrast,
                empirical_success=sum(successes) / trials,
                boundary_fraction_mean=sum(fracs) / trials,
                boundary_contrast_mean=sum(bmeans) / trials,
                construction_warning=warned,
            )
        )
    return rows


class RejectingMap(MixingMap):
    """A map on the unit square that refuses its Jacobian everywhere, so
    the rows of a chunk left to the SVD stay rejected."""

    d = 2
    m = 3
    domain = mixing.UNIT_CUBE

    def jacobian_batch(self, S):
        rejected = np.ones(len(S), dtype=bool)
        return np.full((len(S), 3, 2), np.nan), reject_codes(rejected, OnKnotError)


def reference_boundary_statistics(mask, values):
    """The per-trial boundary statistics that the batched reducer replaced."""
    if not mask.any():
        return 0.0, 0.0
    values = values[mask]
    values = clamp_contrast(values[~np.isnan(values)])
    return float(mask.mean()), float(values.mean()) if values.size else 0.0


def reference_mean(values):
    """The per-trial estimate's mean and refusals that the chunk's passes
    replaced."""
    rejected = np.isnan(values)
    rejections = int(np.sum(rejected))
    clamped = clamp_contrast(values[~rejected])
    if rejections > experiments.MAX_REJECTION_FRACTION * rejected.size:
        raise DegenerateMapError(
            f"{rejections}/{rejected.size} draws rejected (> {experiments.MAX_REJECTION_FRACTION:.1%})"
        )
    return float(clamped.mean()) if clamped.size else 0.0


def per_trial_statistics(maps, draws, values, boundary):
    """Reference for ``_trial_statistics``: the genericity chunk's old loop,
    each trial re-scored, reduced and refused on its own, in order."""
    out = []
    for grid, S, v, mask in zip(maps, draws, values, boundary):
        v = experiments._score_at_points(grid, S, v)
        frac, bmean = reference_boundary_statistics(mask, v)
        out.append((reference_mean(v), frac, bmean))
    return [list(column) for column in zip(*out)]


#: the trial kinds a hypothesis chunk mixes: rows left to the SVD and scored
#: there; no boundary draw; values within CLAMP_SLACK below 0, some on the
#: boundary; boundary draws that are all rejected; plain values
TRIAL_KINDS = ["svd", "no_boundary", "near_zero", "boundary_rejected"]


def chunk_of(kinds, n, seed, bad=None):
    """Maps, draws, Gram-route values and boundary masks of a chunk with one
    trial of each kind.  ``bad`` = (trial, kind) makes that trial fail: one
    value below -CLAMP_SLACK on a boundary draw (``"boundary"``) or off
    them (``"interior"``), or one rejection past the limit (``"rejections"``)."""
    rng = np.random.default_rng(seed)
    T = len(kinds)
    draws = rng.uniform(0.0, 1.0, (T, n, 2))
    values = rng.uniform(0.0, 2.0, (T, n))
    boundary = rng.uniform(size=(T, n)) < 0.05
    grid = SmoothGridMap(rng.standard_normal((3, 5, 2)), 0.5, 0.01)
    maps = [grid] * T
    limit = int(experiments.MAX_REJECTION_FRACTION * n)
    for j, kind in enumerate(kinds):
        rows = rng.choice(n, size=max(limit, 1) + 4, replace=False)
        if kind == "svd":
            values[j, rows] = np.nan
        elif kind == "no_boundary":
            boundary[j] = False
        elif kind == "near_zero":
            values[j, rows] = -rng.uniform(0.0, CLAMP_SLACK, len(rows))
            boundary[j, rows[:3]] = True
        elif kind == "boundary_rejected":
            boundary[j] = False
            boundary[j, rows[:limit]] = True
            values[j, rows[:limit]] = np.nan
            maps[j] = RejectingMap()
    if bad is not None:
        j, how = bad
        free = np.flatnonzero(~np.isnan(values[j]) & ~boundary[j])
        if how == "rejections":
            values[j, free[:limit + 1]] = np.nan
            maps[j] = RejectingMap()
        else:
            row = np.flatnonzero(boundary[j])[0] if how == "boundary" else free[0]
            boundary[j, row] = how == "boundary"
            values[j, row] = -1e-6
            values[j, free[-1]] = -1e-3  # lower, but off the boundary
    return maps, draws, values, boundary


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestChunkStatistics:
    @settings(deadline=None, max_examples=40)
    @given(
        kinds=st.lists(st.sampled_from(TRIAL_KINDS + ["plain"]), max_size=4).flatmap(
            lambda extra: st.permutations(TRIAL_KINDS + extra)),
        n=st.integers(1000, 2600),
        seed=st.integers(0, 2**32 - 1),
        delta_contrast=st.floats(0.0, 2.0),
    )
    def test_the_chunk_passes_equal_the_per_trial_loop_bit_for_bit(self, kinds, n, seed, delta_contrast):
        maps, draws, values, boundary = chunk_of(kinds, n, seed)
        means, fractions, boundary_means = experiments._trial_statistics(maps, draws.__getitem__, values.copy(), boundary)
        ref_means, ref_fractions, ref_boundary_means = per_trial_statistics(maps, draws, values.copy(), boundary)
        assert np.array_equal(bits(means), bits(ref_means))
        assert np.array_equal(bits(fractions), bits(ref_fractions))
        assert np.array_equal(bits(boundary_means), bits(ref_boundary_means))
        assert np.array_equal(means <= delta_contrast, np.array(ref_means) <= delta_contrast)
        # the kinds above are all there: a rejected trial, one without boundary draws
        assert 0.0 in ref_fractions and np.isnan(values).any()
        # the 1-d call is the batch of one
        scored = values.copy()
        experiments._trial_statistics(maps, draws.__getitem__, scored, boundary)
        for mask, v in zip(boundary, scored):
            assert np.array_equal(bits(boundary_statistics(mask, v)), bits(reference_boundary_statistics(mask, v)))

    @pytest.mark.parametrize("failures", [
        [(0, "rejections")], [(2, "rejections")], [(1, "boundary")], [(3, "interior")],
        [(1, "rejections"), (2, "boundary")], [(1, "interior"), (2, "rejections")],
        [(2, "boundary"), (3, "interior")],
    ])
    def test_a_failing_trial_raises_what_the_per_trial_loop_raised(self, failures):
        kinds = ["plain", "svd", "near_zero", "no_boundary"]
        maps, draws, values, boundary = chunk_of(kinds, 1500, 7)
        for j, how in failures:
            maps_j, _, values_j, boundary_j = chunk_of(kinds, 1500, 7, bad=(j, how))
            maps[j], values[j], boundary[j] = maps_j[j], values_j[j], boundary_j[j]
        with pytest.raises((DegenerateMapError, FloatingPointError)) as expected:
            per_trial_statistics(maps, draws, values.copy(), boundary)
        first = failures[0][1]
        assert expected.type is (DegenerateMapError if first == "rejections" else FloatingPointError)
        with pytest.raises(expected.type) as got:
            experiments._trial_statistics(maps, draws.__getitem__, values.copy(), boundary)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("spoil, error", [("below_slack", "FloatingPointError"),
                                              ("rejected", "DegenerateMapError")])
    def test_a_cli_run_that_hits_either_exits_3(self, spoil, error, tmp_path, monkeypatch, capsys):
        def spoiled_scores(grids, S):
            values, boundary = mixing.grid_chunk_scores(grids, S)
            if spoil == "below_slack":
                values[-1, 5] = -1e-6
            else:  # rows left to the SVD, which then rejects them
                values[-1, :5] = np.nan
            return values, boundary

        monkeypatch.setattr(experiments, "grid_chunk_scores", spoiled_scores)
        if spoil == "rejected":
            monkeypatch.setattr(experiments, "local_contrast_batch", lambda J: np.full(len(J), np.nan))
        config = {"command": "genericity",
                  "params": {"d": 2, "m_list": [16], "delta_grid": 0.5, "eps": 0.01,
                             "delta_contrast": 0.1, "trials": 5, "n_mc": 1000}}
        path = tmp_path / "genericity.json"
        path.write_text(json.dumps(config))
        code = main(["genericity", "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["type"] == error


def constant_grid_map(m, d, log_ratio, seed):
    """A grid map whose blocks are all one m x d matrix with singular values
    falling geometrically from 1 to 10**log_ratio; its Jacobian is that
    matrix away from s = 0, with columns rescaled inside the first window."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, d)))[0]
    V = np.linalg.qr(rng.standard_normal((d, d)))[0]
    J = (U * np.geomspace(1.0, 10.0**log_ratio, d)) @ V.T
    return SmoothGridMap(np.stack([J] * 3), delta=0.5, eps=0.05)


class TestGramConditioningGuard:
    @pytest.mark.parametrize("log_ratio", np.linspace(-2.0, -11.0, 19))
    @pytest.mark.parametrize("d", [2, 3])
    def test_gram_route_follows_the_svd_route(self, d, log_ratio):
        grid = constant_grid_map(20, d, log_ratio, seed=int(-10 * log_ratio) + d)
        draws = np.random.default_rng(d).random((300, d))
        draws[:5, 0] = [0.0, 0.01, 0.05, 0.5, 1.0]  # window edges, knots and cube faces
        values = experiments._score_at_points(grid, draws, grid.fast_contrasts(draws))
        svd = local_contrast_batch(np.stack([grid.jacobian(s) for s in draws]))
        assert np.array_equal(np.isnan(values), np.isnan(svd))
        assert np.allclose(values, svd, rtol=1e-7, atol=1e-7, equal_nan=True)

    def test_rows_past_the_tolerance_are_scored_by_svd(self):
        # a singular-value ratio a decade below the square root of the tolerance
        grid = constant_grid_map(20, 2, 0.5 * np.log10(GRAM_RATIO_TOL) - 1.0, seed=3)
        draws = np.random.default_rng(3).random((50, 2)) * 0.8 + 0.1
        assert np.all(np.isnan(local_contrast_from_gram(grid.gram_batch(draws))))
        svd = local_contrast_batch(np.stack([grid.jacobian(s) for s in draws]))
        assert not np.any(np.isnan(svd))
        assert np.array_equal(experiments._score_at_points(grid, draws, grid.fast_contrasts(draws)), svd)


class TestTrendHelper:
    def test_flat_and_rising_trends_hold(self):
        assert trend_nondecreasing([0.5, 0.5, 0.5], 100)
        assert trend_nondecreasing([0.2, 0.5, 0.9], 100)

    def test_big_drop_fails(self):
        assert not trend_nondecreasing([0.9, 0.5], 1000)

    def test_small_dip_within_noise_passes(self):
        assert trend_nondecreasing([0.50, 0.49], 100)

    def test_binomial_stderr_floor(self):
        assert binomial_stderr(0.0, 100) > 0.0


class TestSpuriousGap:
    def test_trivial_rotation_refused(self):
        with pytest.raises(TrivialRotationError):
            spurious_gap_experiment(rotation=np.eye(2), n_mc=100, seed=18)
        with pytest.raises(TrivialRotationError):
            spurious_gap_experiment(rotation=np.array([[0.0, 1.0], [1.0, 0.0]]), n_mc=100, seed=18)

    def test_laplace_sources_show_gap(self):
        report = spurious_gap_experiment(m=5, n_mc=800, darmois_resolution=256, seed=19)
        assert report.truth_mpa.mean <= 1e-6
        assert report.truth_darmois.mean <= 1e-6
        assert report.spurious_mpa.exceeds_gap
        assert report.spurious_darmois.exceeds_gap
        assert report.passed

    def test_darmois_mean_converges_with_the_table_resolution(self):
        """At the README seed and draws, the spurious_darmois mean moves
        less from each resolution doubling to the next, 256 to 2048, by a
        shrink factor of at least 2, fixed before running (a first-order
        table error would halve; a scan read 3.2 to 3.5)."""
        means = [spurious_gap_experiment(m=5, n_mc=2000, darmois_resolution=r, seed=20250809)
                 .spurious_darmois.mean for r in (256, 512, 1024, 2048)]
        steps = np.abs(np.diff(means))
        assert np.all(steps[1:] * 2.0 <= steps[:-1]), steps

    def test_gaussian_control_shows_no_gap(self):
        src = FactorialDistribution.iid(Gaussian(0, 1), 2)
        report = spurious_gap_experiment(m=5, source=src, n_mc=800,
                                         darmois_resolution=256, seed=20)
        assert report.spurious_mpa.mean <= 1e-6
        assert report.spurious_darmois.mean <= 1e-6
        assert not report.passed


def _estimate(mean, stderr=0.0):
    return ContrastEstimate(mean, stderr, 100, 0, 0)


class TestFlagRules:
    """Each CSV flag holds at its threshold and flips one ulp past it."""

    @pytest.mark.parametrize("stderr", [0.0, 0.25])
    def test_exceeds_gap_is_false_at_max_of_floor_and_ten_stderr(self, stderr):
        edge = max(1e-3, 10.0 * stderr)
        assert not experiments._gap_row("b", _estimate(edge, stderr), 1e-3).exceeds_gap
        assert experiments._gap_row("b", _estimate(np.nextafter(edge, np.inf), stderr), 1e-3).exceeds_gap

    def test_is_zero_is_true_at_one_millionth(self):
        assert experiments._gap_row("b", _estimate(1e-6), 1e-3).is_zero
        assert not experiments._gap_row("b", _estimate(np.nextafter(1e-6, np.inf)), 1e-3).is_zero

    @pytest.mark.parametrize("base, edge, stderr", [
        (0.25, 1.0, 0.25),    # diff 0.75 == 3 * combined stderr 0.25
        (0.0, 3.0 * 1e-12, 0.0),  # diff at the 1e-12 floor of a zero stderr
    ])
    def test_within_3sigma_is_true_at_three_combined_stderr(self, base, edge, stderr):
        assert experiments._reparam_report(100, _estimate(edge, stderr), _estimate(base)).within_3sigma
        past = np.nextafter(edge, np.inf)
        assert not experiments._reparam_report(100, _estimate(past, stderr), _estimate(base)).within_3sigma

    def test_within_3sigma_is_true_at_zero_difference_and_stderr(self):
        report = experiments._reparam_report(100, _estimate(0.5), _estimate(0.5))
        assert (report.abs_difference, report.combined_stderr, report.within_3sigma) == (0.0, 0.0, True)


class TestReparam:
    def test_identity_reparam_exact(self):
        rng = np.random.default_rng(21)
        f = LinearMap(rng.standard_normal((6, 3)))
        p_s = FactorialDistribution.iid(Gaussian(0, 1), 3)
        transforms = [AffineTransform(1.0, 0.0)] * 3
        report = reparam_invariance_check(f, p_s, [0, 1, 2], transforms, 400, seed=22)
        assert report.abs_difference <= 1e-12

    def test_swap_and_affine_on_linear_map(self):
        rng = np.random.default_rng(23)
        f = LinearMap(rng.standard_normal((6, 2)))
        p_s = FactorialDistribution.iid(Gaussian(0, 1), 2)
        transforms = [AffineTransform(2.0, 0.5), AffineTransform(-1.5, 0.0)]
        report = reparam_invariance_check(f, p_s, [1, 0], transforms, 500, seed=24)
        assert report.within_3sigma

    def test_cube_transform_on_grid_map(self):
        g = sample_grid_map(d=3, m=40, delta=0.5, eps=0.02, seed=25)
        p_s = FactorialDistribution.iid(Uniform(0.01, 0.99), 3)
        transforms = [CubeTransform(), AffineTransform(0.5, 0.25), CubeTransform()]
        report = reparam_invariance_check(g, p_s, [2, 0, 1], transforms, 500, seed=26)
        assert report.within_3sigma

    def test_tanh_on_conformal_map(self):
        f = random_conformal_map(2, 7, seed=27)
        p_s = FactorialDistribution.iid(Gaussian(0, 1), 2)
        transforms = [TanhTransform(), TanhTransform()]
        report = reparam_invariance_check(f, p_s, [0, 1], transforms, 500, seed=28)
        assert report.within_3sigma

    def test_nonmonotone_rejected(self):
        with pytest.raises(NonMonotoneError):
            AffineTransform(0.0, 1.0)

    def test_the_probe_refuses_a_non_monotone_transform(self):
        class Square(ElementwiseTransform):
            def forward(self, x):
                return np.square(x)

        f = LinearMap(np.eye(3)[:, :2])
        p_s = FactorialDistribution.iid(Gaussian(0, 1), 2)
        with pytest.raises(NonMonotoneError, match="probe grid"):
            reparam_invariance_check(f, p_s, [0, 1], [AffineTransform(), Square()], 50, seed=1)

    def test_transform_config_roundtrip(self):
        for cfg in ({"kind": "affine", "a": 2.0, "b": 1.0}, {"kind": "cube"}, {"kind": "tanh"}):
            t = transform_from_config(cfg)
            x = 0.37
            assert t.inverse(t.forward(x)) == pytest.approx(x, abs=1e-12)


#: bound on the pointwise |c - c'| of the reparametrization check, fixed
#: before any run: the proposition predicts equality, and h^{-1}(h(s)) and
#: the chain's products round by a few eps
REPARAM_POINTWISE_TOL = 1e-12


def assert_pointwise_invariant(base, re):
    """Both sides reject the same draws and agree on the rest to the bound."""
    assert np.array_equal(np.isnan(base), np.isnan(re))
    kept = ~np.isnan(base)
    assert np.max(np.abs(base[kept] - re[kept]), initial=0.0) <= REPARAM_POINTWISE_TOL


_AFFINE = st.builds(AffineTransform, st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2)),
                    st.floats(-1.0, 1.0))


@st.composite
def reparam_cases(draw):
    """(map, source, perm, transforms): a linear or conformal map on
    Gaussian latents with affine and tanh transforms, or a smoothed grid map
    (m above p d, where it is injective) on Uniform(0.01, 0.99) latents
    with affine and cube transforms."""
    kind = draw(st.sampled_from(["linear", "conformal", "grid"]))
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(2, 3))
    if kind == "grid":
        mapping = sample_grid_map(d=d, m=draw(st.integers(2**d * d + 1, 2**d * d + 16)), delta=0.5,
                                  eps=0.02, seed=seed)
        law, warp = Uniform(0.01, 0.99), st.just(CubeTransform())
    else:
        m = draw(st.integers(d + 1, 8))
        mapping = (LinearMap(generator(seed).standard_normal((m, d))) if kind == "linear"
                   else random_conformal_map(d, m, seed, with_inversion=draw(st.booleans())))
        law, warp = Gaussian(0.0, 1.0), st.just(TanhTransform())
    transforms = draw(st.lists(st.one_of(_AFFINE, warp), min_size=d, max_size=d))
    return mapping, FactorialDistribution.iid(law, d), draw(st.permutations(range(d))), transforms


class TestReparamPointwise:
    """The proposition point by point: the contrast of f o h^{-1} o P^{-1}
    at P h(s) is the contrast of f at s, draw by draw."""

    @pytest.mark.parametrize("seed", [20250809, 77])
    def test_readme_configs_agree_point_by_point(self, seed, tmp_path, monkeypatch):
        pairs = []

        def recording(*args):
            pairs.append(reparam_scores(*args))
            return pairs[-1]

        monkeypatch.setattr(experiments, "reparam_scores", recording)
        config = {"command": "reparam", "params": REPARAM_PARAMS, "master_seed": seed}
        assert run(dict(config, output_dir=str(tmp_path))) == 0
        assert len(pairs) == len(REPARAM_PARAMS["configs"])
        for base, re in pairs:
            assert_pointwise_invariant(base, re)

    @settings(deadline=None, max_examples=60)
    @given(case=reparam_cases(), seed=st.integers(0, 2**32 - 1))
    def test_generated_configs_agree_point_by_point(self, case, seed):
        mapping, p_s, perm, transforms = case
        assert_pointwise_invariant(*reparam_scores(mapping, p_s, perm, transforms, 200, seed))

    @settings(deadline=None, max_examples=100)
    @given(t=st.one_of(_AFFINE, st.sampled_from([CubeTransform(), TanhTransform()])),
           x=st.floats(-3.0, 3.0))
    def test_dforward_matches_finite_differences(self, t, x):
        """A sign-keeping error in dforward cannot show in any contrast (it
        scales a column), so it is checked here.  Central difference at
        step 1e-6: its truncation (h^2 / 6 times the third derivative) and
        rounding (eps |f| / h) are both under the bound."""
        h = 1e-6
        fd = (t.forward(x + h) - t.forward(x - h)) / (2.0 * h)
        assert abs(fd - float(t.dforward(x))) <= 1e-6 * (1.0 + abs(float(t.dforward(x))))

    @settings(deadline=None, max_examples=40)
    @given(case=reparam_cases(), seed=st.integers(0, 2**32 - 1))
    def test_the_chain_jacobian_matches_finite_differences(self, case, seed):
        mapping, p_s, perm, transforms = case
        P = permutation_matrix(perm)
        chain = reparametrized_map(mapping, P, transforms)
        # latents inside [0.2, 0.8], off the cube's zero derivative and the
        # grid's cube edges
        s = 0.2 + 0.6 * generator(seed).random((5, mapping.d))
        for x in np.column_stack([t.forward(s[:, i]) for i, t in enumerate(transforms)]) @ P.T:
            J = chain.jacobian(x)
            assert np.max(np.abs(J - jacobian_fd(chain, x, 1e-6))) <= 1e-5 * (1.0 + np.max(np.abs(J)))


class TestRunIndexed:
    def test_order_preserved(self):
        assert run_indexed(5, lambda i: i * i, threads=1) == [0, 1, 4, 9, 16]
        assert run_indexed(5, lambda i: i * i, threads=3) == [0, 1, 4, 9, 16]
