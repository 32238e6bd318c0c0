import warnings

import numpy as np
import pytest

from ima_lab import experiments
from ima_lab.contrast import (
    GRAM_RATIO_TOL,
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
from ima_lab.cli import run
from ima_lab.errors import (
    REJECTABLE,
    DegenerateMapError,
    DomainError,
    NonMonotoneError,
    OnKnotError,
    OutOfDomainError,
    RankDeficientError,
    TrivialRotationError,
)
from ima_lab.experiments import (
    AffineTransform,
    CubeTransform,
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
    run_indexed,
    spurious_gap_experiment,
    transform_from_config,
    trend_nondecreasing,
)
from ima_lab.mixing import (
    LinearMap,
    MixingMap,
    SmoothGridMap,
    random_conformal_map,
    sample_grid_map,
)
from ima_lab.mpa import ComposedMap, DarmoisInverse, RotatedGaussianMPA, rotation_matrix_2d
from ima_lab.seeding import generator, substream
from test_jacobian_batch import reference_evaluate, reference_jacobian


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
        return J, rejected


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
        monkeypatch.setattr(experiments, "CHUNK_BYTES", 8 * 3 * 2 * 7)
        assert experiments._chunk_size(3, 2) == 7
        chunked = chunked_estimate(KinkedMap(), points)
        assert chunked == scalar_estimate(KinkedMap(), points)
        assert chunked.rejection_count == 2

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
        n = experiments._chunk_size(24, 2) + offset
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
            monkeypatch.setattr(stage, "jacobian_batch", reference_jacobian_rows)
            monkeypatch.setattr(stage, "evaluate_batch", reference_evaluate_rows)
        assert run(dict(config, output_dir=str(tmp_path / "reference"))) == 0
        batched = (tmp_path / "batched" / "spurious.csv").read_bytes()
        assert batched == (tmp_path / "reference" / "spurious.csv").read_bytes()


#: the README spurious config
SPURIOUS_PARAMS = {"m": 5, "rotation_deg": 30, "darmois_resolution": 512, "n_mc": 2000}


def reference_jacobian_rows(stage, S):
    """Per-point ``jacobian_batch``: the stage's reference Jacobian at each
    row, rejected where it raises a REJECTABLE error."""
    J = np.full((len(S), stage.d_out, stage.d_in), np.nan)
    rejected = np.zeros(len(S), dtype=bool)
    for i, s in enumerate(S):
        try:
            J[i] = reference_jacobian(stage, s)
        except REJECTABLE:
            rejected[i] = True
    return J, rejected


def reference_evaluate_rows(stage, S):
    return np.array([reference_evaluate(stage, s) for s in S]).reshape(len(S), stage.d_out)


def trial_by_trial_success(d, delta, m, mi, trials, seed):
    """Reference for the chunked sweep: one sampled matrix per trial."""
    sampler = SphericalSampler.standard_gaussian(m)
    hits = sum(
        local_contrast_unclamped(sample_isotropic_matrix(m, d, sampler, substream(seed, mi, i))) <= delta
        for i in range(trials)
    )
    return hits / trials


class TestConcentrationSweep:
    # m = 512, d = 3 gives 21 trials per chunk; m = 2048 gives 5
    CHUNKED = dict(d=3, delta=0.1, m_list=[512, 2048], seed=13)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries_leave_rows_unchanged(self, offset):
        trials = experiments._chunk_size(512, 3) + offset
        rows = concentration_sweep(**self.CHUNKED, trials=trials)
        for mi, row in enumerate(rows):
            assert row.empirical_success == trial_by_trial_success(3, 0.1, row.m, mi, trials, 13)

    def test_chunked_rows_do_not_depend_on_threads(self):
        trials = experiments._chunk_size(512, 3) + 1
        one = concentration_sweep(**self.CHUNKED, trials=trials, threads=1)
        assert one == concentration_sweep(**self.CHUNKED, trials=trials, threads=2)

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
        class NearDependent:
            def __init__(self, m):
                self.ambient_dim = m

            def sample_columns(self, d, seeds):
                out = np.empty((len(seeds), self.ambient_dim, d))
                for j, s in enumerate(seeds):
                    gen = generator(s)
                    gen.standard_normal(out=out[j])
                    out[j, :, -1] = out[j, :, 0] + gen.choice([3e-5, 1e-4, 3e-4, 1.0]) * out[j, :, -1]
                return out

        m, d, trials, seed = 8, 3, 40, 22
        J = sample_isotropic_matrix(m, d, NearDependent(m), [substream(seed, 0, i) for i in range(trials)])
        svd_values = local_contrast_batch(J)
        assert np.isnan(local_contrast_from_gram(np.matrix_transpose(J) @ J)).sum() >= 5
        for delta in np.unique(svd_values):
            row, = concentration_sweep(d, delta, [m], trials, sampler_factory=NearDependent, seed=seed)
            assert row.empirical_success == np.count_nonzero(svd_values <= delta) / trials

    @pytest.mark.parametrize("d", [0, -1])
    def test_no_columns_is_a_domain_error(self, d):
        with pytest.raises(DomainError):
            concentration_sweep(d=d, delta=0.2, m_list=[8], trials=10)

    def test_no_ambient_dimension_is_a_domain_error(self):
        with pytest.raises(DomainError, match="m_list"):
            concentration_sweep(d=2, delta=0.2, m_list=[], trials=10)


class TestGenericity:
    def test_boundary_fraction_matches_analytic(self):
        rows = genericity_experiment(
            d=2, m_list=[32], delta_grid=0.5, eps=0.01, delta_contrast=0.1,
            trials=20, n_mc=2000, seed=13,
        )
        expected = expected_boundary_fraction(2, 0.5, 0.01)
        tol = 3.0 * np.sqrt(expected * (1 - expected) / (2000 * 20))
        assert abs(rows[0].boundary_fraction_mean - expected) <= tol

    def test_thread_count_invariance(self):
        kwargs = dict(d=2, m_list=[16], delta_grid=0.5, eps=0.01,
                      delta_contrast=0.1, trials=10, n_mc=500, seed=14)
        assert genericity_experiment(**kwargs, threads=1) == genericity_experiment(**kwargs, threads=3)

    def test_requires_smoothing(self):
        with pytest.raises(DomainError):
            genericity_experiment(d=2, m_list=[16], delta_grid=0.5, eps=0.0,
                                  delta_contrast=0.1, trials=5, n_mc=100, seed=15)

    @pytest.mark.parametrize("bad", [{"trials": 0}, {"trials": -1}, {"n_mc": 0}, {"m_list": []}])
    def test_empty_experiments_are_a_domain_error_before_any_map(self, bad, monkeypatch):
        def no_maps(*args, **kwargs):
            raise AssertionError("built a map")

        monkeypatch.setattr(experiments, "sample_grid_map", no_maps)
        kwargs = dict(d=2, m_list=[16], delta_grid=0.5, eps=0.01, delta_contrast=0.1,
                      trials=5, n_mc=100, seed=15)
        with pytest.raises(DomainError):
            genericity_experiment(**{**kwargs, **bad})

    def test_boundary_statistics_zero_for_interior_sources(self):
        g = sample_grid_map(d=2, m=20, delta=0.5, eps=0.01, seed=16)
        draws = sample_factorial(FactorialDistribution.iid(Uniform(0.1, 0.4), 2), 500, seed=17)
        frac, mean_c = boundary_statistics(g.boundary_mask(draws), experiments._score_draws(g, draws))
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
        values = experiments._score_draws(grid, draws)
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
        assert np.array_equal(experiments._score_draws(grid, draws), svd)


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
        assert report.truth_mpa.estimate.mean <= 1e-6
        assert report.truth_darmois.estimate.mean <= 1e-6
        assert report.spurious_mpa.exceeds_gap
        assert report.spurious_darmois.exceeds_gap
        assert report.passed

    def test_gaussian_control_shows_no_gap(self):
        src = FactorialDistribution.iid(Gaussian(0, 1), 2)
        report = spurious_gap_experiment(m=5, source=src, n_mc=800,
                                         darmois_resolution=256, seed=20)
        assert report.spurious_mpa.estimate.mean <= 1e-6
        assert report.spurious_darmois.estimate.mean <= 1e-6
        assert not report.passed


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
        assert report.within_tolerance

    def test_cube_transform_on_grid_map(self):
        g = sample_grid_map(d=3, m=40, delta=0.5, eps=0.02, seed=25)
        p_s = FactorialDistribution.iid(Uniform(0.01, 0.99), 3)
        transforms = [CubeTransform(), AffineTransform(0.5, 0.25), CubeTransform()]
        report = reparam_invariance_check(g, p_s, [2, 0, 1], transforms, 500, seed=26)
        assert report.within_tolerance

    def test_tanh_on_conformal_map(self):
        f = random_conformal_map(2, 7, seed=27)
        p_s = FactorialDistribution.iid(Gaussian(0, 1), 2)
        transforms = [TanhTransform(), TanhTransform()]
        report = reparam_invariance_check(f, p_s, [0, 1], transforms, 500, seed=28)
        assert report.within_tolerance

    def test_nonmonotone_rejected(self):
        with pytest.raises(NonMonotoneError):
            AffineTransform(0.0, 1.0)

    def test_transform_config_roundtrip(self):
        for cfg in ({"kind": "affine", "a": 2.0, "b": 1.0}, {"kind": "cube"}, {"kind": "tanh"}):
            t = transform_from_config(cfg)
            x = 0.37
            assert t.inverse(t.forward(x)) == pytest.approx(x, abs=1e-12)


class TestRunIndexed:
    def test_order_preserved(self):
        assert run_indexed(5, lambda i: i * i, threads=1) == [0, 1, 4, 9, 16]
        assert run_indexed(5, lambda i: i * i, threads=3) == [0, 1, 4, 9, 16]
