import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ima_lab import experiments, mixing
from ima_lab.contrast import full_rank, local_contrast_from_gram, local_ima_contrast
from ima_lab.distributions import FactorialDistribution, Laplace, SphericalSampler, Uniform, sample_factorial
from ima_lab.errors import (
    REJECTABLE,
    DomainError,
    NearPoleError,
    NonFiniteError,
    OnKnotError,
    OutOfDomainError,
    RankDeficientError,
    ValidationError,
)
from ima_lab.mixing import (
    _KNOT_TOL,
    ComposedMap,
    ConformalMap,
    Inversion,
    LinearMap,
    Similarity,
    SmoothGridMap,
    TwoPieceMap,
    _blend_coeff,
    _blend_inside,
    _block_grams,
    grid_chunk_scores,
    injectivity_probe,
    jacobian_fd,
    make_two_piece,
    random_conformal_map,
    sample_grid_map,
    sample_grid_maps,
    smooth_step,
    smooth_step_deriv,
)
from ima_lab.mpa import RotatedFactorial, RotatedGaussianMPA
from ima_lab.seeding import substream
from test_jacobian_batch import assert_batch_matches_reference, bits, every_edge_weights


class TestSmoothStep:
    def test_case_boundaries(self):
        eps = 0.3
        assert smooth_step(0.0, eps) == 0.5
        assert smooth_step(-eps, eps) == 0.0
        assert smooth_step(eps, eps) == 1.0
        assert smooth_step(-5.0, eps) == 0.0
        assert smooth_step(5.0, eps) == 1.0

    def test_symmetry_identity(self):
        # step(s) + step(-s) = 1 on a 1000-point grid
        eps = 0.07
        s = np.linspace(-eps, eps, 1000)
        total = smooth_step(s, eps) + smooth_step(-s, eps)
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    def test_derivative_matches_fd(self):
        eps = 0.05
        s = np.linspace(-2 * eps, 2 * eps, 401)
        h = 1e-7
        fd = (smooth_step(s + h, eps) - smooth_step(s - h, eps)) / (2 * h)
        analytic = smooth_step_deriv(s, eps)
        interior = np.abs(np.abs(s) - eps) > 2 * h  # FD straddles the kink otherwise
        assert np.max(np.abs(fd[interior] - analytic[interior])) < 1e-6

    def test_derivative_support(self):
        eps = 0.1
        assert smooth_step_deriv(-0.2, eps) == 0.0
        assert smooth_step_deriv(0.2, eps) == 0.0
        assert smooth_step_deriv(0.0, eps) == pytest.approx(np.pi / (4 * eps))

    def test_requires_positive_eps(self):
        with pytest.raises(DomainError):
            smooth_step(0.0, 0.0)
        with pytest.raises(DomainError):
            smooth_step_deriv(0.0, -1.0)


class TestGridMap:
    def test_single_cell_interior_is_affine(self):
        # delta=1, d=1, m=2: away from the knots the map is J^(1) * s
        # (m = p*d here, so the constructor warns about injectivity)
        with pytest.warns(UserWarning, match="injectivity"):
            g = sample_grid_map(d=1, m=2, delta=1.0, eps=0.01, seed=3)
        for s in (0.02, 0.3, 0.7, 0.98):
            expected = g.blocks[0][:, 0] * s
            assert np.allclose(g.evaluate(np.array([s])), expected, atol=1e-12)

    def test_knot_continuity_of_raw_map(self):
        g = sample_grid_map(d=2, m=25, delta=0.25, eps=0.0, seed=8)
        for knot in (0.25, 0.5, 0.75):
            s_left = np.array([knot - 1e-10, 0.4])
            s_right = np.array([knot + 1e-10, 0.4])
            assert np.max(np.abs(g.evaluate(s_left) - g.evaluate(s_right))) < 1e-8
        # sampled maps at unit and at large column scale (chi and uniform
        # radius) build, are the map built on their blocks, and are
        # continuous at every interior knot to a tolerance of the block scale
        m, delta = 40, 0.1
        for sampler in (None, SphericalSampler(m, Uniform(1e5, 2e5))):
            for grid in sample_grid_maps(2, m, delta, [substream(8, i) for i in range(5)], sampler):
                own = SmoothGridMap(grid.blocks, delta, 0.0)
                for name in ("blocks", "_block_gram", "prefix"):
                    assert np.array_equal(bits(getattr(grid, name)), bits(getattr(own, name)))
                tol = 1e-12 * np.max(np.abs(grid.blocks))
                for knot in grid.knots[1:-1]:
                    for k in range(2):
                        left, right = np.full((2, 2), 0.37)
                        left[k], right[k] = knot, np.nextafter(knot, 2.0)
                        gap = grid.evaluate(left) - grid.evaluate(right)
                        assert np.max(np.abs(gap)) <= tol

    def test_interior_jacobian_is_block_column_selection(self):
        g = sample_grid_map(d=2, m=25, delta=0.25, eps=0.02, seed=8)
        s = np.array([0.1, 0.6])  # cells 1 and 3, both > eps from any knot
        J = g.jacobian(s)
        assert np.allclose(J[:, 0], g.blocks[0][:, 0], atol=1e-15)
        assert np.allclose(J[:, 1], g.blocks[2][:, 1], atol=1e-15)

    def test_knot_column_is_block_average(self):
        g = sample_grid_map(d=2, m=30, delta=0.5, eps=0.01, seed=11)
        s = np.array([0.5, 0.2])
        J = g.jacobian(s)
        expected = 0.5 * (g.blocks[0][:, 0] + g.blocks[1][:, 0])
        assert np.max(np.abs(J[:, 0] - expected)) <= 1e-8

    def test_raw_jacobian_refused_on_knot(self):
        g = sample_grid_map(d=2, m=25, delta=0.25, eps=0.0, seed=8)
        with pytest.raises(OnKnotError):
            g.jacobian(np.array([0.25, 0.4]))

    def test_fd_agreement(self):
        g = sample_grid_map(d=2, m=20, delta=0.5, eps=0.01, seed=21)
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = 0.01 + 0.98 * rng.random(2)
            assert np.max(np.abs(g.jacobian(s) - jacobian_fd(g, s, 1e-6))) <= 1e-4

    def test_smoothed_equals_raw_away_from_knots(self):
        g_raw = sample_grid_map(d=2, m=20, delta=0.5, eps=0.0, seed=21)
        g_smooth = sample_grid_map(d=2, m=20, delta=0.5, eps=0.01, seed=21)
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 50:
            s = rng.random(2)
            if np.min(np.abs(s[:, None] - g_smooth.knots[None, :])) > g_smooth.eps:
                assert np.max(np.abs(g_raw.evaluate(s) - g_smooth.evaluate(s))) <= 1e-12
                checked += 1

    def test_coordinate_separability(self):
        g = sample_grid_map(d=3, m=40, delta=0.5, eps=0.01, seed=33)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.random(3)
            s2 = s.copy()
            s2[1] = rng.random()
            # the difference depends only on coordinate 1
            diff = g.evaluate(s) - g.evaluate(s2)
            s3 = s.copy()
            s3[0] = rng.random()
            s4 = s3.copy()
            s4[1] = s2[1]
            diff_b = g.evaluate(s3) - g.evaluate(s4)
            assert np.max(np.abs(diff - diff_b)) <= 1e-12

    def test_boundary_region_full_rank(self):
        g = sample_grid_map(d=2, m=20, delta=0.5, eps=0.01, seed=5)
        for knot in (0.5, 1.0):
            for off in (-0.009, -0.004, 0.0, 0.004, 0.009):
                s = np.array([min(max(knot + off, 0.0), 1.0), 0.3])
                sv = np.linalg.svd(g.jacobian(s), compute_uv=False)
                assert sv[-1] > 1e-8 * sv[0]

    def test_eps_admissibility(self):
        with pytest.raises(DomainError):
            sample_grid_map(d=2, m=20, delta=0.4, eps=0.1, seed=0)

    @pytest.mark.parametrize("d", [0, -1])
    def test_no_columns_is_a_domain_error(self, d):
        with pytest.raises(DomainError):
            sample_grid_map(d=d, m=20, delta=0.5, eps=0.01, seed=0)

    def test_joint_independence_warning_when_m_small(self):
        with pytest.warns(UserWarning, match="injectivity"):
            sample_grid_map(d=2, m=4, delta=0.5, eps=0.01, seed=0)

    def test_injectivity_warning_names_the_calling_line(self):
        with pytest.warns(UserWarning, match="injectivity") as caught:
            sample_grid_map(d=2, m=4, delta=0.5, eps=0.01, seed=0)
        assert [w.filename for w in caught] == [__file__]

    def test_out_of_domain(self):
        g = sample_grid_map(d=2, m=20, delta=0.5, eps=0.01, seed=5)
        with pytest.raises(OutOfDomainError):
            g.evaluate(np.array([1.2, 0.3]))
        # past the last edge, a coordinate has no nearest edge to route by
        for call in (g.jacobian_batch, g.gram_batch, g.boundary_mask):
            with pytest.raises(OutOfDomainError):
                call(np.array([[0.3, 0.3], [5.0, 0.3]]))

    def test_determinism(self):
        a = sample_grid_map(d=2, m=16, delta=0.5, eps=0.01, seed=77)
        b = sample_grid_map(d=2, m=16, delta=0.5, eps=0.01, seed=77)
        assert np.array_equal(a.blocks, b.blocks)

    @settings(deadline=None, max_examples=60)
    @given(
        T=st.integers(1, 5),
        d=st.integers(1, 3),
        delta=st.sampled_from([1.0, 0.5, 0.3]),
        extra=st.integers(-2, 6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_stacked_sampler_equals_each_seed_bit_for_bit(self, T, d, delta, extra, seed):
        p = math.ceil(1.0 / delta) + 1
        m = max(d, p * d + extra)  # m <= p*d: no injectivity guarantee
        seeds = [substream(seed, i) for i in range(T)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grids = sample_grid_maps(d, m, delta, seeds, eps=0.01 * delta)
        assert caught == []  # the stacked sampler stays silent
        for grid, s in zip(grids, seeds):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                one = sample_grid_map(d, m, delta, eps=0.01 * delta, seed=s)
            assert ["injectivity" in str(w.message) for w in caught] == [True] * (m <= p * d)
            # the per-map draw and einsum that the stacked ones replace
            blocks = SphericalSampler.standard_gaussian(m).sample_columns(
                d, [substream(s, t) for t in range(p)])
            block_gram = np.einsum("tmi,umj->ijtu", blocks, blocks)
            # the prefix sums of the map built on its own, and the per-map cumsum
            # that the stacked one replaces
            prefix = SmoothGridMap(blocks, delta, 0.01 * delta).prefix
            per_map = np.concatenate([np.zeros((1, m, d)), delta * np.cumsum(blocks, axis=0)[:-1]])
            assert np.array_equal(prefix.view(np.int64), per_map.view(np.int64))
            for got in (grid, one):
                assert np.array_equal(got.blocks.view(np.int64), blocks.view(np.int64))
                assert np.array_equal(got._block_gram.view(np.int64), block_gram.view(np.int64))
                assert np.array_equal(got.prefix.view(np.int64), prefix.view(np.int64))

    @settings(deadline=None, max_examples=80)
    @given(
        T=st.integers(1, 6),
        p=st.integers(2, 6),
        m=st.integers(1, 1200),
        d=st.integers(1, 4),
        scale=st.integers(-100, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(T=14, p=3, m=1024, d=2, scale=0, seed=0)  # a genericity workload chunk
    @example(T=8, p=3, m=1024, d=1, scale=0, seed=1)
    def test_block_grams_equal_the_einsum_on_the_blocks_bit_for_bit(self, T, p, m, d, scale, seed):
        # d >= 2 runs the einsum on an (m, T, p, d) copy, d = 1 on the blocks
        # as they are; both must give the bits of the einsum on the blocks
        blocks = np.random.default_rng(seed).standard_normal((T, p, m, d)) * 10.0**scale
        reference = np.einsum("stmi,sumj->sijtu", blocks, blocks)
        assert np.array_equal(bits(_block_grams(blocks)), bits(reference))


def dependent_columns(T, p, m, d, spread, victim, log_gap, seed):
    """A ``SphericalSampler.sample_columns`` that scales the columns of the
    stacked grid draw (T maps of p blocks) apart, from 1 down to 10**spread, and
    replaces one block column of map ``victim`` by a combination of that
    map's other block columns, plus noise of relative size 10**log_gap
    (none when None).  Returns it and the list of draws it returned."""
    draw, drawn = SphericalSampler.sample_columns, []
    rng = np.random.default_rng(seed)

    def sample_columns(sampler, k, seeds):
        blocks = draw(sampler, k, seeds).reshape(T, p, m, d) * np.geomspace(1.0, 10.0**spread, d)
        columns = blocks[victim].transpose(1, 0, 2).reshape(m, p * d)
        target = rng.integers(p * d)
        mixed = columns @ (rng.standard_normal(p * d) * (np.arange(p * d) != target))
        if log_gap is not None:
            mixed += 10.0 ** log_gap * np.abs(mixed).max() * rng.standard_normal(m)
        blocks[victim, target // d, :, target % d] = mixed
        drawn.append(blocks)
        return blocks.reshape(T * p, m, d)

    return sample_columns, drawn


class TestGridRankCheck:
    """The stacked draw decides its rank check from the block Grams and
    refuses exactly the draws that the SVD of every map's stacked block
    columns, the rule it replaced, refuses."""

    @settings(deadline=None, max_examples=100)
    @given(
        T=st.integers(1, 4),
        d=st.integers(1, 3),
        delta=st.sampled_from([1.0, 0.5, 0.3]),
        extra=st.integers(1, 4),
        spread=st.sampled_from([0.0, -3.0, -6.0]),
        victim=st.integers(0, 3),
        log_gap=st.one_of(st.none(), st.floats(-16.0, 0.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_refuses_exactly_where_the_stacked_svd_does(
            self, T, d, delta, extra, spread, victim, log_gap, seed):
        p = math.ceil(1.0 / delta) + 1
        m = p * d + extra
        sample_columns, drawn = dependent_columns(T, p, m, d, spread, victim % T, log_gap, seed)
        with mock.patch.object(SphericalSampler, "sample_columns", sample_columns):
            try:
                sample_grid_maps(d, m, delta, [substream(seed, i) for i in range(T)], eps=0.01 * delta)
                refused = False
            except RankDeficientError:
                refused = True
        # the deleted rule: the SVD of each map's stacked block columns
        stacked = drawn[0].transpose(0, 2, 1, 3).reshape(T, m, p * d)
        assert refused == (not np.all(full_rank(np.linalg.svd(stacked, compute_uv=False))))
        if log_gap is None:
            assert refused

    @settings(deadline=None, max_examples=60)
    @given(
        T=st.integers(1, 4),
        d=st.integers(1, 3),
        delta=st.sampled_from([1.0, 0.5, 0.3]),
        extra=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_eigen_solve_reads_the_gram_of_the_stacked_block_columns(self, T, d, delta, extra, seed):
        # eigvalsh reads one triangle, so a wrong transpose of the block
        # Grams would pass unseen unless the matrix itself is checked
        p = math.ceil(1.0 / delta) + 1
        m = p * d + extra
        sample_columns, drawn = dependent_columns(T, p, m, d, -6.0, 0, 0.0, seed)
        with mock.patch.object(SphericalSampler, "sample_columns", sample_columns), \
                mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            sample_grid_maps(d, m, delta, [substream(seed, i) for i in range(T)])
        (G,), _ = eigvalsh.call_args
        stacked = drawn[0].transpose(0, 2, 1, 3).reshape(T, m, p * d)
        norms = np.linalg.norm(stacked, axis=1)
        rounding = 4 * m * np.finfo(float).eps * norms[:, :, None] * norms[:, None, :]
        assert G.shape == (T, p * d, p * d)
        assert np.all(np.abs(G - np.matrix_transpose(stacked) @ stacked) <= rounding)
        assert np.array_equal(G, np.matrix_transpose(G))


@st.composite
def grid_points(draw):
    """A grid map shape (d, delta, eps) and points in the unit cube, mixing
    uniform coordinates with 0, 1, every knot and every knot +- eps."""
    d = draw(st.integers(1, 3))
    delta = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25, 0.2, 0.1]))
    eps = draw(st.floats(1e-6, 0.99)) * delta / 4.0
    grid = SmoothGridMap(np.ones((math.ceil(1.0 / delta) + 1, 2, d)), delta, eps)
    special = sorted({0.0, 1.0} | {c for k in grid.knots for c in (k, k - eps, k + eps)})
    special = [c for c in special if 0.0 <= c <= 1.0]
    coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special))
    n = draw(st.integers(1, 20))
    S = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)))
    return grid, S


class TestGridWindows:
    @settings(deadline=None, max_examples=200)
    @given(case=grid_points())
    def test_windowed_weights_equal_the_full_blend_bit_for_bit(self, case):
        grid, S = case
        full = every_edge_weights(grid, S, lambda x: _blend_coeff(x, grid.eps))
        windowed = grid._weights(*grid._route(S), _blend_coeff)
        assert np.array_equal(windowed.view(np.int64), full.view(np.int64))

    @settings(deadline=None, max_examples=200)
    @given(case=grid_points())
    def test_evaluator_and_raw_jacobian_equal_the_every_edge_rule_bit_for_bit(self, case):
        shape, S = case
        rng = np.random.default_rng(len(S))
        for eps in (shape.eps, 0.0):
            grid = SmoothGridMap(rng.standard_normal((shape.p, 3, shape.d)), shape.delta, eps)
            if eps > 0.0:
                v = every_edge_weights(grid, S, lambda x: smooth_step(x, eps))
            else:
                v = every_edge_weights(grid, S, lambda x: (x > 0.0).astype(float))
            # the evaluator's affine pieces, weighted by the every-edge blend
            w = np.concatenate([(S[:, :, None] - np.arange(grid.p) * grid.delta) * v, v], axis=1)
            pieces = np.concatenate([grid.blocks, grid.prefix], axis=2).transpose(2, 0, 1)
            expected = (w.reshape(len(S), 1, -1) @ pieces.reshape(-1, grid.m))[:, 0]
            assert np.array_equal(bits(grid.evaluate_batch(S)), bits(expected))
        # the raw map's Jacobian and codes against the ceil-cell and every-knot reference
        assert_batch_matches_reference(grid, S)

    @settings(deadline=None, max_examples=200)
    @given(case=grid_points())
    def test_routing_in_place_keeps_the_offsets_and_gives_the_points_back(self, case):
        grid, S = case
        k0, x0 = grid._route(S)
        spent = S.copy()
        k0_spent, x0_spent = grid._route(spent, x0=spent)
        assert x0_spent is spent
        assert np.array_equal(k0_spent, k0) and np.array_equal(bits(x0_spent), bits(x0))
        # x0 is exact, so the chunk pass rebuilds its window points from it
        assert np.array_equal(bits(x0 + k0 * grid.delta), bits(S))

    @settings(deadline=None, max_examples=200)
    @given(case=grid_points())
    def test_boundary_mask_equals_the_nearest_knot_rule(self, case):
        grid, S = case
        nearest = np.abs(S[:, :, None] - grid.knots).min(axis=2)
        assert np.array_equal(grid.boundary_mask(S), np.any(nearest <= grid.eps, axis=1))


def edges(grid):
    """The cell edges 0, delta, ..., p delta of a grid map, where its blend
    windows sit, each the whole float k times delta, as the map routes them."""
    return np.arange(grid.p + 1) * grid.delta


@st.composite
def cell_scoring_cases(draw):
    """A grid map with random blocks and points on and around every window:
    0, 1, every edge, every edge +- eps, and each of those +- 1 ulp.  The
    blocks' columns are scaled apart so that some Grams are too
    ill-conditioned for the Gram route and go to the SVD route."""
    d = draw(st.integers(1, 4))
    delta = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25]))
    eps = draw(st.sampled_from([1 / 64, 1 / 128, 0.01]))
    p = math.ceil(1.0 / delta) + 1
    m = d + draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = np.geomspace(1.0, 10.0 ** draw(st.sampled_from([0.0, -3.0, -4.5, -6.0])), d)
    grid = SmoothGridMap(rng.standard_normal((p, m, d)) * spread, delta, eps)
    around = [e + s for e in edges(grid) for s in (0.0, -eps, eps)]
    special = {c2 for c in around for c2 in (c, np.nextafter(c, -1.0), np.nextafter(c, 2.0))}
    special = sorted({0.0, 1.0} | {float(c) for c in special if 0.0 <= c <= 1.0})
    coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special))
    n = draw(st.integers(1, 30))
    S = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)))
    return grid, S


@st.composite
def grid_chunks(draw):
    """1 to 4 maps of one grid with random blocks, each with its own points
    on and around every window as in :func:`cell_scoring_cases`."""
    d = draw(st.integers(1, 3))
    delta = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25]))
    eps = draw(st.sampled_from([1 / 64, 1 / 128, 0.01]))
    p = math.ceil(1.0 / delta) + 1
    m = d + draw(st.integers(0, 5))
    T = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = np.geomspace(1.0, 10.0 ** draw(st.sampled_from([0.0, -4.5, -6.0])), d)
    grids = [SmoothGridMap(rng.standard_normal((p, m, d)) * spread, delta, eps) for _ in range(T)]
    around = [e + s for e in edges(grids[0]) for s in (0.0, -eps, eps)]
    special = {c2 for c in around for c2 in (c, np.nextafter(c, -1.0), np.nextafter(c, 2.0))}
    special = sorted({0.0, 1.0} | {float(c) for c in special if 0.0 <= c <= 1.0})
    coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special))
    n = draw(st.integers(1, 20))
    points = st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)
    return grids, np.array([draw(points) for _ in range(T)])


def _one_cell_grid():
    grid = SmoothGridMap(np.random.default_rng(0).standard_normal((3, 4, 1)), 0.5, 1 / 64)
    # x = -eps exactly at edge 0.5 (one-hot weights), and both sides of it by 1 ulp
    S = np.array([[0.5 - 1 / 64], [np.nextafter(0.5 - 1 / 64, 0.0)], [np.nextafter(0.5 - 1 / 64, 1.0)]])
    return grid, S


def _two_map_chunk(outside: int):
    """Two maps of a d = 2, p = 3 grid, 18 (map, cell) pairs, with
    ``outside`` of their 20 rows outside every window.  At 18 the keys are
    tabled, at 17 each outside row is its own cell; repeated points share
    a cell either way."""
    rng = np.random.default_rng(outside)
    grids = [SmoothGridMap(rng.standard_normal((3, 5, 2)), 0.5, 1 / 64) for _ in range(2)]
    S = rng.choice([0.1, 0.3, 0.7, 0.9], size=(20, 2))
    S[outside:, 0] = 0.5  # in the window at the edge 0.5
    return grids, S.reshape(2, 10, 2)


def one_take_grams(grid, S, block_grams, owner):
    """Reference for the sliced gather of ``SmoothGridMap.gram_batch``: its
    Grams by one flat take of (n, d, d, 2, 2) offsets over every row."""
    lo, hi, w_lo, w_hi = grid._blend_pair(*grid._route(S), _blend_inside)
    p, d, k = grid.p, grid.d, np.arange(grid.d)
    t, w = np.stack([lo, hi], axis=-1).astype(np.intp), np.stack([w_lo, w_hi], axis=-1)
    flat = block_grams.transpose(0, 3, 4, 1, 2).reshape(-1)
    rows = ((owner * p)[:, None, None] + t) * (p * d * d) + (k * d)[:, None]
    cols = t * (d * d) + k[:, None]
    products = flat[rows[:, :, None, :, None] + cols[:, None, :, None, :]]  # (n, i, j, t, u)
    products = products * w[:, :, None, :, None] * w[:, None, :, None, :]
    u_sums = products[..., 0] + products[..., 1]
    return u_sums[..., 0] + u_sums[..., 1]


class TestCellScoring:
    @settings(deadline=None, max_examples=300)
    @given(case=cell_scoring_cases())
    @example(case=_one_cell_grid())
    def test_cell_scores_equal_the_gram_of_every_row(self, case):
        grid, S = case
        with mock.patch.object(grid, "gram_batch", wraps=grid.gram_batch) as gram_batch:
            fast = grid.fast_contrasts(S)
        reference = local_contrast_from_gram(grid.gram_batch(S))
        assert np.array_equal(fast.view(np.int64), reference.view(np.int64))
        # one gather, over the rows inside a window by the weights' own
        # predicate, every row on this map's own block Grams
        x = S[:, :, None] - edges(grid)
        window = np.any((-grid.eps < x) & (x <= grid.eps), axis=(1, 2))
        assert gram_batch.call_count == 1
        points, block_grams, owner = gram_batch.call_args.args
        assert np.array_equal(points, S[window])
        assert np.array_equal(block_grams, grid._block_gram[None])
        assert np.array_equal(owner, np.zeros(np.count_nonzero(window)))
        # the rows handed back as NaN are scored by the SVD of their Jacobian
        redo = np.isnan(reference)
        reference[redo] = experiments._score_at_points(grid, S[redo])
        scored = experiments._score_at_points(grid, S, grid.fast_contrasts(S))
        assert np.array_equal(np.isnan(scored), np.isnan(reference))
        assert np.array_equal(scored.view(np.int64), reference.view(np.int64))

    @settings(deadline=None, max_examples=300)
    @given(case=grid_chunks())
    @example(case=_two_map_chunk(18))
    @example(case=_two_map_chunk(17))
    def test_chunk_scores_equal_each_map_bit_for_bit(self, case):
        grids, S = case
        values, boundary = grid_chunk_scores(grids, S.copy())  # the pass spends its points
        for grid, points, v, mask in zip(grids, S, values, boundary):
            reference = local_contrast_from_gram(grid.gram_batch(points))
            assert np.array_equal(v.view(np.int64), reference.view(np.int64))
            # the nearest-knot rule, |x| <= eps, holds at x == -eps too
            nearest = np.abs(points[:, :, None] - grid.knots).min(axis=2)
            assert np.array_equal(mask, np.any(nearest <= grid.eps, axis=1))
            assert np.array_equal(grid.boundary_mask(points), mask)

    @settings(deadline=None, max_examples=300)
    @given(case=grid_chunks())
    def test_one_gather_for_a_chunk_equals_each_map_bit_for_bit(self, case):
        grids, S = case
        T, n, d = S.shape
        block_grams = np.stack([g._block_gram for g in grids])
        owner = np.repeat(np.arange(T), n)
        rows = np.random.default_rng(T * n).permutation(T * n)  # maps interleaved
        G = grids[-1].gram_batch(S.reshape(T * n, d)[rows], block_grams, owner[rows])
        for j, grid in enumerate(grids):
            assert np.array_equal(bits(G[owner[rows] == j]), bits(grid.gram_batch(S[j][rows[rows // n == j] % n])))

    @settings(deadline=None, max_examples=300)
    @given(case=grid_chunks(), rows_a_slice=st.integers(1, 3), interleaved=st.booleans())
    def test_the_sliced_gather_equals_one_take_bit_for_bit(self, case, rows_a_slice, interleaved):
        # slices of 1 to 3 rows, which cross from one map's rows to the next
        # ones, or run over maps interleaved row by row
        grids, S = case
        T, n, d = S.shape
        block_grams = np.stack([g._block_gram for g in grids])
        owner = np.repeat(np.arange(T), n)
        rows = np.random.default_rng(T * n).permutation(T * n) if interleaved else np.arange(T * n)
        points, owner = S.reshape(T * n, d)[rows], owner[rows]
        with mock.patch.object(mixing, "GATHER_SLICE_BYTES", rows_a_slice * 80 * d * d):
            G = grids[-1].gram_batch(points, block_grams, owner)
        assert np.array_equal(bits(G), bits(one_take_grams(grids[-1], points, block_grams, owner)))

    def test_cells_past_a_flat_index_with_a_trial_axis_are_scored_per_row(self):
        # 2**62 cells fit a flat int64 index, five maps of them do not: a
        # key of map 4 would wrap onto the same cell's key of map 0, so the
        # (map, cell) pairs, more than the rows, are never keyed
        rng = np.random.default_rng(2)
        grids = [SmoothGridMap(rng.standard_normal((2, 64, 62)), 1.0, 0.01) for _ in range(5)]
        S = rng.random((5, 60, 62))
        S[:, :5] = 0.25  # one cell in every map, and repeated within each
        values, _ = grid_chunk_scores(grids, S.copy())  # the pass spends its points
        for grid, points, v in zip(grids, S, values):
            reference = local_contrast_from_gram(grid.gram_batch(points))
            assert np.array_equal(v.view(np.int64), reference.view(np.int64))

    def test_cells_past_a_flat_index_are_scored_per_row(self):
        # 3**40 cells do not fit a flat int64 index, nor a table of them
        rng = np.random.default_rng(1)
        grid = SmoothGridMap(rng.standard_normal((3, 48, 40)), 0.5, 0.01)
        S = rng.random((200, 40))
        S[:5] = 0.25  # repeated rows share a cell
        fast = grid.fast_contrasts(S)
        reference = local_contrast_from_gram(grid.gram_batch(S))
        assert np.array_equal(fast.view(np.int64), reference.view(np.int64))


class _DenseBlendGridMap(SmoothGridMap):
    """A grid map whose Jacobian is the dense blend over all p blocks, the
    reference that the two-block gather of ``SmoothGridMap`` replaced: the
    every-edge weights and, at eps = 0, the every-knot rule."""

    def jacobian_batch(self, S):
        S = self._check_points(S)
        eps = self.eps
        step = (lambda x: _blend_coeff(x, eps)) if eps > 0.0 else (lambda x: (x > 0.0).astype(float))
        J = np.einsum("tmk,nkt->nmk", self.blocks, every_edge_weights(self, S, step))
        on_knot = np.any(np.abs(S[:, :, None] - self.knots) <= _KNOT_TOL, axis=(1, 2))
        rejected = on_knot & (eps == 0.0)
        J[rejected] = np.nan
        return J, np.where(rejected, REJECTABLE.index(OnKnotError) + 1, 0).astype(np.int8)


class TestTwoBlockGathers:
    """The Jacobian and the Gram of a grid map read the two blocks each
    coordinate blends; they equal the dense blend over all p blocks."""

    @settings(deadline=None, max_examples=300)
    @given(case=cell_scoring_cases())
    @example(case=_one_cell_grid())
    def test_gram_equals_the_dense_einsum(self, case):
        grid, S = case
        w = every_edge_weights(grid, S, lambda x: _blend_coeff(x, grid.eps))
        dense = np.einsum("nit,ijtu,nju->nij", w, grid._block_gram, w)
        G = grid.gram_batch(S)
        if grid.d > 1:
            assert np.array_equal(bits(G), bits(dense))
            return
        # at d = 1 the einsum's order over its four non-zero products depends
        # on n and p; two orders of four terms differ by about 3 eps times the
        # sum of their magnitudes, and a 1 x 1 Gram's contrast is 0 either way
        magnitudes = np.einsum("nit,ijtu,nju->nij", abs(w), abs(grid._block_gram), abs(w))
        assert np.all(abs(G - dense) <= 4 * np.finfo(float).eps * magnitudes)
        assert np.array_equal(bits(local_contrast_from_gram(G)), bits(local_contrast_from_gram(dense)))

    @settings(deadline=None, max_examples=300)
    @given(case=cell_scoring_cases())
    def test_jacobian_equals_the_dense_blend(self, case):
        shape, S = case
        for eps in (shape.eps, 0.0):
            grid = SmoothGridMap(shape.blocks, shape.delta, eps)
            J, code = grid.jacobian_batch(S)
            # C-contiguous, not a transposed view: local_contrast_batch's
            # np.linalg.norm(J, axis=-2) sums pairwise along memory, so the
            # layout alone would change the bits of the contrast
            assert J.flags.c_contiguous
            reference, expected_code = _DenseBlendGridMap(shape.blocks, shape.delta, eps).jacobian_batch(S)
            assert np.array_equal(code, expected_code)
            assert np.all(np.isnan(J[code != 0]))
            assert np.array_equal(bits(J[code == 0]), bits(reference[code == 0]))

    @pytest.mark.parametrize("d, m", [(2, 24), (3, 40)])
    def test_a_reparam_chunk_scores_as_on_the_dense_blend(self, d, m):
        # the grid maps of the reparam workload, their 2000 draws and the
        # composition that the reparam check scores
        grid = sample_grid_map(d=d, m=m, delta=0.5, eps=0.02, seed=d)
        dense = _DenseBlendGridMap(grid.blocks, grid.delta, grid.eps)
        draws = sample_factorial(FactorialDistribution.iid(Uniform(0.01, 0.99), d), 2000, 11)
        cube, affine = experiments.CubeTransform(), experiments.AffineTransform(0.5, 0.25)
        transforms = [cube, affine, cube][:d]
        P = experiments.permutation_matrix(np.roll(np.arange(d), 1))  # [1, 0] and [2, 0, 1]
        moved = np.column_stack([t.forward(draws[:, i]) for i, t in enumerate(transforms)]) @ P.T
        assert np.any(np.abs(draws[:, :, None] - edges(grid)) < grid.eps)  # some draws blend

        def scores(f):
            chain = ComposedMap([LinearMap(P.T), experiments.InverseElementwiseStage(transforms), f])
            return experiments._score_at_points(f, draws), experiments._score_at_points(chain, moved)

        for new, old in zip(scores(grid), scores(dense)):
            assert np.array_equal(bits(new), bits(old))


class TestTwoPiece:
    def _draw(self, seed=0, eps=0.0, m=12, d=3):
        rng = np.random.default_rng(seed)
        J0 = rng.standard_normal((m, d))
        new_col = rng.standard_normal(m)
        return make_two_piece(J0, 1, new_col, c=0.4, eps=eps)

    def test_continuity_at_boundary(self):
        tp = self._draw(seed=1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.standard_normal(3)
            s[1] = 0.4
            left = tp.J0 @ s
            right = tp.J1 @ s + tp.c1
            assert np.max(np.abs(left - right)) <= 1e-12

    def test_jacobians_on_either_side(self):
        tp = self._draw(seed=3)
        s = np.array([0.2, -1.0, 0.5])
        assert np.array_equal(tp.jacobian(s), tp.J0)
        s[1] = 2.0
        assert np.array_equal(tp.jacobian(s), tp.J1)

    def test_rank_one_difference(self):
        tp = self._draw(seed=4)
        diff = tp.J0 - tp.J1
        assert np.linalg.matrix_rank(diff) == 1

    def test_degenerate_constructor_flagged_linear(self):
        rng = np.random.default_rng(5)
        J0 = rng.standard_normal((8, 2))
        tp = make_two_piece(J0, 0, J0[:, 0].copy(), c=0.0)
        assert tp.linear
        s = np.array([0.5, -0.3])
        assert np.allclose(tp.evaluate(s), J0 @ s)

    def test_equal_pieces_have_a_jacobian_on_the_boundary(self):
        J = np.random.default_rng(7).standard_normal((5, 3))
        tp = TwoPieceMap(J, J, 1, 0.25)
        assert tp.linear
        assert np.array_equal(tp.jacobian(np.array([0.3, 0.25, -1.0])), J)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("piece", [0, 1])
    def test_a_non_finite_entry_is_refused(self, bad, piece):
        J0 = np.random.default_rng(9).standard_normal((6, 2))
        pieces = [J0, J0.copy()]
        pieces[1][:, 1] += 1.0
        pieces[piece][0, 1] = bad
        with pytest.raises(NonFiniteError):
            TwoPieceMap(*pieces, 1, 0.3)
        with pytest.raises(NonFiniteError):
            make_two_piece(pieces[0], 1, pieces[1][:, 1], c=0.3)

    @pytest.mark.parametrize("c", [np.inf, np.nan])
    def test_a_non_finite_boundary_is_refused(self, c):
        J = np.random.default_rng(10).standard_normal((6, 2))
        with pytest.raises(DomainError):
            TwoPieceMap(J, J, 0, c)

    @pytest.mark.parametrize("k", [0, 1])
    def test_pieces_that_differ_outside_column_k_are_refused(self, k):
        # with k = 0 the map jumped from (0.5, 0.7, 0) to (0.5, 1.4, 0.7)
        # across the boundary s_0 = 0.5, at s_1 = 0.7
        J0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        J1 = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        with pytest.raises(DomainError, match="column k"):
            TwoPieceMap(J0, J1, k, 0.5)

    def test_dependent_column_rejected(self):
        rng = np.random.default_rng(6)
        J0 = rng.standard_normal((8, 2))
        with pytest.raises(RankDeficientError):
            make_two_piece(J0, 0, 2.0 * J0[:, 1], c=0.0)

    def test_smoothed_fd_agreement(self):
        tp = self._draw(seed=7, eps=0.05)
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = rng.standard_normal(3)
            assert np.max(np.abs(tp.jacobian(s) - jacobian_fd(tp, s, 1e-6))) <= 1e-4

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_batch_matches_stacked_scalar_evaluate(self, eps):
        tp = self._draw(seed=11, eps=eps)
        S = np.random.default_rng(12).standard_normal((400, 3))
        S[:40, 1] = 0.4  # on the boundary s_k == c
        S[40:80, 1] = 0.4 + np.linspace(-0.06, 0.06, 40)  # across the smoothing window
        stacked = np.stack([tp.evaluate(s) for s in S])
        assert np.max(np.abs(tp.evaluate_batch(S) - stacked)) <= 1e-12

    def test_smoothed_matches_raw_outside_window(self):
        raw = self._draw(seed=9, eps=0.0)
        smooth = self._draw(seed=9, eps=0.05)
        rng = np.random.default_rng(10)
        for _ in range(30):
            s = rng.standard_normal(3)
            if abs(s[1] - 0.4) > 0.05:
                assert np.max(np.abs(raw.evaluate(s) - smooth.evaluate(s))) <= 1e-12


def conformality_defect(cmap: ConformalMap, s) -> float:
    """max-norm deviation of J^T J / mean(diag) from the identity; at most
    ~1e-8 for valid conformal compositions."""
    J = cmap.jacobian(s)
    G = J.T @ J
    lam2 = float(np.trace(G)) / cmap.d
    if not lam2 > 0:
        raise RankDeficientError("conformal factor vanished")
    return float(np.max(np.abs(G / lam2 - np.eye(cmap.d))))


class TestConformal:
    @pytest.mark.parametrize("d, m", [(0, 3), (-1, 3), (2, 1), (1, 0), (2, -2)])
    def test_dimensions_outside_one_to_m_are_a_domain_error(self, d, m):
        with pytest.raises(DomainError):
            random_conformal_map(d, m, seed=0)

    def test_similarity_map_defect_and_factor(self):
        cmap = random_conformal_map(2, 5, seed=1, scale=1.7)
        s = np.array([0.3, -0.8])
        assert conformality_defect(cmap, s) <= 1e-12
        J = cmap.jacobian(s)
        assert math.sqrt(np.trace(J.T @ J) / cmap.d) == pytest.approx(1.7, abs=1e-12)

    def test_identity_inner_is_embedding(self):
        rng = np.random.default_rng(2)
        E, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        cmap = ConformalMap(E)
        s = np.array([1.2, -0.4])
        assert np.allclose(cmap.evaluate(s), E @ s, atol=1e-15)

    def test_inversion_factor_at_radius_two(self):
        E, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((7, 3)))
        cmap = ConformalMap(E, (Inversion(3),))
        s = np.array([2.0, 0.0, 0.0])
        J = cmap.jacobian(s)
        assert math.sqrt(np.trace(J.T @ J) / cmap.d) == pytest.approx(0.25, abs=1e-12)
        assert conformality_defect(cmap, s) <= 1e-8

    def test_composition_defect_at_random_points(self):
        cmap = random_conformal_map(3, 9, seed=4, scale=0.8, with_inversion=True)
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = rng.standard_normal(3)
            assert conformality_defect(cmap, s) <= 1e-8

    def test_near_pole_raises(self):
        E, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((5, 2)))
        cmap = ConformalMap(E, (Inversion(2, exclusion_radius=0.5),))
        with pytest.raises(NearPoleError):
            cmap.evaluate(np.array([0.1, 0.1]))

    def test_fd_agreement(self):
        cmap = random_conformal_map(2, 6, seed=7, with_inversion=True)
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = rng.standard_normal(2)
            assert np.max(np.abs(cmap.jacobian(s) - jacobian_fd(cmap, s, 1e-6))) <= 1e-7

    def test_pointwise_zero_contrast(self):
        cmap = random_conformal_map(2, 5, seed=9, with_inversion=True)
        rng = np.random.default_rng(10)
        for _ in range(100):
            s = rng.standard_normal(2)
            assert local_ima_contrast(cmap.jacobian(s)) <= 1e-10

    def test_nonorthonormal_embedding_rejected(self):
        with pytest.raises(ValidationError):
            ConformalMap(np.ones((4, 2)))

    def test_similarity_requires_orthogonal_q(self):
        with pytest.raises(ValidationError):
            Similarity(1.0, np.array([[1.0, 0.2], [0.0, 1.0]]))

    @pytest.mark.parametrize("caller", ["similarity", "embedding", "mpa", "rotated_factorial"])
    def test_a_nan_entry_is_not_orthonormal(self, caller):
        # a NaN defect compares false with any tolerance; check_orthonormal,
        # the one home of the rule, refuses it for all four callers
        Q = np.array([[np.nan, 0.0], [0.0, 1.0]])
        build = {
            "similarity": lambda: Similarity(1.0, Q),
            "embedding": lambda: ConformalMap(np.vstack([Q, np.zeros((1, 2))])),
            "mpa": lambda: RotatedGaussianMPA(FactorialDistribution.iid(Laplace(0, 1), 2), Q),
            "rotated_factorial": lambda: RotatedFactorial((Laplace(0, 1), Laplace(0, 1)), Q),
        }[caller]
        with pytest.raises(ValidationError, match=r"\(defect nan\)"):
            build()


class TestProbes:
    def test_linear_full_rank_no_violations(self):
        rng = np.random.default_rng(11)
        f = LinearMap(rng.standard_normal((8, 3)))
        report = injectivity_probe(f, 2000, seed=1, bounding_box=(-2.0, 2.0))
        assert report.injective
        assert report.min_ratio > 0.0

    def test_duplicate_column_map_flagged(self):
        col = np.array([1.0, 2.0, 0.5])
        f = LinearMap(np.column_stack([col, col]))
        report = injectivity_probe(f, 2000, seed=2, bounding_box=(-1.0, 1.0))
        assert report.violation_count == 0 or report.min_ratio < 1e-6
        # pairs along (1, -1) map to identical images; probe pairs rarely hit
        # exactly, so check the ratio floor instead of exact violations
        assert report.min_ratio < 0.05

    def test_grid_map_probe_clean(self):
        g = sample_grid_map(d=2, m=20, delta=0.25, eps=0.01, seed=12)
        report = injectivity_probe(g, 10000, seed=3)
        assert report.injective

    def test_rd_map_needs_bounding_box(self):
        f = LinearMap(np.eye(3))
        with pytest.raises(ValidationError):
            injectivity_probe(f, 100, seed=0)

    def test_fd_requires_interior_point(self):
        g = sample_grid_map(d=2, m=20, delta=0.5, eps=0.01, seed=13)
        with pytest.raises(OutOfDomainError):
            jacobian_fd(g, np.array([0.0, 0.5]), 1e-6)

    def test_fd_exact_for_linear_maps(self):
        rng = np.random.default_rng(14)
        f = LinearMap(rng.standard_normal((7, 3)))
        s = rng.standard_normal(3)
        assert np.max(np.abs(jacobian_fd(f, s, 1e-3) - f.J)) <= 1e-10
        assert np.allclose(f.evaluate(np.zeros(3)), 0.0)
