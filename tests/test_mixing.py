import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ima_lab import experiments
from ima_lab.contrast import local_contrast_from_gram, local_ima_contrast
from ima_lab.distributions import SphericalSampler
from ima_lab.errors import (
    DomainError,
    NearPoleError,
    OnKnotError,
    OutOfDomainError,
    RankDeficientError,
    ValidationError,
)
from ima_lab.mixing import (
    ConformalMap,
    Inversion,
    LinearMap,
    Similarity,
    SmoothGridMap,
    _blend_coeff,
    conformality_defect,
    injectivity_probe,
    jacobian_fd,
    make_two_piece,
    random_conformal_map,
    sample_grid_map,
    smooth_step,
    smooth_step_deriv,
)


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

    def test_out_of_domain(self):
        g = sample_grid_map(d=2, m=20, delta=0.5, eps=0.01, seed=5)
        with pytest.raises(OutOfDomainError):
            g.evaluate(np.array([1.2, 0.3]))

    def test_determinism(self):
        a = sample_grid_map(d=2, m=16, delta=0.5, eps=0.01, seed=77)
        b = sample_grid_map(d=2, m=16, delta=0.5, eps=0.01, seed=77)
        assert np.array_equal(a.blocks, b.blocks)


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
        x = S[..., None] - np.arange(grid.p + 1) * grid.delta
        q = _blend_coeff(x, grid.eps)
        full = q[..., :-1] - q[..., 1:]
        windowed = grid._jacobian_weights(S)
        assert np.array_equal(windowed.view(np.int64), full.view(np.int64))

    @settings(deadline=None, max_examples=200)
    @given(case=grid_points())
    def test_boundary_mask_equals_the_nearest_knot_rule(self, case):
        grid, S = case
        nearest = np.abs(S[:, :, None] - grid.knots).min(axis=2)
        assert np.array_equal(grid.boundary_mask(S), np.any(nearest <= grid.eps, axis=1))


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
    around = [e + s for e in grid._edges for s in (0.0, -eps, eps)]
    special = {c2 for c in around for c2 in (c, np.nextafter(c, -1.0), np.nextafter(c, 2.0))}
    special = sorted({0.0, 1.0} | {float(c) for c in special if 0.0 <= c <= 1.0})
    coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special))
    n = draw(st.integers(1, 30))
    S = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)))
    return grid, S


def _one_cell_grid():
    grid = SmoothGridMap(np.random.default_rng(0).standard_normal((3, 4, 1)), 0.5, 1 / 64)
    # x = -eps exactly at edge 0.5 (one-hot weights), and both sides of it by 1 ulp
    S = np.array([[0.5 - 1 / 64], [np.nextafter(0.5 - 1 / 64, 0.0)], [np.nextafter(0.5 - 1 / 64, 1.0)]])
    return grid, S


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
        # one Gram einsum, over the rows inside a window by the weights' own predicate
        x = S[:, :, None] - grid._edges
        window = np.any((-grid.eps < x) & (x <= grid.eps), axis=(1, 2))
        assert gram_batch.call_count == 1
        assert np.array_equal(gram_batch.call_args.args[0], S[window])
        # the rows handed back as NaN are scored by the SVD of their Jacobian
        redo = np.isnan(reference)
        reference[redo] = experiments._score_at_points(grid, S[redo])
        scored = experiments._score_draws(grid, S)
        assert np.array_equal(np.isnan(scored), np.isnan(reference))
        assert np.array_equal(scored.view(np.int64), reference.view(np.int64))

    def test_cells_past_a_flat_index_are_scored_per_row(self):
        # 3**40 cells do not fit a flat int64 index
        rng = np.random.default_rng(1)
        grid = SmoothGridMap(rng.standard_normal((3, 48, 40)), 0.5, 0.01)
        S = rng.random((200, 40))
        S[:5] = 0.25  # repeated rows share a cell
        fast = grid.fast_contrasts(S)
        reference = local_contrast_from_gram(grid.gram_batch(S))
        assert np.array_equal(fast.view(np.int64), reference.view(np.int64))


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
        cmap = ConformalMap(E, (Inversion(),))
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
        cmap = ConformalMap(E, (Inversion(exclusion_radius=0.5),))
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
