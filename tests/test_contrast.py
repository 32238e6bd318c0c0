import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ima_lab.contrast import (
    RANK_TOL,
    hadamard_gap_upper_bound,
    local_contrast_batch,
    local_contrast_from_gram,
    local_contrast_unclamped,
    local_ima_contrast,
    offdiag_coherence,
    theoretical_success_bound,
)
from ima_lab.errors import DomainError, NonFiniteError, RankDeficientError, ZeroColumnError

# oracle values computed in 40-digit precision (mpmath) from the closed forms
SHEAR_CONTRAST = 0.34657359027997264  # log(sqrt(2)) for [[1,1],[0,1]]
HADAMARD_2_01 = 0.005025167926750721  # (-log 0.9 - log 1.1) / 2
BOUND_101_2 = 0.9267374444450632  # 1 - exp(2 log 2 - 100 * 0.16 / 4)


def random_corpus(n, seed=0, m_range=(2, 64), d_cap=8):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        d = int(rng.integers(1, min(m, d_cap) + 1))
        yield rng.standard_normal((m, d))


class TestLocalContrast:
    def test_orthogonal_columns_give_zero(self):
        J = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert local_ima_contrast(J) == 0.0

    def test_shear_matrix(self):
        J = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert local_ima_contrast(J) == pytest.approx(SHEAR_CONTRAST, abs=1e-14)

    def test_scaled_orthonormal_columns_give_zero(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        D = np.diag([0.3, 2.0, 11.0])
        assert local_ima_contrast(Q @ D) <= 1e-13

    def test_nonnegative_on_random_corpus(self):
        for J in random_corpus(2000, seed=1):
            assert local_ima_contrast(J) >= 0.0

    def test_left_orthogonal_invariance(self):
        rng = np.random.default_rng(2)
        for J in random_corpus(300, seed=3):
            Q, _ = np.linalg.qr(rng.standard_normal((J.shape[0], J.shape[0])))
            assert local_ima_contrast(Q @ J) == pytest.approx(local_ima_contrast(J), abs=1e-8)

    def test_right_permutation_diagonal_invariance(self):
        rng = np.random.default_rng(4)
        for J in random_corpus(300, seed=5):
            d = J.shape[1]
            P = np.eye(d)[rng.permutation(d)]
            D = np.diag(rng.uniform(0.1, 10.0, size=d))
            assert local_ima_contrast(J @ P @ D) == pytest.approx(local_ima_contrast(J), abs=1e-8)

    def test_rank_deficient_raises(self):
        J = np.ones((4, 2))
        with pytest.raises(RankDeficientError):
            local_ima_contrast(J)

    def test_nonfinite_raises(self):
        J = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFiniteError):
            local_ima_contrast(J)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DomainError):
            local_ima_contrast(np.ones((2, 3)))

    def test_gram_batch_agrees_with_scalar(self):
        mats = list(random_corpus(50, seed=6, m_range=(4, 12), d_cap=4))
        d = mats[0].shape[1]
        mats = [J for J in mats if J.shape[1] == d][:10]
        grams = np.stack([J.T @ J for J in mats])
        batch = local_contrast_from_gram(grams)
        for J, value in zip(mats, batch):
            assert max(value, 0.0) == pytest.approx(local_ima_contrast(J), abs=1e-9)


def svd_route(J, rank_tol=RANK_TOL):
    """The per-matrix SVD route the batched kernel replaced: the contrast
    of one matrix, or None where the rank check rejects it."""
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] <= rank_tol * sv[0] or sv[0] == 0.0:
        return None
    return float(np.sum(np.log(np.linalg.norm(J, axis=0))) - np.sum(np.log(sv)))


def conditioned_stack(k, m, d, log_ratio, seed):
    """k random m x d matrices whose singular values fall geometrically
    from 1 to 10**log_ratio, so the smallest-to-largest ratio is set."""
    rng = np.random.default_rng(seed)
    sv = np.geomspace(1.0, 10.0**log_ratio, d) if d > 1 else np.ones(1)
    U = np.linalg.qr(rng.standard_normal((k, m, d)))[0]
    V = np.linalg.qr(rng.standard_normal((k, d, d)))[0]
    return (U * sv) @ V.transpose(0, 2, 1) * rng.uniform(0.1, 10.0, size=(k, 1, 1))


shapes = st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(d, 64)))


class TestContrastBatch:
    @settings(deadline=None, max_examples=150)
    @given(
        shape=shapes,
        k=st.integers(1, 6),
        log_ratio=st.floats(-12.0, -2.0),
        zero_row=st.one_of(st.none(), st.integers(0, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_the_per_matrix_svd_route(self, shape, k, log_ratio, zero_row, seed):
        d, m = shape
        J = conditioned_stack(k, m, d, log_ratio, seed)
        if zero_row is not None:
            J[zero_row % k] = 0.0
        values = local_contrast_batch(J)
        assert values.shape == (k,)
        for row, value in zip(J, values):
            expected = svd_route(row)
            if expected is None:
                assert np.isnan(value)
                with pytest.raises(RankDeficientError):
                    local_contrast_unclamped(row)
            else:
                assert value == expected
                assert local_contrast_unclamped(row) == expected

    def test_leading_axes_are_kept(self):
        J = conditioned_stack(6, 9, 3, -3.0, seed=1)
        grid = local_contrast_batch(J.reshape(2, 3, 9, 3))
        assert grid.shape == (2, 3)
        assert np.array_equal(grid.ravel(), local_contrast_batch(J))

    def test_zero_matrices_are_rejected(self):
        assert np.all(np.isnan(local_contrast_batch(np.zeros((3, 5, 2)))))
        with pytest.raises(RankDeficientError):
            local_contrast_unclamped(np.zeros((5, 2)))

    @settings(deadline=None)
    @given(
        shape=shapes,
        k=st.integers(1, 4),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        where=st.integers(0, 10**6),
    )
    def test_nonfinite_entries_raise(self, shape, k, bad, where):
        d, m = shape
        J = conditioned_stack(k, m, d, -2.0, seed=where)
        J.reshape(-1)[where % J.size] = bad
        with pytest.raises(NonFiniteError):
            local_contrast_batch(J)

    @settings(deadline=None)
    @given(d=st.integers(2, 4), data=st.data(), k=st.integers(1, 4))
    def test_wide_matrices_raise(self, d, data, k):
        m = data.draw(st.integers(1, d - 1))
        with pytest.raises(DomainError):
            local_contrast_batch(np.ones((k, m, d)))

    @pytest.mark.parametrize("shape", [(2, 0), (3, 2, 0), (0, 0)])
    def test_matrices_without_columns_raise(self, shape):
        with pytest.raises(DomainError):
            local_contrast_batch(np.ones(shape))


class TestHadamardBound:
    def test_zero_eps_is_zero(self):
        for d in (1, 2, 5, 17):
            assert hadamard_gap_upper_bound(d, 0.0) == 0.0

    def test_closed_form_value(self):
        assert hadamard_gap_upper_bound(2, 0.1) == pytest.approx(HADAMARD_2_01, abs=1e-15)

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            hadamard_gap_upper_bound(3, 0.5)
        with pytest.raises(DomainError):
            hadamard_gap_upper_bound(2, -0.1)

    def test_bound_dominates_contrast_on_corpus(self):
        # coherence eps with (d-1) eps < 1 implies contrast <= bound(d, eps)
        checked = 0
        for J in random_corpus(2000, seed=7):
            d = J.shape[1]
            eps = offdiag_coherence(J)
            if (d - 1) * eps >= 1.0:
                continue
            assert local_ima_contrast(J) <= hadamard_gap_upper_bound(d, eps) + 1e-9
            checked += 1
        assert checked > 500


class TestTheoreticalBound:
    def test_clamps_to_zero_for_small_m(self):
        assert theoretical_success_bound(2, 3, 0.1, 1.0) == 0.0

    def test_limit_is_one(self):
        assert theoretical_success_bound(10**9, 2, 0.4, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        assert theoretical_success_bound(101, 2, 0.4, 1.0) == pytest.approx(BOUND_101_2, abs=1e-15)

    def test_monotonicity(self):
        ms = [50, 100, 400, 1600]
        vals = [theoretical_success_bound(m, 3, 0.2, 1.0) for m in ms]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        ds = [2, 3, 4, 6]
        vals_d = [theoretical_success_bound(400, d, 0.2, 1.0) for d in ds]
        assert all(a >= b for a, b in zip(vals_d, vals_d[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            theoretical_success_bound(1, 2, 0.1)
        with pytest.raises(DomainError):
            theoretical_success_bound(10, 2, -0.1)
        with pytest.raises(DomainError):
            theoretical_success_bound(10, 2, 0.1, kappa=0.0)


class TestCoherence:
    def test_orthogonal_matrix_zero(self):
        Q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((6, 3)))
        assert offdiag_coherence(Q) <= 1e-15

    def test_shear_value(self):
        J = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert offdiag_coherence(J) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_single_column_is_zero(self):
        assert offdiag_coherence(np.array([[3.0], [4.0]])) == 0.0

    def test_zero_column_raises(self):
        J = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroColumnError):
            offdiag_coherence(J)

    def test_zero_contrast_implies_tiny_coherence(self):
        # construct near-orthogonal matrices; whenever c <= 1e-10 the
        # coherence must be <= 1e-4 (and orthogonal columns give c = 0)
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(200):
            m = int(rng.integers(4, 32))
            d = int(rng.integers(2, min(m, 6) + 1))
            Q, _ = np.linalg.qr(rng.standard_normal((m, d)))
            J = Q + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal((m, d))
            c = local_ima_contrast(J)
            if c <= 1e-10:
                hits += 1
                assert offdiag_coherence(J) <= 1e-4
        assert hits > 10
