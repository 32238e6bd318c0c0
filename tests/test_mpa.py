import numpy as np
import pytest
from scipy import special, stats

from ima_lab.contrast import offdiag_coherence
from ima_lab.distributions import FactorialDistribution, Gaussian, Laplace, Uniform, sample_factorial
from ima_lab.errors import (
    DimensionMismatchError,
    DomainError,
    NonPositiveDensityError,
    NormalizationError,
    OutOfTableError,
    SupportError,
    TrivialRotationError,
    ValidationError,
)
from ima_lab.mixing import LinearMap
from ima_lab.mpa import (
    ComposedMap,
    CorrelatedGaussian,
    DarmoisInverse,
    IndependentProduct,
    RotatedFactorial,
    RotatedGaussianMPA,
    darmois_build,
    is_signed_permutation,
    require_nontrivial_rotation,
    rotation_matrix_2d,
    spurious_darmois,
    spurious_mpa,
)

R30 = rotation_matrix_2d(np.radians(30.0))


class TestRotatedGaussianMPA:
    def test_identity_rotation_is_identity_map(self):
        src = FactorialDistribution.iid(Laplace(0, 1), 2)
        a = RotatedGaussianMPA(src, np.eye(2))
        pts = sample_factorial(src, 1000, seed=1)
        worst = max(np.max(np.abs(a.evaluate(s) - s)) for s in pts)
        assert worst <= 1e-9

    def test_gaussian_sources_give_linear_rotation(self):
        src = FactorialDistribution.iid(Gaussian(0, 1), 2)
        a = RotatedGaussianMPA(src, R30)
        pts = sample_factorial(src, 1000, seed=2)
        worst = max(np.max(np.abs(a.evaluate(s) - R30 @ s)) for s in pts)
        assert worst <= 1e-9

    def test_gaussian_sources_jacobian_is_rotation(self):
        src = FactorialDistribution.iid(Gaussian(0, 1), 2)
        a = RotatedGaussianMPA(src, R30)
        pts = sample_factorial(src, 100, seed=3)
        worst = max(np.max(np.abs(a.jacobian(s) - R30)) for s in pts)
        assert worst <= 1e-9

    def test_permutation_with_iid_components_permutes(self):
        src = FactorialDistribution.iid(Laplace(0, 1), 2)
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = RotatedGaussianMPA(src, P)
        pts = sample_factorial(src, 500, seed=4)
        worst = max(np.max(np.abs(a.evaluate(s) - P @ s)) for s in pts)
        assert worst <= 1e-9

    def test_uniform_sources_identity_jacobian(self):
        src = FactorialDistribution.iid(Uniform(0, 1), 2)
        a = RotatedGaussianMPA(src, np.eye(2))
        s = np.array([0.37, 0.62])
        assert np.allclose(a.jacobian(s), np.eye(2), atol=1e-9)

    def test_jacobian_matches_finite_differences(self):
        src = FactorialDistribution.iid(Laplace(0, 1), 2)
        a = RotatedGaussianMPA(src, R30)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            s = rng.laplace(size=2)
            fd = np.column_stack(
                [(a.evaluate(s + h * e) - a.evaluate(s - h * e)) / (2 * h) for e in np.eye(2)]
            )
            assert np.max(np.abs(a.jacobian(s) - fd)) <= 1e-5

    @pytest.mark.parametrize("law", [Uniform(0, 1), Laplace(0, 1)])
    def test_measure_preservation_ks(self, law):
        src = FactorialDistribution.iid(law, 2)
        a = RotatedGaussianMPA(src, R30)
        S = sample_factorial(src, 100000, seed=6)
        Y = a.evaluate(S)
        crit = 1.628 / np.sqrt(len(Y))
        for i in range(2):
            stat = stats.kstest(Y[:, i], lambda x: np.asarray(law.cdf(x))).statistic
            assert stat < crit

    def test_support_error(self):
        src = FactorialDistribution.iid(Uniform(0, 1), 2)
        a = RotatedGaussianMPA(src, R30)
        with pytest.raises(SupportError):
            a.evaluate(np.array([1.5, 0.5]))

    def test_non_orthonormal_rotation_rejected(self):
        src = FactorialDistribution.iid(Gaussian(0, 1), 2)
        with pytest.raises(ValidationError):
            RotatedGaussianMPA(src, np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_batch_matches_scalar(self):
        src = FactorialDistribution.iid(Laplace(0, 1), 2)
        a = RotatedGaussianMPA(src, R30)
        S = sample_factorial(src, 200, seed=7)
        Y = a.evaluate(S)
        for i, s in enumerate(S):
            assert np.allclose(Y[i], a.evaluate(s), atol=1e-12)

    def test_clamp_warning_near_support_edge(self):
        from ima_lab.mpa import ClampWarning

        src = FactorialDistribution.iid(Uniform(0, 1), 2)
        a = RotatedGaussianMPA(src, R30)
        with pytest.warns(ClampWarning, match="^1 CDF values clamped"):
            a.evaluate(np.array([1.0 - 1e-16, 0.5]))


class TestDarmois:
    def test_independent_factors_reduce_to_marginal_cdfs(self):
        laws = (Gaussian(0, 1), Laplace(0, 1))
        dm = darmois_build(IndependentProduct(laws), 2048)
        # conditional equals marginal: every conditional-CDF row is the
        # same tabulated marginal transform of x2, to rounding
        spread = np.max(dm.conditional_cdf_table.max(axis=0) - dm.conditional_cdf_table.min(axis=0))
        assert spread <= 1e-12
        # and both coordinates track the analytic CDFs to quadrature accuracy
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = np.array([rng.normal(), rng.laplace()])
            u = dm.evaluate(x)
            expected = np.array([float(laws[0].cdf(x[0])), float(laws[1].cdf(x[1]))])
            assert np.max(np.abs(u - expected)) <= 1e-4

    def test_correlated_gaussian_conditional_matches_closed_form(self):
        spec = CorrelatedGaussian(0.6)
        dm = darmois_build(spec, 1024)
        rng = np.random.default_rng(9)
        for _ in range(300):
            x = rng.normal(size=2) * 1.5
            assert dm.evaluate(x)[1] == pytest.approx(
                spec.conditional_cdf(x[0], x[1]), abs=1e-4
            )

    def test_jacobian_lower_triangular_exactly(self):
        dm = darmois_build(CorrelatedGaussian(0.6), 512)
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.normal(size=2)
            assert dm.jacobian(x)[0, 1] == 0.0

    def test_jacobian_d21_matches_closed_form(self):
        rho = 0.6
        dm = darmois_build(CorrelatedGaussian(rho), 1024)
        rng = np.random.default_rng(11)
        den = np.sqrt(1 - rho * rho)
        for _ in range(100):
            x = rng.normal(size=2)
            z = (x[1] - rho * x[0]) / den
            truth = float(np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)) * (-rho / den)
            assert dm.jacobian(x)[1, 0] == pytest.approx(truth, abs=1e-3)

    def test_jacobian_diagonal_for_independent_factors(self):
        laws = (Gaussian(0, 1), Gaussian(0, 1))
        dm = darmois_build(IndependentProduct(laws), 512)
        x = np.array([0.4, -0.9])
        J = dm.jacobian(x)
        assert J[0, 1] == 0.0
        assert abs(J[1, 0]) <= 1e-6

    def test_pushforward_uniformity_chi2(self):
        spec = CorrelatedGaussian(0.6)
        dm = darmois_build(spec, 512)
        X = spec.sample(100000, seed=12)
        U = dm.evaluate(X)
        assert np.all(U > 0.0) and np.all(U < 1.0)
        H, _, _ = np.histogram2d(U[:, 0], U[:, 1], bins=10, range=[[0, 1], [0, 1]])
        expected = len(X) / 100
        chi2 = float(((H - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, 99)

    def test_rotated_factorial_pushforward_uniformity(self):
        spec = RotatedFactorial((Laplace(0, 1), Laplace(0, 1)), R30)
        dm = darmois_build(spec, 512)
        X = spec.sample(100000, seed=13)
        U = dm.evaluate(X)
        H, _, _ = np.histogram2d(U[:, 0], U[:, 1], bins=10, range=[[0, 1], [0, 1]])
        expected = len(X) / 100
        chi2 = float(((H - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, 99)

    def test_forward_inverse_roundtrip(self):
        dm = darmois_build(CorrelatedGaussian(0.6), 512)
        rng = np.random.default_rng(14)
        for _ in range(100):
            u = rng.uniform(0.01, 0.99, size=2)
            x = dm.inverse(u)
            assert np.max(np.abs(dm.evaluate(x) - u)) <= 1e-10

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            darmois_build(CorrelatedGaussian(0.5), 64)

    def test_normalization_error_on_truncated_density(self):
        spec = CorrelatedGaussian(0.0, half_width=1.5)  # clips far too much mass
        with pytest.raises(NormalizationError):
            darmois_build(spec, 256)

    def test_out_of_table(self):
        dm = darmois_build(CorrelatedGaussian(0.6), 256)
        with pytest.raises(OutOfTableError):
            dm.evaluate(np.array([100.0, 0.0]))


class TestComposition:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(15)
        f = LinearMap(rng.standard_normal((6, 2)))
        composed = ComposedMap([LinearMap(np.eye(2)), f])
        for _ in range(100):
            s = rng.standard_normal(2)
            assert np.allclose(composed.evaluate(s), f.evaluate(s), atol=1e-15)

    def test_jacobian_of_linear_stages_is_product(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((7, 3))
        composed = ComposedMap([LinearMap(A), LinearMap(B)])
        s = rng.standard_normal(3)
        assert np.allclose(composed.jacobian(s), B @ A, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ComposedMap([LinearMap(np.eye(2)), LinearMap(np.eye(3))])

    def test_spurious_darmois_independent_identity_rotation_is_diagonal(self):
        # O = I with independent factors degenerates to an element-wise map
        laws = (Gaussian(0, 1), Gaussian(0, 1))
        dm = darmois_build(IndependentProduct(laws), 512)
        rng = np.random.default_rng(17)
        E, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        f = LinearMap(E)
        composed = ComposedMap([DarmoisInverse(dm), LinearMap(np.eye(2)), f])
        h = 1e-6
        for _ in range(20):
            u = rng.uniform(0.2, 0.8, size=2)
            J = composed.jacobian(u)
            fd = np.column_stack(
                [(composed.evaluate(u + h * e) - composed.evaluate(u - h * e)) / (2 * h)
                 for e in np.eye(2)]
            )
            # the FD probes the piecewise-linear interpolant, whose slope is
            # the cell-average density; agreement is O(table cell) not O(h)
            assert np.max(np.abs(J - fd)) <= 0.02 * np.max(np.abs(J))
            # element-wise structure: columns of J stay orthogonal
            assert offdiag_coherence(J) <= 1e-4
            assert offdiag_coherence(fd) <= 1e-2

    def test_spurious_builders_chain_dimensions(self):
        src = FactorialDistribution.iid(Laplace(0, 1), 2)
        a = RotatedGaussianMPA(src, R30)
        rng = np.random.default_rng(18)
        E, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        f = LinearMap(E)
        sm = spurious_mpa(f, a)
        assert (sm.d, sm.m) == (2, 5)
        dm = darmois_build(RotatedFactorial(src.components, R30), 256)
        sd = spurious_darmois(f, R30, dm)
        assert (sd.d, sd.m) == (2, 5)


class TestRotationGuards:
    def test_signed_permutation_detection(self):
        assert is_signed_permutation(np.eye(3))
        assert is_signed_permutation(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert not is_signed_permutation(R30)

    def test_trivial_rotation_refused(self):
        with pytest.raises(TrivialRotationError):
            require_nontrivial_rotation(np.eye(2))
        with pytest.raises(TrivialRotationError):
            require_nontrivial_rotation(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        require_nontrivial_rotation(R30)


class TestGramLemmas:
    """Randomized checks of the Gram-matrix facts the contrast relies on."""

    def test_orthonormal_times_orthogonal_closure(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            m = int(rng.integers(3, 20))
            d = int(rng.integers(1, min(m, 6) + 1))
            A, _ = np.linalg.qr(rng.standard_normal((m, d)))
            O, _ = np.linalg.qr(rng.standard_normal((d, d)))
            prod = A @ O
            assert np.max(np.abs(prod.T @ prod - np.eye(d))) <= 1e-10

    def test_triangular_diagonality(self):
        # columns of A T are orthogonal exactly when T is diagonal
        rng = np.random.default_rng(20)
        for _ in range(100):
            m = int(rng.integers(4, 16))
            d = int(rng.integers(2, min(m, 5) + 1))
            A, _ = np.linalg.qr(rng.standard_normal((m, d)))
            T = np.tril(rng.standard_normal((d, d))) + np.eye(d) * 2.0
            coherent = offdiag_coherence(A @ T)
            offdiag = np.max(np.abs(T - np.diag(np.diag(T))))
            if offdiag <= 1e-8:
                assert coherent <= 1e-8
            D = np.diag(rng.uniform(0.5, 2.0, size=d))
            assert offdiag_coherence(A @ D) <= 1e-8

    def test_hadamard_determinant_inequality(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            B = rng.standard_normal((d + 2, d))
            W = B.T @ B
            det = np.linalg.det(W)
            diag_prod = float(np.prod(np.diag(W)))
            assert det <= diag_prod * (1.0 + 1e-10)
        # equality case: diagonal W
        D = np.diag(np.array([0.5, 2.0, 3.0]))
        assert np.linalg.det(D) == pytest.approx(np.prod(np.diag(D)), rel=1e-10)
