import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from ima_lab.contrast import offdiag_coherence
from ima_lab.distributions import Chi, FactorialDistribution, Gaussian, Laplace, Uniform, sample_factorial
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
    DarmoisMap,
    DarmoisInverse,
    RotatedFactorial,
    RotatedGaussianMPA,
    darmois_build,
    is_signed_permutation,
    require_nontrivial_rotation,
    rotation_matrix_2d,
    spurious_darmois,
    spurious_mpa,
)
from darmois_oracles import CorrelatedGaussian, IndependentProduct, sample_rotated

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
        X = sample_rotated(spec, 100000, seed=13)
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


def _old_pdf(law, x):
    """The density formulas of the laws whose ``pdf`` now works in place,
    as they were written before."""
    if isinstance(law, Laplace):
        z = np.abs(np.asarray(x, dtype=float) - law.mu) / law.b
        return np.exp(-z) / (2.0 * law.b)
    if isinstance(law, Gaussian):
        z = (np.asarray(x, dtype=float) - law.mu) / law.sigma
        return np.exp(-0.5 * z * z) / (law.sigma * math.sqrt(2.0 * math.pi))
    return law.pdf(x)


def _old_density(spec, x1, x2):
    if isinstance(spec, RotatedFactorial):
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        Rt = spec.rotation.T
        s1 = Rt[0, 0] * X1 + Rt[0, 1] * X2
        s2 = Rt[1, 0] * X1 + Rt[1, 1] * X2
        return np.asarray(_old_pdf(spec.laws[0], s1)) * np.asarray(_old_pdf(spec.laws[1], s2))
    if isinstance(spec, IndependentProduct):
        return np.outer(_old_pdf(spec.laws[0], x1), _old_pdf(spec.laws[1], x2))
    return spec.density(x1, x2)


def _old_darmois_tables(spec, resolution):
    """The Darmois table as it was built before it was built in place:
    (total_mass, joint, marginal_pdf, marginal_cdf, conditional_cdf_table),
    or the type of the error that refused it."""
    if resolution < 128:
        return DomainError
    (lo1, hi1), (lo2, hi2) = spec.rectangle()
    x1 = np.linspace(lo1, hi1, resolution)
    x2 = np.linspace(lo2, hi2, resolution)
    P = np.asarray(_old_density(spec, x1, x2), dtype=float)
    if np.any(P <= 0.0) or not np.all(np.isfinite(P)):
        return NonPositiveDensityError
    h1, h2 = x1[1] - x1[0], x2[1] - x2[0]
    row_mass = np.trapezoid(P, dx=h2, axis=1)
    total = float(np.trapezoid(row_mass, dx=h1))
    if abs(total - 1.0) > 1e-4:
        return NormalizationError
    cdf1 = np.concatenate([[0.0], np.cumsum(0.5 * (row_mass[1:] + row_mass[:-1]) * h1)])
    cond = np.concatenate(
        [np.zeros((resolution, 1)), np.cumsum(0.5 * (P[:, 1:] + P[:, :-1]) * h2, axis=1)], axis=1)
    return total, P / total, row_mass / total, cdf1 / cdf1[-1], cond / cond[:, -1:]


_TABLE_LAWS = [Laplace(0.0, 1.0), Laplace(0.3, 0.7), Gaussian(0.0, 1.0), Gaussian(-0.2, 1.6),
               Uniform(-1.0, 1.0), Chi(3)]


@st.composite
def darmois_specs(draw):
    laws = tuple(draw(st.sampled_from(_TABLE_LAWS)) for _ in range(2))
    kind = draw(st.sampled_from(["rotated", "product", "correlated"]))
    if kind == "rotated":
        return RotatedFactorial(laws, rotation_matrix_2d(draw(st.floats(-math.pi, math.pi))))
    if kind == "product":
        return IndependentProduct(laws)
    return CorrelatedGaussian(draw(st.floats(-0.95, 0.95)))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestDarmoisTableBuild:
    @settings(deadline=None, max_examples=60)
    @given(spec=darmois_specs(), resolution=st.one_of(st.integers(100, 700), st.sampled_from([128, 512])))
    def test_table_matches_the_old_build_bit_for_bit(self, spec, resolution):
        """Across laws, rotations and resolutions, refusals included: a
        uniform law's rotated square leaves zeros in the rectangle, a coarse
        table misses the mass, and a resolution below 128 is refused."""
        expected = _old_darmois_tables(spec, resolution)
        if isinstance(expected, type):
            with pytest.raises(expected):
                DarmoisMap(spec, resolution)
            return
        dm = DarmoisMap(spec, resolution)
        assert dm.total_mass == expected[0]
        got = (dm.joint, dm.marginal_pdf, dm.marginal_cdf, dm.conditional_cdf_table)
        for array, old in zip(got, expected[1:]):
            assert array.shape == old.shape and np.array_equal(_bits(array), _bits(old))

    @settings(deadline=None, max_examples=200)
    @given(law=st.sampled_from(_TABLE_LAWS[:4]),
           xs=st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True),
                                 st.sampled_from([0.0, -0.0, 1e-160, 1e-320, 1e154, 1.4e154, 2e154, 1e300])),
                       max_size=30))
    def test_in_place_densities_match_the_old_formulas(self, law, xs):
        X = np.array(xs, dtype=float)
        kept = X.copy()
        # both overflow alike on the largest inputs
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(_bits(law.pdf(X)), _bits(_old_pdf(law, X)))
            assert np.array_equal(_bits(X), _bits(kept))  # the input is left as it was
            for x in xs[:3]:
                value = law.pdf(x)
                assert isinstance(value, np.float64) and _bits(value) == _bits(_old_pdf(law, x))


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
