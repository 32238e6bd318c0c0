import re
import warnings

import numpy as np
import pytest
from scipy import stats

from ima_lab.contrast import GRAM_RATIO_TOL, RANK_TOL, offdiag_coherence
from ima_lab.distributions import (
    Chi,
    FactorialDistribution,
    Gaussian,
    Laplace,
    SphericalSampler,
    TabulatedBeta,
    Uniform,
    law_from_config,
    sample_factorial,
    UnivariateLaw,
    sample_isotropic_matrix,
)
from ima_lab.errors import (
    DimensionMismatchError,
    DomainError,
    RankDeficientError,
    ValidationError,
)
from ima_lab.seeding import generator, substream

ALL_LAWS = [
    Uniform(0.0, 1.0),
    Uniform(-2.0, 5.0),
    Gaussian(0.0, 1.0),
    Gaussian(1.5, 0.3),
    Laplace(0.0, 1.0),
    Laplace(-1.0, 2.5),
    Chi(3),
    Chi(64),
    TabulatedBeta(2.0, 2.0),
    TabulatedBeta(1.0, 3.0),
]


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: repr(l)[:40])
class TestLawContracts:
    def test_density_integrates_to_one(self, law):
        lo, hi = law.support
        if np.isinf(lo):
            lo = law.quantile(1e-9)
        if np.isinf(hi):
            hi = law.quantile(1.0 - 1e-9)
        grid = np.linspace(lo, hi, 20001)
        mass = np.trapezoid(law.pdf(grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_cdf_nondecreasing(self, law):
        lo, hi = law._bracket()
        grid = np.linspace(lo, hi, 2001)
        cdf = np.asarray(law.cdf(grid))
        assert np.all(np.diff(cdf) >= -1e-15)

    def test_quantile_roundtrip(self, law):
        u = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        x = law.quantile_array(u)
        back = np.asarray(law.cdf(x))
        assert np.max(np.abs(back - u)) <= 1e-9

    def test_quantile_rejects_bad_u(self, law):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                law.quantile(bad)

    def test_config_roundtrip(self, law):
        rebuilt = law_from_config(law.to_config())
        u = np.linspace(0.01, 0.99, 25)
        assert np.allclose(rebuilt.quantile_array(u), law.quantile_array(u), atol=1e-12)


def test_gaussian_median_is_mu():
    assert Gaussian(0.0, 1.0).quantile(0.5) == 0.0


def test_uniform_identity_cdf():
    assert Uniform(0.0, 1.0).quantile(0.25) == 0.25


def test_laplace_closed_form_quantile():
    # -log(2 * 0.1), 40-digit oracle
    assert Laplace(0.0, 1.0).quantile(0.9) == pytest.approx(1.6094379124341003, abs=1e-12)


def test_laplace_cdf_keeps_the_two_branch_bits_without_overflow():
    law = Laplace(-1.0, 2.5)
    x = np.concatenate([
        np.random.default_rng(5).laplace(-1.0, 40.0, 100_000),
        law.mu + law.b * np.array([0.0, -0.0, 1e-320, -1e-320, 709.9, -709.9, 800.0, -800.0]),
    ])
    z = (x - law.mu) / law.b
    with np.errstate(over="ignore"):
        two_branch = np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cdf = law.cdf(x)
    assert np.array_equal(cdf.view(np.int64), two_branch.view(np.int64))
    assert law.cdf(law.mu + law.b * 800.0) == 1.0 and law.cdf(law.mu - law.b * 800.0) == 0.0


def test_law_config_rejects_unknown():
    with pytest.raises(ValidationError):
        law_from_config({"kind": "cauchy", "params": {}})
    with pytest.raises(ValidationError):
        law_from_config({"kind": "gaussian", "params": {"mu": 0, "spread": 2}})


def test_numeric_quantile_fallback_meets_tolerance():
    # a law without a closed-form quantile exercises the bracketed
    # bisection + Newton refinement path
    from ima_lab.distributions import UnivariateLaw

    class Logistic(UnivariateLaw):
        def pdf(self, x):
            e = np.exp(-np.asarray(x, dtype=float))
            return e / (1.0 + e) ** 2

        def cdf(self, x):
            return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))

    law = Logistic()
    for u in np.linspace(1e-6, 1 - 1e-6, 200):
        x = law.quantile(float(u))
        assert abs(float(law.cdf(x)) - u) <= 1e-12


class TestFactorial:
    def test_sample_shape_and_determinism(self):
        p = FactorialDistribution((Gaussian(0, 1), Uniform(0, 1), Laplace(0, 1)))
        a = sample_factorial(p, 50, seed=123)
        b = sample_factorial(p, 50, seed=123)
        assert a.shape == (50, 3)
        assert np.array_equal(a, b)
        c = sample_factorial(p, 50, seed=124)
        assert not np.array_equal(a, c)

    def test_single_component_single_draw(self):
        p = FactorialDistribution((Gaussian(0, 1),))
        x = sample_factorial(p, 1, seed=0)
        assert x.shape == (1, 1)

    def test_law_of_large_numbers_uniform_square(self):
        p = FactorialDistribution.iid(Uniform(0, 1), 2)
        x = sample_factorial(p, 100000, seed=99)
        # 5 sigma of a Uniform(0,1) mean over 1e5 draws is ~0.0046
        assert np.max(np.abs(x.mean(axis=0) - 0.5)) < 0.01

    def test_joint_density_is_product(self):
        p = FactorialDistribution((Gaussian(0, 1), Laplace(0, 1)))
        s = np.array([0.3, -1.2])
        expected = float(Gaussian(0, 1).pdf(0.3) * Laplace(0, 1).pdf(-1.2))
        assert p.pdf(s) == pytest.approx(expected, rel=1e-12)


class ZeroFirstRadius(UnivariateLaw):
    """chi(m) radius, except that the first matrix of each of the first
    ``zero_calls`` calls gets zero radii, so it fails the rank check."""

    def __init__(self, m, zero_calls):
        self.law = Chi(m)
        self.zero_calls = zero_calls

    def quantile_array(self, u):
        radii = self.law.quantile_array(u)
        if self.zero_calls > 0:
            self.zero_calls -= 1
            radii[0] = 0.0
        return radii


class ConditionedColumns:
    """Sampler whose matrix for each seed is Q diag(sv) V with orthonormal
    Q and V, largest singular value 1 and squared smallest-to-largest ratio
    drawn from ``ratios``.  Logs every seed it is asked for."""

    def __init__(self, m, ratios):
        self.ambient_dim = m
        self.ratios = ratios
        self.seeds = []

    def sample_columns(self, d, seeds):
        self.seeds.extend(seeds)
        out = np.empty((len(seeds), self.ambient_dim, d))
        for j, s in enumerate(seeds):
            gen = generator(s)
            Q = np.linalg.qr(gen.standard_normal((self.ambient_dim, d)))[0]
            V = np.linalg.qr(gen.standard_normal((d, d)))[0]
            low = np.sqrt(gen.choice(self.ratios))
            sv = np.concatenate([[1.0], gen.uniform(low, 1.0, d - 2), [low]])
            out[j] = (Q * sv) @ V
        return out


def svd_only_sample(m, d, sampler, seeds, rank_tol, max_attempts):
    """The rank check by the SVD of every draw: the reference rule."""
    J = np.empty((len(seeds), m, d))
    failed = np.arange(len(seeds))
    for attempt in range(max_attempts):
        J[failed] = sampler.sample_columns(
            d, [seeds[j] if attempt == 0 else substream(seeds[j], 0xA11E, attempt) for j in failed]
        )
        sv = np.linalg.svd(J[failed], compute_uv=False)
        failed = failed[~(sv[:, -1] > rank_tol * sv[:, 0])]
        if not failed.size:
            return J
    raise RankDeficientError(f"seed={seeds[failed[0]]}")


def outcome(sample, *args):
    try:
        return sample(*args), None
    except RankDeficientError as exc:
        return None, re.search(r"seed=(\d+)", str(exc)).group(1)


class TestGramRankCheck:
    """The Gram route may only accept a draw the SVD accepts, so the
    sampler returns the bits and asks for the seeds of the SVD-only rule."""

    @pytest.mark.parametrize("rank_tol", [RANK_TOL, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_near_dependent_columns_follow_the_svd_rule(self, rank_tol):
        m, d, max_attempts = 12, 3, 6
        offsets = [-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3]
        ratios = [t * (1.0 + o) for t in (GRAM_RATIO_TOL, rank_tol**2) for o in offsets] + [1.0]
        seeds = [substream(77, i) for i in range(60)]
        fast, ref = ConditionedColumns(m, ratios), ConditionedColumns(m, ratios)
        J, fast_failure = outcome(sample_isotropic_matrix, m, d, fast, seeds, rank_tol, max_attempts)
        J_ref, ref_failure = outcome(svd_only_sample, m, d, ref, seeds, rank_tol, max_attempts)
        assert fast.seeds == ref.seeds
        assert fast_failure == ref_failure
        assert len(ref.seeds) > len(seeds)  # some draws were resampled
        if ref_failure is None:
            assert np.array_equal(J, J_ref)
            if rank_tol == RANK_TOL:
                # rows right at GRAM_RATIO_TOL were kept, on either route
                eig = np.linalg.eigvalsh(np.matrix_transpose(J) @ J)
                ratio = eig[:, 0] / eig[:, -1]
                assert np.any(np.abs(ratio / GRAM_RATIO_TOL - 1.0) < 1e-5)

    @pytest.mark.parametrize("rank_tol, svd_rows", [(RANK_TOL, 0), (1e-5, 0), (1.0001e-5, 200),
                                                    (1e-4, 200), (2e-4, 200)])
    def test_svd_decides_every_draw_only_at_a_large_rank_tol(self, monkeypatch, rank_tol, svd_rows):
        svd = np.linalg.svd
        rows = []

        def counting_svd(a, *args, **kwargs):
            rows.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        seeds = [substream(5, i) for i in range(200)]
        J = sample_isotropic_matrix(8, 3, SphericalSampler.standard_gaussian(8), seeds, rank_tol)
        assert sum(rows) == svd_rows
        monkeypatch.undo()
        assert np.array_equal(J, svd_only_sample(8, 3, SphericalSampler.standard_gaussian(8),
                                                 seeds, rank_tol, 3))


class TestSphericalSampler:
    def test_unit_radial_gives_unit_norms(self):
        J = sample_isotropic_matrix(10, 3, SphericalSampler.unit(10), seed=4)
        assert np.allclose(np.linalg.norm(J, axis=0), 1.0, atol=1e-12)

    def test_chi_radial_full_rank(self):
        J = sample_isotropic_matrix(10, 3, SphericalSampler.standard_gaussian(10), seed=7)
        sv = np.linalg.svd(J, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]

    def test_determinism_bitwise(self):
        s = SphericalSampler.standard_gaussian(12)
        a = sample_isotropic_matrix(12, 4, s, seed=31)
        b = sample_isotropic_matrix(12, 4, s, seed=31)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("factory", [SphericalSampler.standard_gaussian, SphericalSampler.unit])
    def test_seed_vector_equals_stacked_int_seed_calls(self, factory):
        m, d = 17, 3
        seeds = [substream(41, i) for i in range(6)]
        stacked = np.stack([sample_isotropic_matrix(m, d, factory(m), seed=s) for s in seeds])
        batch = sample_isotropic_matrix(m, d, factory(m), seed=seeds)
        assert batch.shape == (len(seeds), m, d)
        assert np.array_equal(batch, stacked)

    def test_rank_failure_resamples_from_the_derived_seed(self):
        m, d = 9, 3
        seeds = [substream(3, i) for i in range(4)]
        plain = SphericalSampler.standard_gaussian(m)
        batch = sample_isotropic_matrix(m, d, SphericalSampler(m, ZeroFirstRadius(m, 1)), seeds)
        assert np.array_equal(batch[0], plain.sample_columns(d, substream(seeds[0], 0xA11E, 1)))
        assert np.array_equal(batch[1:], plain.sample_columns(d, seeds[1:]))
        single = sample_isotropic_matrix(m, d, SphericalSampler(m, ZeroFirstRadius(m, 1)), seeds[0])
        assert np.array_equal(single, batch[0])

    def test_rank_failure_on_every_attempt_raises(self):
        sampler = SphericalSampler(9, ZeroFirstRadius(9, 3))
        with pytest.raises(RankDeficientError):
            sample_isotropic_matrix(9, 3, sampler, seed=[5, 6], max_attempts=3)

    def test_no_attempt_is_a_domain_error_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew columns")

        monkeypatch.setattr(SphericalSampler, "sample_columns", no_draws)
        for max_attempts in (0, -1):
            with pytest.raises(DomainError, match="max_attempts"):
                sample_isotropic_matrix(5, 2, seed=1, max_attempts=max_attempts)

    @pytest.mark.parametrize("d", [0, -1])
    def test_no_columns_is_a_domain_error(self, d):
        with pytest.raises(DomainError):
            sample_isotropic_matrix(4, d, seed=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sample_isotropic_matrix(10, 3, SphericalSampler.unit(8), seed=0)
        with pytest.raises(DimensionMismatchError):
            sample_isotropic_matrix(3, 10, seed=0)

    def test_gaussian_radial_matches_standard_normal(self):
        # chi(m) radius times a uniform direction is a standard Gaussian vector
        s = SphericalSampler.standard_gaussian(6)
        cols = np.hstack([s.sample_columns(4, seed=i) for i in range(500)])
        flat = cols.ravel()
        ks = stats.kstest(flat, "norm").statistic
        assert ks < 1.628 / np.sqrt(flat.size)

    def test_spherical_invariance_ks(self):
        # projection of the normalized vector onto any fixed direction has
        # the same law as onto e1 (two-sample KS below the 1% critical value)
        m = 7
        s = SphericalSampler.standard_gaussian(m)
        n = 100000
        rng = np.random.default_rng(17)
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        q = Q[:, 0]
        cols = np.hstack([s.sample_columns(200, seed=5000 + i) for i in range(n // 200)])
        U = cols / np.linalg.norm(cols, axis=0)
        proj_q = q @ U
        proj_e1 = U[0]
        stat = stats.ks_2samp(proj_q, proj_e1).statistic
        crit = 1.628 * np.sqrt(2.0 / n)
        assert stat < crit

    def test_coherence_concentration(self):
        # mean off-diagonal coherence decreases in m and is < 0.05 at m=2048
        # seed-vector calls draw the int-seed matrices; 200 seeds per call
        # keep the m = 2048 stack at 6.5 MB
        means = []
        for m in (8, 32, 128, 512, 2048):
            sampler = SphericalSampler.standard_gaussian(m)
            seeds = [m * 10000 + i for i in range(2000)]
            vals = [
                offdiag_coherence(J)
                for start in range(0, len(seeds), 200)
                for J in sample_isotropic_matrix(m, 2, sampler, seeds[start:start + 200])
            ]
            means.append(np.mean(vals))
        assert all(a > b for a, b in zip(means, means[1:]))
        assert means[-1] < 0.05
