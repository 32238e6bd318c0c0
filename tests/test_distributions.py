import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ima_lab.contrast import GRAM_RATIO_TOL, RANK_TOL, offdiag_coherence
from ima_lab.distributions import (
    Chi,
    FactorialDistribution,
    Gaussian,
    Laplace,
    ScaledColumns,
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
    NormalizationError,
    RankDeficientError,
    ValidationError,
)
from ima_lab.experiments import concentration_sweep
from ima_lab.mixing import sample_grid_maps
from ima_lab.seeding import SeedBlock, generator, substream

#: the config object that each law kind writes, key for key and in order
WRITTEN_CONFIGS = {
    Uniform(-2.0, 5.0): {"kind": "uniform", "params": {"a": -2.0, "b": 5.0}},
    Gaussian(1.5, 0.3): {"kind": "gaussian", "params": {"mu": 1.5, "sigma": 0.3}},
    Laplace(-1.0, 2.5): {"kind": "laplace", "params": {"mu": -1.0, "b": 2.5}},
    Chi(64): {"kind": "chi", "params": {"k": 64}},
    TabulatedBeta(1.0, 3.0): {"kind": "beta", "params": {"alpha": 1.0, "beta": 3.0, "points": 4097}},
}

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


def bounds(law):
    """The support, with an infinite end cut at the 1e-9 tail quantile."""
    lo, hi = law.support
    if np.isinf(lo):
        lo = law.quantile(1e-9)
    if np.isinf(hi):
        hi = law.quantile(1.0 - 1e-9)
    return lo, hi


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: repr(l)[:40])
class TestLawContracts:
    def test_density_integrates_to_one(self, law):
        grid = np.linspace(*bounds(law), 20001)
        mass = np.trapezoid(law.pdf(grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_cdf_nondecreasing(self, law):
        grid = np.linspace(*bounds(law), 2001)
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
        config = law.to_config()
        if law in WRITTEN_CONFIGS:
            assert config == WRITTEN_CONFIGS[law]
            assert list(config["params"]) == list(WRITTEN_CONFIGS[law]["params"])
        rebuilt = law_from_config(config)
        u = np.linspace(0.01, 0.99, 25)
        assert np.allclose(rebuilt.quantile_array(u), law.quantile_array(u), atol=1e-12)


def test_a_law_outside_the_table_has_no_config():
    with pytest.raises(NotImplementedError):
        UnivariateLaw().to_config()


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


@pytest.mark.parametrize("alpha, beta", [(1e300, 3.0), (3.0, 1e300), (1e300, 1e300)])
def test_a_beta_density_with_no_mass_on_its_grid_is_a_numerical_error(alpha, beta):
    # its density underflows (or overflows) on the whole grid; the edge
    # limit 1 / B(alpha, beta), whose B underflows to 0, is not taken there
    with pytest.raises(NormalizationError, match="no finite non-zero mass"):
        TabulatedBeta(alpha, beta, 129)


def test_law_config_rejects_unknown():
    with pytest.raises(ValidationError):
        law_from_config({"kind": "cauchy", "params": {}})
    with pytest.raises(ValidationError):
        law_from_config({"kind": "gaussian", "params": {"mu": 0, "spread": 2}})


@pytest.mark.parametrize("law", [law for law in ALL_LAWS if not isinstance(law, Laplace)],
                         ids=lambda l: repr(l)[:40])
def test_scalar_quantile_is_the_array_quantile_bit_for_bit(law):
    # Laplace keeps a math.log scalar of its own, which the spurious CSV pins
    u = np.concatenate([[1e-16, 1e-300, 0.5, 1.0 - 1e-16, np.nextafter(1.0, 0.0)],
                        np.random.default_rng(3).random(2000)])
    scalar = np.array([law.quantile(float(ui)) for ui in u])
    zero_d = np.array([law.quantile_array(np.array(ui)) for ui in u])
    for values in (scalar, zero_d):
        assert np.array_equal(values.view(np.int64), law.quantile_array(u).view(np.int64))


def _scalar_laplace_quantile(law, u):
    """The scalar math.log formula that the array call must repeat."""
    if u < 0.5:
        return law.mu + law.b * math.log(2.0 * u)
    return law.mu - law.b * math.log(2.0 * (1.0 - u))


_LAPLACE_EDGES = [1e-15, 1.0 - 1e-15, float(np.nextafter(0.5, 0.0)), 0.5, 5e-324, 1.0 - 1.1e-16]


class TestLaplaceQuantileArrays:
    @settings(deadline=None, max_examples=200)
    @given(law=st.sampled_from([Laplace(0.0, 1.0), Laplace(-1.0, 2.5), Laplace(3.0, 1e-3)]),
           us=st.lists(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                 st.sampled_from(_LAPLACE_EDGES)), max_size=40),
           shape=st.sampled_from([(-1,), (1, -1)]))
    def test_array_call_is_the_scalar_formula_bit_for_bit(self, law, us, shape):
        U = np.array(us, dtype=float).reshape(shape)
        got = law.quantile(U)
        expected = np.array([_scalar_laplace_quantile(law, u) for u in us]).reshape(U.shape)
        assert got.shape == U.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("u", _LAPLACE_EDGES)
    def test_a_0d_level_gives_a_float(self, u):
        law = Laplace(-1.0, 2.5)
        for level in (u, np.float64(u), np.array(u)):
            value = law.quantile(level)
            assert type(value) is float and value == _scalar_laplace_quantile(law, u)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, math.nan, math.inf])
    def test_levels_outside_the_open_interval_are_refused(self, bad):
        with pytest.raises(DomainError):
            Laplace(0.0, 1.0).quantile(np.array([0.3, bad, 0.6]))
        with pytest.raises(DomainError):
            Laplace(0.0, 1.0).quantile(bad)

    @pytest.mark.parametrize("law", [law for law in ALL_LAWS if not isinstance(law, Laplace)],
                             ids=lambda l: repr(l)[:40])
    def test_every_law_takes_arrays_of_levels(self, law):
        u = np.random.default_rng(4).random((3, 50))
        assert np.array_equal(law.quantile(u).view(np.int64), law.quantile_array(u).view(np.int64))
        with pytest.raises(DomainError):
            law.quantile(np.array([0.5, 1.0]))


class TestFactorial:
    def test_sample_shape_and_determinism(self):
        p = FactorialDistribution((Gaussian(0, 1), Uniform(0, 1), Laplace(0, 1)))
        a = sample_factorial(p, 50, seed=123)
        b = sample_factorial(p, 50, seed=123)
        assert a.shape == (50, 3)
        assert np.array_equal(a, b)
        c = sample_factorial(p, 50, seed=124)
        assert not np.array_equal(a, c)

    @given(
        laws=st.lists(st.sampled_from(ALL_LAWS), min_size=1, max_size=4),
        n=st.integers(1, 300),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
        block=st.booleans(),
    )
    @settings(deadline=None, max_examples=100)
    def test_a_seed_sequence_stacks_the_int_seed_calls_bit_for_bit(self, laws, n, seeds, block):
        p = FactorialDistribution(tuple(laws))
        stack = p.sample(n, SeedBlock(seeds) if block else seeds)
        assert stack.shape == (len(seeds), n, len(laws))
        for s, draws in zip(seeds, stack):
            # the int-seed call: law i quantiles the clipped uniforms of stream i
            reference = np.column_stack([
                law.quantile_array(np.clip(generator(substream(s, i)).random(n), 1e-16, 1.0 - 1e-16))
                for i, law in enumerate(laws)
            ])
            single = p.sample(n, s)
            assert single.flags.c_contiguous
            assert np.array_equal(single.view(np.int64), reference.view(np.int64))
            assert np.array_equal(draws.view(np.int64), reference.view(np.int64))

    @pytest.mark.parametrize("sample", [
        lambda seed: FactorialDistribution.iid(Uniform(0, 1), 2).sample(5, seed),
        lambda seed: SphericalSampler.standard_gaussian(4).sample_columns(2, seed),
        lambda seed: sample_isotropic_matrix(4, 2, seed=seed),
        lambda seed: sample_grid_maps(2, 8, 0.5, seed, eps=0.01),
    ], ids=["factorial", "sample_columns", "sample_isotropic_matrix", "sample_grid_maps"])
    @pytest.mark.parametrize("seed", [[[1, 2]], np.array([[1], [2]], dtype=np.uint64), [[[3]]]])
    def test_a_seed_array_of_two_axes_is_refused(self, sample, seed):
        with pytest.raises(DomainError, match="seed must be an integer or a 1-d sequence"):
            sample(seed)

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


@dataclass(frozen=True)
class ConditionedColumns(SphericalSampler):
    """Sampler whose matrix for each seed is Q diag(sv) V with orthonormal
    Q and V, largest singular value 1 and squared smallest-to-largest ratio
    drawn from ``ratios``: its raw draw is that matrix, with its own column
    norms as radii, so the scaled columns are it to rounding.  Logs every
    seed it is asked for."""

    ratios: tuple = ()
    seeds: list = field(default_factory=list)

    def draw(self, d, seeds):
        self.seeds.extend(seeds)
        out = np.empty((len(seeds), self.ambient_dim, d))
        for j, s in enumerate(seeds):
            gen = generator(s)
            Q = np.linalg.qr(gen.standard_normal((self.ambient_dim, d)))[0]
            V = np.linalg.qr(gen.standard_normal((d, d)))[0]
            low = np.sqrt(gen.choice(self.ratios))
            sv = np.concatenate([[1.0], gen.uniform(low, 1.0, d - 2), [low]])
            out[j] = (Q * sv) @ V
        return out, np.linalg.norm(out, axis=-2)


def svd_only_sample(m, d, sampler, seeds):
    """The rank check by the SVD of every draw, 3 draws per seed at most:
    the reference rule."""
    J = np.empty((len(seeds), m, d))
    failed = np.arange(len(seeds))
    for attempt in range(3):
        J[failed] = sampler.sample_columns(
            d, [seeds[j] if attempt == 0 else substream(seeds[j], 0xA11E, attempt) for j in failed]
        )
        sv = np.linalg.svd(J[failed], compute_uv=False)
        failed = failed[~(sv[:, -1] > RANK_TOL * sv[:, 0])]
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

    def test_rank_tol_lets_the_gram_route_accept(self):
        """An eigenvalue ratio above GRAM_RATIO_TOL must put the squared
        singular-value ratio well above RANK_TOL**2."""
        assert RANK_TOL <= 0.1 * math.sqrt(GRAM_RATIO_TOL)

    @pytest.mark.parametrize("rank_tol", [RANK_TOL])
    def test_near_dependent_columns_follow_the_svd_rule(self, rank_tol):
        m, d = 12, 3
        offsets = [-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3]
        ratios = [t * (1.0 + o) for t in (GRAM_RATIO_TOL, rank_tol**2) for o in offsets] + [1.0]
        seeds = [substream(77, i) for i in range(60)]
        fast, ref = ConditionedColumns(m, ratios=tuple(ratios)), ConditionedColumns(m, ratios=tuple(ratios))
        kept = []
        # a seed whose 3 draws all fail fails only its block of 10
        for start in range(0, len(seeds), 10):
            J, fast_failure = outcome(sample_isotropic_matrix, m, d, fast, seeds[start:start + 10])
            J_ref, ref_failure = outcome(svd_only_sample, m, d, ref, seeds[start:start + 10])
            assert fast_failure == ref_failure
            if ref_failure is None:
                assert np.array_equal(J, J_ref)
                kept.append(J)
        assert fast.seeds == ref.seeds
        assert len(ref.seeds) > len(seeds)  # some draws were resampled
        # rows right at GRAM_RATIO_TOL were kept, on either route
        J = np.concatenate(kept)
        eig = np.linalg.eigvalsh(np.matrix_transpose(J) @ J)
        ratio = eig[:, 0] / eig[:, -1]
        assert np.any(np.abs(ratio / GRAM_RATIO_TOL - 1.0) < 1e-5)

    @pytest.mark.parametrize("rank_tol, svd_rows", [(RANK_TOL, 0)])
    def test_svd_decides_every_draw_only_at_a_large_rank_tol(self, monkeypatch, rank_tol, svd_rows):
        """Well-conditioned draws never reach the SVD at RANK_TOL."""
        svd = np.linalg.svd
        rows = []

        def counting_svd(a, *args, **kwargs):
            rows.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        seeds = [substream(5, i) for i in range(200)]
        J = sample_isotropic_matrix(8, 3, SphericalSampler.standard_gaussian(8), seeds)
        assert sum(rows) == svd_rows
        monkeypatch.undo()
        assert np.array_equal(J, svd_only_sample(8, 3, SphericalSampler.standard_gaussian(8), seeds))


class TestGramOverflow:
    """Radii whose squares pass the largest float: each overflowing Gram's
    rank check falls to the SVD, and the draws are those of the unit
    sampler, scaled."""

    SAMPLER = SphericalSampler(8, Uniform(1e200, 2e200))

    def test_overflowing_grams_leave_the_rank_check_to_the_svd(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            J, G, eig = sample_isotropic_matrix(8, 3, self.SAMPLER, [1, 2, 3], with_gram=True)
            plain = sample_isotropic_matrix(8, 3, self.SAMPLER, [1, 2, 3])
        assert np.isinf(G).any(axis=(1, 2)).all() and np.isnan(eig).all()
        assert np.array_equal(J[:], plain)
        norms = np.linalg.norm(plain / 1e200, axis=1, keepdims=True)
        assert np.all((1.0 - 1e-12 <= norms) & (norms <= 2.0 + 1e-12))
        unit = sample_isotropic_matrix(8, 3, SphericalSampler.unit(8), [1, 2, 3])
        assert np.allclose(plain / 1e200 / norms, unit, rtol=0, atol=1e-15)

    def test_the_sweep_counts_as_with_unit_radii(self):
        scaled = concentration_sweep(3, 0.1, [8, 32], 300, seed=4,
                                     sampler_factory=lambda m: SphericalSampler(m, Uniform(1e200, 2e200)))
        unit = concentration_sweep(3, 0.1, [8, 32], 300, seed=4, sampler_factory=SphericalSampler.unit)
        assert [r.empirical_success for r in scaled] == [r.empirical_success for r in unit]


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

    def test_with_gram_returns_the_draws_and_the_gram_and_eigenvalues_of_their_rank_check(self):
        m, d = 9, 3
        seeds = [substream(4, i) for i in range(5)]
        plain = sample_isotropic_matrix(m, d, SphericalSampler.standard_gaussian(m), seeds)
        # the first draw of the first call fails and is drawn again
        sampler = SphericalSampler(m, ZeroFirstRadius(m, 1))
        J, G, eigvals = sample_isotropic_matrix(m, d, sampler, SeedBlock(seeds), with_gram=True)
        assert isinstance(J, ScaledColumns)
        resampled = sample_isotropic_matrix(m, d, SphericalSampler(m, ZeroFirstRadius(m, 1)), seeds)
        assert np.array_equal(J[:], resampled)
        assert np.array_equal(J[1:], plain[1:]) and not np.array_equal(J[:1], plain[:1])
        assert np.array_equal(eigvals, np.linalg.eigvalsh(G))
        # G and the computed J^T J each lie within about (m + 4) eps |J_i| |J_j|
        # of the exact Gram of the unrounded scaled columns (the m-term dot
        # product's rounding bound, plus the roundings of the norm, the
        # division and the radius), so they differ by at most twice that
        JtJ = np.matrix_transpose(resampled) @ resampled
        diag = np.diagonal(G, axis1=-2, axis2=-1)
        bound = 2 * (m + 4) * np.finfo(float).eps * np.sqrt(diag[:, :, None] * diag[:, None, :])
        assert np.all(np.abs(G - JtJ) <= bound)
        one = sample_isotropic_matrix(m, d, SphericalSampler(m, ZeroFirstRadius(m, 1)), seeds[0],
                                      with_gram=True)
        assert all(np.array_equal(a, b) for a, b in zip(one, (J[:1][0], G[0], eigvals[0])))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 300), st.booleans(),
           st.lists(st.booleans(), min_size=6, max_size=6), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_any_rows_of_the_lazy_stack_are_those_of_sample_columns(self, k, d, m, chi, mask, seed):
        m = max(m, d)
        sampler = SphericalSampler.standard_gaussian(m) if chi else SphericalSampler.unit(m)
        seeds = [substream(seed, j) for j in range(k)]
        full = sampler.sample_columns(d, seeds)
        lazy = ScaledColumns(*sampler.draw(d, seeds))
        rows = np.array(mask[:k])
        assert np.array_equal(lazy[rows], full[rows])
        assert np.array_equal(lazy[np.flatnonzero(rows)[::-1]], full[np.flatnonzero(rows)[::-1]])
        assert np.array_equal(lazy[k - 1:], full[k - 1:])
        assert np.array_equal(lazy[:], full)
        drawn, _, _ = sample_isotropic_matrix(m, d, sampler, seeds, with_gram=True)
        assert np.array_equal(drawn[rows], sample_isotropic_matrix(m, d, sampler, seeds)[rows])

    def test_rank_failure_on_every_attempt_raises(self):
        sampler = SphericalSampler(9, ZeroFirstRadius(9, 3))
        with pytest.raises(RankDeficientError):
            sample_isotropic_matrix(9, 3, sampler, seed=[5, 6])

    @pytest.mark.parametrize("d", [0, -1])
    def test_no_columns_is_a_domain_error(self, d):
        with pytest.raises(DomainError):
            sample_isotropic_matrix(4, d, seed=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sample_isotropic_matrix(10, 3, SphericalSampler.unit(8), seed=0)
        with pytest.raises(DimensionMismatchError):
            sample_isotropic_matrix(3, 10, seed=0)

    @given(st.integers(1, 8), st.integers(1, 2048), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3))
    @settings(deadline=None, max_examples=60)
    def test_columns_follow_the_norm_rule_bit_for_bit(self, d, m, seeds):
        """The column norms come from einsum for d > 1; each column must
        still be g / np.linalg.norm(g, axis=-2) of its own stream."""
        m = max(m, d)
        unit, chi = SphericalSampler.unit(m), SphericalSampler.standard_gaussian(m)
        got_unit, got_chi = unit.sample_columns(d, seeds), chi.sample_columns(d, SeedBlock(seeds))
        for j, s in enumerate(seeds):
            gen = generator(s)
            g = gen.standard_normal((m, d))
            u = gen.random(d)
            ref = g / np.linalg.norm(g, axis=-2, keepdims=True)
            assert np.array_equal(got_unit[j], ref)
            assert np.array_equal(got_chi[j], ref * Chi(m).quantile_array(np.clip(u, 1e-16, 1.0 - 1e-16)))

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
