"""The batch Jacobian protocol: every family's ``jacobian_batch`` equals a
per-point reference bit for bit, rejects exactly the points whose scalar
Jacobian raises a REJECTABLE error, and raises every other error as the
scalar call does.

The references below are the per-point formulas each family used before
it was vectorised; they are kept here as the oracle."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy import special

from ima_lab.distributions import (
    Chi,
    FactorialDistribution,
    Gaussian,
    Laplace,
    TabulatedBeta,
    Uniform,
)
from ima_lab.errors import (
    REJECTABLE,
    DomainError,
    NearPoleError,
    OnKnotError,
    OutOfDomainError,
    OutOfTableError,
    SupportError,
)
from ima_lab.experiments import (
    AffineTransform,
    CubeTransform,
    InverseElementwiseStage,
    TanhTransform,
    permutation_matrix,
)
from ima_lab.mixing import (
    _KNOT_TOL,
    ConformalMap,
    Inversion,
    LinearMap,
    Similarity,
    SmoothGridMap,
    TwoPieceMap,
    _blend_coeff,
    make_two_piece,
    random_conformal_map,
)
from ima_lab.mpa import (
    ComposedMap,
    CorrelatedGaussian,
    DarmoisInverse,
    RotatedFactorial,
    RotatedGaussianMPA,
    darmois_build,
    rotation_matrix_2d,
    spurious_darmois,
    spurious_mpa,
)

# ---------------------------------------------------------------------------
# per-point references
# ---------------------------------------------------------------------------


def _grid_reference(g, s):
    if g.eps == 0.0:
        if np.any(np.abs(s[:, None] - g.knots[None, :]) <= _KNOT_TOL):
            raise OnKnotError("on a knot")
        t = g._cells(s) - 1
        return g.blocks[t, :, np.arange(g.d)].T
    return np.einsum("tmk,kt->mk", g.blocks, g._jacobian_weights(s[None, :])[0])


def _two_piece_reference(tp, s):
    sk = s[tp.k]
    if tp.eps == 0.0:
        if abs(sk - tp.c) <= _KNOT_TOL and not tp.linear:
            raise OnKnotError("on the boundary")
        return (tp.J0 if sk <= tp.c else tp.J1).copy()
    J = tp.J0.copy()
    J[:, tp.k] = (
        tp.J0[:, tp.k] * _blend_coeff(tp.c - sk, tp.eps)
        + tp.J1[:, tp.k] * _blend_coeff(sk - tp.c, tp.eps)
    )
    return J


def _conformal_reference(cmap, s):
    x = s
    J = np.eye(cmap.d)
    for stage in cmap.inner:
        if isinstance(stage, Similarity):
            Js = stage.scale * stage.Q
            x_next = stage.scale * (stage.Q @ x) + stage.shift
        else:
            r2 = float(x @ x)
            if math.sqrt(r2) < stage.exclusion_radius:
                raise NearPoleError("near the pole")
            xhat = x / math.sqrt(r2)
            Js = (np.eye(x.shape[0]) - 2.0 * np.outer(xhat, xhat)) / r2
            x_next = x / r2
        J = Js @ J
        x = x_next
    return cmap.embed @ J


def _inverse_elementwise_reference(stage, x):
    pre = np.array([t.inverse(xi) for t, xi in zip(stage.transforms, x)])
    derivs = np.array([float(t.dforward(pi)) for t, pi in zip(stage.transforms, pre)])
    return np.diag(1.0 / derivs)


def _mpa_gaussianize(a, s):
    for i, law in enumerate(a.source.components):
        lo, hi = law.support
        if not lo < s[i] < hi:
            raise SupportError(f"coordinate {i} outside the support")
    u = np.array([float(law.cdf(si)) for law, si in zip(a.source.components, s)])
    return special.ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))


def _mpa_reference(a, s):
    """(z, z_rot, y) at one point, the output quantile taken element by element."""
    z = _mpa_gaussianize(a, s)
    z_rot = a.rotation @ z
    u_out = np.clip(special.ndtr(z_rot), 1e-15, 1.0 - 1e-15)
    return z, z_rot, np.array([law.quantile(float(ui)) for law, ui in zip(a.source.components, u_out)])


def _mpa_jacobian_reference(a, s):
    z, z_rot, y = _mpa_reference(a, s)
    phi = lambda t: np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    p_in = np.array([float(law.pdf(si)) for law, si in zip(a.source.components, s)])
    p_out = np.array([float(law.pdf(yi)) for law, yi in zip(a.source.components, y)])
    if np.any(p_out <= 0.0):
        raise SupportError("output outside the support")
    return a.rotation * np.outer(phi(z_rot) / p_out, p_in / phi(z))


def _darmois_check_inside(dm, x, margin=0.0):
    if not (dm.x1[0] + margin < x[0] < dm.x1[-1] - margin):
        raise OutOfTableError("x1 outside the table")
    if not (dm.x2[0] + margin < x[1] < dm.x2[-1] - margin):
        raise OutOfTableError("x2 outside the table")


def _darmois_blend_row(dm, x1):
    pos = (x1 - dm.x1[0]) / dm.h1
    i = int(np.clip(np.floor(pos), 0, dm.resolution - 2))
    w = pos - i
    return (1.0 - w) * dm.conditional_cdf_table[i] + w * dm.conditional_cdf_table[i + 1]


def _darmois_conditional(dm, x1, x2):
    return float(np.interp(x2, dm.x2, _darmois_blend_row(dm, x1)))


def _darmois_evaluate_reference(dm, x):
    _darmois_check_inside(dm, x)
    u1 = float(np.interp(x[0], dm.x1, dm.marginal_cdf))
    return np.array([u1, _darmois_conditional(dm, x[0], x[1])])


def _darmois_inverse_reference(dm, u):
    if not (0.0 < u[0] < 1.0 and 0.0 < u[1] < 1.0):
        raise DomainError("outside (0, 1)^2")
    x1 = float(np.interp(u[0], dm.marginal_cdf, dm.x1))
    return np.array([x1, float(np.interp(u[1], _darmois_blend_row(dm, x1), dm.x2))])


def _darmois_bilinear_joint(dm, x1, x2):
    pos1 = (x1 - dm.x1[0]) / dm.h1
    pos2 = (x2 - dm.x2[0]) / dm.h2
    i = int(np.clip(np.floor(pos1), 0, dm.resolution - 2))
    j = int(np.clip(np.floor(pos2), 0, dm.resolution - 2))
    w1 = pos1 - i
    w2 = pos2 - j
    P = dm.joint
    return float(
        (1 - w1) * (1 - w2) * P[i, j]
        + w1 * (1 - w2) * P[i + 1, j]
        + (1 - w1) * w2 * P[i, j + 1]
        + w1 * w2 * P[i + 1, j + 1]
    )


def _darmois_jacobian_reference(dm, x):
    _darmois_check_inside(dm, x, margin=dm.h1)
    p1 = float(np.interp(x[0], dm.x1, dm.marginal_pdf))
    d21 = (
        _darmois_conditional(dm, x[0] + dm.h1, x[1]) - _darmois_conditional(dm, x[0] - dm.h1, x[1])
    ) / (2.0 * dm.h1)
    return np.array([[p1, 0.0], [d21, _darmois_bilinear_joint(dm, x[0], x[1]) / p1]])


def _darmois_inverse_jacobian_reference(dm, u):
    J = _darmois_jacobian_reference(dm, _darmois_inverse_reference(dm, u))
    a, c, b = J[0, 0], J[1, 0], J[1, 1]
    return np.array([[1.0 / a, 0.0], [-c / (a * b), 1.0 / b]])


def reference_evaluate(stage, x):
    if isinstance(stage, RotatedGaussianMPA):
        return _mpa_reference(stage, x)[2]
    if isinstance(stage, DarmoisInverse):
        return _darmois_inverse_reference(stage.dm, x)
    return stage.evaluate(x)


def reference_jacobian(stage, x):
    if isinstance(stage, LinearMap):
        return stage.J.copy()
    if isinstance(stage, SmoothGridMap):
        return _grid_reference(stage, x)
    if isinstance(stage, TwoPieceMap):
        return _two_piece_reference(stage, x)
    if isinstance(stage, ConformalMap):
        return _conformal_reference(stage, x)
    if isinstance(stage, InverseElementwiseStage):
        return _inverse_elementwise_reference(stage, x)
    if isinstance(stage, RotatedGaussianMPA):
        return _mpa_jacobian_reference(stage, x)
    if isinstance(stage, DarmoisInverse):
        return _darmois_inverse_jacobian_reference(stage.dm, x)
    if isinstance(stage, ComposedMap):
        J = None
        for i, st_ in enumerate(stage.stages):
            Js = reference_jacobian(st_, x)
            J = Js if J is None else Js @ J
            if i + 1 < len(stage.stages):
                x = reference_evaluate(st_, x)
        return J
    raise TypeError(f"no per-point reference for {type(stage).__name__}")


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_batch_matches_reference(mapping, S):
    """Batch rows equal the per-point reference bit for bit, the mask marks
    exactly the rejected points, and the scalar call agrees with both."""
    J, rejected = mapping.jacobian_batch(S)
    assert J.shape == (len(S), mapping.m, mapping.d)
    assert rejected.shape == (len(S),) and rejected.dtype == bool
    for i, s in enumerate(S):
        try:
            expected = reference_jacobian(mapping, s)
        except REJECTABLE as exc:
            assert rejected[i], f"row {i} should be rejected"
            assert np.all(np.isnan(J[i]))
            with pytest.raises(type(exc)):
                mapping.jacobian(s)
            continue
        assert not rejected[i], f"row {i} should not be rejected"
        assert np.array_equal(bits(J[i]), bits(expected))
        assert np.array_equal(bits(mapping.jacobian(s)), bits(expected))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


@st.composite
def grid_cases(draw):
    """A grid map (d 1-4, delta 1-0.1, m from d to 300, eps 0 or inside
    (0, delta/4)) and points mixing uniform coordinates with 0, 1, every
    knot and every knot +- eps."""
    d = draw(st.integers(1, 4))
    delta = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25, 0.2, 0.1]))
    m = draw(st.one_of(st.integers(d, 12), st.just(300)))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-6, 0.99).map(lambda f: f * delta / 4.0)))
    p = math.ceil(1.0 / delta) + 1
    blocks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((p, m, d))
    grid = SmoothGridMap(blocks, delta, eps)
    special = sorted({0.0, 1.0} | {c for k in grid.knots for c in (k, k - eps, k + eps)})
    coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from([c for c in special if 0.0 <= c <= 1.0]))
    n = draw(st.sampled_from([1, 3, 64]))
    S = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)))
    return grid, S


class TestFamilies:
    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), n=st.integers(0, 20))
    def test_linear(self, seed, d, n):
        rng = np.random.default_rng(seed)
        f = LinearMap(rng.standard_normal((d + 3, d)))
        assert_batch_matches_reference(f, rng.standard_normal((n, d)))

    @settings(deadline=None, max_examples=200)
    @given(case=grid_cases())
    def test_grid(self, case):
        grid, S = case
        assert_batch_matches_reference(grid, S)

    @pytest.mark.parametrize("eps", [0.0, 0.02])
    def test_grid_point_outside_the_cube_raises(self, eps):
        grid = SmoothGridMap(np.ones((3, 4, 2)), 0.5, eps)
        S = np.array([[0.2, 0.3], [0.5, 1.2]])
        with pytest.raises(OutOfDomainError):
            grid.jacobian_batch(S)
        with pytest.raises(OutOfDomainError):
            grid.jacobian(S[1])

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.0, 0.05]),
           linear=st.booleans(), n=st.integers(1, 30))
    def test_two_piece(self, seed, eps, linear, n):
        rng = np.random.default_rng(seed)
        J0 = rng.standard_normal((6, 3))
        tp = make_two_piece(J0, 1, J0[:, 1].copy() if linear else rng.standard_normal(6), 0.4, eps)
        S = rng.standard_normal((n, 3))
        third = n // 3
        S[:third, 1] = 0.4  # on the boundary
        S[third:2 * third, 1] = 0.4 + rng.uniform(-0.06, 0.06, third)  # across the window
        assert_batch_matches_reference(tp, S)

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), n=st.integers(1, 30))
    def test_conformal_with_points_at_the_inversion_pole(self, seed, d, n):
        cmap = random_conformal_map(d, d + 3, seed, scale=1.3, with_inversion=True,
                                    shift_distance=2.0, exclusion_radius=0.4)
        similarity, shift = cmap.inner[0], cmap.inner[1].shift
        pole = -similarity.Q.T @ shift / similarity.scale  # latent point mapped onto the pole
        rng = np.random.default_rng(seed)
        offsets = rng.standard_normal((n, d))
        offsets *= rng.uniform(0.0, 0.8, (n, 1)) / np.linalg.norm(offsets, axis=1, keepdims=True)
        S = pole + offsets
        S[0] = pole
        assert_batch_matches_reference(cmap, S)

    def test_conformal_without_primitives_is_its_embedding(self):
        E, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 2)))
        cmap = ConformalMap(E, ())
        J, rejected = cmap.jacobian_batch(np.zeros((3, 2)))
        assert not rejected.any()
        assert np.array_equal(J, np.broadcast_to(E, (3, 5, 2)))

    def test_conformal_evaluate_batch_matches_the_reference_chain(self):
        cmap = random_conformal_map(3, 7, 4, with_inversion=True)
        S = np.random.default_rng(5).standard_normal((50, 3))
        expected = []
        for s in S:
            x = s
            for stage in cmap.inner:
                if isinstance(stage, Similarity):
                    x = stage.scale * (stage.Q @ x) + stage.shift
                else:
                    x = x / float(x @ x)
            expected.append(cmap.embed @ x)
        assert np.array_equal(bits(cmap.evaluate_batch(S)), bits(np.stack(expected)))
        assert np.array_equal(bits(cmap.evaluate(S[0])), bits(expected[0]))

    def test_inversion_evaluate_batch_refuses_the_pole(self):
        with pytest.raises(NearPoleError):
            Inversion(0.1).evaluate_batch(np.array([[1.0, 0.0], [0.01, 0.0]]))


_TRANSFORMS = [AffineTransform(0.5, 0.25), AffineTransform(-1.5, 0.2), CubeTransform(), TanhTransform()]


class TestInverseElementwiseStage:
    @settings(deadline=None, max_examples=100)
    @given(kinds=st.lists(st.sampled_from(range(len(_TRANSFORMS))), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1), lead=st.sampled_from([(), (5,), (2, 3)]))
    def test_jacobian_broadcasts_over_leading_axes(self, kinds, seed, lead):
        stage = InverseElementwiseStage([_TRANSFORMS[k] for k in kinds])
        d = len(kinds)
        X = np.random.default_rng(seed).uniform(-0.9, 0.9, lead + (d,))
        J = stage.jacobian(X)
        assert J.shape == lead + (d, d)
        flat = X.reshape(-1, d)
        expected = np.stack([_inverse_elementwise_reference(stage, x) for x in flat])
        assert np.array_equal(bits(J.reshape(-1, d, d)), bits(expected))
        batch, rejected = stage.jacobian_batch(flat)
        assert np.array_equal(bits(batch), bits(expected)) and not rejected.any()


# ---------------------------------------------------------------------------
# spurious stages
# ---------------------------------------------------------------------------

_LAWS = [Uniform(0.0, 1.0), Gaussian(0.3, 1.5), Laplace(0.0, 1.0), Chi(3), TabulatedBeta(2.0, 3.0, 129)]

#: CDF levels whose quantiles land where the MPA clamps, or next to it
_EXTREME_U = [5e-324, 1e-300, 1e-17, 1e-15, 2e-15, 0.5, 1.0 - 2e-15, 1.0 - 1.1e-16]


@st.composite
def mpa_cases(draw):
    """An MPA on two of the five laws at an angle from a few fixed ones or
    any, and points of shape ``lead + (2,)``: the quantiles of uniform and
    extreme CDF levels, plus raw coordinates that may leave the support."""
    laws = tuple(_LAWS[k] for k in draw(st.lists(st.integers(0, 4), min_size=2, max_size=2)))
    angle = draw(st.one_of(st.sampled_from([0.0, 0.1, math.pi / 6, math.pi / 2, 2.5, -1.0]),
                           st.floats(-math.pi, math.pi)))
    a = RotatedGaussianMPA(FactorialDistribution(laws), rotation_matrix_2d(angle))
    level = st.one_of(st.floats(1e-12, 1.0 - 1e-12), st.sampled_from(_EXTREME_U))
    raw = draw(st.booleans())
    coords = [st.one_of(level.map(law.quantile), st.floats(-3.0, 3.0)) if raw
              else level.map(law.quantile) for law in laws]
    lead = draw(st.sampled_from([(0,), (1,), (7,), (40,), (2, 5)]))
    n = int(np.prod(lead))
    S = np.array(draw(st.lists(st.tuples(*coords), min_size=n, max_size=n)), dtype=float)
    return a, S.reshape(lead + (2,))


#: Darmois densities, each with the lowest table resolution whose
#: quadrature mass passes the table's 1e-4 check
_DENSITIES = [
    (CorrelatedGaussian(-0.8), 128),
    (CorrelatedGaussian(0.0), 128),
    (CorrelatedGaussian(0.6), 128),
    (CorrelatedGaussian(0.9), 128),
    (RotatedFactorial((Gaussian(0.0, 1.0),) * 2, rotation_matrix_2d(0.5)), 128),
    (RotatedFactorial((Laplace(0.0, 1.0), Gaussian(0.0, 1.0)), rotation_matrix_2d(1.2)), 200),
    (RotatedFactorial((Laplace(0.0, 1.0),) * 2, rotation_matrix_2d(math.pi / 6)), 333),
]


@functools.lru_cache(maxsize=None)
def _darmois(k, resolution):
    return darmois_build(_DENSITIES[k][0], resolution)


@st.composite
def darmois_tables(draw):
    k = draw(st.integers(0, len(_DENSITIES) - 1))
    return _darmois(k, draw(st.sampled_from([r for r in (128, 200, 333, 512) if r >= _DENSITIES[k][1]])))


def _table_coordinate(grid, h):
    """Coordinates on one axis of a Darmois table: anywhere on it and on
    its edges, exactly on nodes, a node plus or minus one cell, and within
    one and a half cells of either edge."""
    lo, hi = float(grid[0]), float(grid[-1])
    node = st.integers(0, len(grid) - 1).map(lambda k: float(grid[k]))
    near_edge = st.tuples(st.floats(0.0, 1.5), st.booleans()).map(
        lambda t: lo + t[0] * h if t[1] else hi - t[0] * h)
    return st.one_of(
        st.floats(0.0, 1.0).map(lambda t: lo + t * (hi - lo)),
        node,
        st.tuples(node, st.sampled_from([-h, h])).map(sum),
        near_edge,
    )


def _unit_coordinate(nodes):
    """Levels in [0, 1]: anywhere, at 0 and 1 and next to them, and exactly
    on the tabulated CDF values."""
    return st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-16, 1.0 - 1.1e-16, 1.0 - 2.2e-16, 1.0]),
        st.integers(0, len(nodes) - 1).map(lambda k: float(nodes[k])),
    )


def assert_stacked_matches_reference(fn, reference, X, error):
    """fn on the rows the reference accepts equals it bit for bit, on a
    flat and on a two-axis stack, and fn on all rows raises ``error``
    where the reference raises it on any row."""
    expected, ok = [], np.ones(len(X), dtype=bool)
    for i, x in enumerate(X):
        try:
            expected.append(reference(x))
        except error:
            ok[i] = False
    if not ok.all():
        with pytest.raises(error):
            fn(X)
    if not ok.any():
        return
    expected = np.stack(expected)
    assert np.array_equal(bits(fn(X[ok])), bits(expected))
    assert np.array_equal(bits(fn(X[ok][None])[0]), bits(expected))
    assert np.array_equal(bits(fn(X[ok][0])), bits(expected[0]))


class TestSpuriousStages:
    @pytest.mark.filterwarnings("ignore::ima_lab.mpa.ClampWarning")
    @settings(deadline=None, max_examples=300)
    @given(case=mpa_cases())
    @example(case=(RotatedGaussianMPA(FactorialDistribution.iid(Uniform(0.0, 1.0), 2),
                                      rotation_matrix_2d(0.5)),
                   np.array([[0.5, 0.5], [1.5, 0.5]])))
    def test_mpa_matches_the_reference(self, case):
        a, S = case
        flat = S.reshape(-1, 2)
        try:
            Y = np.array([_mpa_reference(a, s)[2] for s in flat]).reshape(S.shape)
        except SupportError:
            for fn in (a.evaluate, a.jacobian, a.jacobian_batch):
                with pytest.raises(SupportError):
                    fn(flat)
            return
        assert np.array_equal(bits(a.evaluate(S)), bits(Y))
        assert np.array_equal(bits(a.evaluate_batch(flat)), bits(Y.reshape(-1, 2)))
        if len(flat):
            assert np.array_equal(bits(a.evaluate(flat[0])), bits(Y.reshape(-1, 2)[0]))
        try:
            J = np.array([_mpa_jacobian_reference(a, s) for s in flat]).reshape(S.shape + (2,))
        except SupportError:
            with pytest.raises(SupportError):
                a.jacobian_batch(flat)
            return
        assert np.array_equal(bits(a.jacobian(S)), bits(J))
        if len(flat):
            assert np.array_equal(bits(a.jacobian(flat[0])), bits(J.reshape(-1, 2, 2)[0]))
        batch, rejected = a.jacobian_batch(flat)
        assert np.array_equal(bits(batch), bits(J.reshape(-1, 2, 2))) and not rejected.any()

    @settings(deadline=None, max_examples=150)
    @given(dm=darmois_tables(), data=st.data())
    def test_darmois_forward_and_jacobian_match_the_reference(self, dm, data):
        point = st.tuples(_table_coordinate(dm.x1, dm.h1), _table_coordinate(dm.x2, dm.h2))
        X = np.array(data.draw(st.lists(point, min_size=1, max_size=40)))
        assert_stacked_matches_reference(dm.evaluate, lambda x: _darmois_evaluate_reference(dm, x),
                                         X, OutOfTableError)
        assert_stacked_matches_reference(dm.jacobian, lambda x: _darmois_jacobian_reference(dm, x),
                                         X, OutOfTableError)

    @settings(deadline=None, max_examples=100)
    @given(dm=darmois_tables(), data=st.data())
    def test_darmois_kernel_is_np_interp_beyond_the_table_too(self, dm, data):
        """The interpolation kernel equals np.interp along the blended row
        in both directions, before the first node and past the last one
        included, where the public calls refuse the point."""
        x1 = data.draw(_table_coordinate(dm.x1, dm.h1))
        lo, hi = dm.x2[0], dm.x2[-1]
        x2_any = st.one_of(_table_coordinate(dm.x2, dm.h2), st.floats(lo - 1.0, hi + 1.0))
        u_any = st.one_of(_unit_coordinate(dm.conditional_cdf_table[0]), st.floats(-0.5, 1.5))
        x2 = np.array(data.draw(st.lists(x2_any, min_size=1, max_size=20)))
        u = np.array(data.draw(st.lists(u_any, min_size=1, max_size=20)))
        row = _darmois_blend_row(dm, x1)
        forward = dm._conditional(np.full(x2.shape, x1), x2)
        assert np.array_equal(bits(forward), bits(np.interp(x2, dm.x2, row)))
        backward = dm._interp(u, dm._row(np.full(u.shape, x1)), lambda j: dm.x2[j])
        assert np.array_equal(bits(backward), bits(np.interp(u, row, dm.x2)))

    @settings(deadline=None, max_examples=150)
    @given(dm=darmois_tables(), data=st.data())
    def test_darmois_inverse_matches_the_reference(self, dm, data):
        row = data.draw(st.integers(0, dm.resolution - 1))
        level = st.tuples(_unit_coordinate(dm.marginal_cdf),
                          _unit_coordinate(dm.conditional_cdf_table[row]))
        U = np.array(data.draw(st.lists(level, min_size=1, max_size=40)))
        assert_stacked_matches_reference(dm.inverse, lambda u: _darmois_inverse_reference(dm, u),
                                         U, DomainError)
        stage = DarmoisInverse(dm)
        U = U[np.all((0.0 < U) & (U < 1.0), axis=1)]
        assert_stacked_matches_reference(
            stage.jacobian, lambda u: _darmois_inverse_jacobian_reference(dm, u), U, OutOfTableError)
        J, rejected = stage.jacobian_batch(U)
        for i, u in enumerate(U):
            try:
                expected = _darmois_inverse_jacobian_reference(dm, u)
            except OutOfTableError:
                assert rejected[i] and np.all(np.isnan(J[i]))
                continue
            assert not rejected[i]
            assert np.array_equal(bits(J[i]), bits(expected))


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def _reparam_chain(mapping, perm, transforms):
    return ComposedMap([LinearMap(permutation_matrix(perm).T), InverseElementwiseStage(transforms), mapping])


class TestComposed:
    @settings(deadline=None, max_examples=100)
    @given(case=grid_cases(), seed=st.integers(0, 2**32 - 1))
    def test_reparam_chain_on_grid_maps(self, case, seed):
        grid, S = case
        rng = np.random.default_rng(seed)
        perm = rng.permutation(grid.d)
        transforms = [AffineTransform(1.0, 0.0) if k else AffineTransform(0.5, 0.25)
                      for k in rng.integers(0, 2, grid.d)]
        chain = _reparam_chain(grid, perm, transforms)
        # the reparametrized points of S, as reparam_invariance_check builds
        # them; the chain maps them back onto S, knot rows included
        X = np.column_stack([t.forward(S[:, i]) for i, t in enumerate(transforms)])
        X = X @ permutation_matrix(perm).T
        assert_batch_matches_reference(chain, X)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_reparam_chain_on_conformal_maps(self, seed, n):
        cmap = random_conformal_map(2, 7, seed, with_inversion=True, shift_distance=1.0,
                                    exclusion_radius=0.5)
        chain = _reparam_chain(cmap, [1, 0], [TanhTransform(), AffineTransform(-1.5, 0.2)])
        X = np.random.default_rng(seed).uniform(-0.95, 0.95, (n, 2))
        assert_batch_matches_reference(chain, X)

    def test_mpa_chain_matches_and_raises_support_errors(self):
        f = random_conformal_map(2, 5, 3)
        laplace = FactorialDistribution.iid(Laplace(0.0, 1.0), 2)
        chain = spurious_mpa(f, RotatedGaussianMPA(laplace, rotation_matrix_2d(0.5)))
        assert_batch_matches_reference(chain, np.random.default_rng(4).laplace(size=(30, 2)))
        uniform = FactorialDistribution.iid(Uniform(0.0, 1.0), 2)
        chain = spurious_mpa(f, RotatedGaussianMPA(uniform, rotation_matrix_2d(0.5)))
        with pytest.raises(SupportError):
            chain.jacobian_batch(np.array([[0.5, 0.5], [1.5, 0.5]]))

    def test_darmois_chain_rejects_the_table_edges(self):
        dm = darmois_build(CorrelatedGaussian(0.6), 128)
        chain = spurious_darmois(random_conformal_map(2, 5, 6), rotation_matrix_2d(0.5), dm)
        U = np.random.default_rng(7).uniform(0.01, 0.99, (20, 2))
        U[:4] = [[1e-300, 0.5], [0.5, 1e-300], [1.0 - 1e-16, 0.5], [0.5, 1.0 - 1e-16]]
        assert_batch_matches_reference(chain, U)
        assert chain.jacobian_batch(U)[1][:4].any()

    def test_only_surviving_rows_reach_later_stages(self):
        class Probe:
            d_in = d_out = 2

            def __init__(self):
                self.seen = None

            def jacobian_batch(self, X):
                self.seen = X.copy()
                return np.broadcast_to(np.eye(2), (len(X), 2, 2)), np.zeros(len(X), dtype=bool)

            def evaluate_batch(self, X):
                raise AssertionError("the last stage is never evaluated")

        E, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((2, 2)))
        first = ConformalMap(E, (Inversion(exclusion_radius=0.5),))
        probe = Probe()
        S = np.array([[2.0, 0.0], [0.1, 0.1], [0.0, 3.0]])  # the middle row is at the pole
        J, rejected = ComposedMap([first, probe]).jacobian_batch(S)
        assert rejected.tolist() == [False, True, False]
        assert np.array_equal(probe.seen, first.evaluate_batch(S[[0, 2]]))
        assert np.all(np.isnan(J[1])) and not np.isnan(J[[0, 2]]).any()


# ---------------------------------------------------------------------------
# element-wise transforms
# ---------------------------------------------------------------------------


class TestTransformBits:
    @settings(deadline=None, max_examples=200)
    @given(k=st.sampled_from(range(len(_TRANSFORMS))),
           xs=st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=50))
    # where a 0-d tanh derivative once went through libm pow and lost a bit
    @example(k=3, xs=[0.3099318858547778, 0.27230002685883237, 0.8756008201221935])
    def test_scalar_and_array_calls_agree_bit_for_bit(self, k, xs):
        t = _TRANSFORMS[k]
        X = np.array(xs)
        for name in ("forward", "inverse", "dforward"):
            fn = getattr(t, name)
            scalar = np.array([float(fn(x)) for x in xs])
            assert np.array_equal(bits(scalar), bits(fn(X))), name
