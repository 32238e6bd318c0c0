"""Univariate laws, factorial source distributions, and spherically
symmetric column samplers.

Laws expose ``pdf``/``cdf``/``quantile_array``; ``quantile`` is
``quantile_array`` on levels checked to lie in (0, 1), a float at a 0-d
level (``Laplace`` alone keeps a ``math.log`` formula of its own, applied
at each level), and ``FactorialDistribution.sample`` draws from them by
inverse CDF.  ``_LAW_KINDS`` is the one schema of the CLI's JSON law
objects, which ``law_from_config`` reads and ``UnivariateLaw.to_config``
writes.  Every law has a closed-form quantile; the beta-shaped law is
backed by a quantile table built with trapezoid quadrature.

One home per sampling rule: :func:`seeding.seed_list` reads every seed,
:func:`column_sampler` picks the column sampler of R^m, and
``_open_levels`` keeps uniform levels strictly inside (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import schema
from .contrast import full_rank_by_gram
from .errors import (
    DimensionMismatchError,
    DomainError,
    NormalizationError,
    NumericalError,
    RankDeficientError,
    ValidationError,
)
from .seeding import generators, seed_list, stream_seeds, substream


def _open_levels(u: np.ndarray) -> np.ndarray:
    """The uniform levels u clipped in place to [1e-16, 1 - 1e-16],
    strictly inside (0, 1), where every quantile is finite."""
    return np.clip(u, 1e-16, 1.0 - 1e-16, out=u)


def _check_levels(u) -> np.ndarray:
    """The levels u as a float array, each checked to lie in (0, 1)."""
    u = np.asarray(u, dtype=float)
    outside = ~((0.0 < u) & (u < 1.0))
    if outside.any():
        raise DomainError(f"quantile argument must lie in (0, 1), got {u[outside].flat[0]}")
    return u


def _scalar_if_0d(values: np.ndarray):
    """A float for a 0-d result, the array otherwise."""
    return float(values) if values.ndim == 0 else values


#: ``math.log`` at each element, bit for bit the scalar call (``np.log``
#: differs from it in the last bit on about 0.3% of arguments)
_math_log = np.frompyfunc(math.log, 1, 1)


class UnivariateLaw:
    """Base class; subclasses fill in pdf/cdf and the closed-form
    ``quantile_array``."""

    #: open support (lo, hi); infinities allowed
    support: tuple[float, float] = (-math.inf, math.inf)

    def pdf(self, x):
        raise NotImplementedError

    def _pdf_in_place(self, z: np.ndarray) -> np.ndarray:
        """``pdf`` at the float array z, which the call may overwrite and
        return: a law whose density works in place spares the copy."""
        return self.pdf(z)

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        """The quantile at each level of u, each in (0, 1) (DomainError
        otherwise): ``quantile_array`` on checked levels, a float at a
        0-d level."""
        return _scalar_if_0d(np.asarray(self.quantile_array(_check_levels(u))))

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quantile_in_place(self, u: np.ndarray) -> np.ndarray:
        """``quantile_array`` at the float levels u, which the call may
        overwrite and return: a law whose quantile works in place spares
        the copy."""
        return self.quantile_array(u)

    def to_config(self) -> dict:
        """The ``{"kind": ..., "params": {...}}`` object that
        :func:`law_from_config` reads back: the law's kind and its params
        by name, as ``_LAW_KINDS`` lists them."""
        for kind, (cls, table) in _LAW_KINDS.items():
            if isinstance(self, cls):
                return {"kind": kind, "params": {name: getattr(self, name) for name in table}}
        raise NotImplementedError(f"{type(self).__name__} has no config kind")


@dataclass(frozen=True)
class Uniform(UnivariateLaw):
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not self.b > self.a:
            raise DomainError("uniform law requires b > a")
        object.__setattr__(self, "support", (self.a, self.b))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile_array(self, u):
        return self._quantile_in_place(np.array(u, dtype=float))

    def _quantile_in_place(self, u):
        u *= self.b - self.a
        u += self.a  # a + (b - a) u, in u's buffer
        return u


@dataclass(frozen=True)
class Gaussian(UnivariateLaw):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError("gaussian law requires sigma > 0")

    def pdf(self, x):
        return self._pdf_in_place(np.array(x, dtype=float))[()]

    def _pdf_in_place(self, z):
        z -= self.mu
        z /= self.sigma
        q = np.multiply(z, -0.5, out=np.empty_like(z))
        q *= z
        np.exp(q, out=q)
        q /= self.sigma * math.sqrt(2.0 * math.pi)
        return q

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return special.ndtr(z)

    def quantile_array(self, u):
        return self.mu + self.sigma * special.ndtri(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class Laplace(UnivariateLaw):
    mu: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not self.b > 0:
            raise DomainError("laplace law requires b > 0")

    def pdf(self, x):
        return self._pdf_in_place(np.array(x, dtype=float))[()]

    def _pdf_in_place(self, z):
        z -= self.mu
        np.abs(z, out=z)
        z /= self.b
        np.negative(z, out=z)
        np.exp(z, out=z)
        z /= 2.0 * self.b
        return z

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.b
        # exp(-|z|) is the exp of both branches and never overflows
        e = np.exp(-np.abs(z))
        return np.where(z < 0, 0.5 * e, 1.0 - 0.5 * e)

    def quantile(self, u):
        """The quantile by ``math.log`` at each level, bit for bit the
        scalar formula; a float at a 0-d level."""
        u = _check_levels(u)
        lower = u < 0.5
        logs = np.asarray(_math_log(np.where(lower, 2.0 * u, 2.0 * (1.0 - u))), dtype=float)
        return _scalar_if_0d(np.where(lower, self.mu + self.b * logs, self.mu - self.b * logs))

    # np.log here, math.log in quantile: the two differ in the last bit on a
    # few points, and the spurious CSV pins both (sampling and the MPA output)
    def quantile_array(self, u):
        u = np.asarray(u, dtype=float)
        lower = self.mu + self.b * np.log(2.0 * u)
        upper = self.mu - self.b * np.log(2.0 * (1.0 - u))
        return np.where(u < 0.5, lower, upper)


@dataclass(frozen=True)
class Chi(UnivariateLaw):
    """Chi law with k degrees of freedom: the norm of a standard Gaussian
    vector in R^k.  Used as the default radial law of spherical samplers."""

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("chi law requires k >= 1")
        object.__setattr__(self, "support", (0.0, math.inf))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        k = self.k
        log_norm = (1.0 - k / 2.0) * math.log(2.0) - special.gammaln(k / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = log_norm + (k - 1) * np.log(x) - x * x / 2.0
        return np.where(x > 0, np.exp(logp), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, special.gammainc(self.k / 2.0, x * x / 2.0), 0.0)

    def quantile_array(self, u):
        return np.sqrt(2.0 * special.gammaincinv(self.k / 2.0, np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class TabulatedBeta(UnivariateLaw):
    """Beta-shaped law on (0, 1) backed by a quantile table.

    The CDF is tabulated by trapezoid quadrature of the density
    x^(alpha-1) (1-x)^(beta-1) / B(alpha, beta) on a uniform grid.
    alpha, beta >= 1 keeps the density finite everywhere; a density that
    has no finite non-zero mass on the grid (alpha or beta near 1e300)
    raises NormalizationError.
    """

    alpha: float = 2.0
    beta: float = 2.0
    points: int = 4097
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _cdf_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.alpha < 1.0 or self.beta < 1.0:
            raise DomainError("beta-shaped law requires alpha >= 1 and beta >= 1 (finite density)")
        if self.points < 65:
            raise DomainError("quantile table needs at least 65 points")
        object.__setattr__(self, "support", (0.0, 1.0))
        grid = np.linspace(0.0, 1.0, self.points)
        dens = self.pdf(grid)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        # a density too peaked for the grid underflows at every point (or
        # overflows at some), so it has no table
        if not 0.0 < cdf[-1] < math.inf:
            raise NormalizationError(
                f"beta({self.alpha}, {self.beta}) density has no finite non-zero mass "
                f"on its {self.points}-point grid"
            )
        cdf /= cdf[-1]
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_cdf_table", cdf)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        log_norm = -special.betaln(self.alpha, self.beta)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logp = log_norm + (self.alpha - 1.0) * np.log(x) + (self.beta - 1.0) * np.log1p(-x)
            out = np.exp(logp)
        out = np.where((x < 0) | (x > 1), 0.0, out)
        # alpha == 1 (or beta == 1) gives 0*log(0) at the edge; define by
        # limit, there only: B(alpha, beta) underflows to 0 at large alpha
        # and beta, whose density has no such edge
        edge = np.isnan(out)
        if edge.any():
            out[edge] = 1.0 / math.exp(special.betaln(self.alpha, self.beta))
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self._grid, self._cdf_table)

    def quantile_array(self, u):
        return np.interp(np.asarray(u, dtype=float), self._cdf_table, self._grid)


_OPTIONAL_REAL = (schema.real, schema.OPTIONAL)

#: law kind -> (class, table of its params)
_LAW_KINDS = {
    "uniform": (Uniform, {"a": _OPTIONAL_REAL, "b": _OPTIONAL_REAL}),
    "gaussian": (Gaussian, {"mu": _OPTIONAL_REAL, "sigma": _OPTIONAL_REAL}),
    "laplace": (Laplace, {"mu": _OPTIONAL_REAL, "b": _OPTIONAL_REAL}),
    "chi": (Chi, {"k": _OPTIONAL_REAL}),
    "beta": (TabulatedBeta, {"alpha": _OPTIONAL_REAL, "beta": _OPTIONAL_REAL,
                             "points": (schema.integer, schema.OPTIONAL)}),
}

_LAW_CONFIG = {
    "kind": (schema.lookup(_LAW_KINDS), schema.REQUIRED),
    "params": (schema.mapping, {}),
}


def law_from_config(config: dict, where: str = "law config") -> UnivariateLaw:
    """Build a law from a ``{"kind": ..., "params": {...}}`` object; a
    malformed one, or one its constructor refuses, raises ValidationError
    naming ``where``."""
    fields = schema.read(config, _LAW_CONFIG, where)
    cls, table = fields["kind"]
    where = f"{where} {config['kind']!r} params"
    args = schema.read(fields["params"], table, where)
    try:
        return cls(**args)
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class FactorialDistribution:
    """Product of independent univariate laws; joint density is the product."""

    components: tuple[UnivariateLaw, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValidationError("factorial distribution needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def dim(self) -> int:
        return len(self.components)

    def pdf(self, s: np.ndarray) -> float:
        s = np.asarray(s, dtype=float)
        return float(np.prod([law.pdf(si) for law, si in zip(self.components, s)]))

    def sample(self, n: int, seed) -> np.ndarray:
        """(n, d) array of i.i.d. draws by inverse-CDF sampling; component i
        quantiles n uniforms of the stream ``substream(seed, i)``.

        A 1-d sequence of k seeds, or a :class:`seeding.SeedBlock`, gives a
        (k, n, d) stack whose slice j is bit for bit the int-seed call with
        ``seed[j]``; its k d streams come from one sub-seed pass
        (:func:`seeding.stream_seeds`) and one seed hash
        (:func:`seeding.generators`), and each law quantiles all k of its
        streams in one call.
        """
        if n < 1:
            raise DomainError("sample count must be >= 1")
        seeds, scalar = seed_list(seed)
        d, k = self.dim, len(seeds)
        # the streams law by law, so one contiguous (k, n) level block, which
        # its law's quantile may overwrite, serves every law in turn
        streams = generators(stream_seeds(seeds, d).reshape(k, d).T.reshape(-1))
        levels = np.empty((k, n))
        draws = np.empty((k, n, d))
        for i, law in enumerate(self.components):
            for row in levels:
                next(streams).random(out=row)
            draws[:, :, i] = law._quantile_in_place(_open_levels(levels))
        # computed from valid params (uniform(-1e308, 1e308) overflows), so a
        # numerical failure, which a map's point check would call a malformed input
        if not np.all(np.isfinite(draws)):
            raise NumericalError("a source law drew non-finite values")
        return draws[0] if scalar else draws

    @staticmethod
    def from_config(configs, where: str = "source law list") -> "FactorialDistribution":
        """The product of a JSON list of law objects; a schema reader.  A
        malformed law is named by its index, as in ``source law list[2]``."""
        laws = schema.array(configs, where)
        return FactorialDistribution(tuple(law_from_config(c, f"{where}[{i}]") for i, c in enumerate(laws)))

    @staticmethod
    def iid(law: UnivariateLaw, d: int) -> "FactorialDistribution":
        return FactorialDistribution((law,) * d)


def sample_factorial(p_s: FactorialDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. latent draws from a factorial source distribution."""
    return p_s.sample(n, seed)


@dataclass(frozen=True)
class SphericalSampler:
    """Draws columns R * U with U uniform on the unit sphere of R^m and R
    an independent non-negative radial variable.

    ``radial_law=None`` pins the radius to 1 (uniform on the sphere).  The
    default factory uses the chi(m) radius, which makes each column a
    standard Gaussian vector in R^m.
    """

    ambient_dim: int
    radial_law: UnivariateLaw | None = None

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise DomainError("ambient dimension must be >= 1")

    @staticmethod
    def standard_gaussian(m: int) -> "SphericalSampler":
        return SphericalSampler(m, Chi(m))

    @staticmethod
    def unit(m: int) -> "SphericalSampler":
        return SphericalSampler(m, None)

    def sample_columns(self, d: int, seed) -> np.ndarray:
        """(m, d) matrix with i.i.d. spherically symmetric columns: the
        :meth:`draw` scaled to its radii (:class:`ScaledColumns`).

        A 1-d sequence of k seeds, or a :class:`seeding.SeedBlock`, gives
        a (k, m, d) stack whose matrix j is bit for bit the int-seed call
        with ``seed[j]``; its streams come from one seed hash
        (:func:`seeding.generators`).
        """
        seeds, scalar = seed_list(seed)
        columns = ScaledColumns(*self.draw(d, seeds)).scale_in_place()
        return columns[0] if scalar else columns

    def draw(self, d: int, seeds) -> tuple[np.ndarray, np.ndarray | None]:
        """The raw draw under :meth:`sample_columns` for a 1-d sequence of
        k seeds (or a :class:`seeding.SeedBlock`): (k, m, d) standard
        normals and the (k, d) column radii, None for the unit radius.
        Seed j's stream gives its normals, then its radius levels."""
        g = np.empty((len(seeds), self.ambient_dim, d))
        u = np.empty((len(seeds), d))
        for j, gen in enumerate(generators(seeds)):
            gen.standard_normal(out=g[j])
            if self.radial_law is not None:
                gen.random(out=u[j])
        if self.radial_law is None:
            return g, None
        return g, self.radial_law.quantile_array(_open_levels(u))


def column_sampler(m: int, sampler: SphericalSampler | None = None) -> SphericalSampler:
    """The sampler of columns in R^m: ``sampler``, or the standard
    Gaussian for None; a sampler of another ambient dimension is a
    DimensionMismatchError."""
    if sampler is None:
        return SphericalSampler.standard_gaussian(m)
    if sampler.ambient_dim != m:
        raise DimensionMismatchError(
            f"sampler ambient dimension {sampler.ambient_dim} does not match m={m}"
        )
    return sampler


def _column_norms(g: np.ndarray) -> np.ndarray:
    """(k, 1, d) column norms of a (k, m, d) stack, bit for bit
    ``np.linalg.norm(g, axis=-2, keepdims=True)``.  For d > 1 both sum the
    squares down each column in order; at d = 1 the column is contiguous,
    ``norm`` sums it pairwise and einsum does not, so d = 1 keeps ``norm``.
    """
    if g.shape[-1] == 1:
        return np.linalg.norm(g, axis=-2, keepdims=True)
    return np.sqrt(np.einsum("kmd,kmd->kd", g, g))[:, None, :]


class ScaledColumns:
    """A (k, m, d) stack of drawn columns: the raw draw ``g`` of
    :meth:`SphericalSampler.draw` scaled to its (k, d) ``radii`` (to unit
    norm for None), ``(g / norms) * radii``, only where it is read.
    ``stack[rows]``, for a slice, mask or index array of rows, scales
    those rows alone, bit for bit the same rows of the whole scaled stack
    ``stack[:]``."""

    def __init__(self, g: np.ndarray, radii: np.ndarray | None):
        self.g, self.radii = g, radii

    def __getitem__(self, rows) -> np.ndarray:
        return self._scaled(rows, None)

    def scale_in_place(self) -> np.ndarray:
        """``self[:]``, bit for bit, written over the raw draw ``g``, for a
        caller that keeps no raw column: the scaling holds no second stack."""
        return self._scaled(slice(None), self.g)

    def _scaled(self, rows, out) -> np.ndarray:
        g = self.g[rows]
        columns = np.divide(g, _column_norms(g), out=out)
        if self.radii is not None:
            columns *= self.radii[rows][:, None, :]
        return columns

    def gram(self) -> np.ndarray:
        """(k, d, d) Grams of the scaled columns from those of the raw
        ones, G = s s^T * g^T g with s = radii / sqrt(diag g^T g): equal to
        J^T J to rounding, without scaling any column.  Radii whose squares
        pass the largest float give infinite entries."""
        G = np.matrix_transpose(self.g) @ self.g
        s = 1.0 / np.sqrt(np.diagonal(G, axis1=-2, axis2=-1))
        if self.radii is not None:
            s = s * self.radii
        with np.errstate(over="ignore"):
            G *= s[:, :, None]
            G *= s[:, None, :]
        return G


def _gram_eigenvalues(G: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of stacked Grams (k, d, d); NaN on a Gram with
    an infinite entry, which no rank check resolves (the SVD decides).
    LAPACK gives such a Gram NaN eigenvalues or fails to converge on it;
    only then are the finite Grams solved apart."""
    try:
        return np.linalg.eigvalsh(G)
    except np.linalg.LinAlgError:
        finite = np.isfinite(G).all(axis=(-2, -1))
        eig = np.full(G.shape[:-1], np.nan)
        eig[finite] = np.linalg.eigvalsh(G[finite])
        return eig


def sample_isotropic_matrix(
    m: int,
    d: int,
    sampler: SphericalSampler | None = None,
    seed=0,
    *,
    with_gram: bool = False,
):
    """m x d matrix with i.i.d. spherically symmetric columns, verified to
    have full column rank (:func:`contrast.full_rank_by_gram`, whose every
    decision is the SVD's).

    A draw that fails the rank check is drawn again from a derived sub-seed,
    up to 3 draws in all, before RankDeficientError is raised.  A 1-d
    sequence of k seeds (or a :class:`seeding.SeedBlock`) gives a (k, m, d)
    stack whose matrix j is bit for bit the int-seed call with ``seed[j]``,
    resamples included.  ``with_gram=True`` returns ``(J, G, eigvals)``
    with the Grams (:meth:`ScaledColumns.gram`, J^T J to rounding) and
    their ascending eigenvalues that the rank check computed, each row that
    of the draw returned; a seed vector's J is then a
    :class:`ScaledColumns`, which scales only the rows a caller reads.
    Radii so large that a Gram overflows leave that draw's eigenvalues NaN
    and its rank check to the SVD of its columns.
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if m < d:
        raise DimensionMismatchError(f"need m >= d, got m={m}, d={d}")
    sampler = column_sampler(m, sampler)
    seeds, scalar = seed_list(seed)
    failed = np.arange(len(seeds))
    for attempt in range(3):
        drawn = ScaledColumns(*sampler.draw(
            d, seeds if attempt == 0 else [substream(seeds[j], 0xA11E, attempt) for j in failed]
        ))
        Gf = drawn.gram()
        eigf = _gram_eigenvalues(Gf)
        if attempt == 0:
            J, G, eigvals = drawn, Gf, eigf
        else:
            J.g[failed], G[failed], eigvals[failed] = drawn.g, Gf, eigf
            if J.radii is not None:
                J.radii[failed] = drawn.radii
        failed = failed[~full_rank_by_gram(drawn, eigf)]
        if not failed.size:
            if scalar or not with_gram:
                J = J[:]
            if scalar:
                J, G, eigvals = J[0], G[0], eigvals[0]
            return (J, G, eigvals) if with_gram else J
    raise RankDeficientError(
        f"sampled matrix failed the rank check 3 times (m={m}, d={d}, seed={seeds[failed[0]]})"
    )
