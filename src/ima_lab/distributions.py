"""Univariate laws, factorial source distributions, and spherically
symmetric column samplers.

Laws expose ``pdf``/``cdf``/``quantile``/``sample``; ``law_from_config``
reads the CLI's JSON law objects and ``to_config`` writes them.  Closed forms
are used wherever they exist; the beta-shaped law is backed by a
quantile table built with trapezoid quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import schema
from .contrast import GRAM_RATIO_TOL, RANK_TOL, gram_resolved
from .errors import (
    DimensionMismatchError,
    DomainError,
    RankDeficientError,
    ValidationError,
)
from .seeding import generator, substream

_SQRT2 = math.sqrt(2.0)

# Generic numeric quantile fallback: bracket mean +/- 40 scale units,
# bisection to this tolerance with a hard iteration cap.
_BISECT_TOL = 1e-13
_BISECT_MAX_ITER = 200


def _check_u(u: float) -> float:
    u = float(u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {u}")
    return u


class UnivariateLaw:
    """Base class; subclasses fill in pdf/cdf and either a closed-form
    quantile or rely on the bisection fallback."""

    #: open support (lo, hi); infinities allowed
    support: tuple[float, float] = (-math.inf, math.inf)

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        return self._bisect_quantile(u)

    def _bracket(self) -> tuple[float, float]:
        lo, hi = self.support
        center = getattr(self, "location", 0.0)
        scale = getattr(self, "scale", 1.0)
        lo = max(lo, center - 40.0 * scale)
        hi = min(hi, center + 40.0 * scale)
        return lo, hi

    def _bisect_quantile(self, u: float) -> float:
        """Bracketed bisection refined by Newton steps from the density."""
        lo, hi = self._bracket()
        x = 0.5 * (lo + hi)
        for _ in range(_BISECT_MAX_ITER):
            c = float(self.cdf(x))
            if abs(c - u) <= _BISECT_TOL:
                return x
            if c < u:
                lo = x
            else:
                hi = x
            density = float(self.pdf(x))
            step = (u - c) / density if density > 0.0 else 0.0
            newton = x + step
            # fall back to the midpoint whenever Newton leaves the bracket
            x = newton if lo < newton < hi else 0.5 * (lo + hi)
            if hi - lo <= _BISECT_TOL * max(1.0, abs(x)):
                break
        return x

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws via inverse-CDF sampling, deterministic per seed."""
        gen = generator(seed)
        u = gen.random(n)
        # keep u strictly inside (0, 1)
        u = np.clip(u, 1e-16, 1.0 - 1e-16)
        return self.quantile_array(u)

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        return np.array([self.quantile(float(ui)) for ui in np.asarray(u).ravel()]).reshape(np.shape(u))

    def to_config(self) -> dict:
        raise NotImplementedError

    @property
    def location(self) -> float:
        return 0.0

    @property
    def scale(self) -> float:
        return 1.0


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

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        return self.a + (self.b - self.a) * u

    def quantile_array(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)

    @property
    def location(self):
        return 0.5 * (self.a + self.b)

    @property
    def scale(self):
        return self.b - self.a

    def to_config(self):
        return {"kind": "uniform", "params": {"a": self.a, "b": self.b}}


@dataclass(frozen=True)
class Gaussian(UnivariateLaw):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError("gaussian law requires sigma > 0")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return special.ndtr(z)

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        return self.mu + self.sigma * float(special.ndtri(u))

    def quantile_array(self, u):
        return self.mu + self.sigma * special.ndtri(np.asarray(u, dtype=float))

    @property
    def location(self):
        return self.mu

    @property
    def scale(self):
        return self.sigma

    def to_config(self):
        return {"kind": "gaussian", "params": {"mu": self.mu, "sigma": self.sigma}}


@dataclass(frozen=True)
class Laplace(UnivariateLaw):
    mu: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not self.b > 0:
            raise DomainError("laplace law requires b > 0")

    def pdf(self, x):
        z = np.abs(np.asarray(x, dtype=float) - self.mu) / self.b
        return np.exp(-z) / (2.0 * self.b)

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.b
        # exp(-|z|) is the exp of both branches and never overflows
        e = np.exp(-np.abs(z))
        return np.where(z < 0, 0.5 * e, 1.0 - 0.5 * e)

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        if u < 0.5:
            return self.mu + self.b * math.log(2.0 * u)
        return self.mu - self.b * math.log(2.0 * (1.0 - u))

    # np.log here, math.log in quantile: the two differ in the last bit on a
    # few points, and the spurious CSV pins both (sampling and the MPA output)
    def quantile_array(self, u):
        u = np.asarray(u, dtype=float)
        lower = self.mu + self.b * np.log(2.0 * u)
        upper = self.mu - self.b * np.log(2.0 * (1.0 - u))
        return np.where(u < 0.5, lower, upper)

    @property
    def location(self):
        return self.mu

    @property
    def scale(self):
        return self.b

    def to_config(self):
        return {"kind": "laplace", "params": {"mu": self.mu, "b": self.b}}


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

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        return math.sqrt(2.0 * float(special.gammaincinv(self.k / 2.0, u)))

    def quantile_array(self, u):
        return np.sqrt(2.0 * special.gammaincinv(self.k / 2.0, np.asarray(u, dtype=float)))

    @property
    def location(self):
        return math.sqrt(self.k)

    @property
    def scale(self):
        return 1.0

    def to_config(self):
        return {"kind": "chi", "params": {"k": self.k}}


@dataclass(frozen=True)
class TabulatedBeta(UnivariateLaw):
    """Beta-shaped law on (0, 1) backed by a quantile table.

    The CDF is tabulated by trapezoid quadrature of the density
    x^(alpha-1) (1-x)^(beta-1) / B(alpha, beta) on a uniform grid.
    alpha, beta >= 1 keeps the density finite everywhere.
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
        dens = self._raw_pdf(grid)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf /= cdf[-1]
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_cdf_table", cdf)

    def _raw_pdf(self, x):
        x = np.asarray(x, dtype=float)
        log_norm = -special.betaln(self.alpha, self.beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = log_norm + (self.alpha - 1.0) * np.log(x) + (self.beta - 1.0) * np.log1p(-x)
        out = np.exp(logp)
        out = np.where((x < 0) | (x > 1), 0.0, out)
        # alpha == 1 (or beta == 1) gives 0*log(0) at the edge; define by limit
        return np.where(np.isnan(out), 1.0 / math.exp(special.betaln(self.alpha, self.beta)), out)

    def pdf(self, x):
        return self._raw_pdf(x)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self._grid, self._cdf_table)

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        return float(np.interp(u, self._cdf_table, self._grid))

    def quantile_array(self, u):
        return np.interp(np.asarray(u, dtype=float), self._cdf_table, self._grid)

    @property
    def location(self):
        return self.alpha / (self.alpha + self.beta)

    @property
    def scale(self):
        return 1.0

    def to_config(self):
        return {"kind": "beta", "params": {"alpha": self.alpha, "beta": self.beta, "points": self.points}}


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


def law_from_config(config: dict) -> UnivariateLaw:
    """Build a law from a ``{"kind": ..., "params": {...}}`` object."""
    fields = schema.read(config, _LAW_CONFIG, "law config")
    cls, table = fields["kind"]
    return cls(**schema.read(fields["params"], table, f"law kind {config['kind']!r} params"))


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

    def sample(self, n: int, seed: int) -> np.ndarray:
        """(n, d) array of i.i.d. draws; component i uses sub-stream i of the seed."""
        if n < 1:
            raise DomainError("sample count must be >= 1")
        return np.column_stack(
            [law.sample(n, substream(seed, i)) for i, law in enumerate(self.components)]
        )

    @staticmethod
    def from_config(configs, where: str = "source law list") -> "FactorialDistribution":
        """The product of a JSON list of law objects; a schema reader."""
        return FactorialDistribution(tuple(law_from_config(c) for c in schema.array(configs, where)))

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
        """(m, d) matrix with i.i.d. spherically symmetric columns.

        A 1-d sequence of k seeds gives a (k, m, d) stack whose matrix j
        is bit for bit the int-seed call with ``seed[j]``.
        """
        ndim = np.ndim(seed)
        if ndim > 1:
            raise DomainError(f"seed must be an integer or a 1-d sequence, got ndim {ndim}")
        seeds = [seed] if ndim == 0 else seed
        g = np.empty((len(seeds), self.ambient_dim, d))
        u = np.empty((len(seeds), d))
        for j, s in enumerate(seeds):
            gen = generator(s)
            gen.standard_normal(out=g[j])
            if self.radial_law is not None:
                gen.random(out=u[j])
        columns = g / np.linalg.norm(g, axis=-2, keepdims=True)
        if self.radial_law is not None:
            columns *= self.radial_law.quantile_array(np.clip(u, 1e-16, 1.0 - 1e-16))[:, None, :]
        return columns[0] if ndim == 0 else columns


def sample_isotropic_matrix(
    m: int,
    d: int,
    sampler: SphericalSampler | None = None,
    seed=0,
    rank_tol: float = RANK_TOL,
    max_attempts: int = 3,
) -> np.ndarray:
    """m x d matrix with i.i.d. spherically symmetric columns, verified to
    have full column rank against the relative singular-value threshold.

    A failed rank check resamples with a derived sub-seed up to
    ``max_attempts`` (at least 1) times before raising RankDeficientError.
    A 1-d sequence of k seeds gives a (k, m, d) stack whose matrix j is bit
    for bit the int-seed call with ``seed[j]``, resamples included.

    The Gram route can only accept a draw.  While ``rank_tol`` is at most
    a tenth of sqrt(GRAM_RATIO_TOL), an eigenvalue ratio of J^T J above
    GRAM_RATIO_TOL puts the squared singular-value ratio (the two differ by
    rounding of about d * 1e-16) a hundredfold above ``rank_tol**2``, so
    the SVD would accept the draw too.  The SVD decides every other draw,
    and every draw at a larger ``rank_tol``.
    """
    if max_attempts < 1:
        raise DomainError(f"max_attempts must be >= 1, got {max_attempts}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if m < d:
        raise DimensionMismatchError(f"need m >= d, got m={m}, d={d}")
    if sampler is None:
        sampler = SphericalSampler.standard_gaussian(m)
    if sampler.ambient_dim != m:
        raise DimensionMismatchError(
            f"sampler ambient dimension {sampler.ambient_dim} does not match m={m}"
        )
    scalar = np.ndim(seed) == 0
    seeds = [seed] if scalar else list(seed)
    J = np.empty((len(seeds), m, d))
    gram_route = rank_tol <= 0.1 * math.sqrt(GRAM_RATIO_TOL)
    failed = np.arange(len(seeds))
    for attempt in range(max_attempts):
        Jf = sampler.sample_columns(
            d, [seeds[j] if attempt == 0 else substream(seeds[j], 0xA11E, attempt) for j in failed]
        )
        J[failed] = Jf
        if gram_route:
            ok = gram_resolved(np.linalg.eigvalsh(np.matrix_transpose(Jf) @ Jf))
        else:
            ok = np.zeros(len(failed), dtype=bool)
        if not ok.all():
            sv = np.linalg.svd(Jf[~ok], compute_uv=False)
            ok[~ok] = sv[:, -1] > rank_tol * sv[:, 0]
        failed = failed[~ok]
        if not failed.size:
            return J[0] if scalar else J
    raise RankDeficientError(
        f"sampled matrix failed the rank check {max_attempts} times "
        f"(m={m}, d={d}, seed={seeds[failed[0]]})"
    )
