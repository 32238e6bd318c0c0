"""Bivariate densities with a known Darmois construction, the oracles the
tables of ``ima_lab.mpa.DarmoisMap`` are checked against.  Each gives what
a table reads (``rectangle`` and ``density``) and ``sample``;
:func:`sample_rotated` samples the package's ``RotatedFactorial``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from ima_lab.distributions import FactorialDistribution, UnivariateLaw
from ima_lab.errors import DomainError
from ima_lab.mpa import RotatedFactorial, _law_bounds
from ima_lab.seeding import generator


@dataclass(frozen=True)
class IndependentProduct:
    """p(x1, x2) = p_1(x1) p_2(x2)."""

    laws: tuple[UnivariateLaw, UnivariateLaw]

    def rectangle(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return _law_bounds(self.laws[0]), _law_bounds(self.laws[1])

    def density(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return np.outer(self.laws[0].pdf(x1), self.laws[1].pdf(x2))

    def sample(self, n: int, seed: int) -> np.ndarray:
        return FactorialDistribution(self.laws).sample(n, seed)


@dataclass(frozen=True)
class CorrelatedGaussian:
    """Bivariate Gaussian with standard margins and correlation rho."""

    rho: float
    half_width: float = 8.0

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"correlation must lie in (-1, 1), got {self.rho}")

    def rectangle(self):
        r = self.half_width
        return (-r, r), (-r, r)

    def density(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)[:, None]
        x2 = np.asarray(x2, dtype=float)[None, :]
        det = 1.0 - self.rho**2
        quad = (x1**2 - 2.0 * self.rho * x1 * x2 + x2**2) / det
        return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))

    def conditional_cdf(self, x1: float, x2: float) -> float:
        """Closed-form conditional CDF, the oracle the tables are checked against."""
        z = (x2 - self.rho * x1) / math.sqrt(1.0 - self.rho**2)
        return float(special.ndtr(z))

    def sample(self, n: int, seed: int) -> np.ndarray:
        gen = generator(seed)
        g = gen.standard_normal((n, 2))
        x1 = g[:, 0]
        x2 = self.rho * g[:, 0] + math.sqrt(1.0 - self.rho**2) * g[:, 1]
        return np.column_stack([x1, x2])


def sample_rotated(spec: RotatedFactorial, n: int, seed: int) -> np.ndarray:
    """n draws of x = O s, s from the factorial law of ``spec.laws``."""
    return FactorialDistribution(spec.laws).sample(n, seed) @ spec.rotation.T
