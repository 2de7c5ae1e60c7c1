"""Canonical noise distributions: seeded samplers and theoretical shape facts.

Symmetric families default to their unit-variance standardization.  The
asymmetric beta family is centered at its theoretical mean but not rescaled.
Cauchy is carried as the infinite-variance boundary case: it can be sampled,
but anything needing a variance refuses with NonFiniteMoment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import NonFiniteMoment

ENTROPY_COEFF_MAX = math.sqrt(2.0 * math.pi * math.e) / 2.0

_FAMILIES = ("gaussian", "laplace", "gg", "uniform", "beta", "cauchy",
             "arcsine", "triangular")


@dataclass(frozen=True)
class DistributionSpec:
    """One member of the canonical distribution roster.

    ``shape`` holds the GG exponent ``(beta,)`` or the beta-law pair
    ``(a, b)``; empty for the fixed-shape families.  ``standardized`` requests
    zero mean and unit variance where the variance is finite (beta: centered
    only, never rescaled).
    """

    family: str
    shape: tuple = field(default=())
    standardized: bool = True

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "gg":
            if len(self.shape) != 1 or self.shape[0] <= 0:
                raise ValueError("gg requires one shape parameter beta > 0")
        elif self.family == "beta":
            if len(self.shape) != 2 or min(self.shape) <= 0:
                raise ValueError("beta requires shape parameters a, b > 0")
        elif self.shape:
            raise ValueError(f"{self.family} takes no shape parameters")

    # -- naming ------------------------------------------------------------

    @property
    def name(self) -> str:
        if self.shape:
            return self.family + ":" + ":".join(_fmt(s) for s in self.shape)
        return self.family

    # -- structural flags ----------------------------------------------------

    @property
    def symmetric(self) -> bool:
        return self.family != "beta"

    @property
    def infinite_variance(self) -> bool:
        return self.family == "cauchy"

    @property
    def true_location(self) -> float:
        """Location targeted by the estimators (0 after centering)."""
        if self.family == "beta" and not self.standardized:
            a, b = self.shape
            return a / (a + b)
        return 0.0

    # -- scale bookkeeping ---------------------------------------------------

    @property
    def scale(self) -> float:
        """Family scale parameter realizing the requested standardization."""
        if self.family == "gaussian":
            return 1.0
        if self.family == "laplace":
            return 1.0 / math.sqrt(2.0) if self.standardized else 1.0
        if self.family == "gg":
            beta = self.shape[0]
            if not self.standardized:
                return 1.0
            return math.sqrt(special.gamma(1.0 / beta) / special.gamma(3.0 / beta))
        if self.family == "uniform":
            return math.sqrt(3.0) if self.standardized else 1.0
        if self.family == "arcsine":
            return math.sqrt(2.0) if self.standardized else 1.0
        if self.family == "triangular":
            return math.sqrt(6.0) if self.standardized else 1.0
        if self.family == "cauchy":
            return 1.0
        return 1.0  # beta: scale fixed by its [0, 1] support

    @property
    def variance(self) -> float:
        if self.family == "cauchy":
            raise NonFiniteMoment("cauchy has no finite variance")
        s = self.scale
        if self.family == "gaussian":
            return 1.0
        if self.family == "laplace":
            return 2.0 * s * s
        if self.family == "gg":
            beta = self.shape[0]
            return s * s * special.gamma(3.0 / beta) / special.gamma(1.0 / beta)
        if self.family == "uniform":
            return s * s / 3.0
        if self.family == "arcsine":
            return s * s / 2.0
        if self.family == "triangular":
            return s * s / 6.0
        a, b = self.shape
        return a * b / ((a + b) ** 2 * (a + b + 1.0))

    # -- density -------------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        if self.family in ("gaussian", "laplace", "gg", "cauchy"):
            return (-np.inf, np.inf)
        if self.family in ("uniform", "arcsine", "triangular"):
            return (-self.scale, self.scale)
        lo, hi = 0.0, 1.0
        if self.standardized:
            a, b = self.shape
            mu = a / (a + b)
            return (lo - mu, hi - mu)
        return (lo, hi)

    def density(self, x):
        """Density evaluated pointwise (vectorized).

        A Python float, which is what quadrature passes, builds no array: the
        same numpy ufuncs run on the float, and a point outside the support
        gets 0.0, so it comes out as it would as an element of an array.
        """
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
        if self.family == "beta":
            a, b = self.shape
            y = x + a / (a + b) if self.standardized else x
            log_norm = special.betaln(a, b)
            return _on_support(y, (y > 0.0) & (y < 1.0), lambda v: np.exp(
                (a - 1.0) * np.log(v) + (b - 1.0) * np.log1p(-v) - log_norm))
        s = self.scale
        if self.family == "gaussian":
            return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        if self.family == "laplace":
            return np.exp(-np.abs(x) / s) / (2.0 * s)
        if self.family == "gg":
            beta = self.shape[0]
            c = beta / (2.0 * s * special.gamma(1.0 / beta))
            # np.power, not **: a float's ** is libm's pow, which differs
            # from the ufunc's in the last bit.  Far out it overflows to
            # inf, and exp(-inf) = 0 is the density there.
            with np.errstate(over="ignore"):
                return c * np.exp(-np.power(np.abs(x / s), beta))
        if self.family == "triangular":
            return np.maximum(s - np.abs(x), 0.0) / (s * s)
        if self.family == "cauchy":
            return 1.0 / (math.pi * (1.0 + x * x))
        if self.family == "uniform":
            return _on_support(x, np.abs(x) <= s, lambda v: 1.0 / (2.0 * s))
        return _on_support(x, np.abs(x) < s, lambda v: 1.0 / (  # arcsine
            math.pi * np.sqrt(s * s - v * v)))


def _on_support(x, inside, pdf):
    """pdf(x) where inside holds and 0 elsewhere, for x a float (inside a
    bool) or an array (inside a mask of the same shape)."""
    if isinstance(x, float):
        return pdf(x) if inside else 0.0
    out = np.zeros_like(x)
    out[inside] = pdf(x[inside])
    return out


def _fmt(v: float) -> str:
    return f"{v:g}"


def parse_spec(text: str, standardized: bool = True) -> DistributionSpec:
    """Parse CLI-style names: 'laplace', 'gg:1.5', 'beta:2:5', 'cauchy', ..."""
    parts = text.strip().lower().split(":")
    family = parts[0]
    if family == "simpson":
        family = "triangular"
    shape = tuple(float(p) for p in parts[1:])
    return DistributionSpec(family, shape, standardized)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def make_rng(seed) -> np.random.Generator:
    """Counter-based generator; seed may be an int or a sequence of ints."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample(spec: DistributionSpec, n: int, seed) -> np.ndarray:
    """Draw n values; deterministic in (spec, n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(seed)
    s = spec.scale
    if spec.family == "gaussian":
        return rng.standard_normal(n)
    if spec.family == "laplace":
        # inverse CDF; clip keeps the measure-zero endpoint finite
        u = rng.random(n) - 0.5
        return -s * np.sign(u) * np.log(np.clip(1.0 - 2.0 * np.abs(u), 1e-300, 1.0))
    if spec.family == "gg":
        beta = spec.shape[0]
        g = rng.gamma(1.0 / beta, 1.0, size=n)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return s * sign * g ** (1.0 / beta)
    if spec.family == "uniform":
        return rng.uniform(-s, s, size=n)
    if spec.family == "arcsine":
        return s * np.sin(math.pi * (rng.random(n) - 0.5))
    if spec.family == "triangular":
        return s * (rng.random(n) + rng.random(n) - 1.0)
    if spec.family == "cauchy":
        return rng.standard_cauchy(n)
    a, b = spec.shape
    g1 = rng.gamma(a, 1.0, size=n)
    g2 = rng.gamma(b, 1.0, size=n)
    x = g1 / (g1 + g2)
    if spec.standardized:
        x = x - a / (a + b)
    return x


# ---------------------------------------------------------------------------
# shape summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeSummary:
    """Scale-free shape coordinates; None marks an undefined entry."""

    gamma3: float | None
    gamma4: float | None
    contrexcess: float | None
    entropy_coeff: float | None
    entropic_error: float | None


def gg_kurtosis(beta: float) -> float:
    """Excess kurtosis of the exponential-power family.

    Gamma(5/b)*Gamma(1/b)/Gamma(3/b)^2 - 3; equals 3 at b=1 (two-sided
    exponential) and 0 at b=2 (Gaussian).
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    g1 = special.gamma(1.0 / beta)
    g3 = special.gamma(3.0 / beta)
    g5 = special.gamma(5.0 / beta)
    return g5 * g1 / (g3 * g3) - 3.0


def differential_entropy(spec: DistributionSpec) -> float:
    """Closed-form Shannon differential entropy at the spec's scale."""
    s = spec.scale
    if spec.family == "gaussian":
        return 0.5 * math.log(2.0 * math.pi * math.e)
    if spec.family == "laplace":
        return 1.0 + math.log(2.0 * s)
    if spec.family == "gg":
        beta = spec.shape[0]
        return 1.0 / beta + math.log(2.0 * s * special.gamma(1.0 / beta) / beta)
    if spec.family == "uniform":
        return math.log(2.0 * s)
    if spec.family == "triangular":
        return math.log(s) + 0.5
    if spec.family == "arcsine":
        return math.log(math.pi * s / 2.0)
    if spec.family == "cauchy":
        return math.log(4.0 * math.pi)
    a, b = spec.shape
    return float(special.betaln(a, b)
                 - (a - 1.0) * special.digamma(a)
                 - (b - 1.0) * special.digamma(b)
                 + (a + b - 2.0) * special.digamma(a + b))


def _beta_skew_kurt(a: float, b: float) -> tuple[float, float]:
    g3 = 2.0 * (b - a) * math.sqrt(a + b + 1.0) / ((a + b + 2.0) * math.sqrt(a * b))
    g4 = 6.0 * ((a - b) ** 2 * (a + b + 1.0) - a * b * (a + b + 2.0)) \
        / (a * b * (a + b + 2.0) * (a + b + 3.0))
    return g3, g4


def shape_summary(spec: DistributionSpec) -> ShapeSummary:
    """Theoretical (gamma3, gamma4, contrexcess, entropy coefficient).

    Cauchy keeps only the entropic error; its variance-normalized
    coordinates are undefined.
    """
    H = differential_entropy(spec)
    delta_e = 0.5 * math.exp(H)
    if spec.family == "cauchy":
        return ShapeSummary(None, None, None, None, delta_e)
    if spec.family == "gaussian":
        g3, g4 = 0.0, 0.0
    elif spec.family == "laplace":
        g3, g4 = 0.0, 3.0
    elif spec.family == "gg":
        g3, g4 = 0.0, gg_kurtosis(spec.shape[0])
    elif spec.family == "uniform":
        g3, g4 = 0.0, -1.2
    elif spec.family == "triangular":
        g3, g4 = 0.0, -0.6
    elif spec.family == "arcsine":
        g3, g4 = 0.0, -1.5
    else:
        g3, g4 = _beta_skew_kurt(*spec.shape)
    kappa = 1.0 / math.sqrt(g4 + 3.0)
    k = math.exp(H) / (2.0 * math.sqrt(spec.variance))
    return ShapeSummary(g3, g4, kappa, k, delta_e)
