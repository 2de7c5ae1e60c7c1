"""Canonical noise distributions: seeded samplers and theoretical shape facts.

Symmetric families default to their unit-variance standardization.  The
asymmetric beta family is centered at its theoretical mean but not rescaled.
Cauchy is carried as the infinite-variance boundary case: it can be sampled,
but anything needing a variance refuses with NonFiniteMoment.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from .errors import NonFiniteMoment, integer_value

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
        if not isinstance(self.shape, tuple) or not all(
                isinstance(s, numbers.Real) and not isinstance(s, bool)
                for s in self.shape):
            raise ValueError(f"shape must be a tuple of real numbers, got "
                             f"{self.shape!r}")
        if self.family == "gg":
            # NaN fails both comparisons, and inf the second
            if len(self.shape) != 1 or not 0.0 < self.shape[0] < math.inf:
                raise ValueError("gg requires one finite shape parameter "
                                 "beta > 0")
        elif self.family == "beta":
            if len(self.shape) != 2 \
                    or not all(0.0 < s < math.inf for s in self.shape):
                raise ValueError("beta requires finite shape parameters "
                                 "a, b > 0")
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

    @cached_property
    def scale(self) -> float:
        """Family scale parameter realizing the requested standardization,
        computed once per instance."""
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
        return 1.0  # cauchy, and beta: scale fixed by its [0, 1] support

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

    @cached_property
    def _beta_constants(self) -> tuple[float, float]:
        """The beta law's (centring shift, log B(a, b)), computed once per
        instance: the density adds the shift to x, and subtracts the log
        normaliser, at every point."""
        a, b = self.shape
        return a / (a + b), float(special.betaln(a, b))

    @cached_property
    def _density_memo(self) -> dict:
        return {}

    def quadrature_density(self, x: float) -> float:
        """density at one Python float, memoized per instance.  QUADPACK
        revisits the same nodes for every moment order it integrates
        (calibrate_oracle on beta:2:5 asks for the density 29,400 times at
        630 distinct points), and the memo hands back the float the density
        gave there.  ±0.0 share one entry; every density gives both the same
        value."""
        memo = self._density_memo
        try:
            return memo[x]
        except KeyError:
            value = memo[x] = self.density(x)
            return value

    @property
    def support(self) -> tuple[float, float]:
        if self.family in ("gaussian", "laplace", "gg", "cauchy"):
            return (-np.inf, np.inf)
        if self.family in ("uniform", "arcsine", "triangular"):
            return (-self.scale, self.scale)
        if self.standardized:  # [0, 1] shifted by the mean a / (a + b)
            mu = self._beta_constants[0]
            return (0.0 - mu, 1.0 - mu)
        return (0.0, 1.0)

    def density(self, x):
        """Density evaluated pointwise (vectorized).

        A Python float, which is what quadrature passes, builds no array: the
        same numpy ufuncs run on the float, and a point outside the support
        gets 0.0, so it comes out as it would as an element of an array.
        The beta law's float branch does its arithmetic on Python floats
        around those ufuncs, which is the same IEEE arithmetic.
        """
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
        if self.family == "beta":
            a, b = self.shape
            shift, log_norm = self._beta_constants
            y = x + shift if self.standardized else x
            if isinstance(y, float):
                if not 0.0 < y < 1.0:
                    return 0.0
                return float(np.exp((a - 1.0) * float(np.log(y))
                                    + (b - 1.0) * float(np.log1p(-y))
                                    - log_norm))
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
    """Counter-based generator; seed may be a non-negative int or a
    sequence of them.  Raises ValueError for anything else."""
    if np.ndim(seed):
        seed = [integer_value(word, "a seed") for word in seed]
    else:
        seed = integer_value(seed, "a seed")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample(spec: DistributionSpec, n: int, seed) -> np.ndarray:
    """Draw n values; deterministic in (spec, n, seed)."""
    if integer_value(n, "n") < 1:
        raise ValueError("n must be >= 1")
    return _draw(spec, make_rng(seed), n)


def sample_block(spec: DistributionSpec, n: int, prefix,
                 replicates: int) -> np.ndarray:
    """The (replicates, n) matrix whose row r is sample(spec, n,
    [*prefix, r]), bit for bit, for a prefix of non-negative ints.

    Philox is counter-based, so a generator whose key is set and whose
    counter and buffer are cleared draws what a fresh one with that key
    draws.  One Philox and one Generator serve the whole block: they are
    reset to each row's key (block_keys) instead of being built from a new
    SeedSequence per row.
    """
    if integer_value(n, "n") < 1:
        raise ValueError("n must be >= 1")
    replicates = integer_value(replicates, "replicates")
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state  # counter 0 and an empty buffer
    out = np.empty((replicates, n))
    for r, key in enumerate(block_keys(prefix, replicates)):
        state["state"]["key"] = key
        bits.state = state
        out[r] = _draw(spec, rng, n)
    return out


# numpy's SeedSequence (O'Neill's seed_seq_fe, numpy/random/bit_generator.pyx):
# a pool of four uint32 words mixed from the entropy words by hashmix and mix
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def block_keys(prefix, replicates: int) -> np.ndarray:
    """(replicates, 2) uint64 Philox keys: row r equals
    np.random.SeedSequence([*prefix, r]).generate_state(2, np.uint64),
    which is the key Philox takes from that seed.  SeedSequence's arithmetic
    runs on uint32 arrays over r, each r (below 2**32) being one entropy
    word; its hash constants, the same for every r, step as Python ints."""
    entropy = [np.full(replicates, w, dtype=np.uint32)
               for v in prefix for w in _uint32_words(v)]
    entropy.append(np.arange(replicates, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> 16)

    zero = np.zeros(replicates, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): four uint32 words, paired little-endian
    final = _hasher(_INIT_B, _MULT_B)
    state = [final(word).astype(np.uint64) for word in pool]
    keys = np.empty((replicates, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, whose hash constant starts
    at const and is multiplied by mult at every call."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hashmix


def _uint32_words(value) -> list[int]:
    """A non-negative int as SeedSequence splits it: uint32 words, least
    significant first, and one word 0 for 0."""
    value = integer_value(value, "a seed word")
    if value < 0:
        raise ValueError("seed words must be non-negative")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _draw(spec: DistributionSpec, rng: np.random.Generator,
          n: int) -> np.ndarray:
    """n values of spec drawn from rng."""
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
    if not 0.0 < beta < math.inf:  # NaN fails too
        raise ValueError("beta must be > 0 and finite")
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
