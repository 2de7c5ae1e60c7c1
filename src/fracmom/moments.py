"""Absolute and signed fractional moments of residuals.

Three routes to the same quantities: sample plug-ins (optionally winsorized),
gamma-function closed forms for the analytic families, and an adaptive
quadrature oracle used as ground truth for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .distributions import DistributionSpec
from .errors import NonFiniteMoment, QuadratureError

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class FractionalMomentSet:
    """The five scalars feeding the degree-2 weight system.

    ``p`` is the active exponent; ``nu_pm1``, ``nu_pp1`` and ``nu_2p`` are the
    absolute moments of orders p-1, p+1 and 2p; ``sigma_p`` is the signed
    moment of order p; ``c2`` is the plain second moment of the residuals.
    """

    p: float
    c2: float
    nu_pm1: float
    nu_pp1: float
    nu_2p: float
    sigma_p: float

    def __post_init__(self):
        for name in ("c2", "nu_pm1", "nu_pp1", "nu_2p"):
            v = getattr(self, name)
            if np.isfinite(v) and v < 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")

    def is_finite(self) -> bool:
        return all(np.isfinite(v) for v in
                   (self.c2, self.nu_pm1, self.nu_pp1, self.nu_2p, self.sigma_p))

    def require_finite(self):
        if not self.is_finite():
            raise NonFiniteMoment("moment set contains non-finite entries")


def _abs_power_mean(a: np.ndarray, q: float, floor: float) -> float:
    if q < 0.0:
        a = np.maximum(a, floor)
    return float(np.mean(a**q))


def empirical_moments(sample, center: float, p: float,
                      winsor_fraction: float = 0.0, zero_floor: float = 1e-12,
                      ) -> FractionalMomentSet:
    """Plug-in moment set of the residuals ``sample - center``.

    ``zero_floor`` clamps |residual| only in negative-exponent terms; with
    ``winsor_fraction > 0`` the absolute residuals are capped at their
    (1 - f) quantile before powering.
    """
    if not 0.0 <= winsor_fraction <= 0.25:
        raise ValueError("winsor_fraction must lie in [0, 0.25]")
    if not zero_floor > 0.0:
        raise ValueError("zero_floor must be > 0")
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    if p <= 0.0:
        raise ValueError("p must be > 0")
    xi = x - center
    a = np.abs(xi)
    if winsor_fraction > 0.0:
        cap = np.quantile(a, 1.0 - winsor_fraction)
        a = np.minimum(a, cap)
    sgn = np.sign(xi)
    return FractionalMomentSet(
        p=p,
        c2=float(np.mean(a * a)),
        nu_pm1=_abs_power_mean(a, p - 1.0, zero_floor),
        nu_pp1=_abs_power_mean(a, p + 1.0, zero_floor),
        nu_2p=_abs_power_mean(a, 2.0 * p, zero_floor),
        sigma_p=float(np.mean(sgn * a**p)),
    )


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _quad(f, lo: float, hi: float) -> float:
    out = integrate.quad(f, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
                         limit=200, full_output=1)
    result, abserr = out[0], out[1]
    if len(out) > 3:  # quadpack warning message present
        if not np.isfinite(result) or abserr > max(1e-7, 1e-6 * abs(result)):
            raise QuadratureError(f"quadrature failed on ({lo}, {hi}): {out[3]}")
    return result


def quadrature_moment(density, q: float, support: tuple[float, float],
                      center: float | None = None, signed: bool = False,
                      check_density: bool = True) -> float:
    """Adaptive quadrature of |x - c|^q * f(x), split at the center.

    ``center=None`` locates c at the density's own mean.  ``signed=True``
    weights the two halves by sign(x - c).  The split keeps the q < 0 cusp at
    an interval endpoint where the integrator handles it.
    """
    lo, hi = support
    if check_density:
        mid = center if center is not None else 0.5 * (max(lo, -1.0) + min(hi, 1.0))
        mass = _quad(density, lo, mid) + _quad(density, mid, hi)
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {mass}, not 1")
    if center is None:
        c = _quad(lambda x: x * density(x), lo, hi)
    else:
        c = center
    right = _quad(lambda x: abs(x - c) ** q * density(x), c, hi)
    left = _quad(lambda x: abs(x - c) ** q * density(x), lo, c)
    total = right - left if signed else right + left
    if not np.isfinite(total):
        raise NonFiniteMoment(f"order-{q} moment is not finite")
    return total


# ---------------------------------------------------------------------------
# theoretical moments
# ---------------------------------------------------------------------------

def abs_moment(spec: DistributionSpec, q: float) -> float:
    """E|X - mu|^q about the theoretical center, closed form where known."""
    fam, s = spec.family, spec.scale
    if fam == "cauchy":
        if q >= 1.0:
            raise NonFiniteMoment(f"cauchy absolute moment of order {q} diverges")
        if q <= -1.0:
            raise NonFiniteMoment(f"order {q} <= -1 diverges at the center")
        return 1.0 / math.cos(math.pi * q / 2.0)
    if q <= -1.0:
        raise NonFiniteMoment(f"order {q} <= -1 diverges at the center")
    if fam == "laplace":
        return s**q * special.gamma(q + 1.0)
    if fam == "gaussian":
        return 2.0 ** (q / 2.0) * special.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)
    if fam == "gg":
        beta = spec.shape[0]
        return s**q * special.gamma((q + 1.0) / beta) / special.gamma(1.0 / beta)
    if fam == "uniform":
        return s**q / (q + 1.0)
    if fam == "arcsine":
        return s**q * special.gamma((q + 1.0) / 2.0) \
            / (math.sqrt(math.pi) * special.gamma(q / 2.0 + 1.0))
    if fam == "triangular":
        return 2.0 * s**q / ((q + 1.0) * (q + 2.0))
    # beta law: no convenient closed form for fractional orders
    a, b = spec.shape
    mu = a / (a + b)
    c = 0.0 if spec.standardized else mu
    return quadrature_moment(spec.density, q, spec.support, center=c,
                             check_density=False)


def signed_moment(spec: DistributionSpec, q: float) -> float:
    """E[sign(X - mu) |X - mu|^q]; exactly zero for symmetric families."""
    if spec.symmetric:
        return 0.0
    a, b = spec.shape
    c = 0.0 if spec.standardized else a / (a + b)
    return quadrature_moment(spec.density, q, spec.support, center=c,
                             signed=True, check_density=False)


def theoretical_moments(spec: DistributionSpec, p: float) -> FractionalMomentSet:
    """Population moment set at exponent p.

    Raises NonFiniteMoment when a required order diverges (cauchy always
    fails through its second moment).
    """
    if p <= 0.0:
        raise ValueError("p must be > 0")
    return FractionalMomentSet(
        p=p,
        c2=abs_moment(spec, 2.0),
        nu_pm1=abs_moment(spec, p - 1.0),
        nu_pp1=abs_moment(spec, p + 1.0),
        nu_2p=abs_moment(spec, 2.0 * p),
        sigma_p=signed_moment(spec, p),
    )
