"""Population moments and the closed-form variance-reduction ratio.

The population side of the package: the absolute and signed moments of a
distribution, closed form where known and by adaptive quadrature
otherwise, and the ratio ``g2`` built from them.  With ``distributions``
it is the one module that imports scipy; the estimators never import it.

``g2`` compares the asymptotic variance of the adaptive-basis location
estimator against the plain sample mean; values below 1 are a strict gain.
The ratio collapses to the indeterminate 0/0 at alpha = 1/2 where the
basis loses rank, so sweeps carry an exclusion band around that point."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .basis import SWEEP_BAND, second_exponent
from .distributions import DistributionSpec
from .errors import DegenerateRatio, NonFiniteMoment, \
    NonPositiveDenominator, QuadratureError, real_value
from .moments import FractionalMomentSet, MomentRows

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
RATIO_COLLAPSE_TOL = 1e-14


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
    an interval endpoint where the integrator handles it.  An order q <= -1
    raises NonFiniteMoment where the integral diverges at the center: where
    the density is positive there, as abs_moment does, and where a half
    comes out negative.  Both halves integrate a function >= 0, and for a
    divergent integral QUADPACK's extrapolation returns the analytic
    continuation, a finite negative number with a small error estimate.
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
    if q <= -1.0 and density(c) > 0.0:
        raise NonFiniteMoment(f"order {q} <= -1 diverges at the center")
    right = _quad(lambda x: abs(x - c) ** q * density(x), c, hi)
    left = _quad(lambda x: abs(x - c) ** q * density(x), lo, c)
    total = right - left if signed else right + left
    if not np.isfinite(total) or (q <= -1.0 and min(right, left) < 0.0):
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
    return quadrature_moment(spec.quadrature_density, q, spec.support,
                             center=spec.true_location, check_density=False)


def signed_moment(spec: DistributionSpec, q: float) -> float:
    """E[sign(X - mu) |X - mu|^q]; exactly zero for symmetric families."""
    if spec.symmetric:
        return 0.0
    return quadrature_moment(spec.quadrature_density, q, spec.support,
                             center=spec.true_location, signed=True,
                             check_density=False)


def theoretical_moments(spec: DistributionSpec, p: float) -> FractionalMomentSet:
    """Population moment set at exponent p.

    Raises NonFiniteMoment when a required order diverges (cauchy always
    fails through its second moment).
    """
    if not 0.0 < p < math.inf:  # False for NaN
        raise ValueError(f"p must be finite and > 0, got {p}")
    return theoretical_set(spec, p, abs_moment(spec, 2.0))


def theoretical_set(spec: DistributionSpec, p: float,
                    c2: float) -> FractionalMomentSet:
    """theoretical_moments at exponent p, unchecked, with c2 = E|X - mu|^2
    given: a sweep over exponents computes c2 once (one quadrature for the
    beta law)."""
    return FractionalMomentSet(
        p=p,
        c2=c2,
        nu_pm1=abs_moment(spec, p - 1.0),
        nu_pp1=abs_moment(spec, p + 1.0),
        nu_2p=abs_moment(spec, 2.0 * p),
        sigma_p=signed_moment(spec, p),
    )


# ---------------------------------------------------------------------------
# variance-reduction ratio
# ---------------------------------------------------------------------------

def _g2_terms(m: MomentRows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ratio, denominator, 0/0 collapse) of every row of a moment batch;
    call it under np.errstate."""
    p = m.p
    c2, nu_pm1, nu_pp1, nu_2p, sigma_p = m.values
    v22 = nu_2p - sigma_p**2
    num = c2 * v22 - nu_pp1**2
    den = c2 * (v22 - 2.0 * p * nu_pp1 * nu_pm1 + p * p * c2 * nu_pm1**2)
    collapsed = ((np.abs(num) < RATIO_COLLAPSE_TOL)
                 & (np.abs(den) < RATIO_COLLAPSE_TOL))
    return num / den, den, collapsed


def g2_closed_form(m: FractionalMomentSet) -> float:
    """Variance-reduction ratio from the five-moment set.

    [c2*(nu_2p - sigma_p^2) - nu_{p+1}^2] over
    c2*[(nu_2p - sigma_p^2) - 2p*nu_{p+1}*nu_{p-1} + p^2*c2*nu_{p-1}^2].
    Raises DegenerateRatio on the 0/0 collapse, NonPositiveDenominator if
    the denominator comes out <= 0 away from the collapse point, and
    NonFiniteMoment if the ratio is not finite (finite moments whose
    products overflow).
    """
    m.require_finite()
    with np.errstate(all="ignore"):
        ratio, den, collapsed = _g2_terms(m.rows())
    if collapsed[0]:
        raise DegenerateRatio("0/0 collapse; the ratio's limit there is 1")
    if den[0] <= 0.0:
        raise NonPositiveDenominator(f"denominator {den[0]:.3e} is not positive")
    if not np.isfinite(ratio[0]):
        raise NonFiniteMoment(f"ratio {ratio[0]} is not finite")
    return float(ratio[0])


def g2_with_flag(m: FractionalMomentSet) -> tuple[float, bool]:
    """Like g2_closed_form but maps the 0/0 collapse to (1.0, True)."""
    try:
        return g2_closed_form(m), False
    except DegenerateRatio:
        return 1.0, True


def g2_rows(m: MomentRows) -> tuple[np.ndarray, np.ndarray]:
    """g2_with_flag for every row of a moment batch, as (value, flag) arrays.
    A row that g2_with_flag refuses (non-finite moments, non-positive
    denominator, non-finite ratio) is flagged with value NaN."""
    with np.errstate(all="ignore"):
        ratio, den, collapsed = _g2_terms(m)
    refused = ~m.finite() | (~collapsed & ((den <= 0.0) | ~np.isfinite(ratio)))
    value = np.where(collapsed, 1.0, ratio)
    value[refused] = np.nan
    return value, collapsed | refused


def g2_classical(gamma3: float, gamma4: float) -> float:
    """Classical degree-2 reference ratio 1 - gamma3^2 / (2 + gamma4)."""
    if not (gamma4 > -2.0 and math.isfinite(gamma3)):  # NaN fails too
        raise ValueError("gamma3 must be finite and gamma4 exceed -2")
    return 1.0 - gamma3**2 / (2.0 + gamma4)


@dataclass(frozen=True)
class G2Curve:
    """Ratio values over an alpha grid with the collapse band removed."""

    alphas: np.ndarray
    g2: np.ndarray
    degenerate: np.ndarray
    argmin_alpha: float
    argmin_g2: float
    excluded_band: tuple[float, float]

    def rows(self):
        """(alpha, g2, degenerate_flag) triples in grid order."""
        for a, v, d in zip(self.alphas, self.g2, self.degenerate):
            yield float(a), float(v), int(d)


def alpha_grid(grid_step: float, band: float) -> np.ndarray:
    """Regular grid on [0, 1] with |alpha - 1/2| < band removed.  Raises
    ValueError for a band that is not finite, is negative, or leaves no
    grid point; band 0 keeps alpha = 1/2."""
    grid_step = real_value(grid_step, "grid_step")
    band = real_value(band, "band")
    if not 0.0 < grid_step <= 0.25:
        raise ValueError("grid_step must lie in (0, 0.25]")
    n = int(round(1.0 / grid_step))
    grid = np.round(np.arange(n + 1) * grid_step, 12)
    grid = grid[grid <= 1.0 + 1e-12]
    grid = grid[np.abs(grid - 0.5) >= band - 1e-12]
    if not (0.0 <= band < math.inf and grid.size):  # False for NaN
        raise ValueError(f"band must be finite, >= 0 and leave a point of "
                         f"the alpha grid, got {band}")
    return grid


def g2_sweep(spec: DistributionSpec, grid_step: float = 0.05,
             band: float = SWEEP_BAND) -> G2Curve:
    """Evaluate the closed-form ratio over the alpha grid and take the argmin.

    A NonFiniteMoment anywhere on the grid refuses the whole sweep.
    """
    alphas = alpha_grid(grid_step, band)
    values = np.empty(alphas.size)
    flags = np.zeros(alphas.size, dtype=bool)
    c2 = abs_moment(spec, 2.0)  # the one order that does not depend on alpha
    for idx, a in enumerate(alphas):
        m = theoretical_set(spec, second_exponent(a), c2)
        values[idx], flags[idx] = g2_with_flag(m)
    best = int(np.argmin(values))
    return G2Curve(alphas, values, flags, float(alphas[best]),
                   float(values[best]), (0.5 - band, 0.5 + band))
