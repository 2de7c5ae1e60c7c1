"""Degree-2 weight system and the closed-form variance-reduction ratio.

``g2`` compares the asymptotic variance of the adaptive-basis location
estimator against the plain sample mean; values below 1 are a strict gain.
The ratio collapses to the indeterminate 0/0 at alpha = 1/2 where the basis
loses rank, so sweeps carry an exclusion band around that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SWEEP_BAND, second_exponent
from .distributions import DistributionSpec
from .errors import DegenerateRatio, NonPositiveDenominator, SingularSystem
from .moments import FractionalMomentSet, theoretical_moments

DET_THRESHOLD = 1e-14
COND_CAP = 1e10
RATIO_COLLAPSE_TOL = 1e-14


@dataclass(frozen=True)
class CorrelantSystem:
    """Symmetric 2x2 moment matrix, target vector, and solved weights."""

    f11: float
    f12: float
    f22: float
    b1: float
    b2: float
    h1: float
    h2: float
    det: float
    cond: float


def _cond_2x2(f11: float, f12: float, f22: float) -> float:
    # symmetric 2x2: eigenvalues from trace/discriminant
    tr = f11 + f22
    disc = math.sqrt(max((f11 - f22) ** 2 + 4.0 * f12 * f12, 0.0))
    lam1 = 0.5 * (tr + disc)
    lam2 = 0.5 * (tr - disc)
    hi = max(abs(lam1), abs(lam2))
    lo = min(abs(lam1), abs(lam2))
    return hi / lo if lo > 0.0 else math.inf


def build_correlant_system(m: FractionalMomentSet) -> CorrelantSystem:
    """Assemble and solve the 2x2 weight system F h = b.

    F = [[c2, nu_{p+1}], [nu_{p+1}, nu_{2p} - sigma_p^2]] and
    b = (1, p * nu_{p-1}); raises SingularSystem when the determinant falls
    under DET_THRESHOLD or conditioning exceeds COND_CAP.
    """
    m.require_finite()
    f11 = m.c2
    f12 = m.nu_pp1
    f22 = m.nu_2p - m.sigma_p**2
    b1 = 1.0
    b2 = m.p * m.nu_pm1
    det = f11 * f22 - f12 * f12
    cond = _cond_2x2(f11, f12, f22)
    if abs(det) < DET_THRESHOLD or cond > COND_CAP:
        raise SingularSystem(f"det={det:.3e}, cond={cond:.3e}")
    h1 = (f22 * b1 - f12 * b2) / det
    h2 = (f11 * b2 - f12 * b1) / det
    return CorrelantSystem(f11, f12, f22, b1, b2, h1, h2, det, cond)


def g2_closed_form(m: FractionalMomentSet) -> float:
    """Variance-reduction ratio from the five-moment set.

    [c2*(nu_2p - sigma_p^2) - nu_{p+1}^2] over
    c2*[(nu_2p - sigma_p^2) - 2p*nu_{p+1}*nu_{p-1} + p^2*c2*nu_{p-1}^2].
    Raises DegenerateRatio on the 0/0 collapse and NonPositiveDenominator if
    the denominator comes out <= 0 away from the collapse point.
    """
    m.require_finite()
    p = m.p
    v22 = m.nu_2p - m.sigma_p**2
    num = m.c2 * v22 - m.nu_pp1**2
    den = m.c2 * (v22 - 2.0 * p * m.nu_pp1 * m.nu_pm1 + p * p * m.c2 * m.nu_pm1**2)
    if abs(num) < RATIO_COLLAPSE_TOL and abs(den) < RATIO_COLLAPSE_TOL:
        raise DegenerateRatio("0/0 collapse; the ratio's limit there is 1")
    if den <= 0.0:
        raise NonPositiveDenominator(f"denominator {den:.3e} is not positive")
    return num / den


def g2_with_flag(m: FractionalMomentSet) -> tuple[float, bool]:
    """Like g2_closed_form but maps the 0/0 collapse to (1.0, True)."""
    try:
        return g2_closed_form(m), False
    except DegenerateRatio:
        return 1.0, True


def g2_classical(gamma3: float, gamma4: float) -> float:
    """Classical degree-2 reference ratio 1 - gamma3^2 / (2 + gamma4)."""
    if gamma4 <= -2.0:
        raise ValueError("gamma4 must exceed -2")
    return 1.0 - gamma3**2 / (2.0 + gamma4)


def g2_symmetric_power_endpoint(c2: float, nu1: float, nu3: float,
                                nu4: float) -> float:
    """Independent alpha = 1 ratio for symmetric laws from {c2, nu1, nu3, nu4}:
    (c2*nu4 - nu3^2) / (c2*(nu4 - 4*nu3*nu1 + 4*c2*nu1^2))."""
    return (c2 * nu4 - nu3**2) / (c2 * (nu4 - 4.0 * nu3 * nu1 + 4.0 * c2 * nu1**2))


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
    """Regular grid on [0, 1] with |alpha - 1/2| < band removed."""
    if not 0.0 < grid_step <= 0.25:
        raise ValueError("grid_step must lie in (0, 0.25]")
    n = int(round(1.0 / grid_step))
    grid = np.round(np.arange(n + 1) * grid_step, 12)
    grid = grid[grid <= 1.0 + 1e-12]
    return grid[np.abs(grid - 0.5) >= band - 1e-12]


def g2_sweep(spec: DistributionSpec, grid_step: float = 0.05,
             band: float = SWEEP_BAND) -> G2Curve:
    """Evaluate the closed-form ratio over the alpha grid and take the argmin.

    A NonFiniteMoment anywhere on the grid refuses the whole sweep.
    """
    alphas = alpha_grid(grid_step, band)
    values = np.empty(alphas.size)
    flags = np.zeros(alphas.size, dtype=bool)
    for idx, a in enumerate(alphas):
        m = theoretical_moments(spec, second_exponent(a))
        values[idx], flags[idx] = g2_with_flag(m)
    best = int(np.argmin(values))
    return G2Curve(alphas, values, flags, float(alphas[best]),
                   float(values[best]), (0.5 - band, 0.5 + band))
