"""Degree-2 weight system and the closed-form variance-reduction ratio.

``g2`` compares the asymptotic variance of the adaptive-basis location
estimator against the plain sample mean; values below 1 are a strict gain.
The ratio collapses to the indeterminate 0/0 at alpha = 1/2 where the basis
loses rank, so sweeps carry an exclusion band around that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import SWEEP_BAND, second_exponent
from .distributions import DistributionSpec
from .errors import DegenerateRatio, NonFiniteMoment, \
    NonPositiveDenominator, SingularSystem, real_value
from .moments import FractionalMomentSet, MomentRows, abs_moment, \
    theoretical_set
# theoretical_moments is no longer called here; perfbench/tracer.py binds it
# through this module
from .moments import theoretical_moments  # noqa: F401

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


class SystemRows(NamedTuple):
    """The weight systems of M moment rows: each field is an (M,) array named
    as in CorrelantSystem (b1 is 1 in every row), plus ``regular``, the rows
    that build_correlant_system does not refuse as singular."""

    f11: np.ndarray
    f12: np.ndarray
    f22: np.ndarray
    b2: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    det: np.ndarray
    regular: np.ndarray

    def cond(self) -> np.ndarray:
        """Condition number of every row's F."""
        return _cond_2x2(self.f11, self.f12, self.f22)


def _cond_2x2(f11, f12, f22):
    # symmetric 2x2: eigenvalues 0.5 * (tr +- disc); with t = |tr| their
    # magnitudes are exactly 0.5 * (t + disc) >= |0.5 * (t - disc)|
    t = np.abs(f11 + f22)
    disc = np.sqrt((f11 - f22) ** 2 + 4.0 * f12 * f12)
    lo = np.abs(0.5 * (t - disc))
    return np.where(lo > 0.0, 0.5 * (t + disc) / lo, np.inf)


def system_rows(m: MomentRows) -> SystemRows:
    """Assemble and solve F h = b for every row of a moment batch.  A row
    whose determinant is not finite (non-finite moments, or finite ones whose
    products overflow) is singular; call it under np.errstate, since
    singular rows divide by a zero determinant."""
    f11, nu_pm1, f12, nu_2p, sigma_p = m.values
    f22 = nu_2p - sigma_p**2
    b2 = m.p * nu_pm1
    det = f11 * f22 - f12 * f12
    regular = np.isfinite(det) & (np.abs(det) >= DET_THRESHOLD)
    # with det > 0 the eigenvalues share a sign, so cond <= tr^2 / det; only
    # rows where that bound is not 4x under COND_CAP (rounding moves cond by
    # far less) need their condition number to settle cond > COND_CAP.  A
    # NaN cond (entries whose squares overflow) does not exceed it
    tr = f11 + f22
    if np.count_nonzero(tr * tr < 0.25 * COND_CAP * det) < det.size:
        regular &= ~(_cond_2x2(f11, f12, f22) > COND_CAP)
    h1 = (f22 - f12 * b2) / det  # b1 = 1
    h2 = (f11 * b2 - f12) / det
    return SystemRows(f11, f12, f22, b2, h1, h2, det, regular)


def build_correlant_system(m: FractionalMomentSet) -> CorrelantSystem:
    """Assemble and solve the 2x2 weight system F h = b.

    F = [[c2, nu_{p+1}], [nu_{p+1}, nu_{2p} - sigma_p^2]] and
    b = (1, p * nu_{p-1}); raises SingularSystem when the determinant is not
    finite or falls under DET_THRESHOLD, or conditioning exceeds COND_CAP.
    """
    m.require_finite()
    with np.errstate(all="ignore"):
        s = system_rows(m.rows())
        cond = float(s.cond()[0])
    if not s.regular[0]:
        raise SingularSystem(f"det={s.det[0]:.3e}, cond={cond:.3e}")
    f11, f12, f22, b2, h1, h2, det = (float(v[0]) for v in s[:-1])
    return CorrelantSystem(f11, f12, f22, 1.0, b2, h1, h2, det, cond)


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
