"""Selection of the basis dial alpha* and shape diagnostics.

Three explicit criteria: oracle minimization of the theoretical ratio,
plug-in minimization of its sample estimate, and bootstrap-variance grid
search over the estimator itself.  A kernel-density entropy coefficient is
attached as a tie-break diagnostic when the plug-in choice is unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SWEEP_BAND, second_exponent
from .distributions import DistributionSpec, make_rng, shape_summary
from .efficiency import G2Curve, alpha_grid, g2_with_flag, g2_sweep
from .errors import AllGridDegenerate, DegenerateSample, FracmomError, \
    SmallSample
from .estimators import estimate_full
from .moments import empirical_moments

AMBIGUITY_SPREAD = 0.1  # bootstrap alpha* spread that flags an unstable pick
FLAT_CURVE_TOL = 1e-6
# 1% winsorization for the calibration path: tames single extreme draws while
# keeping bias negligible at N >= 100.
PLUGIN_WINSOR = 0.01


@dataclass(frozen=True)
class EntropyDiagnostic:
    """Kernel plug-in entropy of residuals and derived shape coordinates."""

    h_hat: float
    k_hat: float
    kappa_hat: float | None
    bandwidth: float
    kernel: str = "epanechnikov"


@dataclass(frozen=True)
class CalibrationResult:
    """Chosen alpha with the curve it was read from and its stability."""

    alpha_star: float
    criterion: str
    curve: G2Curve
    sensitivity_interval: tuple[float, float]
    ambiguous: bool
    entropy: EntropyDiagnostic | None = None


def calibrate_oracle(spec: DistributionSpec, grid_step: float = 0.05,
                     band: float = SWEEP_BAND) -> CalibrationResult:
    """Argmin of the theoretical ratio curve; flat curves are flagged."""
    curve = g2_sweep(spec, grid_step, band)
    spread = float(np.max(curve.g2) - np.min(curve.g2))
    flat = spread < FLAT_CURVE_TOL
    near = curve.alphas[curve.g2 <= curve.argmin_g2 + FLAT_CURVE_TOL]
    interval = (float(near.min()), float(near.max()))
    return CalibrationResult(curve.argmin_alpha, "oracle", curve, interval, flat)


def _empirical_curve(resid: np.ndarray, alphas: np.ndarray,
                     band: float) -> G2Curve:
    values = np.full(alphas.size, np.nan)
    flags = np.zeros(alphas.size, dtype=bool)
    for idx, a in enumerate(alphas):
        m = empirical_moments(resid, 0.0, second_exponent(a),
                              winsor_fraction=PLUGIN_WINSOR)
        try:
            values[idx], flags[idx] = g2_with_flag(m)
        except FracmomError:
            flags[idx] = True
    if flags.all() or not np.isfinite(values[~flags]).any():
        raise AllGridDegenerate("no usable ratio value on the alpha grid")
    masked = np.where(flags | ~np.isfinite(values), np.inf, values)
    best = int(np.argmin(masked))
    return G2Curve(alphas, values, flags, float(alphas[best]),
                   float(values[best]), (0.5 - band, 0.5 + band))


def calibrate_plugin(sample, grid_step: float = 0.05,
                     band: float = SWEEP_BAND,
                     bootstrap_b: int = 200, seed: int = 0,
                     ) -> CalibrationResult:
    """Plug-in argmin of the estimated ratio over residuals from the mean.

    Bootstrap resampling of the residuals yields a sensitivity interval for
    alpha*; a spread above 0.1 marks the choice ambiguous and, when the
    sample is large enough, attaches the entropy diagnostic.
    """
    x = np.asarray(sample, dtype=float)
    if x.size < 30:
        raise SmallSample(f"plug-in calibration needs N >= 30, got {x.size}")
    resid = x - float(np.mean(x))
    alphas = alpha_grid(grid_step, band)
    curve = _empirical_curve(resid, alphas, band)

    picks = [curve.argmin_alpha]
    rng = make_rng([seed, 2401])
    for _ in range(bootstrap_b):
        boot = rng.choice(resid, size=resid.size, replace=True)
        boot = boot - float(np.mean(boot))
        try:
            picks.append(_empirical_curve(boot, alphas, band).argmin_alpha)
        except AllGridDegenerate:
            continue
    picks = np.asarray(picks)
    interval = (float(picks.min()), float(picks.max()))
    spread = float(np.std(picks))
    ambiguous = spread > AMBIGUITY_SPREAD
    entropy = None
    if ambiguous and x.size >= 100:
        try:
            entropy = entropy_diagnostic(resid)
        except (SmallSample, DegenerateSample):
            entropy = None
    return CalibrationResult(curve.argmin_alpha, "plugin", curve, interval,
                             ambiguous, entropy)


def calibrate_grid_mc(sample, alphas, bootstrap_b: int = 200,
                      seed: int = 0) -> CalibrationResult:
    """Pick alpha by bootstrap variance of the full estimator on the sample.

    The sensitivity interval collects every grid alpha whose bootstrap
    variance is within 5% of the minimum.
    """
    if bootstrap_b < 100:
        raise ValueError("bootstrap_b must be >= 100")
    x = np.asarray(sample, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size < 1:
        raise ValueError("alpha grid is empty")
    rng = make_rng([seed, 7919])
    boots = [rng.choice(x, size=x.size, replace=True) for _ in range(bootstrap_b)]
    variances = np.empty(alphas.size)
    for idx, a in enumerate(alphas):
        est = [estimate_full(b, a).theta_hat for b in boots]
        variances[idx] = float(np.var(est, ddof=1))
    best = int(np.argmin(variances))
    close = alphas[variances <= 1.05 * variances[best]]
    interval = (float(close.min()), float(close.max()))
    curve = G2Curve(alphas, variances, np.zeros(alphas.size, dtype=bool),
                    float(alphas[best]), float(variances[best]), (0.5, 0.5))
    ambiguous = (interval[1] - interval[0]) > AMBIGUITY_SPREAD
    return CalibrationResult(float(alphas[best]), "grid_mc", curve, interval,
                             ambiguous)


# ---------------------------------------------------------------------------
# entropy diagnostic
# ---------------------------------------------------------------------------

def _epanechnikov_density(points: np.ndarray, data: np.ndarray,
                          h: float) -> np.ndarray:
    n = data.size
    out = np.empty(points.size)
    chunk = max(1, 2_000_000 // n)
    for i in range(0, points.size, chunk):
        u = (points[i:i + chunk, None] - data[None, :]) / h
        k = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
        out[i:i + chunk] = k.sum(axis=1) / (n * h)
    return out


def silverman_bandwidth(resid: np.ndarray) -> float:
    sd = float(np.std(resid, ddof=1))
    q75, q25 = np.percentile(resid, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * spread * resid.size ** (-0.2)


def entropy_diagnostic(residuals) -> EntropyDiagnostic:
    """Plug-in differential entropy via Epanechnikov KDE, plus the derived
    entropy coefficient k = exp(H)/(2*sd) and contrexcess."""
    resid = np.asarray(residuals, dtype=float)
    if resid.size < 100:
        raise SmallSample(f"entropy diagnostic needs N >= 100, got {resid.size}")
    sd = float(np.std(resid, ddof=1))
    if sd == 0.0:
        raise DegenerateSample("zero-variance residuals")
    h = silverman_bandwidth(resid)
    dens = _epanechnikov_density(resid, resid, h)
    h_hat = float(-np.mean(np.log(dens)))
    k_hat = math.exp(h_hat) / (2.0 * sd)
    centered = resid - resid.mean()
    g4 = float(np.mean(centered**4) / np.mean(centered**2) ** 2 - 3.0)
    kappa = 1.0 / math.sqrt(g4 + 3.0) if g4 > -3.0 else None
    return EntropyDiagnostic(h_hat, k_hat, kappa, h)


def topographic_coords(target) -> tuple[float | None, float | None]:
    """(contrexcess, entropy coefficient) for a DistributionSpec or a
    residual sample; (None, None) when the variance is not finite."""
    if isinstance(target, DistributionSpec):
        if target.infinite_variance:
            return None, None
        summary = shape_summary(target)
        return summary.contrexcess, summary.entropy_coeff
    diag = entropy_diagnostic(target)
    return diag.kappa_hat, diag.k_hat

