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

from .baselines import mean_rows
from .basis import SWEEP_BAND, alpha_list, second_exponent
from .distributions import DistributionSpec, make_rng, shape_summary
# estimate_full, empirical_moments and g2_with_flag are no longer called
# here; perfbench/tracer.py binds them through this module
from .efficiency import G2Curve, alpha_grid, g2_rows, g2_sweep, \
    g2_with_flag  # noqa: F401
from .errors import AllGridDegenerate, DegenerateSample, SmallSample, \
    float_array, integer_value, row_blocks, sample_row
from .estimators import estimate_full, estimate_full_grid  # noqa: F401
from .moments import empirical_moments, moment_rows, \
    winsorize_rows  # noqa: F401

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


def _empirical_curves(rows: np.ndarray, alphas: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in ratio and degeneracy flag of every residual row (axis 0) at
    every grid alpha (axis 1), from the moments about 0.  Overwrites rows,
    which moment_rows takes as its residuals."""
    values = np.empty((rows.shape[0], alphas.size))
    flags = np.empty(values.shape, dtype=bool)
    exponents = [second_exponent(a) for a in alphas]
    with np.errstate(all="ignore"):  # far from 0 the powers overflow
        for idx, m in enumerate(moment_rows(rows, exponents)):
            values[:, idx], flags[:, idx] = g2_rows(m)
    return values, flags


def _resamples(src: np.ndarray, count: int, rng):
    """(slice, block) for each row block (errors.row_blocks) of
    rng.choice(src, size=(count, N)), bit for bit.  Every block is a view
    of one array made for the first block, the largest: a caller is done
    with a block when it takes the next.  The draws are gathered straight
    into it (take buffers out under mode "raise"; the indices are in range).
    The blocks' draws are one draw: for N < 2**32 numpy draws the indices
    from Philox's 32-bit words, and the generator keeps a spare half word
    from one call for the next."""
    buf = None
    for b in row_blocks(count, src.size):
        if buf is None:
            buf = np.empty((b.stop, src.size))
        block = buf[:b.stop - b.start]
        yield b, np.take(src, rng.integers(0, src.size, size=block.shape,
                                           dtype=np.int64),
                         out=block, mode="clip")


def calibrate_plugin(sample, grid_step: float = 0.05,
                     band: float = SWEEP_BAND,
                     bootstrap_b: int = 200, seed: int = 0,
                     ) -> CalibrationResult:
    """Plug-in argmin of the estimated ratio over residuals from the mean.

    Bootstrap resampling of the residuals yields a sensitivity interval for
    alpha*; a spread above 0.1 marks the choice ambiguous and, when the
    sample is large enough, attaches the entropy diagnostic.  The residuals
    are winsorized and evaluated at every alpha on their own.  Their
    resamples are drawn (_resamples), re-centred on their own means,
    winsorized and evaluated one row block at a time, so memory does not
    grow with bootstrap_b; a resample with no usable ratio is skipped.
    """
    if integer_value(bootstrap_b, "bootstrap_b") < 0:
        raise ValueError("bootstrap_b must be >= 0")
    integer_value(seed, "seed")
    x = float_array(sample).ravel()
    if x.size < 30:
        raise SmallSample(f"plug-in calibration needs N >= 30, got {x.size}")
    x = sample_row(x)
    resid = x[0] - mean_rows(x)[0]
    alphas = alpha_grid(grid_step, band)
    values = np.empty((bootstrap_b + 1, alphas.size))
    flags = np.empty(values.shape, dtype=bool)
    # row 0: the residuals; row 1 + i: resample i, re-centred on its mean
    values[:1], flags[:1] = _empirical_curves(
        winsorize_rows(resid[None, :].copy(), PLUGIN_WINSOR), alphas)
    for b, block in _resamples(resid, bootstrap_b, make_rng([seed, 2401])):
        block -= mean_rows(block)[:, None]
        values[1:][b], flags[1:][b] = _empirical_curves(
            winsorize_rows(block, PLUGIN_WINSOR), alphas)
    block = None  # else an error's traceback holds the block array alive
    usable = ~flags
    if not usable[0].any():
        raise AllGridDegenerate("no usable ratio value on the alpha grid")
    best = np.argmin(np.where(usable, values, np.inf), axis=1)
    curve = G2Curve(alphas, values[0], flags[0], float(alphas[best[0]]),
                    float(values[0, best[0]]), (0.5 - band, 0.5 + band))

    picks = alphas[best[usable.any(axis=1)]]
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
    variance is within 5% of the minimum.  The resamples are drawn as the
    plug-in draws its own (_resamples) and estimated over the whole grid one
    row block at a time, so memory does not grow with bootstrap_b.  A failed
    row raises its error: that of the first alpha in grid order with one, at
    its lowest row.
    """
    if integer_value(bootstrap_b, "bootstrap_b") < 100:
        raise ValueError("bootstrap_b must be >= 100")
    integer_value(seed, "seed")
    # the grid is checked before the draw, which is the costly part
    alphas = np.array(alpha_list(alphas))
    if alphas.size < 1:
        raise ValueError("alpha grid is empty")
    x = sample_row(sample)[0]
    theta = np.empty((alphas.size, bootstrap_b))
    failed = {}  # alpha index: the error of its lowest failed row
    for b, block in _resamples(x, bootstrap_b, make_rng([seed, 7919])):
        grid = estimate_full_grid(block, alphas)
        for idx, est in enumerate(grid):
            if est.errors and idx not in failed:
                failed[idx] = est.errors[min(est.errors)]
            theta[idx, b] = est.theta_hat
    del block  # else the error's traceback holds the block array alive
    if failed:
        raise failed[min(failed)]
    variances = np.array([np.var(t, ddof=1) for t in theta])
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
    for b in row_blocks(points.size, n):
        # one array per block, every step in place: k = 0.75 * (1 - u * u)
        # with u = (point - datum) / h, then zero where not |u| <= 1, as
        # np.where(np.abs(u) <= 1.0, k, 0.0) gives it.  Where |u| > 1, u * u
        # rounds to more than 1 and k is below zero; where u is NaN, k is
        # NaN; elsewhere k >= 0, never -0.0.  So fmax with 0 is that rule
        k = np.subtract(points[b, None], data[None, :])
        k /= h
        np.multiply(k, k, out=k)
        np.subtract(1.0, k, out=k)
        k *= 0.75
        np.fmax(k, 0.0, out=k)
        out[b] = k.sum(axis=1) / (n * h)
        del k  # before the next block's array is allocated beside it
    return out


def _unit_scale(resid: np.ndarray) -> tuple[np.ndarray, int]:
    """(resid * 2**-e, e), with e the binary exponent of the largest
    |resid|: the scaled residuals' largest magnitude lies in [1/2, 1), so
    that sums of their squares and fourth powers neither overflow nor
    vanish.  A power of two scales exactly, so ldexp(spread, e) is the
    spread of resid."""
    e = int(np.frexp(np.max(np.abs(resid)))[1])
    return np.ldexp(resid, -e), e


def silverman_bandwidth(resid: np.ndarray) -> float:
    unit, e = _unit_scale(resid)
    sd = float(np.std(unit, ddof=1))
    q75, q25 = np.percentile(unit, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * math.ldexp(spread, e) * resid.size ** (-0.2)


def entropy_diagnostic(residuals) -> EntropyDiagnostic:
    """Plug-in differential entropy via Epanechnikov KDE, plus the derived
    entropy coefficient k = exp(H)/(2*sd) and contrexcess.  The KDE, sd,
    IQR and kurtosis are taken at unit scale (_unit_scale), so that k and
    the contrexcess do not depend on the scale of the residuals."""
    resid = float_array(residuals).ravel()
    if resid.size < 100:
        raise SmallSample(f"entropy diagnostic needs N >= 100, got {resid.size}")
    resid = sample_row(resid)[0]
    unit, e = _unit_scale(resid)
    sd = float(np.std(unit, ddof=1))
    if sd == 0.0:
        raise DegenerateSample("zero-variance residuals")
    h = silverman_bandwidth(resid)
    # n * h and the differences cannot overflow at unit scale, and a power
    # of two scales every normal density back exactly
    dens = np.ldexp(_epanechnikov_density(unit, unit, math.ldexp(h, -e)), -e)
    h_hat = float(-np.mean(np.log(dens)))
    # exp(h_hat) overflows past 709.78, where the largest |residual| nears
    # the float limit; exp(h_hat - e log 2) divides 2**e out first
    k_hat = (math.exp(h_hat) / (2.0 * math.ldexp(sd, e)) if h_hat < 709.0
             else math.exp(h_hat - e * math.log(2.0)) / (2.0 * sd))
    centered = unit - mean_rows(unit[None, :])[0]
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

