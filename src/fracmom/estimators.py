"""Location estimators built on the signed-power basis.

Three routes with a fixed fallback order: the full two-weight solver (a
one-step linearization that re-solves the weight system at each updated
center), the scalar signed-power root as proxy whenever that system is
unusable, and the sample mean inside the protected band around alpha = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .basis import ESTIMATOR_BAND, alpha_value, basis_value, second_exponent
from .efficiency import build_correlant_system
from .errors import BracketFailure, NonFiniteInput, SingularSystem
from .moments import empirical_moments

METHOD_FULL = "full"
METHOD_PROXY = "proxy"
METHOD_OLS = "ols_fallback"

MAX_OUTER_ITERS = 3  # outer passes of the full solver
TOL = 1e-8  # relative step size that counts as converged
STEP_CLIP_SD = 3.0  # largest outer step, in sample standard deviations
BRACKET_EXPANSION = 10.0  # initial proxy half-bracket, in robust scales
MAX_BRACKET_DOUBLINGS = 60  # proxy bracket widenings before BracketFailure


@dataclass(frozen=True)
class EstimateResult:
    """Location estimate plus the solver path that produced it."""

    theta_hat: float
    method: str
    outer_iters: int
    final_step: float
    cond_last: float
    det_last: float
    converged: bool


def _as_clean_array(sample) -> np.ndarray:
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("sample contains NaN or infinite values")
    return x


def _robust_scale(x: np.ndarray) -> float:
    mad = float(np.median(np.abs(x - np.median(x))))
    return mad if mad > 0.0 else 1.0


def _tie_smoothing(x: np.ndarray, center: float, scale: float) -> float:
    # two or more residuals exactly at zero trigger the smoothing scale
    return 1e-6 * scale if int(np.sum(x == center)) >= 2 else 0.0


def estimate_ols(sample) -> EstimateResult:
    """Sample mean, tagged as the baseline/fallback method."""
    x = _as_clean_array(sample)
    return EstimateResult(float(np.mean(x)), METHOD_OLS, 0, 0.0,
                          math.nan, math.nan, True)


def estimate_full(sample, alpha) -> EstimateResult:
    """Full two-weight estimator with the safeguarded solver stack.

    Starts at the sample mean; each outer pass re-estimates the moment set at
    the current center, solves for the weights, and takes one clipped Newton
    step on the weighted score.  Falls back to the scalar proxy when the
    weight system is singular/ill-conditioned and to the mean inside the
    protected alpha band.
    """
    x = _as_clean_array(sample)
    a = alpha_value(alpha)
    if abs(a - 0.5) < ESTIMATOR_BAND:
        return estimate_ols(x)
    p = second_exponent(a)
    scale = _robust_scale(x)
    mu = float(np.mean(x))
    floor = max(1e-12 * scale, _tie_smoothing(x, mu, scale))
    sd = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    if not np.isfinite(sd):
        q75, q25 = np.percentile(x, [75.0, 25.0])
        sd = (q75 - q25) / 1.349
    clip = STEP_CLIP_SD * sd

    step = 0.0
    converged = False
    sys = None
    iters = 0
    for iters in range(1, MAX_OUTER_ITERS + 1):
        m = empirical_moments(x, mu, p, zero_floor=floor)
        try:
            sys = build_correlant_system(m)
        except SingularSystem:
            return _proxy_result(x, a)
        xi_bar = float(np.mean(x)) - mu
        z = sys.h1 * xi_bar + sys.h2 * m.sigma_p
        z_slope = -sys.h1 - p * sys.h2 * m.nu_pm1
        if z_slope == 0.0 or not np.isfinite(z_slope):
            return _proxy_result(x, a)
        step = float(np.clip(-z / z_slope, -clip, clip))
        mu += step
        if abs(step) < TOL * max(1.0, abs(mu)):
            converged = True
            break
    return EstimateResult(mu, METHOD_FULL, iters, step,
                          sys.cond, sys.det, converged)


def _proxy_result(x: np.ndarray, a: float) -> EstimateResult:
    p = second_exponent(a)
    med = float(np.median(x))
    if np.max(x) == np.min(x):
        return EstimateResult(med, METHOD_PROXY, 0, 0.0, math.nan, math.nan, True)
    scale = _robust_scale(x)
    eps = _tie_smoothing(x, med, scale)

    def score(mu: float) -> float:
        return float(np.sum(basis_value(2, a, x - mu, eps)))

    # score is strictly decreasing in mu, so a sign change must appear once
    # the interval is wide enough
    half = BRACKET_EXPANSION * max(scale, 1e-8 * (1.0 + abs(med)))
    lo, hi = med - half, med + half
    s_lo, s_hi = score(lo), score(hi)
    for _ in range(MAX_BRACKET_DOUBLINGS):
        if s_lo >= 0.0 >= s_hi:
            break
        half *= 2.0
        lo, hi = med - half, med + half
        s_lo, s_hi = score(lo), score(hi)
    else:
        raise BracketFailure(f"no sign change in [{lo}, {hi}] for p={p}")
    root, info = optimize.brentq(score, lo, hi, xtol=1e-12, full_output=True)
    return EstimateResult(float(root), METHOD_PROXY, info.iterations, 0.0,
                          math.nan, math.nan, bool(info.converged))


def estimate_proxy(sample, alpha) -> EstimateResult:
    """Scalar signed-power root: solve sum sign(x-mu)|x-mu|^p = 0 by
    bracketing.  Valid for any finite sample, including infinite-variance
    noise, since it needs no moment matrix."""
    x = _as_clean_array(sample)
    return _proxy_result(x, alpha_value(alpha))

