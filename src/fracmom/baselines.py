"""Six scalar robust location baselines for head-to-head comparison."""

from __future__ import annotations

import math

import numpy as np

BASELINE_IDS = ("mean", "median", "trimmed10", "winsorized10", "huber",
                "median_of_means")

HUBER_TUNING = 1.345  # 95% efficiency at the Gaussian
HUBER_MAX_ITERS = 100
MAD_TO_SD = 1.4826


def trimmed_mean(sample, fraction: float) -> float:
    """Mean after dropping floor(fraction*N) values from each end."""
    x = np.sort(np.asarray(sample, dtype=float))
    if not 0.0 <= fraction < 0.5:
        raise ValueError("fraction must lie in [0, 0.5)")
    k = int(fraction * x.size)
    if 2 * k >= x.size:
        raise ValueError("trimming removed every value")
    return float(np.mean(x[k:x.size - k]))


def winsorized_mean(sample, fraction: float) -> float:
    """Mean after clamping floor(fraction*N) extremes on each side to the
    nearest retained order statistic."""
    x = np.sort(np.asarray(sample, dtype=float))
    if not 0.0 <= fraction < 0.5:
        raise ValueError("fraction must lie in [0, 0.5)")
    k = int(fraction * x.size)
    if 2 * k >= x.size:
        raise ValueError("winsorizing removed every value")
    if k > 0:
        x[:k] = x[k]
        x[x.size - k:] = x[x.size - 1 - k]
    return float(np.mean(x))


def huber_location(sample, tuning_c: float = HUBER_TUNING) -> float:
    """Iteratively reweighted mean with weights min(1, c*s/|resid|).

    The scale s = MAD * 1.4826 is held fixed; a zero MAD returns the median.
    """
    if tuning_c <= 0.0:
        raise ValueError("tuning_c must be > 0")
    x = np.asarray(sample, dtype=float)
    med = float(np.median(x))
    mad = float(np.median(np.abs(x - med)))
    if mad == 0.0:
        return med
    s = MAD_TO_SD * mad
    k = tuning_c * s
    mu = med
    for _ in range(HUBER_MAX_ITERS):
        r = np.abs(x - mu)
        w = np.ones_like(r)
        far = r > k
        w[far] = k / r[far]
        nxt = float(np.sum(w * x) / np.sum(w))
        if abs(nxt - mu) < 1e-9 * s:
            return nxt
        mu = nxt
    return mu


def median_of_means(sample, blocks: int | None = None) -> float:
    """Median of the means of contiguous in-order blocks (sizes differ by
    at most one); defaults to ceil(sqrt(N)) blocks."""
    x = np.asarray(sample, dtype=float)
    if blocks is None:
        blocks = math.ceil(math.sqrt(x.size))
    if not 1 <= blocks <= x.size:
        raise ValueError("blocks must lie in [1, N]")
    means = [float(np.mean(g)) for g in np.array_split(x, blocks)]
    return float(np.median(means))


def run_baseline(baseline_id: str, sample) -> float:
    """Dispatch one of the six baselines with its standard settings."""
    x = np.asarray(sample, dtype=float)
    if baseline_id == "mean":
        return float(np.mean(x))
    if baseline_id == "median":
        return float(np.median(x))
    if baseline_id == "trimmed10":
        return trimmed_mean(x, 0.1)
    if baseline_id == "winsorized10":
        return winsorized_mean(x, 0.1)
    if baseline_id == "huber":
        return huber_location(x)
    if baseline_id == "median_of_means":
        return median_of_means(x)
    raise ValueError(f"unknown baseline {baseline_id!r}")
