"""Six scalar robust location baselines for head-to-head comparison.

Each baseline has a row kernel that runs on every row of an (M, N) sample
matrix at once, with reductions along the rows, so row r's estimate is the
baseline of samples[r] bit for bit; the single-sample functions are their
batch of one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import integer_value, real_value, row_blocks, sample_row, \
    sample_rows

BASELINE_IDS = ("mean", "median", "trimmed10", "winsorized10", "huber",
                "median_of_means")

HUBER_TUNING = 1.345  # 95% efficiency at the Gaussian
HUBER_MAX_ITERS = 100
MAD_TO_SD = 1.4826


def median_rows(x: np.ndarray) -> np.ndarray:
    """np.median along the last axis of an (M, N) array, by the same
    arithmetic: a -0.0 median comes out +0.0 and a row holding a NaN has a
    NaN median.  One exception: where the sum of an even row's two finite
    middle values overflows, the median is lower / 2 + upper / 2, which
    stays inside the row, not inf.  That sum warns of the overflow, so call
    it under np.errstate."""
    n = x.shape[-1]
    k = n // 2
    # one kth: numpy's selection with more is several times slower at large
    # N.  For even N the lower middle value is the largest of the k values
    # below the kth, which is the (k - 1)-th order statistic bit for bit.  A
    # NaN sorts above every number, so a row holding one has it at or after
    # the kth, where the largest value of the upper part finds it.
    part = x.copy()  # np.partition's copy, without its wrapper
    part.partition(k)
    if n % 2:
        top = np.maximum.reduce(part[:, k:], axis=-1)
        mid = part[:, k] + 0.0
    else:
        # the largest values below and from the kth, in one reduction
        both = np.maximum.reduceat(part, [0, k], axis=-1)
        lower, top = both[:, 0], both[:, 1]
        mid = (lower + part[:, k]) / 2.0 + 0.0
    # one test on the common path: mid - top is finite unless the row holds
    # a NaN (top is NaN), mid is not finite, or the difference of two finite
    # values of opposite sign overflows
    fine = np.isfinite(mid - top)
    if np.count_nonzero(fine) < fine.size:
        if not n % 2:
            upper = part[:, k]
            over = np.isinf(mid) & np.isfinite(lower) & np.isfinite(upper)
            mid[over] = lower[over] / 2.0 + upper[over] / 2.0
        mid[np.isnan(top)] = np.nan
    return mid


def mean_rows(x: np.ndarray) -> np.ndarray:
    """np.mean along the last axis of an (M, N) array of rows, or of an
    (M, blocks, q) array of blocks, by the same arithmetic, except on a row
    of finite values whose sum overflows: that row's mean is taken over the
    row divided by its largest magnitude, then scaled back, so it stays
    inside the row's range."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        mean = np.add.reduce(x, axis=-1) / x.shape[-1]
    wide = ~np.isfinite(mean)
    if np.count_nonzero(wide):
        wide &= np.isfinite(x).all(axis=-1)
        xw = x[wide]
        top = np.abs(xw).max(axis=-1, keepdims=True)
        scaled = np.add.reduce(xw / top, axis=-1) / x.shape[-1] * top[:, 0]
        mean[wide] = np.clip(scaled, xw.min(axis=-1), xw.max(axis=-1))
    return mean


def _cut(n: int, fraction: float, what: str) -> int:
    """Values cut from each end of a sorted row of n."""
    fraction = real_value(fraction, "fraction")
    if not 0.0 <= fraction < 0.5:
        raise ValueError("fraction must lie in [0, 0.5)")
    k = int(fraction * n)
    if 2 * k >= n:
        raise ValueError(f"{what} removed every value")
    return k


def _trimmed_rows(s: np.ndarray, fraction: float) -> np.ndarray:
    # s holds sorted rows
    n = s.shape[-1]
    k = _cut(n, fraction, "trimming")
    return mean_rows(s[:, k:n - k])


def _winsorized_rows(s: np.ndarray, fraction: float) -> np.ndarray:
    # s holds sorted rows; their tails are overwritten
    n = s.shape[-1]
    k = _cut(n, fraction, "winsorizing")
    if k > 0:
        s[:, :k] = s[:, k:k + 1]
        s[:, n - k:] = s[:, n - 1 - k:n - k]
    return mean_rows(s)


def trimmed_mean(sample, fraction: float) -> float:
    """Mean after dropping floor(fraction*N) values from each end."""
    return float(_trimmed_rows(np.sort(sample_row(sample)), fraction)[0])


def winsorized_mean(sample, fraction: float) -> float:
    """Mean after clamping floor(fraction*N) extremes on each side to the
    nearest retained order statistic."""
    return float(_winsorized_rows(np.sort(sample_row(sample)), fraction)[0])


def huber_rows(x: np.ndarray, tuning_c: float = HUBER_TUNING) -> np.ndarray:
    """huber_location of every row of x, by iteratively reweighted means
    under a per-row mask: a row stops once its step is below 1e-9 of its
    scale, or after HUBER_MAX_ITERS steps."""
    tuning_c = real_value(tuning_c, "tuning_c")
    if not tuning_c > 0.0:  # NaN too
        raise ValueError("tuning_c must be > 0")
    with np.errstate(all="ignore"):  # median_rows' sum may overflow
        med = median_rows(x)
        work = np.subtract(x, med[:, None])  # reused for every pass's weights
        mad = median_rows(np.abs(work, out=work))
        out = med.copy()  # a zero MAD returns the median
        live = np.flatnonzero(mad != 0.0)
        if live.size == 0:
            return out
        xs, mu, s = x, med, MAD_TO_SD * mad
        if live.size < len(x):
            xs, mu, s = x[live], med[live], s[live]
        k, tol = (tuning_c * s)[:, None], 1e-9 * s
        w = work[:len(xs)]  # the live rows' slice, taken again when rows drop
        for it in range(1, HUBER_MAX_ITERS + 1):
            # weights min(1, k / r) with r = |x - mu|, bit for bit as
            # where(r > k, k / r, 1) gives them: k / r is 1 or more unless
            # r > k, overflows to inf where r is tiny, and where it is NaN
            # (0 / 0, inf / inf) fmin takes the 1
            np.subtract(xs, mu[:, None], out=w)
            np.abs(w, out=w)
            np.divide(k, w, out=w)
            np.fmin(w, 1.0, out=w)
            total = np.add.reduce(w, axis=-1)
            nxt = np.add.reduce(np.multiply(w, xs, out=w), axis=-1) / total
            stopped = np.count_nonzero(done := np.abs(nxt - mu) < tol)
            if it == HUBER_MAX_ITERS or stopped == done.size:
                out[live] = nxt
                return out
            if stopped:
                out[live[done]] = nxt[done]
                keep = ~done
                live, xs, tol, k = live[keep], xs[keep], tol[keep], k[keep]
                nxt, w = nxt[keep], work[:len(xs)]
            mu = nxt


def huber_location(sample, tuning_c: float = HUBER_TUNING) -> float:
    """Iteratively reweighted mean with weights min(1, c*s/|resid|).

    The scale s = MAD * 1.4826 is held fixed; a zero MAD returns the median.
    """
    return float(huber_rows(sample_row(sample), tuning_c)[0])


def median_of_means_rows(x: np.ndarray, blocks: int | None = None,
                         ) -> np.ndarray:
    """median_of_means of every row of x.  The first N % blocks blocks hold
    q + 1 values and the rest q, as np.array_split makes them."""
    rows, n = x.shape
    if blocks is None:
        blocks = math.ceil(math.sqrt(n))
    blocks = integer_value(blocks, "blocks")
    if not 1 <= blocks <= n:
        raise ValueError("blocks must lie in [1, N]")
    q, longer = divmod(n, blocks)
    cut = longer * (q + 1)
    means = np.concatenate(
        [mean_rows(x[:, :cut].reshape(rows, longer, q + 1)),
         mean_rows(x[:, cut:].reshape(rows, blocks - longer, q))], axis=-1)
    with np.errstate(over="ignore"):  # median_rows' sum may overflow
        return median_rows(means)


def median_of_means(sample, blocks: int | None = None) -> float:
    """Median of the means of contiguous in-order blocks (sizes differ by
    at most one); defaults to ceil(sqrt(N)) blocks."""
    return float(median_of_means_rows(sample_row(sample), blocks)[0])


def baseline_rows(samples, names=BASELINE_IDS) -> dict[str, np.ndarray]:
    """The baselines in ``names``, with their standard settings, on every
    row of an (M, N) matrix: name -> (M,) estimates.  median, trimmed10 and
    winsorized10 share one sort of the rows.  The rows run block by block
    (row_blocks).  A row holding NaN or inf gets NaN from every baseline."""
    x, finite = sample_rows(samples)
    unknown = [name for name in names if name not in BASELINE_IDS]
    if unknown:
        raise ValueError(f"unknown baseline {unknown[0]!r}")
    # in BASELINE_IDS order, so winsorized10 overwrites the sorted rows
    # after median and trimmed10 have read them
    out = {name: np.empty(x.shape[0]) for name in BASELINE_IDS
           if name in names}
    with np.errstate(over="ignore"):  # median_rows' sum may overflow
        for b in row_blocks(*x.shape):
            xb, bad = x[b], ~finite[b]
            if bad.any():
                # zeros in place of the non-finite rows leave every other
                # row's estimates as they are; those rows are set to NaN at
                # the end
                xb = np.where(bad[:, None], 0.0, xb)
            s = None
            for name, est in out.items():
                if s is None and name in ("median", "trimmed10",
                                          "winsorized10"):
                    s = np.sort(xb, axis=-1)
                if name == "mean":
                    est[b] = mean_rows(xb)
                elif name == "median":
                    est[b] = median_rows(s)
                elif name == "trimmed10":
                    est[b] = _trimmed_rows(s, 0.1)
                elif name == "winsorized10":
                    est[b] = _winsorized_rows(s, 0.1)
                elif name == "huber":
                    est[b] = huber_rows(xb)
                else:
                    est[b] = median_of_means_rows(xb)
    if not finite.all():
        for est in out.values():
            est[~finite] = np.nan
    return out


def run_baseline(baseline_id: str, sample) -> float:
    """Dispatch one of the six baselines with its standard settings."""
    rows = baseline_rows(sample_row(sample), (baseline_id,))
    return float(rows[baseline_id][0])
