"""Location estimators built on the signed-power basis.

Three routes with a fixed fallback order: the full two-weight solver (a
one-step linearization that re-solves the weight system at each updated
center), the scalar signed-power root as proxy whenever that system is
unusable, and the sample mean inside the protected band around alpha = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .baselines import mean_rows, median_rows
from .basis import ESTIMATOR_BAND, alpha_value, basis_value, second_exponent
# build_correlant_system and empirical_moments are no longer called here;
# perfbench/tracer.py binds them through this module
from .efficiency import build_correlant_system, system_rows  # noqa: F401
from .errors import BracketFailure, FracmomError, NonFiniteMoment, \
    non_finite_errors, sample_rows
from .moments import empirical_moments, moment_rows  # noqa: F401

METHOD_FULL = "full"
METHOD_PROXY = "proxy"
METHOD_OLS = "ols_fallback"

MAX_OUTER_ITERS = 3  # outer passes of the full solver
TOL = 1e-8  # relative step size that counts as converged
STEP_CLIP_SD = 3.0  # largest outer step, in sample standard deviations
BRACKET_EXPANSION = 10.0  # initial proxy half-bracket, in robust scales
MAX_BRACKET_DOUBLINGS = 60  # proxy bracket widenings before BracketFailure
# the proxy's Brent search: scipy brentq's arithmetic with xtol 1e-12 and its
# default rtol (4 machine epsilons) and iteration cap
BRENT_XTOL = 1e-12
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
BRENT_MAX_ITERS = 100


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


@dataclass(frozen=True)
class EstimateRows:
    """Results of one estimator on every row of an (M, N) sample matrix.

    Each array holds the EstimateResult field of the same name, one entry
    per row; ``errors`` maps every failed row to the exception that row
    raises on its own, and leaves its ``theta_hat`` NaN.
    """

    theta_hat: np.ndarray
    method: np.ndarray
    outer_iters: np.ndarray
    final_step: np.ndarray
    cond_last: np.ndarray
    det_last: np.ndarray
    converged: np.ndarray
    errors: dict[int, Exception]

    @property
    def ok(self) -> np.ndarray:
        ok = np.ones(self.theta_hat.size, dtype=bool)
        ok[list(self.errors)] = False
        return ok

    def result(self, r: int) -> EstimateResult:
        """Row r as an EstimateResult; raises the row's error if it failed."""
        if r in self.errors:
            raise self.errors[r]
        return EstimateResult(self.theta_hat.item(r), self.method[r],
                              self.outer_iters.item(r),
                              self.final_step.item(r), self.cond_last.item(r),
                              self.det_last.item(r), self.converged.item(r))


_RESULT_FIELDS = tuple(f.name for f in fields(EstimateResult))


def _robust_scale(x: np.ndarray, med: np.ndarray) -> np.ndarray:
    # MAD along the last axis about its median med, 1 where it is 0
    dev = x - med[..., None]
    mad = median_rows(np.abs(dev, out=dev))
    return np.where(mad > 0.0, mad, 1.0)[()]


def _tie_smoothing(x: np.ndarray, center, scale) -> np.ndarray:
    # two or more residuals exactly at zero trigger the smoothing scale
    ties = np.add.reduce(x == center, axis=-1)
    return np.where(ties >= 2, 1e-6 * scale, 0.0)[()]


def estimate_ols(sample) -> EstimateResult:
    """Sample mean, tagged as the baseline/fallback method: the batch of one
    of estimate_full_grid's mean route."""
    x = np.asarray(sample, dtype=float).reshape(1, -1)
    return estimate_full_grid(x, (0.5,))[0].result(0)


def estimate_full(sample, alpha) -> EstimateResult:
    """Full two-weight estimator with the safeguarded solver stack.

    Starts at the sample mean; each outer pass re-estimates the moment set at
    the current center, solves for the weights, and takes one clipped Newton
    step on the weighted score.  Falls back to the scalar proxy when the
    weight system is singular/ill-conditioned and to the mean inside the
    protected alpha band.  The batch of one of estimate_full_grid.
    """
    x = np.asarray(sample, dtype=float).reshape(1, -1)
    return estimate_full_grid(x, (alpha,))[0].result(0)


def estimate_full_grid(samples, alphas) -> list[EstimateRows]:
    """estimate_full on every row of an (M, N) matrix at every alpha in
    alphas: one EstimateRows per alpha, in order.

    Reductions run along the rows, and every early exit or fallback is a
    per-row mask, so row r's result is estimate_full(samples[r], a) bit for
    bit whatever the other rows hold.  Rows routed to the proxy, including
    those whose zero floor underflows to 0, go through estimate_proxy_rows
    together.  What does not depend on alpha (the input checks, and every
    row's mean, robust scale, zero floor and step bound) is computed once for
    the whole grid; only the outer passes run at each alpha.
    """
    x, finite = sample_rows(samples)
    rows = x.shape[0]
    grid = [alpha_value(a) for a in alphas]
    mean = mean_rows(x)
    start = None  # set up once an alpha outside the band needs it
    out = []
    for a in grid:
        errors = non_finite_errors(finite)
        if abs(a - 0.5) < ESTIMATOR_BAND:
            # the sample mean
            out.append(EstimateRows(
                np.where(finite, mean, math.nan),
                np.full(rows, METHOD_OLS, dtype=object),
                np.zeros(rows, dtype=int), np.zeros(rows),
                np.full(rows, math.nan), np.full(rows, math.nan),
                np.ones(rows, dtype=bool), errors))
            continue
        if start is None:
            start = _full_start(x, finite, mean)
        out.append(_full_passes(x, a, start, errors))
    return out


def _full_start(x: np.ndarray, finite: np.ndarray, mean: np.ndarray):
    """The alpha-free start of the outer passes, (going, proxied, mean,
    floor, lo, hi): going marks the rows that take the passes, proxied the
    finite rows whose zero floor is not positive, which go to the proxy
    without a pass, and floor (a column), lo and hi hold every row's zero
    floor and step bounds."""
    rows, n = x.shape
    with np.errstate(all="ignore"):  # failed rows compute on garbage
        scale = _robust_scale(x, median_rows(x))
        floor = np.maximum(1e-12 * scale, _tie_smoothing(x, mean[:, None], scale))
        if n > 1:  # np.std(x, ddof=1) by the same arithmetic
            dev = x - mean[:, None]
            sd = np.sqrt(np.add.reduce(np.multiply(dev, dev, out=dev),
                                       axis=-1) / (n - 1))
        else:
            sd = np.zeros(rows)
        if not np.isfinite(sd).all():
            wide = finite & ~np.isfinite(sd)
            if wide.any():
                q75, q25 = np.percentile(x[wide], [75.0, 25.0], axis=-1)
                sd[wide] = (q75 - q25) / 1.349
        clip = STEP_CLIP_SD * sd
    going = finite & (floor > 0.0)
    return going, finite & ~going, mean, floor[:, None], -clip, clip


def _full_passes(x: np.ndarray, a: float, start, errors: dict,
                 ) -> EstimateRows:
    """The outer passes of estimate_full_grid at one alpha outside the band,
    from _full_start's start; errors holds the rows refused so far.

    Every row takes every pass, and masks say which results count: going
    marks the rows still iterating, and a row's results are written at the
    pass where it stops, because its step is done or could not be taken, or
    at the last pass.  A row that could not step fails with NonFiniteMoment
    if its moments are not finite, and otherwise joins proxied, whose rows
    go through estimate_proxy_rows together at the end.
    """
    # start's masks serve every alpha of a grid, so they are replaced here,
    # never updated in place
    going, proxied, xbar, fl, lo, hi = start
    rows = x.shape[0]
    p = second_exponent(a)
    theta, final_step, cond, det = np.full((4, rows), math.nan)
    out = EstimateRows(theta, np.full(rows, METHOD_FULL, dtype=object),
                       np.zeros(rows, dtype=int), final_step, cond, det,
                       np.zeros(rows, dtype=bool), errors)
    mu = xbar
    with np.errstate(all="ignore"):  # failed rows compute on garbage
        for it in range(1, MAX_OUTER_ITERS + 1):
            m = moment_rows(x, mu[:, None], p, zero_floor=fl)
            sys = system_rows(m)
            _, nu_pm1, _, _, sigma_p = m.values
            # the weighted score z and minus its slope in mu
            z = sys.h1 * (xbar - mu) + sys.h2 * sigma_p
            descent = sys.h1 + p * sys.h2 * nu_pm1
            step = (z / descent).clip(lo, hi)
            mu = mu + step
            done = np.abs(step) < TOL * np.maximum(1.0, np.abs(mu))
            usable = m.finite()
            stepped = (usable & ~sys.singular & np.isfinite(descent)
                       & (descent != 0.0))
            stop = (going if it == MAX_OUTER_ITERS
                    else going & (done | ~stepped))
            if not stop.any():
                continue
            failed = stop & ~stepped
            for r in np.flatnonzero(failed & ~usable):
                errors[int(r)] = NonFiniteMoment(
                    "moment set contains non-finite entries")
            proxied = proxied | (failed & usable)
            # the rows whose full route ends here
            end = stop & stepped
            for field, value in ((theta, mu), (out.outer_iters, it),
                                 (final_step, step), (cond, sys.cond()),
                                 (det, sys.det), (out.converged, done)):
                np.copyto(field, value, where=end)
            going = going & ~stop
            if not going.any():
                break

    if proxied.any():
        idx = np.flatnonzero(proxied)
        prox = estimate_proxy_rows(x[idx], a)
        for name in _RESULT_FIELDS:
            getattr(out, name)[idx] = getattr(prox, name)
        errors.update((int(idx[j]), exc) for j, exc in prox.errors.items())
    return out


def estimate_proxy(sample, alpha) -> EstimateResult:
    """Scalar signed-power root: solve sum sign(x-mu)|x-mu|^p = 0 by
    bracketing.  Valid for any finite sample, including infinite-variance
    noise, since it needs no moment matrix.  The batch of one of
    estimate_proxy_rows."""
    x = np.asarray(sample, dtype=float).reshape(1, -1)
    return estimate_proxy_rows(x, alpha).result(0)


def estimate_proxy_rows(samples, alpha) -> EstimateRows:
    """estimate_proxy on every row of an (M, N) matrix, all rows at once.

    The bracket search widens every row's bracket under a per-row mask, and
    each row then runs its own Brent search (_brent) in lock-step with the
    others, so one score evaluation per step serves every row still
    searching.  Row r's result is estimate_proxy(samples[r], alpha) bit for
    bit whatever the other rows hold.
    """
    x, finite = sample_rows(samples)
    rows = x.shape[0]
    a = alpha_value(alpha)
    p = second_exponent(a)
    errors = non_finite_errors(finite)
    with np.errstate(all="ignore"):  # failed rows compute on garbage
        med = median_rows(x)
        out = EstimateRows(med, np.full(rows, METHOD_PROXY, dtype=object),
                           np.zeros(rows, dtype=int), np.zeros(rows),
                           np.full(rows, math.nan), np.full(rows, math.nan),
                           np.ones(rows, dtype=bool), errors)
        # a constant row's root is its value, which the median already holds
        live = np.flatnonzero(finite & (x.max(axis=1) != x.min(axis=1)))
        if live.size < rows:
            if live.size == 0:
                out.theta_hat[~finite] = math.nan
                return out
            x, med = x[live], med[live]
        scale = _robust_scale(x, med)
        # each row's tie smoothing, or None where no row uses one
        eps = _tie_smoothing(x, med[:, None], scale)
        if not (p < 1.0 and (eps > 0.0).any()):
            eps = None
        half = BRACKET_EXPANSION * np.maximum(scale,
                                              1e-8 * (1.0 + np.abs(med)))
        ends = np.empty((2, live.size))
        np.subtract(med, half, out=ends[0])
        np.add(med, half, out=ends[1])
        # the residuals of every score evaluation go into views of one work
        # array per call: a fresh array at every Brent step costs page faults
        # at large N, and calls may run in threads, so it is not shared
        buf = np.empty((2,) + x.shape)
        scores = _proxy_scores(x, ends, a, eps, buf)
        # score is strictly decreasing in mu, so a sign change must appear
        # once the interval is wide enough; MAX_BRACKET_DOUBLINGS brackets
        # are checked
        searching = np.ones(live.size, dtype=bool)
        for check in range(1, MAX_BRACKET_DOUBLINGS + 1):
            wide = ~((scores[0] >= 0.0) & (0.0 >= scores[1]))
            if not wide.any():
                break
            half[wide] *= 2.0
            ends[:, wide] = med[wide] - half[wide], med[wide] + half[wide]
            if check == MAX_BRACKET_DOUBLINGS:
                for j in np.flatnonzero(wide):
                    errors[int(live[j])] = BracketFailure(
                        f"no sign change in [{ends[0, j]}, {ends[1, j]}] "
                        f"for p={p}")
                searching = ~wide
                break
            xw = x[wide]
            scores[:, wide] = _proxy_scores(xw, ends[:, wide], a,
                                            _take(eps, wide), buf[:, :len(xw)])

        # the Brent searches of the bracketed rows in lock-step: every round
        # sends each search the score of the point it yielded last (None
        # starts it) and scores the next points of those still going in one
        # call
        lo, hi = ends.tolist()
        s_lo, s_hi = scores.tolist()
        searches = [(r, _brent(lo[j], hi[j], s_lo[j], s_hi[j]))
                    for j, r in enumerate(live.tolist()) if searching[j]]
        if len(searches) < live.size:
            x, eps = x[searching], _take(eps, searching)
        resid = buf[0, :len(x)]
        sent = [None] * len(searches)
        while searches:
            going, points = [], []
            for (r, search), score in zip(searches, sent):
                try:
                    points.append(search.send(score))
                except StopIteration as stop:
                    out.theta_hat[r], out.outer_iters[r] = stop.value
                    going.append(False)
                except FracmomError as exc:
                    errors[r] = exc
                    going.append(False)
                else:
                    going.append(True)
            if not all(going):
                searches = [sr for sr, g in zip(searches, going) if g]
                if not searches:
                    break
                x, eps = x[going], _take(eps, going)
                resid = resid[:len(x)]
            sent = _proxy_scores(x, np.array(points), a, eps, resid).tolist()
    for r in errors:
        out.theta_hat[r] = math.nan
    return out


def _take(eps, rows):
    return None if eps is None else eps[rows]


def _proxy_scores(x: np.ndarray, mu: np.ndarray, a: float,
                  eps: np.ndarray | None, resid: np.ndarray) -> np.ndarray:
    """The proxy score sum_j basis_value(2, a, x[r, j] - mu[..., r], eps[r])
    of every row r of x, at the points mu holds for it along its last axis;
    eps None stands for 0 in every row.  The residuals are written into
    resid, which has their shape, so that no step allocates them."""
    xi = np.subtract(x, mu[..., None], resid)
    v = basis_value(2, a, xi)
    if eps is not None:
        for r in np.flatnonzero(eps > 0.0):
            v[..., r, :] = basis_value(2, a, xi[..., r, :], eps[r])
    return np.add.reduce(v, axis=-1)


def _brent(xpre: float, xcur: float, fpre: float, fcur: float):
    """Brent's root search (Brent 1973, ch. 4) on one bracket, as scipy's
    brentq.c runs it with xtol BRENT_XTOL, rtol BRENT_RTOL and at most
    BRENT_MAX_ITERS iterations, one step at a time.

    Starts from the bracket [xpre, xcur] and the scores at its ends, which
    differ in sign.  Yields each next point and is sent its score; returns
    (root, iterations) as brentq reports them, except that an end scoring
    exactly 0 counts 0 iterations, where brentq leaves the count unset.  A
    NaN score raises NonFiniteMoment and a spent iteration cap
    BracketFailure.
    """
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    xblk = fblk = spre = scur = 0.0
    for it in range(1, BRENT_MAX_ITERS + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, it
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C's inf or NaN step, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield xcur
        if fcur != fcur:
            raise NonFiniteMoment(f"proxy score is NaN at mu={xcur}")
    raise BracketFailure(f"no root within {BRENT_MAX_ITERS} Brent steps, "
                         f"last point {xcur}")
