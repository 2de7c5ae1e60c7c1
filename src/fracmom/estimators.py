"""Location estimators built on the signed-power basis.

Three routes with a fixed fallback order: the full two-weight solver (a
one-step linearization that re-solves the weight system at each updated
center), the scalar signed-power root as proxy whenever that system is
unusable, and the sample mean inside the protected band around alpha = 1/2.
The full solver's 2x2 weight system is assembled and solved here too
(system_rows, build_correlant_system).  This module imports numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baselines import mean_rows, median_rows
from .basis import ESTIMATOR_BAND, alpha_list, basis_value, second_exponent
from .errors import BracketFailure, FracmomError, NonFiniteMoment, \
    SingularSystem, float_array, non_finite_errors, row_blocks, sample_rows
from .moments import FractionalMomentSet, MomentRows, moment_sums
# empirical_moments is no longer called here; perfbench/tracer.py binds it
# through this module
from .moments import empirical_moments  # noqa: F401

METHOD_FULL = "full"
METHOD_PROXY = "proxy"
METHOD_OLS = "ols_fallback"

MAX_OUTER_ITERS = 3  # outer passes of the full solver
TOL = 1e-8  # relative step size that counts as converged
STEP_CLIP_SD = 3.0  # largest outer step, in sample standard deviations
BRACKET_EXPANSION = 10.0  # initial proxy half-bracket, in robust scales
# the proxy's Brent search: scipy brentq's arithmetic with xtol 1e-12 and its
# default rtol (4 machine epsilons) and iteration cap
BRENT_XTOL = 1e-12
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
BRENT_MAX_ITERS = 100
DET_THRESHOLD = 1e-14  # smallest |det| of a weight system that is solved
COND_CAP = 1e10  # largest condition number of a weight system that is solved


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


@dataclass
class EstimateRows:
    """Results of one estimator on every row of an (M, N) sample matrix.

    Each array holds the EstimateResult field of the same name, one entry
    per row; ``errors`` maps every failed row to the exception that row
    raises on its own, and leaves its ``theta_hat`` NaN.  The kernels fill
    the arrays and the dict in place; the class is not frozen because a
    frozen __init__ costs about 2 us more, once per alpha of every call.
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


def _mad(x: np.ndarray, med: np.ndarray) -> np.ndarray:
    # MAD along the last axis about its median med; the deviations are
    # freed on return
    dev = x - med[..., None]
    return median_rows(np.abs(dev, out=dev))


def _robust_scale(mad: np.ndarray) -> np.ndarray:
    # the MAD, 1 where it is not positive
    positive = mad > 0.0
    return mad if np.count_nonzero(positive) == positive.size \
        else np.where(positive, mad, 1.0)


def _tie_smoothing(x: np.ndarray, center, scale) -> np.ndarray | None:
    # 1e-6 * scale in the rows with two or more residuals exactly at zero
    # and 0 in the others, or None where no row has two
    at_zero = x == center
    if np.count_nonzero(at_zero) > 1:
        tied = np.add.reduce(at_zero, axis=-1) >= 2
        if np.count_nonzero(tied):
            return np.where(tied, 1e-6 * scale, 0.0)
    return None


def estimate_ols(sample) -> EstimateResult:
    """Sample mean, tagged as the baseline/fallback method: the batch of one
    of estimate_full_grid's mean route."""
    x = float_array(sample).reshape(1, -1)
    return estimate_full_grid(x, (0.5,))[0].result(0)


def estimate_full(sample, alpha) -> EstimateResult:
    """Full two-weight estimator with the safeguarded solver stack.

    Starts at the sample mean; each outer pass re-estimates the moment set at
    the current center, solves for the weights, and takes one clipped Newton
    step on the weighted score.  Falls back to the scalar proxy when the
    weight system is singular/ill-conditioned and to the mean inside the
    protected alpha band.  The batch of one of estimate_full_grid.
    """
    x = float_array(sample).reshape(1, -1)
    return estimate_full_grid(x, (alpha,))[0].result(0)


def estimate_full_grid(samples, alphas) -> list[EstimateRows]:
    """estimate_full on every row of an (M, N) matrix at every alpha in
    alphas: one EstimateRows per alpha, in order.

    Reductions run along the rows, and every early exit or fallback is a
    per-row mask, so row r's result is estimate_full(samples[r], a) bit for
    bit whatever the other rows hold.  The rows run block by block (_grid,
    _full_block); rows routed to the proxy, including those whose zero
    floor underflows, go through _proxy_block together.  Only the outer
    passes run at each alpha.
    """
    return _grid(samples, alphas, METHOD_FULL, _full_block)


def _grid(samples, alphas, method: str, block) -> list[EstimateRows]:
    """The one driver of both grids: checks the samples and the alphas,
    makes one EstimateRows per alpha, whose fields are the rows of (k, M)
    arrays, and calls block(x, finite, rows, grid, out) on each block of
    rows (row_blocks), where rows holds the block's row indices in the
    matrix.  Every field starts as a failed proxy row has it: NaN estimate,
    condition number and determinant, 0 iterations and step, converged
    True, and method; so a failed row keeps its NaN estimate.  Each errors
    dict starts with the rows that hold NaN or inf."""
    x, finite = sample_rows(samples)
    grid = alpha_list(alphas)
    shape = (len(grid), x.shape[0])
    iters = np.zeros(shape, dtype=int)
    final_step = np.zeros(shape)
    # filled in place: np.full and np.ones cost more than the arrays here
    methods = np.empty(shape, dtype=object)
    methods.fill(method)
    nans = np.empty((3,) + shape)  # theta, cond, det
    nans.fill(math.nan)
    converged = np.empty(shape, dtype=bool)
    converged.fill(True)
    out = [EstimateRows(nans[0, j], methods[j], iters[j], final_step[j],
                        nans[1, j], nans[2, j], converged[j],
                        non_finite_errors(finite))
           for j in range(len(grid))]
    with np.errstate(all="ignore"):  # failed rows compute on garbage
        for b in row_blocks(*x.shape):
            block(x[b], finite[b], np.arange(b.start, b.stop), grid, out)
    return out


def _full_block(x: np.ndarray, finite: np.ndarray, rows: np.ndarray,
                grid: list, out: list):
    """estimate_full_grid on the block of rows x, the rows of the matrix
    that rows indexes: fills them in every EstimateRows of out, one per
    alpha of grid.  Inside the protected band a row's estimate is its mean.

    What does not depend on alpha is computed once for the whole grid:
    every row's mean, robust scale, zero floor and step bound, and the
    residuals of the first pass, which starts every alpha at the row mean,
    so that one moment_sums call gives that pass's moments at every
    exponent.  Finite rows whose zero floor is not positive go to the proxy
    without a pass.
    """
    n = x.shape[1]
    mean = mean_rows(x)
    full = []
    for a, res in zip(grid, out):
        if abs(a - 0.5) < ESTIMATOR_BAND:
            res.theta_hat[rows] = np.where(finite, mean, math.nan)
            res.method[rows] = METHOD_OLS
        else:
            # what a row keeps when the full route refuses it
            res.final_step[rows] = math.nan
            res.converged[rows] = False
            full.append((a, res))
    if not full:
        return
    ps = [second_exponent(a) for a, _ in full]
    scale = _robust_scale(_mad(x, median_rows(x)))
    center = mean[:, None]
    # an untied row's smoothing, 0, would leave its floor as it is
    eps = _tie_smoothing(x, center, scale)
    floor = 1e-12 * scale if eps is None else np.maximum(1e-12 * scale, eps)
    fl = floor[:, None]
    # one residual array for every pass at every alpha: a block-sized
    # array freed per pass lets malloc hand the heap top back to the
    # system, and a fresh process then faults its pages in again
    xi = x - center
    sums = moment_sums(xi, ps, fl)
    # np.std(x, ddof=1) by the same arithmetic, c2's row sum, and 0 where
    # N is 1: a finite row's c2 is 0 there.  An infinite sd is never read:
    # its row's c2 is infinite, so the row's determinant is not finite and
    # it never steps
    sd = np.sqrt(sums[0][0] / max(n - 1, 1))
    clip = STEP_CLIP_SD * sd
    going = finite & (floor > 0.0)
    start = (going, finite & ~going, mean, fl, -clip, clip)
    for (a, res), p, s in zip(full, ps, sums):
        _full_passes(x, rows, a, start, MomentRows(p, s / n), res, xi)


def _full_passes(x: np.ndarray, rows: np.ndarray, a: float, start,
                 m: MomentRows, res: EstimateRows, xi: np.ndarray):
    """The outer passes of _full_block at one alpha outside the band, on
    the block's rows x, from the start (going, proxied, mean, floor, lo,
    hi) and the first pass's moment rows m: fills the rows of res that rows
    indexes.  going marks the rows that take the passes, proxied the rows
    that go to the proxy without one, floor (a column), lo and hi hold every
    row's zero floor and step bounds; xi, an array of x's shape, takes each
    pass's residuals.

    Every row takes every pass, and masks say which results count: going
    marks the rows still iterating, and a row's results are written at the
    pass where it stops, because its step is done or could not be taken, or
    at the last pass.  A row that could not step fails with NonFiniteMoment
    if its moments are not finite, and otherwise joins proxied, whose rows
    go through _proxy_block together at the end.  A row with a non-finite
    moment never steps: its determinant (c2, nu_pp1, nu_2p, sigma_p) or its
    descent (nu_pm1) is not finite, so the moments are tested only where a
    row failed.
    """
    # start's masks serve every alpha of a grid, so they are replaced here,
    # never updated in place
    going, proxied, xbar, fl, lo, hi = start
    p, n = m.p, x.shape[1]
    mu = xbar
    for it in range(1, MAX_OUTER_ITERS + 1):
        if it > 1:  # moment_rows' arithmetic, without its list
            np.subtract(x, mu[:, None], xi)
            m = MomentRows(p, moment_sums(xi, (p,), fl)[0] / n)
        sys = system_rows(m)
        nu_pm1, sigma_p = m.values[1], m.values[4]
        # the weighted score z and minus its slope in mu
        z = sys.h1 * (xbar - mu) + sys.h2 * sigma_p
        descent = sys.h1 + p * sys.h2 * nu_pm1
        step = np.minimum(np.maximum(z / descent, lo), hi)
        mu = mu + step
        done = np.abs(step) < TOL * np.maximum(1.0, np.abs(mu))
        stepped = sys.regular & np.isfinite(descent) & (descent != 0.0)
        stop = going if it == MAX_OUTER_ITERS else going & (done | ~stepped)
        if not np.count_nonzero(stop):
            continue
        # the rows whose full route ends here, and those that could not step
        end = stop & stepped
        failed = stop ^ end
        if np.count_nonzero(failed):
            bad = failed & ~m.finite()
            for r in rows[bad].tolist():
                res.errors[r] = NonFiniteMoment(
                    "moment set contains non-finite entries")
            proxied = proxied | (failed & ~bad)
        ended = rows[end]
        for field, value in ((res.theta_hat, mu), (res.final_step, step),
                             (res.cond_last, sys.cond()),
                             (res.det_last, sys.det), (res.converged, done)):
            field[ended] = value[end]
        res.outer_iters[ended] = it
        going = going & ~stop
        if not np.count_nonzero(going):
            break

    if np.count_nonzero(proxied):
        idx = np.flatnonzero(proxied)
        fell = rows[idx]
        _proxy_block(x[idx], proxied[idx], fell, [a], [res])
        res.method[fell] = METHOD_PROXY
        res.final_step[fell] = 0.0
        res.converged[fell] = True


def estimate_proxy(sample, alpha) -> EstimateResult:
    """Scalar signed-power root: solve sum sign(x-mu)|x-mu|^p = 0 by
    bracketing.  Needs no moment matrix, so infinite-variance noise is no
    obstacle, and the root of any finite sample lies in its data range,
    which bounds the bracket (_search).  The batch of one of
    estimate_proxy_grid at one alpha."""
    x = float_array(sample).reshape(1, -1)
    return estimate_proxy_grid(x, (alpha,))[0].result(0)


def estimate_proxy_grid(samples, alphas) -> list[EstimateRows]:
    """estimate_proxy on every row of an (M, N) matrix at every alpha in
    alphas: one EstimateRows per alpha, in order.

    Each row runs its own search, bracket then Brent (_search), in
    lock-step with the others, so one score evaluation per step serves every
    row still searching.  Row r's result is estimate_proxy(samples[r], a)
    bit for bit whatever the other rows hold.  The rows run block by block
    (_grid, _proxy_block), and what does not depend on alpha (every row's
    median, robust scale, tie smoothing and starting bracket, and the work
    array of the scores) is computed once per block for the whole grid.
    """
    return _grid(samples, alphas, METHOD_PROXY, _proxy_block)


def _proxy_block(x: np.ndarray, finite: np.ndarray, rows: np.ndarray,
                 grid: list, out: list):
    """estimate_proxy_grid on the block of rows x, the rows of the matrix
    that rows indexes: fills their estimates and iteration counts in every
    EstimateRows of out, one per alpha of grid, and their errors."""
    med = median_rows(x)
    mad = _mad(x, med)
    # a constant row's root is its value, which its median holds.  A row
    # whose MAD is positive is not constant, so only the finite rows whose
    # MAD is 0 are compared with their extremes.  A finite row's MAD is
    # finite, as are its median and more than half its deviations: those
    # of its values beyond the median from 0, and for even N the nearest
    live = finite & (mad > 0.0)
    if np.count_nonzero(live) < live.size:
        flat = (finite & ~live).nonzero()[0]
        live[flat] = x[flat].max(axis=1) != x[flat].min(axis=1)
        const = flat[~live[flat]]
        for res in out:
            res.theta_hat[rows[const]] = med[const]
        live = live.nonzero()[0]
        if live.size == 0:
            return
        x, med, rows = x[live], med[live], rows[live]
        scale = _robust_scale(mad[live])
    else:
        # every MAD is positive, so it is the robust scale
        scale = mad
    ps = [second_exponent(a) for a in grid]
    # each row's tie smoothing, or None where no row uses one; only p < 1
    # smooths
    eps = None
    if any(p < 1.0 for p in ps):
        eps = _tie_smoothing(x, med[:, None], scale)
    # each row's median and starting half-width, in Python floats: the
    # same IEEE arithmetic, and each search takes its floats anyway
    starts = [(m, BRACKET_EXPANSION * max(s, 1e-8 * (1.0 + abs(m))))
              for m, s in zip(med.tolist(), scale.tolist())]
    # every score evaluation writes its residuals and basis values into one
    # work array per block, so that no score allocates them: at large N
    # fresh arrays cost page faults.  Calls may run in threads, so the
    # array is not shared
    work = np.empty((2,) + x.shape)
    rows = rows.tolist()
    for a, p, res in zip(grid, ps, out):
        _proxy_root(x, rows, starts, a, eps if p < 1.0 else None, work, res)


def _proxy_root(x: np.ndarray, rows: list, starts: list, a: float,
                eps: np.ndarray | None, work: np.ndarray, res: EstimateRows):
    """The root searches of _proxy_block at one alpha on the block's live
    rows x, which are the rows of the matrix that rows lists, from their
    (median, starting half-width) pairs starts: fills their estimates,
    iteration counts and errors in res.

    Every row runs its own search (_search) on its row, in lock-step with
    the others: every round sends each search the score of the point it
    yielded last (None starts it) and scores the next points of those still
    going with one basis_value call.  work's two slabs take the residuals
    and basis values.
    """
    theta, iters, errors = res.theta_hat, res.outer_iters, res.errors
    sends = [_search(row, m, h).send for row, (m, h) in zip(x, starts)]
    scores = [None] * len(sends)
    # each row's next point, a column for the scores' subtraction, written
    # in place: cheaper than building it from a list every round
    mu = np.empty((len(sends), 1))
    points = mu[:, 0]
    xi, v = work
    while True:
        ended = []
        for i, send in enumerate(sends):
            try:
                points[i] = send(scores[i])
            except StopIteration as stop:
                theta[rows[i]], iters[rows[i]] = stop.value
                ended.append(i)
            except FracmomError as exc:
                errors[rows[i]] = exc
                ended.append(i)
        if ended:
            if len(ended) == len(sends):
                return
            going = np.ones(len(sends), dtype=bool)
            going[ended] = False
            keep = going.nonzero()[0].tolist()
            sends = [sends[i] for i in keep]
            rows = [rows[i] for i in keep]
            mu = mu[going]
            points = mu[:, 0]
            x = x[going]
            if eps is not None:
                eps = eps[going]
            xi, v = xi[:len(x)], v[:len(x)]
        # each row's score sum_j basis_value(2, a, x[r, j] - mu[r], eps[r])
        # at its point mu[r], with the residuals and basis values in the
        # work array so that no score allocates them; eps None stands for 0
        # in every row
        np.subtract(x, mu, xi)
        basis_value(2, a, xi, out=v)
        if eps is not None:
            for r in (eps > 0.0).nonzero()[0].tolist():
                basis_value(2, a, xi[r], eps[r], out=v[r])
        scores = np.add.reduce(v, -1).tolist()


def _search(row: np.ndarray, med: float, half: float):
    """The proxy root search on one row of data from its median med and
    starting half-width half: a generator that yields each point and is
    sent its score, like _brent.  The score decreases in mu from >= 0 at
    row.min() to <= 0 at row.max(), so where [med - half, med + half] misses
    the root, Brent runs on the data range beyond the end that missed, at
    the cost of one more score, at that data end."""
    lo, hi = med - half, med + half
    s_lo = yield lo
    s_hi = yield hi
    if s_lo < 0.0:
        lo, hi, s_hi = float(row.min()), lo, s_lo
        s_lo = yield lo
    elif s_hi > 0.0:
        lo, hi, s_lo = hi, float(row.max()), s_hi
        s_hi = yield hi
    return (yield from _brent(lo, hi, s_lo, s_hi))


def _brent(xpre: float, xcur: float, fpre: float, fcur: float):
    """Brent's root search (Brent 1973, ch. 4) on one bracket, as scipy's
    brentq.c runs it with xtol BRENT_XTOL, rtol BRENT_RTOL and at most
    BRENT_MAX_ITERS iterations, one step at a time.

    Starts from the bracket [xpre, xcur] and the scores at its ends, which
    differ in sign.  Yields each next point and is sent its score; returns
    (root, iterations) as brentq reports them, except that an end scoring
    exactly 0 counts 0 iterations, where brentq leaves the count unset.  A
    NaN score, at an end or a step, raises NonFiniteMoment and a spent
    iteration cap BracketFailure.
    """
    if fpre != fpre or fcur != fcur:
        raise NonFiniteMoment(f"proxy score is NaN in [{xpre}, {xcur}]")
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
