"""The batched kernels against their batch of one and their per-row code.

estimate_full_grid, estimate_proxy_grid, the baseline row kernels and
the plug-in ratio curve evaluate every row of an (M, N) matrix at once; row r
must come out exactly as that row alone would, whatever the other rows hold.
estimate_full_grid and estimate_proxy_grid must give at every alpha of a grid
what they give on that alpha alone.
The proxy rows are checked bit for bit against scipy's brentq, called as the
per-row proxy called it, and the baselines against their one-sample-at-a-time
code, both kept here as references.  The golden values pin both calibrators
on two seeded samples; they were computed before the calibrators were
batched.  The golden digests pin the Monte Carlo CSVs of a small design;
they were computed before the proxy and baseline cells were batched.  The
golden bits pin a third seeded sample's plug-in curves, resamples included,
and grid variances; they were computed before the alpha-free work was
hoisted out of the alpha loops.  The one median, which selects with one kth,
is checked bit for bit against np.median on rows up to 10^5 long.
"""

import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import optimize

from fracmom import (
    BASELINE_IDS,
    AllGridDegenerate,
    BracketFailure,
    FracmomError,
    McDesign,
    NonFiniteInput,
    NonFiniteMoment,
    alpha_grid,
    basis_value,
    calibrate_grid_mc,
    calibrate_plugin,
    estimate_full,
    estimate_proxy,
    parse_spec,
    run_baseline,
    run_baseline_mc,
    run_mc,
    sample,
    write_baseline_csv,
    write_mc_csv,
)
from fracmom.baselines import baseline_rows, mean_rows, median_rows
from fracmom.basis import SWEEP_BAND
from fracmom.calibration import PLUGIN_WINSOR, _empirical_curves, \
    _resamples
from fracmom.distributions import make_rng
from fracmom import errors, estimators
from fracmom.estimators import BRACKET_EXPANSION, BRENT_RTOL, BRENT_XTOL, \
    EstimateResult, _brent, estimate_full_grid, estimate_proxy_grid
from fracmom.moments import winsorize_rows

ROW_KINDS = ("random", "random", "constant", "tied", "nan")
ALPHAS = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.495, 0.505, 0.05, 0.95]),
                   st.floats(0.0, 1.0))


@st.composite
def sample_matrices(draw, max_rows=6, max_n=40, min_n=1, kinds=ROW_KINDS):
    """(M, N) samples whose rows are random, constant, tied, hold a NaN or
    an inf, or are tied but for one outlier 1e5 or 1e20 away (the proxy's
    starting bracket then may miss the root, which lies far out)."""
    n = draw(st.integers(min_n, max_n))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        row = draw(arrays(np.float64, n, elements=st.floats(
            -1e6, 1e6, allow_nan=False, allow_subnormal=False)))
        kind = draw(st.sampled_from(kinds))
        if kind == "constant":
            row[:] = row[0]
        elif kind == "tied":
            row[: n // 2 + 1] = row[-1]
        elif kind == "nan":
            row[draw(st.integers(0, n - 1))] = math.nan
        elif kind == "inf":
            row[draw(st.integers(0, n - 1))] = -math.inf
        elif kind in ("outlier", "far"):
            row[:-1] = row[0]
            row[-1] = row[0] + (1e5 if kind == "outlier" else 1e20)
        rows.append(row)
    return np.stack(rows)


def _bits(values):
    """Floats by their bit patterns, so -0.0 != 0.0 and NaN == NaN."""
    return tuple(float(v).hex() if isinstance(v, float) else v
                 for v in values)


def _outcome(fn, *args):
    try:
        res = fn(*args)
    except Exception as exc:  # the exception is part of the outcome
        return type(exc).__name__, str(exc)
    return _bits(vars(res).values())


@settings(max_examples=150, deadline=None)
@given(sample_matrices(), st.lists(ALPHAS, min_size=1, max_size=4))
def test_full_grid_matches_one_alpha_at_a_time(x, alphas):
    grid = estimate_full_grid(x, alphas)
    assert len(grid) == len(alphas)
    for alpha, rows in zip(alphas, grid):
        one = estimate_full_grid(x, (alpha,))[0]
        for r in range(x.shape[0]):
            assert _outcome(rows.result, r) == _outcome(one.result, r)
        assert list(rows.errors) == list(one.errors)


def _row_bits(rows, r):
    """Row r of an EstimateRows: every field by its bits, failed rows
    included, and its error's type and message, or None."""
    exc = rows.errors.get(r)
    return (_bits(getattr(rows, f.name).item(r)
                  for f in fields(EstimateResult)),
            exc and (type(exc), str(exc)))


@settings(max_examples=300, deadline=None)
@given(sample_matrices(), ALPHAS)
def test_full_rows_match_batch_of_one(x, alpha):
    rows = estimate_full_grid(x, (alpha,))[0]
    for r in range(x.shape[0]):
        assert _outcome(rows.result, r) == _outcome(estimate_full, x[r], alpha)
        assert rows.ok[r] == (r not in rows.errors)
        if rows.method[r] == "proxy":
            # a row the full solver hands to the proxy is the proxy's row
            assert _row_bits(rows, r) == _row_bits(
                estimate_proxy_grid(x[r:r + 1], (alpha,))[0], 0)


def test_nan_row_fails_alone():
    x = np.stack([sample(parse_spec("laplace"), 50, [9, r]) for r in range(3)])
    x[1, 7] = math.nan
    rows = estimate_full_grid(x, (0.05,))[0]
    assert rows.ok.tolist() == [True, False, True]
    assert math.isnan(rows.theta_hat[1])
    for r in (0, 2):
        assert rows.result(r) == estimate_full(x[r], 0.05)


def test_constant_row_routes_to_proxy():
    x = np.stack([np.full(20, 2.5), sample(parse_spec("gg:4"), 20, 3)])
    rows = estimate_full_grid(x, (0.3,))[0]
    assert rows.method.tolist() == ["proxy", "full"]
    assert rows.theta_hat[0] == 2.5


def test_rows_stopping_at_different_passes_match_batch_of_one():
    laplace = parse_spec("laplace")
    x = np.stack([sample(laplace, 50, [1234, 0, 0, 57]),  # stops at pass 2
                  sample(laplace, 50, [1234, 0, 0, 0]),  # takes 3 passes
                  np.full(50, 2.5),  # constant: the proxy
                  sample(laplace, 50, 3),
                  1e-315 * sample(laplace, 50, 5)])  # zero floor: the proxy
    x[3, 7] = math.nan
    alphas = (0.3, 0.05, 0.95)
    grid = estimate_full_grid(x, alphas)
    rows = grid[0]
    assert rows.method.tolist() == ["full", "full", "proxy", "full", "proxy"]
    assert rows.outer_iters[:2].tolist() == [2, 3]
    assert rows.converged[:2].tolist() == [True, False]
    assert list(rows.errors) == [3]
    for alpha, rows in zip(alphas, grid):
        one = estimate_full_grid(x, (alpha,))[0]
        for r in range(x.shape[0]):
            assert _outcome(rows.result, r) == _outcome(one.result, r)
            assert _outcome(rows.result, r) == _outcome(estimate_full, x[r],
                                                        alpha)
        assert list(rows.errors) == list(one.errors)


def test_shared_first_pass_maps_each_alpha_to_its_exponent():
    # the first pass of every alpha outside the band is computed in one
    # moment_rows call; an unsorted grid with a repeat and in-band alphas
    # between the others must still give each alpha its own result
    laplace = parse_spec("laplace")
    base = sample(laplace, 50, 11)
    x = np.stack([base,  # the full route
                  np.concatenate([-base[:25], base[:25]]),  # stops at pass 1
                  sample(laplace, 50, [1234, 0, 0, 0]),  # takes 3 passes
                  np.full(50, 2.5),  # constant: the proxy at pass 1
                  sample(laplace, 50, 3),
                  1e-315 * sample(laplace, 50, 5)])  # zero floor: the proxy
    x[4, 7] = math.nan
    alphas = (0.95, 0.5, 0.05, 0.495, 0.3, 0.05, 1.0, 0.0)
    grid = estimate_full_grid(x, alphas)
    assert len(grid) == len(alphas)
    for alpha, rows in zip(alphas, grid):
        one = estimate_full_grid(x, (alpha,))[0]
        for r in range(x.shape[0]):
            assert _outcome(rows.result, r) == _outcome(one.result, r)
        assert list(rows.errors) == list(one.errors) == [4]
        for name in ("theta_hat", "method", "outer_iters", "final_step",
                     "cond_last", "det_last", "converged"):
            assert _bits(getattr(rows, name).tolist()) == \
                _bits(getattr(one, name).tolist()), (alpha, name)
        if abs(alpha - 0.5) >= 0.01:
            assert rows.method[[1, 3, 5]].tolist() == ["full", "proxy",
                                                       "proxy"]
            assert rows.outer_iters[1] == 1 and rows.converged[1]
    assert grid[2].theta_hat.tolist() != grid[4].theta_hat.tolist()


def brentq_proxy(x, alpha, extended=None) -> tuple[float, int]:
    """estimate_proxy's (root, iterations) as scipy's brentq finds them: a
    score closure over the sample, the starting bracket about the median
    or, where its scores do not change sign, the data range beyond the end
    that missed, then brentq.  A list given as extended receives 1 if the
    bracket moved to a data end and 0 if not."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NonFiniteInput("sample contains NaN or infinite values")
    a = float(alpha)
    med = float(np.median(x))
    if math.isinf(med):  # the finite middle pair's sum overflowed
        lower, upper = np.sort(x)[len(x) // 2 - 1:len(x) // 2 + 1]
        med = float(lower / 2.0 + upper / 2.0)
    if np.max(x) == np.min(x):
        return med, 0
    mad = float(np.median(np.abs(x - med)))
    scale = mad if mad > 0.0 else 1.0
    eps = 1e-6 * scale if np.count_nonzero(x == med) >= 2 else 0.0

    def score(mu: float) -> float:
        return float(np.sum(basis_value(2, a, x - mu, eps)))

    half = BRACKET_EXPANSION * max(scale, 1e-8 * (1.0 + abs(med)))
    lo, hi = med - half, med + half
    s_lo, s_hi = score(lo), score(hi)
    if extended is not None:
        extended.append(int(s_lo < 0.0 or s_hi > 0.0))
    if s_lo < 0.0:
        lo, hi, s_hi = float(np.min(x)), lo, s_lo
        s_lo = score(lo)
    elif s_hi > 0.0:
        lo, hi, s_lo = hi, float(np.max(x)), s_hi
        s_hi = score(hi)
    if math.isnan(s_lo) or math.isnan(s_hi):
        raise NonFiniteMoment(f"proxy score is NaN in [{lo}, {hi}]")
    root, info = optimize.brentq(score, lo, hi, xtol=1e-12, full_output=True)
    # brentq leaves the count unset when an end scores exactly 0
    return float(root), 0 if s_lo == 0.0 or s_hi == 0.0 else info.iterations


def _proxy_outcome(fn, *args):
    try:
        theta, iters = fn(*args)
    except FracmomError as exc:
        return type(exc).__name__, str(exc)
    return float(theta).hex(), int(iters)


def _row_outcome(rows, r):
    try:
        res = rows.result(r)
    except FracmomError as exc:
        return type(exc).__name__, str(exc)
    return res.theta_hat.hex(), res.outer_iters


def _assert_proxy_rows_match_brentq(x, alpha):
    """Every row of x as brentq_proxy finds it, alone and among the others;
    every finite row is found, within Brent's tolerance of its data
    range."""
    rows = estimate_proxy_grid(x, (alpha,))[0]
    with np.errstate(all="ignore"):
        for r in range(x.shape[0]):
            expected = _proxy_outcome(brentq_proxy, x[r], alpha)
            assert _row_outcome(rows, r) == expected, r
            one = estimate_proxy_grid(x[r:r + 1], (alpha,))[0]
            assert _row_outcome(one, 0) == expected, r
            assert rows.ok[r] == (r not in rows.errors)
            if np.isfinite(x[r]).all():
                assert rows.ok[r], r
                theta = rows.theta_hat[r]
                tol = BRENT_XTOL + BRENT_RTOL * abs(theta)
                assert x[r].min() - tol <= theta <= x[r].max() + tol, r


@settings(max_examples=300, deadline=None)
@given(sample_matrices(kinds=ROW_KINDS + ("outlier", "far")), ALPHAS)
def test_proxy_rows_match_brentq(x, alpha):
    _assert_proxy_rows_match_brentq(x, alpha)


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 0.95, 1.0])
def test_proxy_rows_match_brentq_on_every_row_kind(alpha):
    laplace = sample(parse_spec("laplace"), 40, 6)
    tied = laplace.copy()
    tied[:21] = tied[-1]
    x = np.stack([laplace, tied, np.full(40, -2.5), np.r_[np.full(39, -1.0),
                                                            1e3], 5 * laplace])
    _assert_proxy_rows_match_brentq(x, alpha)
    # from p = 1 up the outlier row's starting bracket misses its root,
    # alone and among rows whose brackets hold theirs
    extended = []
    brentq_proxy(x[3], alpha, extended)
    assert extended[0] == (alpha >= 0.5)
    assert estimate_proxy_grid(x[3:4], (alpha,))[0].ok.all()
    # rows whose starting brackets hold the root and rows whose brackets
    # move to their data end, so that rows at a bracket end share score
    # rounds with rows already in Brent steps
    wide = np.repeat(laplace[None, :], 6, axis=0)
    wide[:, 0] = (10.0, 30.0, 150.0, 5e3, 1e6, 1e100)
    extended = []
    for row in wide:
        brentq_proxy(row, alpha, extended)
    assert extended[0] == 0 and extended[-1] == 1
    _assert_proxy_rows_match_brentq(wide, alpha)
    # a row whose MAD is 0 need not be constant: 60 equal values and one
    # other, and 31 against 30, must search; the constant rows keep their
    # medians with 0 iterations, also where the sum of the middle pair of an
    # even count of equal values overflows
    flat = np.array([[0.0] * 60 + [1.0], [5.0] * 31 + [-2.0] * 30,
                     np.full(61, -2.5)])
    _assert_proxy_rows_match_brentq(flat, alpha)
    rows = estimate_proxy_grid(flat, (alpha,))[0]
    assert rows.ok.all() and (rows.outer_iters[:2] > 0).all()
    assert (rows.theta_hat[2], rows.outer_iters[2]) == (-2.5, 0)
    huge = np.array([np.full(4, 1e308), np.full(4, -1e308)])
    _assert_proxy_rows_match_brentq(huge, alpha)
    rows = estimate_proxy_grid(huge, (alpha,))[0]
    assert rows.theta_hat.tolist() == [1e308, -1e308]
    assert rows.outer_iters.tolist() == [0, 0]


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.95, 1.0])
@pytest.mark.parametrize("outlier", [None, 1e3])
def test_one_basis_call_per_search_point(monkeypatch, alpha, outlier):
    """A one-row proxy call on a tie-free sample scores each point its
    search yields with one basis_value call: two for the starting bracket,
    one for the data end where that bracket misses the root, and one per
    Brent step taken, which is one fewer than the iterations brentq counts,
    since its last iteration takes no step."""
    x = sample(parse_spec("laplace"), 100, 19)
    if outlier is not None:
        x[0] = outlier
    assert np.unique(x).size == x.size
    extended = []
    brentq_proxy(x, alpha, extended)
    calls = []
    real = estimators.basis_value

    def counted(*args, **kwargs):
        calls.append(args[2].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "basis_value", counted)
    res = estimate_proxy(x, alpha)
    assert extended[0] == (outlier is not None and alpha >= 0.5)
    assert res.outer_iters > 1
    assert len(calls) == 2 + extended[0] + res.outer_iters - 1
    assert set(calls) == {(1, x.size)}


def _assert_proxy_grid_matches_one_alpha_at_a_time(x, alphas):
    grid = estimate_proxy_grid(x, alphas)
    assert len(grid) == len(alphas)
    for alpha, rows in zip(alphas, grid):
        one = estimate_proxy_grid(x, (alpha,))[0]
        for name in (f.name for f in fields(rows) if f.name != "errors"):
            assert _bits(getattr(rows, name).tolist()) == \
                _bits(getattr(one, name).tolist()), (alpha, name)
        for r in range(x.shape[0]):
            assert _outcome(rows.result, r) == _outcome(one.result, r)
        assert [(r, type(e), str(e)) for r, e in rows.errors.items()] == \
            [(r, type(e), str(e)) for r, e in one.errors.items()]


@settings(max_examples=150, deadline=None)
@given(sample_matrices(kinds=ROW_KINDS + ("outlier", "inf")),
       st.lists(ALPHAS, min_size=1, max_size=4))
def test_proxy_grid_matches_one_alpha_at_a_time(x, alphas):
    _assert_proxy_grid_matches_one_alpha_at_a_time(x, alphas)


@pytest.mark.parametrize("block_rows", [None, 2])
def test_proxy_grid_on_every_row_kind(monkeypatch, block_rows):
    """Rows whose setup the grid shares: random, constant, NaN and inf rows,
    rows tied at the median (smoothed at p < 1 only), and a row whose root
    lies 1e19 out, past its starting bracket at every alpha; a repeated
    alpha; and, with two rows per block, more rows than one block."""
    laplace = sample(parse_spec("laplace"), 4, 6)
    x = np.array([laplace, np.full(4, 2.5), [1.0, math.nan, 0.0, 2.0],
                  [1.0, 1.0, 1.0, 2.0], [-1.0, -1.0, -1.0, 1e20],
                  [0.5, math.inf, 0.5, 0.0], 3.0 * laplace - 1.0,
                  [-4.0, 0.25, 0.25, 9.0], [7.0, 7.0, -3.0, 7.0]])
    alphas = (0.05, 0.95, 0.3, 0.05, 0.5, 1.0, 0.0)
    if block_rows is not None:
        monkeypatch.setattr(errors, "BLOCK_ELEMENTS", block_rows * 4)
    assert len(list(errors.row_blocks(*x.shape))) == \
        (1 if block_rows is None else 5)
    _assert_proxy_grid_matches_one_alpha_at_a_time(x, alphas)
    grid = estimate_proxy_grid(x, alphas)
    with np.errstate(all="ignore"):
        for alpha, rows in zip(alphas, grid):
            assert sorted(rows.errors) == [2, 5]
            for r in range(x.shape[0]):
                assert _row_outcome(rows, r) == _proxy_outcome(
                    brentq_proxy, x[r], alpha), (alpha, r)


def test_refused_row_reads_nan_whatever_the_others_hold():
    bad = np.array([1.0, math.inf, 2.0])
    for x in (bad[None, :], np.stack([bad, np.full(3, 2.0)]),
              np.stack([bad, [1.0, 3.0, 2.0]])):
        rows = estimate_proxy_grid(x, (0.05,))[0]
        assert list(rows.errors) == [0]
        assert math.isnan(rows.theta_hat[0])


def test_nan_score_row_fails_alone():
    laplace = sample(parse_spec("laplace"), 200, 0)
    x = np.stack([1e200 * laplace + 5.5e200, laplace])
    rows = estimate_proxy_grid(x, (0.95,))[0]
    assert rows.ok.tolist() == [False, True]
    assert type(rows.errors[0]).__name__ == "NonFiniteMoment"
    assert math.isnan(rows.theta_hat[0])
    assert _outcome(rows.result, 1) == _outcome(estimate_proxy, laplace, 0.95)
    assert _row_outcome(rows, 1) == _proxy_outcome(brentq_proxy, laplace,
                                                   0.95)


DECREASING = (
    lambda t: -t,
    lambda t: -t ** 3,
    lambda t: -math.sinh(t),
    lambda t: -math.atan(t) ** 3,  # flat at the root: spends brentq's cap
    lambda t: -math.copysign(abs(t) ** 0.3, t),
    lambda t: math.exp(-t) - 1.0,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(DECREASING))), st.floats(-10.0, 10.0),
       st.floats(0.0, 100.0), st.floats(0.0, 100.0))
def test_brent_steps_as_brentq(kind, c, below, above):
    def f(mu):
        return DECREASING[kind](mu - c)

    lo, hi = c - below, c + above
    if lo == hi:
        return
    try:
        root, info = optimize.brentq(f, lo, hi, xtol=1e-12, full_output=True)
        # brentq leaves the count unset when an end scores exactly 0
        expected = (root, 0 if 0.0 in (f(lo), f(hi)) else info.iterations)
    except RuntimeError:  # brentq's iteration cap
        expected = BracketFailure
    search = _brent(lo, hi, f(lo), f(hi))
    try:
        point = next(search)
        while True:
            point = search.send(f(point))
    except StopIteration as stop:
        got = stop.value
    except BracketFailure:
        got = BracketFailure
    assert got == expected


def reference_baseline(name: str, x) -> float:
    """The six baselines as they ran one sample at a time."""
    x = np.asarray(x, dtype=float)
    if name == "mean":
        return float(np.mean(x))
    if name == "median":
        return float(np.median(x))
    if name in ("trimmed10", "winsorized10"):
        s = np.sort(x)
        k = int(0.1 * s.size)
        if name == "trimmed10":
            return float(np.mean(s[k:s.size - k]))
        if k > 0:
            s[:k] = s[k]
            s[s.size - k:] = s[s.size - 1 - k]
        return float(np.mean(s))
    if name == "huber":
        med = float(np.median(x))
        mad = float(np.median(np.abs(x - med)))
        if mad == 0.0:
            return med
        s = 1.4826 * mad
        k = 1.345 * s
        mu = med
        for _ in range(100):
            r = np.abs(x - mu)
            w = np.ones_like(r)
            far = r > k
            w[far] = k / r[far]
            nxt = float(np.sum(w * x) / np.sum(w))
            if abs(nxt - mu) < 1e-9 * s:
                return nxt
            mu = nxt
        return mu
    means = [float(np.mean(g))
             for g in np.array_split(x, math.ceil(math.sqrt(x.size)))]
    return float(np.median(means))


def _assert_baselines_match_reference(x):
    rows = baseline_rows(x)
    assert tuple(rows) == BASELINE_IDS
    for name in BASELINE_IDS:
        for r in range(x.shape[0]):
            if not np.isfinite(x[r]).all():
                # refused alone, NaN in a batch
                assert math.isnan(rows[name][r]), (name, r)
                with pytest.raises(NonFiniteInput):
                    run_baseline(name, x[r])
                continue
            expected = float(reference_baseline(name, x[r])).hex()
            assert float(rows[name][r]).hex() == expected, (name, r)
            assert run_baseline(name, x[r]).hex() == expected, (name, r)


@settings(max_examples=200, deadline=None)
@given(sample_matrices())
def test_baseline_rows_match_reference(x):
    with np.errstate(all="ignore"):
        _assert_baselines_match_reference(x)


@pytest.mark.parametrize("n", [1, 2, 3, 50, 99, 100, 101, 1000, 100_000])
def test_baseline_rows_match_reference_by_n(n):
    x = np.stack([sample(parse_spec(family), n, [8, r])
                  for r, family in enumerate(("laplace", "cauchy", "gg:4"))])
    _assert_baselines_match_reference(np.vstack([x, np.round(x, 1)]))


@pytest.mark.parametrize("alpha", [0.05, 0.95])
def test_proxy_rows_match_brentq_at_large_n(alpha):
    laplace = sample(parse_spec("laplace"), 100_000, 12)
    outlier = laplace.copy()
    outlier[0] = 1e12  # its starting bracket misses the root
    extended = []
    brentq_proxy(outlier, alpha, extended)
    assert extended[0] == 1
    _assert_proxy_rows_match_brentq(np.stack([laplace, outlier]), alpha)


def _selection_rows(n, non_finite):
    """Rows of n for the medians: random, sorted high to low, tied, all
    ±0.0, and ties mixed with ±0.0; with non_finite, also rows holding NaN,
    +inf, -inf or both infinities."""
    rng = np.random.default_rng([14, n])
    rows = [rng.standard_normal(n), np.sort(rng.standard_normal(n))[::-1],
            np.round(rng.standard_normal(n)), rng.choice([-0.0, 0.0], n),
            rng.choice([-1.0, -0.0, 0.0, 0.0, 2.0], n)]
    if non_finite:
        for bad in ([math.nan], [math.inf], [-math.inf],
                    [math.inf, -math.inf], [math.nan] * (n // 2 + 1)):
            row = rng.standard_normal(n)
            at = rng.permutation(n)[:len(bad)]
            row[at] = bad[:at.size]
            rows.append(row)
    return np.stack(rows)


# at N = 2316 a row sorted high to low leaves the lower half's largest value
# away from k - 1 after numpy 2.4's single-kth selection on AVX-512
@pytest.mark.parametrize("n", [1, 2, 3, 999, 1000, 2316, 100_000])
def test_medians_are_np_median_bit_for_bit(n):
    with np.errstate(all="ignore"):
        x = _selection_rows(n, non_finite=True)
        assert _bits(median_rows(x)) == _bits(np.median(x, axis=-1) + 0.0)


GOLDEN_DESIGN = McDesign(
    tuple(parse_spec(s) for s in ("laplace", "beta:2:5", "cauchy")),
    (1, 2, 7, 40), (0.0, 0.05, 0.5, 0.95, 1.0), replicates=25,
    base_seed=2026)
GOLDEN_CSV = {
    "mc": "d4a8c81536777e70b63c849bab96b96a87b4dd6e48d67caee238926391e79f8e",
    "baselines":
        "24393822949299d9a682809465eeaa994d9c14fb7b9e365f6008f274a0817e8c",
}


def test_monte_carlo_csv_golden_digests(tmp_path):
    for name, run, write in (("mc", run_mc, write_mc_csv),
                             ("baselines", run_baseline_mc,
                              write_baseline_csv)):
        path = tmp_path / f"{name}.csv"
        write(run(GOLDEN_DESIGN), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            GOLDEN_CSV[name], name


@settings(max_examples=100, deadline=None)
@given(sample_matrices(max_rows=4, min_n=2))
def test_plugin_curves_match_batch_of_one(x):
    alphas = alpha_grid(0.05, SWEEP_BAND)
    # _empirical_curves overwrites the rows it is handed
    values, flags = _empirical_curves(x.copy(), alphas)
    for r in range(x.shape[0]):
        one_v, one_f = _empirical_curves(x[r:r + 1].copy(), alphas)
        assert _bits(values[r].tolist()) == _bits(one_v[0].tolist())
        assert flags[r].tolist() == one_f[0].tolist()


def test_all_degenerate_row_is_flagged_alone():
    alphas = alpha_grid(0.05, SWEEP_BAND)
    resid = sample(parse_spec("laplace"), 60, 4)
    x = np.stack([resid - resid.mean(), np.zeros(60)])
    values, flags = _empirical_curves(x.copy(), alphas)
    assert flags[1].all() and not flags[0].all()
    one_v, one_f = _empirical_curves(x[:1].copy(), alphas)
    assert _bits(values[0].tolist()) == _bits(one_v[0].tolist())
    assert flags[0].tolist() == one_f[0].tolist()


def test_plugin_skips_degenerate_resamples():
    # most resamples of 29 zeros and one 1 hold only zeros and have no
    # usable ratio; they are skipped, the resamples with the 1 are kept
    x = np.r_[np.zeros(29), 1.0]
    res = calibrate_plugin(x, bootstrap_b=40, seed=1)
    lo, hi = res.sensitivity_interval
    assert lo <= res.alpha_star <= hi
    with pytest.raises(AllGridDegenerate):
        calibrate_plugin(np.zeros(30), bootstrap_b=40, seed=1)


GRID = alpha_grid(0.05, SWEEP_BAND)
GOLDEN = {
    ("plugin", "laplace"): (0.45, (0.0, 0.75), True, [
        0.7892699716276995, 0.7774148746517288, 0.7656304607969271,
        0.7546442463734505, 0.7450500102235336, 0.7372701044611694,
        0.7315432270330968, 0.7279219586713086, 0.7262097342393433,
        0.7250502431750624, 0.7336694891032765, 0.7404253927083164,
        0.7475726794739552, 0.7557315698511421, 0.7648308680557991,
        0.7747503082943868, 0.7853684360381702, 0.7965668555944762,
        0.8082287423882539, 0.820237335942774]),
    ("grid_mc", "laplace"): (0.0, (0.0, 0.35), True, [
        0.0012380464855677557, 0.0012425928365607725, 0.0012414109493197748,
        0.0012460550990572347, 0.0012468178250428681, 0.0012536491479313056,
        0.0012539425296995612, 0.0012663160505815207, 0.0019347319352532246,
        0.0027372408751355844, 0.050259662773559685, 0.0020631915326004527,
        0.0014118288954567165, 0.0013766929868463923, 0.0013915098117961602,
        0.0014126380752683724, 0.0014358070216647868, 0.001460031181812356,
        0.0014847028501643478, 0.0015094188205176371]),
    ("plugin", "cauchy"): (0.45, (0.0, 1.0), True, [
        0.055973112905196305, 0.05643102255538892, 0.056611703921311436,
        0.05629544522873934, 0.05514575943465161, 0.05254497562015017,
        0.0471124371763975, 0.03500562259690069, 0.0012127863542089,
        -0.18879143430202527, 0.07475623204820371, 0.12223987011269087,
        0.129849646795425, 0.13576659086277515, 0.14268374509439366,
        0.15081616388772673, 0.16002096157623685, 0.17008026879439453,
        0.18075380936530933, 0.19179575994809278]),
    ("grid_mc", "cauchy"): (0.3, (0.25, 0.3), False, [
        3.0087466048973206, 1.3489954715222363, 0.48492325592456065,
        0.1680007897294881, 0.05642183245460597, 0.025602311330585555,
        0.025544503242271453, 0.03315597533565183, 0.04429373002617661,
        0.10072548129937882, 0.15975790073756543, 0.12444828884070532,
        0.1544538973283994, 0.19276762508532144, 0.23707562637352858,
        0.28631674444058647, 0.3394067330831049, 0.3952376389805046,
        0.4527822245012656, 0.5112068014302285]),
}


# float-hex values and a digest computed before the bootstrap matrices were
# drawn in one call, the plug-in winsorized once per matrix and the grid
# calibrator set up once per matrix
BITS_SAMPLE = ("gg:1.5", 300, [2026, 3])
BITS_PLUGIN = (0.55, (0.0, 0.95), True, (
    "0x1.ea148403348fdp-1", "0x1.e48015f30e5ebp-1", "0x1.de16be0bbba50p-1",
    "0x1.d72635b6a7fd0p-1", "0x1.d00dfd2cdfe53p-1", "0x1.c931a1660ef93p-1",
    "0x1.c2eb849a0443cp-1", "0x1.bd832ac573c0ep-1", "0x1.b927fede53352p-1",
    "0x1.b5ed413e91723p-1", "0x1.b300b8536fd1ep-1", "0x1.b314343f63c3bp-1",
    "0x1.b405485606498p-1", "0x1.b5b145b342d38p-1", "0x1.b7f3d6d50b15cp-1",
    "0x1.baaac606a7575p-1", "0x1.bdb76ff737a98p-1", "0x1.c0ff6b9ba3e5dp-1",
    "0x1.c46ca7fe63220p-1", "0x1.c7ed2eccf76f5p-1"))
BITS_PLUGIN_ROWS = \
    "87fa5f7f8fb80cef9aa5bf4b7b3befcf797aee3480284f4c1079e321ac8cefd4"
BITS_GRID = (0.25, (0.05, 1.0), True, (
    "0x1.8ab855317fd61p-9", "0x1.7f84b7eebeacbp-9", "0x1.881ff471bcc04p-9",
    "0x1.7c7e694f5569bp-9", "0x1.80ba9b8451bc2p-9", "0x1.75caf31b32667p-9",
    "0x1.7b4eb0c5c482dp-9", "0x1.84aaf6b230480p-9", "0x1.e3d5ad15f5925p-8",
    "0x1.671207f4e0b77p-6", "0x1.b5562a0388defp-4", "0x1.552fb563d9b7dp-8",
    "0x1.9caa6fa0f75bap-9", "0x1.7a2dd83f70812p-9", "0x1.786b6b18b6303p-9",
    "0x1.7951570ac7a34p-9", "0x1.7ae0a6713e8e2p-9", "0x1.7cb219175c3c7p-9",
    "0x1.7ea27435aeeb2p-9", "0x1.80a20f6318d19p-9"))


def _bits_sample():
    family, n, seed = BITS_SAMPLE
    return sample(parse_spec(family), n, seed)


def _summary_bits(res):
    return (res.alpha_star, res.sensitivity_interval, res.ambiguous,
            tuple(float(v).hex() for v in res.curve.g2))


def test_plugin_curve_bits():
    x = _bits_sample()
    assert _summary_bits(calibrate_plugin(x, bootstrap_b=50, seed=4)) == \
        BITS_PLUGIN
    # the residuals' curve and every resample's, through the draw, the
    # re-centring and the winsorization
    resid = x - float(np.mean(x))
    boots = np.concatenate([block.copy() for _, block in
                            _resamples(resid, 50, make_rng([4, 2401]))])
    boots -= mean_rows(boots)[:, None]
    rows = winsorize_rows(np.concatenate([resid[None, :], boots]),
                          PLUGIN_WINSOR)
    values, flags = _empirical_curves(rows, GRID)
    digest = hashlib.sha256(values.tobytes() + flags.tobytes()).hexdigest()
    assert digest == BITS_PLUGIN_ROWS


def test_grid_variance_bits():
    res = calibrate_grid_mc(_bits_sample(), GRID, bootstrap_b=100, seed=4)
    assert _summary_bits(res) == BITS_GRID


@pytest.mark.parametrize("criterion,family", sorted(GOLDEN))
def test_calibration_golden_values(criterion, family):
    x = sample(parse_spec(family), 500, [2026, 1 if family == "laplace" else 2])
    if criterion == "plugin":
        res = calibrate_plugin(x, seed=3)
    else:
        res = calibrate_grid_mc(x, GRID, bootstrap_b=100, seed=3)
    alpha_star, interval, ambiguous, curve = GOLDEN[criterion, family]
    assert res.alpha_star == alpha_star
    assert res.sensitivity_interval == interval
    assert res.ambiguous == ambiguous
    np.testing.assert_allclose(res.curve.g2, curve, rtol=1e-12, atol=0.0)
    assert not res.curve.degenerate.any()
