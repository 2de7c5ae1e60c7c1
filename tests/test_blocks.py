"""Row blocks and bootstrap draws.

Every batch kernel runs its rows in blocks of at most
max(1, BLOCK_ELEMENTS // N) rows (errors.row_blocks), so that its
temporaries take a fixed budget.  A block of one row and blocks of three
rows must give what one block gives, bit for bit, with the same errors,
and a grid call checks its samples once, whatever its blocks and alphas.
Both calibrators draw their bootstrap through one generator of row
blocks (calibration._resamples) and evaluate it block by block, so their
peak memory does not grow with the number of resamples.  Consecutive
block draws must be the one (B, N) draw of rng.choice bit for bit, and so
must every resample matrix gathered from them.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fracmom import NonFiniteMoment, calibrate_grid_mc, calibrate_plugin, \
    estimate_full, estimate_proxy, parse_spec, sample
from fracmom import calibration, errors, estimators
from fracmom.baselines import baseline_rows
from fracmom.basis import SWEEP_BAND
from fracmom.calibration import PLUGIN_WINSOR, _empirical_curves, \
    _epanechnikov_density, _resamples, silverman_bandwidth
from fracmom.distributions import make_rng
from fracmom.efficiency import alpha_grid
from fracmom.estimators import EstimateResult, estimate_full_grid, \
    estimate_proxy_grid
from fracmom.moments import winsorize_rows

N = 50
GRID = alpha_grid(0.05, SWEEP_BAND)
BLOCK_BYTES = errors.BLOCK_ELEMENTS * 8


def _edge_rows() -> np.ndarray:
    """Eleven rows of N whose unusual rows sit on the edges of 3-row blocks:
    a NaN row ends block 0, a constant row (routed to the proxy by the full
    solver) starts block 1, a row whose zero floor underflows (also routed
    to the proxy) ends it, a tied row and a row with one far outlier (the
    proxy's starting bracket misses its root) start block 2, and block 3
    holds a row near 1e200, whose moments and proxy score overflow, and a
    row that the full solver routes to the proxy, whose root lies 1e19
    out."""
    laplace = parse_spec("laplace")
    x = np.stack([sample(laplace, N, [1234, 0, 0, 57]),  # stops at pass 2
                  sample(laplace, N, [1234, 0, 0, 0]),
                  sample(laplace, N, 3),
                  np.full(N, 2.5),
                  sample(parse_spec("gg:4"), N, 3),
                  1e-315 * sample(laplace, N, 5),
                  np.round(sample(laplace, N, 6), 1),
                  np.r_[np.full(N - 1, -1.0), 1e3],
                  sample(parse_spec("cauchy"), N, 7),
                  1e200 * sample(laplace, N, 0) + 5.5e200,
                  np.r_[np.full(N - 1, -1.0), 1e20]])
    x[2, 7] = math.nan
    return x


def _bits(values: np.ndarray) -> list:
    return [float(v).hex() if isinstance(v, float) else v
            for v in values.tolist()]


def _rows_bits(rows) -> tuple:
    fields = tuple(tuple(_bits(getattr(rows, f.name)))
                   for f in dataclasses.fields(EstimateResult))
    return fields, sorted((r, type(exc), str(exc))
                          for r, exc in rows.errors.items())


def _kernels(x: np.ndarray) -> dict:
    """Every blocked kernel's outputs on x, as comparable values."""
    with np.errstate(all="ignore"):
        # the plug-in's blocks, as calibrate_plugin evaluates them
        resid = x - np.mean(x, axis=1, keepdims=True)
        values = np.empty((len(x), GRID.size))
        flags = np.empty(values.shape, dtype=bool)
        for b in errors.row_blocks(*resid.shape):
            values[b], flags[b] = _empirical_curves(
                winsorize_rows(resid[b], PLUGIN_WINSOR), GRID)
        # one point of the density per row of a block
        density = _epanechnikov_density(x[1], x[0],
                                        silverman_bandwidth(x[0]))
        return {
            "plugin": (values.tobytes(), flags.tobytes(), resid.tobytes()),
            "density": density.tobytes(),
            "full": [_rows_bits(rows) for rows in
                     estimate_full_grid(x, (0.3, 0.05, 0.95))],
            "proxy": [_rows_bits(estimate_proxy_grid(x, (a,))[0])
                      for a in (0.05, 0.95)],
            "baselines": {name: est.tobytes()
                          for name, est in baseline_rows(x).items()},
        }


@pytest.mark.parametrize("block_rows", [1, 3])
def test_blocks_give_what_one_block_gives(monkeypatch, block_rows):
    x = _edge_rows()
    assert x.size <= errors.BLOCK_ELEMENTS  # one block at the default
    whole = _kernels(x)
    full = estimate_full_grid(x, (0.3,))[0]
    assert full.method.tolist()[3:6] == ["proxy", "full", "proxy"]
    assert sorted(full.errors) == [2, 9]
    assert full.method[10] == "proxy"
    assert sorted(estimate_full_grid(x, (0.95,))[0].errors) == [2, 9]
    assert sorted(estimate_proxy_grid(x, (0.95,))[0].errors) == [2, 9]
    monkeypatch.setattr(errors, "BLOCK_ELEMENTS", block_rows * N)
    assert len(list(errors.row_blocks(*x.shape))) == \
        math.ceil(len(x) / block_rows)
    assert _kernels(x) == whole


def _outcome(call) -> tuple:
    # a call's EstimateResult, or its exception, as comparable values
    try:
        res = call()
    except Exception as exc:  # the exception is part of the outcome
        return type(exc), str(exc)
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(res))


def test_row_whose_c2_overflows_fails_at_pass_one():
    # the 1e200 row is finite, but its c2 row sum, and so its sd, is
    # infinite: its determinant is not finite, so it never steps and never
    # reads its step bound.  The block's other rows are their one-row calls
    x = _edge_rows()
    with np.errstate(over="ignore"):
        assert math.isinf(np.sum((x[9] - np.mean(x[9])) ** 2))
    alphas = (*GRID, 0.49, 0.51)
    for a, rows in zip(alphas, estimate_full_grid(x, alphas)):
        exc = rows.errors[9]
        assert type(exc) is NonFiniteMoment, a
        assert str(exc) == "moment set contains non-finite entries"
        assert rows.outer_iters[9] == 0, a
        for r in (0, 1, 2, 3, 4, 5, 6, 7, 8, 10):
            assert _outcome(lambda: rows.result(r)) == \
                _outcome(lambda: estimate_full(x[r], a)), (a, r)


@pytest.mark.parametrize("block_rows", [1, 3, None])
@pytest.mark.parametrize("grid", [estimate_full_grid, estimate_proxy_grid])
def test_one_input_check_per_grid_call(monkeypatch, grid, block_rows):
    # the full solver's fallback rows go straight to the proxy's block
    # kernel, so no block and no alpha checks the samples again
    x = _edge_rows()
    if block_rows is not None:
        monkeypatch.setattr(errors, "BLOCK_ELEMENTS", block_rows * N)
    calls = []

    def spy(samples):
        calls.append(samples)
        return errors.sample_rows(samples)

    monkeypatch.setattr(estimators, "sample_rows", spy)
    grid(x, (0.3, 0.05, 0.95))
    assert len(calls) == 1


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("criterion", ["plugin", "grid"])
def test_calibrator_memory_does_not_grow_with_resamples(criterion):
    # one block of resamples (3 rows of N here) is drawn, gathered and
    # evaluated at a time in one reused array: the plug-in holds it beside
    # its index draw or the moment kernel's work array, the grid beside
    # the full solver's residuals and work array.  Only the (B, k) curve
    # and estimate arrays grow with B
    n = 20_000
    x = sample(parse_spec("laplace"), n, [2026, 12])
    peaks = []
    for b in (50, 250):
        if criterion == "plugin":
            peaks.append(_peak_bytes(
                lambda: calibrate_plugin(x, bootstrap_b=b, seed=3)))
        else:
            peaks.append(_peak_bytes(
                lambda: calibrate_grid_mc(x, (0.05, 0.3, 0.95),
                                          bootstrap_b=max(b, 100), seed=3)))
    assert max(peaks) < 3.5 * BLOCK_BYTES, [p / BLOCK_BYTES for p in peaks]
    assert abs(peaks[1] - peaks[0]) < BLOCK_BYTES, peaks


@pytest.mark.parametrize("alpha", [0.05, 0.95])
def test_proxy_call_allocates_two_rows_of_work(alpha):
    # the proxy's work array's two slabs take every score's residuals and
    # basis values; each moment pass of a full call holds the residuals and
    # one work array; the median and the robust scale copy the row on their
    # own
    n = 200_000
    x = sample(parse_spec("laplace"), n, [2026, 15])
    for estimate in (estimate_proxy, estimate_full):
        estimate(x, alpha)
        peak = _peak_bytes(lambda: estimate(x, alpha))
        assert peak < 2.5 * n * 8, (estimate.__name__, peak / (n * 8))


def test_entropy_density_holds_one_block_of_work():
    # every block's kernel values are computed in place in one array of
    # the block's size, beside the (N,) density and numpy's buffers for the
    # broadcast subtraction (about 2 x 8192 floats)
    n = 2000
    x = sample(parse_spec("laplace"), n, [2026, 16])
    h = silverman_bandwidth(x)
    peak = _peak_bytes(lambda: _epanechnikov_density(x, x, h))
    assert peak < n * 8 + 1.5 * BLOCK_BYTES, peak / BLOCK_BYTES


def test_entropy_density_is_the_where_formula():
    # zero where not |u| <= 1, bit for bit: u at exactly +-1, one ulp
    # either side of it, +-inf and NaN, and many random u near the edges
    one = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    edges = np.array([0.0, 1.0, -1.0, *one, *(-v for v in one), 0.5,
                      math.inf, -math.inf, math.nan, 1e308, -1e308])
    rng = make_rng([15, 16])
    points = np.concatenate([edges, rng.laplace(size=300)])
    data = np.concatenate([edges, rng.laplace(size=400)])
    with np.errstate(all="ignore"):
        for h in (1.0, 0.3):
            u = (points[:, None] - data[None, :]) / h
            k = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
            expected = k.sum(axis=1) / (data.size * h)
            got = _epanechnikov_density(points, data, h)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finite_mask_by_blocks_is_the_one_call_mask(bad):
    n = 1000
    per_block = errors.BLOCK_ELEMENTS // n
    x = make_rng([15, 3]).standard_normal((3 * per_block + 5, n))
    # the first, a middle and the last block, on their edges and inside
    for r in (0, 7, per_block - 1, per_block, 2 * per_block - 1,
              3 * per_block, len(x) - 1):
        x[r, (17 * r) % n] = bad
    peak = _peak_bytes(lambda: errors.sample_rows(x))
    rows, finite = errors.sample_rows(x)
    assert rows is x
    assert finite.tolist() == np.isfinite(x).all(axis=1).tolist()
    assert peak < errors.BLOCK_ELEMENTS + 4096 < x.size


SHAPES = [(1, 1), (7, 1), (3, 5), (50, 300), (201, 500), (1, 100_000)]


def _drawn(src, count, rng) -> list:
    """What _resamples yields, as (slice, copy) pairs."""
    return [(b, block.copy()) for b, block in _resamples(src, count, rng)]


@pytest.mark.parametrize("seed", [0, [5, 2401], [7, 7919], 123456789])
@pytest.mark.parametrize("shape", SHAPES)
def test_draw_is_rng_choice(monkeypatch, seed, shape):
    # at the default block size, then at 1, 3 and 7 rows per block
    src = sample(parse_spec("laplace"), shape[1], 11)
    expected = make_rng(seed).choice(src, size=shape)
    for block_rows in (None, 1, 3, 7):
        if block_rows is not None:
            monkeypatch.setattr(errors, "BLOCK_ELEMENTS",
                                block_rows * shape[1])
        blocks = _drawn(src, shape[0], make_rng(seed))
        assert [b for b, _ in blocks] == list(errors.row_blocks(*shape))
        assert np.concatenate([block for _, block in blocks]).tobytes() == \
            expected.tobytes()


@pytest.mark.parametrize("block_rows", [1, 3, 7])
@pytest.mark.parametrize("n", [7, 500, 2**31 + 12345, 3 * 2**30 + 1])
def test_block_draws_are_one_draw(n, block_rows):
    # numpy's bounded 32-bit draws keep Philox's spare half word in the
    # generator between calls, so consecutive (k, N) draws are one (B, N)
    # draw; 3 * 2**30 + 1 rejects about a quarter of the words
    shape = (50, 13)
    whole = make_rng([5, 2401]).integers(0, n, size=shape, dtype=np.int64)
    rng = make_rng([5, 2401])
    parts = [rng.integers(0, n, size=(min(block_rows, shape[0] - r),
                                      shape[1]), dtype=np.int64)
             for r in range(0, shape[0], block_rows)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def _with_block_rows(cases, block_rows) -> list:
    """Every case at the default block size, under its own id, then at each
    of block_rows rows per block."""
    return [pytest.param(*case, None, id="-".join(map(str, case)))
            for case in cases] + \
        [pytest.param(*case, rows,
                      id="-".join(map(str, case)) + f"-rows{rows}")
         for rows in block_rows for case in cases]


@pytest.mark.parametrize("seed,block_rows",
                         _with_block_rows([(0,), (4,), (1234,)], (1, 5, 7)))
def test_plugin_resamples_are_rng_choice(monkeypatch, seed, block_rows):
    x = sample(parse_spec("laplace"), 300, 9)
    resid = x - np.mean(x)
    if block_rows is not None:  # block edges inside the (50, 300) matrix
        monkeypatch.setattr(errors, "BLOCK_ELEMENTS", block_rows * 300)
    blocks = _drawn(resid, 50, make_rng([seed, 2401]))
    assert [b for b, _ in blocks] == list(errors.row_blocks(50, 300))
    boots = make_rng([seed, 2401]).choice(resid, size=(50, 300))
    assert np.concatenate([block for _, block in blocks]).tobytes() == \
        boots.tobytes()
    # the plug-in winsorizes the residuals on their own, then each block
    # of resamples re-centred on their own means
    seen = []
    real = calibration.winsorize_rows

    def spy(rows, fraction):
        seen.append(rows.copy())
        return real(rows, fraction)

    monkeypatch.setattr(calibration, "winsorize_rows", spy)
    calibrate_plugin(x, bootstrap_b=50, seed=seed)
    assert [len(rows) for rows in seen] == \
        [1] + [b.stop - b.start for b, _ in blocks]
    boots -= (np.add.reduce(boots, axis=-1) / 300)[:, None]
    assert seen[0][0].tobytes() == resid.tobytes()
    assert np.concatenate(seen[1:]).tobytes() == boots.tobytes()


def _spy_grid(monkeypatch) -> list:
    """The matrices calibrate_grid_mc hands to estimate_full_grid, and
    what it returns for them, as (copy, results) pairs."""
    seen = []
    real = calibration.estimate_full_grid

    def spy(boots, alphas):
        seen.append((boots.copy(), real(boots, alphas)))
        return seen[-1][1]

    monkeypatch.setattr(calibration, "estimate_full_grid", spy)
    return seen


@pytest.mark.parametrize("seed,n,block_rows", _with_block_rows(
    [(0, 100), (3, 500), (1234, 37)], (1, 7)))
def test_grid_resamples_are_rng_choice(monkeypatch, seed, n, block_rows):
    x = sample(parse_spec("laplace"), n, 10)
    if block_rows is not None:  # block edges inside the (100, n) matrix
        monkeypatch.setattr(errors, "BLOCK_ELEMENTS", block_rows * n)
    seen = _spy_grid(monkeypatch)
    calibrate_grid_mc(x, (0.05,), bootstrap_b=100, seed=seed)
    assert len(seen) == len(list(errors.row_blocks(100, n)))
    expected = make_rng([seed, 7919]).choice(x, size=(100, n))
    assert np.concatenate([boots for boots, _ in seen]).tobytes() == \
        expected.tobytes()


@pytest.mark.parametrize("block_rows", [None, 3])
def test_grid_raises_the_first_alpha_error_at_its_lowest_row(monkeypatch,
                                                             block_rows):
    # with one point at 1e154, the moments of resamples overflow at both
    # alphas: at alpha 0.3 where the point is drawn twice or more, first at
    # row 4, and at alpha 0.7 where it is drawn at all, already at row 2.
    # The error raised is alpha 0.3's, as from one matrix estimated whole,
    # though in 3-row blocks alpha 0.7's comes first.  Both errors read
    # alike, so the last check tells them apart by identity
    n = 40
    x = np.r_[sample(parse_spec("laplace"), n, 5)[:-1], 1e154]
    grid = (0.3, 0.7)
    whole = estimate_full_grid(
        make_rng([0, 7919]).choice(x, size=(100, n)), grid)
    assert [min(res.errors) for res in whole] == [4, 2]
    expected = whole[0].errors[4]
    assert type(expected) is NonFiniteMoment
    if block_rows is not None:
        monkeypatch.setattr(errors, "BLOCK_ELEMENTS", block_rows * n)
    seen = _spy_grid(monkeypatch)
    with pytest.raises(type(expected)) as raised:
        calibrate_grid_mc(x, grid, bootstrap_b=100, seed=0)
    assert str(raised.value) == str(expected)
    # the exception is the object the block holding row 4 produced at
    # alpha 0.3
    first = 4 // block_rows if block_rows is not None else 0
    results = seen[first][1][0]
    assert raised.value is results.errors[min(results.errors)]


@pytest.mark.parametrize("block_rows", [1, 5, 7])
def test_calibrators_do_not_depend_on_the_block_size(monkeypatch,
                                                     block_rows):
    n = 300
    x = sample(parse_spec("gg:1.5"), n, [2026, 3])

    def results():
        plugin = calibrate_plugin(x, bootstrap_b=50, seed=4)
        grid = calibrate_grid_mc(x, GRID, bootstrap_b=100, seed=4)
        return [(r.alpha_star, r.sensitivity_interval, r.ambiguous,
                 r.curve.g2.tobytes(), r.curve.degenerate.tobytes())
                for r in (plugin, grid)]

    whole = results()
    monkeypatch.setattr(errors, "BLOCK_ELEMENTS", block_rows * n)
    assert results() == whole
