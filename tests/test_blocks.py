"""Row blocks and bootstrap draws.

Every batch kernel runs its rows in blocks of at most
max(1, BLOCK_ELEMENTS // N) rows (errors.row_blocks), so that its
temporaries take a fixed budget.  A block of one row and blocks of three
rows must give what one block gives, bit for bit, with the same errors,
and a grid call checks its samples once, whatever its blocks and alphas.
The peak memory of both calibrators is bounded by their bootstrap matrix,
its index array and a fixed block budget.  Each bootstrap matrix is
gathered straight from one index draw, which must be rng.choice's draw bit
for bit.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fracmom import calibrate_grid_mc, calibrate_plugin, estimate_full, \
    estimate_proxy, parse_spec, sample
from fracmom import calibration, errors, estimators
from fracmom.baselines import baseline_rows
from fracmom.basis import SWEEP_BAND
from fracmom.calibration import PLUGIN_WINSOR, _draw, \
    _empirical_curves, _epanechnikov_density, _with_resamples, \
    silverman_bandwidth
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
    proxy widens its bracket) start block 2, and block 3 holds a row near
    1e200, whose moments and proxy score overflow, and a row that the full
    solver routes to the proxy, whose bracket fails at alpha = 0.95."""
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
        resid = x - np.mean(x, axis=1, keepdims=True)
        values, flags = _empirical_curves(
            winsorize_rows(resid, PLUGIN_WINSOR), GRID)
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
    assert sorted(estimate_full_grid(x, (0.95,))[0].errors) == [2, 9, 10]
    assert sorted(estimate_proxy_grid(x, (0.95,))[0].errors) == [2, 9, 10]
    monkeypatch.setattr(errors, "BLOCK_ELEMENTS", block_rows * N)
    assert len(list(errors.row_blocks(*x.shape))) == \
        math.ceil(len(x) / block_rows)
    assert _kernels(x) == whole


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
def test_calibrator_memory_is_matrix_index_and_blocks(criterion):
    n = 20_000
    x = sample(parse_spec("laplace"), n, [2026, 12])
    if criterion == "plugin":
        b = 50
        peak = _peak_bytes(lambda: calibrate_plugin(x, bootstrap_b=b, seed=3))
        matrix = (b + 1) * n * 8
    else:
        b = 100
        peak = _peak_bytes(lambda: calibrate_grid_mc(x, (0.05, 0.3, 0.95),
                                                     bootstrap_b=b, seed=3))
        matrix = b * n * 8
    index = b * n * 8
    assert matrix < peak < matrix + index + 16 * BLOCK_BYTES, peak


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


@pytest.mark.parametrize("seed", [0, [5, 2401], [7, 7919], 123456789])
@pytest.mark.parametrize("shape", SHAPES)
def test_draw_is_rng_choice(seed, shape):
    src = sample(parse_spec("laplace"), shape[1], 11)
    drawn = _draw(src, np.empty(shape), make_rng(seed))
    assert drawn.tobytes() == make_rng(seed).choice(src, size=shape).tobytes()


@pytest.mark.parametrize("seed", [0, 4, 1234])
def test_plugin_resamples_are_rng_choice(seed):
    resid = sample(parse_spec("laplace"), 300, 9)
    rows = _with_resamples(resid, 50, seed)
    boots = make_rng([seed, 2401]).choice(resid, size=(50, 300))
    boots -= (np.add.reduce(boots, axis=-1) / 300)[:, None]
    assert rows[0].tobytes() == resid.tobytes()
    assert rows[1:].tobytes() == boots.tobytes()


@pytest.mark.parametrize("seed,n", [(0, 100), (3, 500), (1234, 37)])
def test_grid_resamples_are_rng_choice(monkeypatch, seed, n):
    x = sample(parse_spec("laplace"), n, 10)
    seen = []
    real = calibration.estimate_full_grid

    def spy(boots, alphas):
        seen.append(boots.copy())
        return real(boots, alphas)

    monkeypatch.setattr(calibration, "estimate_full_grid", spy)
    calibrate_grid_mc(x, (0.05,), bootstrap_b=100, seed=seed)
    expected = make_rng([seed, 7919]).choice(x, size=(100, n))
    assert seen[0].tobytes() == expected.tobytes()
