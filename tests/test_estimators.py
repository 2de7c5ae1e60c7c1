import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from fracmom import (
    NonFiniteInput,
    NonFiniteMoment,
    alpha_grid,
    calibrate_grid_mc,
    empirical_moments,
    build_correlant_system,
    estimate_full,
    estimate_ols,
    estimate_proxy,
    g2_sweep,
    huber_location,
    parse_spec,
    run_baseline,
    sample,
    second_exponent,
    trimmed_mean,
    winsorized_mean,
)
from fracmom.baselines import baseline_rows, median_rows
from fracmom.estimators import TOL, estimate_full_grid, estimate_proxy_grid

ALPHAS = (0.05, 0.30, 0.70, 0.95)


class TestOls:
    def test_examples(self):
        assert estimate_ols([1.0, 2.0, 3.0]).theta_hat == pytest.approx(2.0)
        assert estimate_ols([-5.0, 5.0]).theta_hat == 0.0

    def test_method_tag(self):
        res = estimate_ols([1.0, 2.0])
        assert res.method == "ols_fallback"
        assert res.converged

    def test_large_sample_near_zero(self):
        x = sample(parse_spec("laplace"), 100_000, 5)
        assert abs(estimate_ols(x).theta_hat) < 3.0 / math.sqrt(100_000)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            estimate_ols([])

    def test_mean_of_finite_values_near_the_float_limit(self):
        # their sum overflows; the mean of a finite sample must not
        x = [1e308, 1e308, 1.5e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = (estimate_ols(x).theta_hat,
                     estimate_full(x, 0.5).theta_hat, run_baseline("mean", x))
        for m in means:
            assert math.isfinite(m) and min(x) <= m <= max(x)


def test_median_of_finite_values_near_the_float_limit():
    # the sum of an even row's two middle values overflows; its median,
    # and every estimate that starts from it, must not
    x = np.full(4, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = (estimate_proxy(x, 0.3).theta_hat,
                     estimate_full(x, 0.3).theta_hat, huber_location(x),
                     run_baseline("median", x))
    assert estimates == (1e308,) * 4
    rows = np.array([[1e308, 1.5e308, 1.7e308, 1e308], np.full(4, -1e308),
                     [-1e308, -1.7e308, 1.0, -1e308], [1e308, 2.0, 1e308, 1.0]])
    with np.errstate(over="ignore"):
        assert median_rows(rows).tolist() == [1.25e308, -1e308, -1e308, 5e307]


def test_median_and_mad_of_finite_rows_near_the_float_limit_are_finite():
    # the proxy takes a positive MAD as a live row and the robust scale, so
    # no finite row may have an infinite median or MAD.  More than half of
    # a finite row's deviations from its finite median are finite; _mad
    # runs the same arithmetic
    values = np.array([1.797e308, 1e308, 5e307, 1.0, 0.0, -1.0, -5e307,
                       -1e308, -1.797e308])
    rng = np.random.default_rng(29)
    for n in range(1, 12):
        x = np.concatenate([rng.choice(values, (4000, n)),
                            np.full((1, n), 1.797e308),
                            np.r_[np.full(n // 2, -1.797e308),
                                  np.full(n - n // 2, 1.797e308)][None]])
        # deviations overflow to inf, and an inf beside an overflowing
        # middle pair warns in median_rows' finiteness test
        with np.errstate(over="ignore", invalid="ignore"):
            med = median_rows(x)
            mad = median_rows(np.abs(x - med[:, None]))
        assert np.isfinite(med).all() and np.isfinite(mad).all(), n


@pytest.mark.parametrize("call", [
    lambda x: estimate_full(x, None),
    lambda x: estimate_full(x, "a"),
    lambda x: estimate_full(x, "0.3"),
    lambda x: estimate_full(x, b"0.3"),
    lambda x: estimate_full_grid(x[None, :], "1"),
    lambda x: estimate_full_grid(x[None, :], b"\x00"),
    lambda x: estimate_proxy(x, [0.1]),
    lambda x: estimate_proxy_grid(x[None, :], (0.1, None)),
    lambda x: estimate_ols([1 + 2j, 3.0]),
    lambda x: estimate_full(["1.5", "2.0", "-0.5"], 0.3),
    lambda x: estimate_full(np.array(["1.5", "2", "-0.5", "3.25"],
                                     dtype=object), 0.3),
    lambda x: estimate_proxy(np.array([1.5, b"2"], dtype=object), 0.3),
    lambda x: estimate_proxy(x.astype(complex), 0.1),
    lambda x: estimate_proxy([np.complex128(1 + 2j), 3.0], 0.1),
    lambda x: huber_location([1 + 2j, 3.0]),
    lambda x: run_baseline("median", {"a": 1}),
    lambda x: alpha_grid(None, 0.05),
    lambda x: alpha_grid(0.05, "a"),
    lambda x: g2_sweep(parse_spec("laplace"), 0.05, None),
    lambda x: calibrate_grid_mc(x, (0.05, 1j), bootstrap_b=100),
    lambda x: estimate_full_grid(x[None, :], 0.3),
    lambda x: estimate_proxy_grid(x[None, :], 0.3),
    lambda x: calibrate_grid_mc(x, 0.3),
    lambda x: calibrate_grid_mc(x, None),
    lambda x: huber_location(x, None),
    lambda x: huber_location(x, "a"),
    lambda x: huber_location(x, "1.345"),
    lambda x: trimmed_mean(x, None),
    lambda x: trimmed_mean(x, "0.1"),
    lambda x: winsorized_mean(x, None),
    lambda x: empirical_moments(x, None, 1.5),
    lambda x: empirical_moments(x, 0.0, None),
    lambda x: empirical_moments(x, 0.0, 1.5, winsor_fraction=None),
    lambda x: empirical_moments(x, 0.0, 1.5, zero_floor=None),
    lambda x: estimate_full_grid(x, (0.3,)),
    lambda x: estimate_full_grid(x[None, None, :], (0.3,)),
    lambda x: estimate_proxy_grid(x, (0.3,)),
    lambda x: estimate_proxy_grid(x[None, None, :], (0.3,)),
    lambda x: baseline_rows(x),
    lambda x: baseline_rows(x[None, None, :]),
], ids=["full-alpha-None", "full-alpha-str", "full-alpha-numeric-str",
        "full-alpha-numeric-bytes", "full-grid-alphas-str",
        "full-grid-alphas-bytes", "proxy-alpha-list",
        "grid-alpha-None", "ols-complex", "full-sample-numeric-str",
        "full-sample-object-str", "proxy-sample-object-bytes",
        "proxy-complex-array",
        "proxy-complex-scalars",
        "huber-complex", "baseline-dict", "grid-step-None", "band-str",
        "sweep-band-None", "grid-mc-complex-alphas", "full-grid-alphas-float",
        "proxy-grid-alphas-float", "grid-mc-alphas-float",
        "grid-mc-alphas-None", "huber-tuning-None", "huber-tuning-str",
        "huber-tuning-numeric-str", "trimmed-fraction-None",
        "trimmed-fraction-numeric-str", "winsorized-fraction-None",
        "moments-center-None", "moments-p-None", "moments-winsor-None",
        "moments-floor-None", "full-grid-1d", "full-grid-3d",
        "proxy-grid-1d", "proxy-grid-3d", "baseline-rows-1d",
        "baseline-rows-3d"])
def test_bad_argument_types_raise_value_error(call):
    # a raw TypeError would escape the documented refusals
    with pytest.raises(ValueError):
        call(sample(parse_spec("laplace"), 40, 3))


class TestFullEstimator:
    def test_symmetric_sample_exact_zero(self):
        x = [-2.0, -1.0, 0.0, 1.0, 2.0]
        for a in (0.0, 0.05, 0.3, 0.9, 1.0):
            res = estimate_full(x, a)
            assert res.theta_hat == pytest.approx(0.0, abs=1e-12)
            assert res.method == "full"
            assert res.converged

    def test_band_falls_back_to_mean(self):
        x = sample(parse_spec("gg:1.5"), 50, 3)
        for a in (0.5, 0.495, 0.505):
            res = estimate_full(x, a)
            assert res.method == "ols_fallback"
            assert res.theta_hat == pytest.approx(float(np.mean(x)), abs=0)
        # estimate_ols is the batch of one of this route: equal field for
        # field, compared by repr so that NaN fields match
        assert list(map(repr, vars(estimate_ols(x)).values())) == \
            list(map(repr, vars(estimate_full(x, 0.5)).values()))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NonFiniteInput):
            estimate_full([1.0, np.nan, 2.0], 0.3)
        with pytest.raises(NonFiniteInput):
            estimate_full([1.0, np.inf], 0.3)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteInput):
                estimate_ols([1.0, bad, 2.0])

    def test_constant_sample_routes_to_proxy(self):
        res = estimate_full([3.0, 3.0, 3.0, 3.0], 0.2)
        assert res.method == "proxy"
        assert res.theta_hat == 3.0

    @pytest.mark.parametrize("scale", [1e-315, 1e-320])
    @pytest.mark.parametrize("alpha", [0.05, 0.95])
    def test_zero_floor_routes_to_proxy(self, scale, alpha):
        # 1e-12 * MAD underflows to a zero floor on these subnormal samples
        x = scale * sample(parse_spec("laplace"), 50, 1)
        res = estimate_full(x, alpha)
        assert res.method == "proxy"
        assert x.min() <= res.theta_hat <= x.max()
        rows = estimate_full_grid(
            np.stack([sample(parse_spec("laplace"), 50, 2), x]), (alpha,))[0]
        assert list(map(repr, vars(rows.result(1)).values())) == \
            list(map(repr, vars(res).values()))

    def test_translation_equivariance(self):
        x = sample(parse_spec("laplace"), 200, 8)
        for a in ALPHAS:
            base = estimate_full(x, a).theta_hat
            shifted = estimate_full(x + 17.5, a).theta_hat
            assert shifted - 17.5 == pytest.approx(base, abs=1e-9)

    def test_negation_oddness(self):
        x = sample(parse_spec("gg:1.5"), 200, 21)
        for a in ALPHAS:
            assert estimate_full(-x, a).theta_hat == pytest.approx(
                -estimate_full(x, a).theta_hat, abs=1e-9)

    def test_method_reproducible(self):
        x = sample(parse_spec("laplace"), 100, 12)
        methods = {estimate_full(x, 0.3).method for _ in range(5)}
        assert methods == {"full"}

    def test_converged_step_invariant(self):
        x = sample(parse_spec("laplace"), 500, 31)
        res = estimate_full(x, 0.3)
        if res.converged:
            assert abs(res.final_step) < TOL * max(1.0, abs(res.theta_hat))

    def test_conditioning_telemetry_band(self):
        # median condition number at the mean-centered start over 200 draws
        spec = parse_spec("laplace")
        for a in ALPHAS:
            p = second_exponent(a)
            conds = []
            for r in range(200):
                x = sample(spec, 100, [3, r])
                m = empirical_moments(x, float(np.mean(x)), p)
                conds.append(build_correlant_system(m).cond)
            assert 10.0 < np.median(conds) < 1e3, a

    def test_symmetric_families_practically_unbiased(self):
        M, N = 500, 200
        for name in ("laplace", "gg:1.5", "gg:4"):
            spec = parse_spec(name)
            for a in ALPHAS:
                est = np.array([estimate_full(sample(spec, N, [77, r]), a).theta_hat
                                for r in range(M)])
                assert abs(est.mean()) <= 3.0 * est.std() / math.sqrt(M), (name, a)

    def test_asymmetric_bias_persists_across_n(self):
        # the signed moment leaves an O(sigma_p) offset that does not decay;
        # checked on the stable power side (fractal-side cells can wander)
        spec = parse_spec("beta:2:5")
        M, a = 800, 0.7
        biases = {}
        for N in (200, 500):
            est = np.array([estimate_full(sample(spec, N, [5, N, r]), a).theta_hat
                            for r in range(M)])
            se = est.std() / math.sqrt(M)
            biases[N] = (est.mean(), se)
        b200, se200 = biases[200]
        b500, se500 = biases[500]
        assert abs(b200) > 3.0 * se200
        assert abs(b500) > 3.0 * se500
        assert np.sign(b200) == np.sign(b500)
        assert 0.5 < abs(b500) / abs(b200) < 2.0


class TestProxyEstimator:
    def test_linear_point_equals_mean(self):
        x = np.array([1.0, 2.0, 4.0])
        assert estimate_proxy(x, 0.5).theta_hat == pytest.approx(
            float(np.mean(x)), abs=1e-9)

    def test_constant_sample(self):
        res = estimate_proxy([0.0, 0.0, 0.0], 0.2)
        assert res.theta_hat == 0.0
        assert res.method == "proxy"

    def test_cauchy_sample_allowed(self):
        x = sample(parse_spec("cauchy"), 500, 10)
        res = estimate_proxy(x, 0.05)
        assert np.isfinite(res.theta_hat)
        assert abs(res.theta_hat) < 1.0  # near the location, unlike the mean

    def test_translation_and_negation(self):
        x = sample(parse_spec("gg:4"), 150, 2)
        for a in ALPHAS:
            base = estimate_proxy(x, a).theta_hat
            assert estimate_proxy(x - 3.25, a).theta_hat == pytest.approx(
                base - 3.25, abs=1e-9)
            assert estimate_proxy(-x, a).theta_hat == pytest.approx(-base, abs=1e-9)

    def test_root_is_score_zero(self):
        x = sample(parse_spec("laplace"), 100, 99)
        for a in (0.05, 0.95):
            p = second_exponent(a)
            mu = estimate_proxy(x, a).theta_hat
            score = np.sum(np.sign(x - mu) * np.abs(x - mu) ** p)
            assert abs(score) < 1e-7 * np.sum(np.abs(x - mu) ** p)

    def test_bracket_reaches_near_and_far_roots(self):
        x = np.array([-100.0, 0.0, 100.0])
        assert estimate_proxy(x, 0.2).theta_hat == pytest.approx(0.0, abs=1e-8)
        # monotone score: the starting bracket [-11, 9] misses the root near
        # 110, so Brent runs on [9, 1e3], up to the largest point
        mu = estimate_proxy(np.array([-1.0, -1.0, -1.0, 1e3]), 0.05).theta_hat
        p = second_exponent(0.05)
        assert 3.0 * (mu + 1.0) ** p == pytest.approx((1e3 - mu) ** p, rel=1e-9)
        # a root 1e19 out, which a bracket doubled 60 times about the median
        # did not reach: 3 (mu + 1)^p = (1e20 - mu)^p, so
        # mu = (1e20 - 3^(1/p)) / (1 + 3^(1/p))
        res = estimate_proxy(np.array([-1.0, -1.0, -1.0, 1e20]), 0.05)
        c = 3.0 ** (1.0 / p)
        assert res.theta_hat == pytest.approx((1e20 - c) / (1.0 + c),
                                              rel=1e-9)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_nan_score_is_nonfinite_moment(self, scale):
        # |x - mu|^p overflows on both sides of the root, so the score
        # inside the bracket is inf - inf; scipy raised a raw ValueError
        x = scale * sample(parse_spec("laplace"), 200, 0) + 5.5 * scale
        with pytest.raises(NonFiniteMoment, match="NaN"):
            estimate_proxy(x, 0.95)

    @pytest.mark.parametrize("x", [[1e308, 1e308, 1.5e308],
                                   [-1e308, -1e308, -1e308, 1.7e308]])
    @pytest.mark.parametrize("alpha", [0.05, 0.95])
    def test_nan_score_at_a_bracket_end(self, x, alpha):
        # the starting bracket's upper end scores inf - inf: refused before
        # any Brent step, which would report the point it stepped to
        with pytest.raises(NonFiniteMoment, match=r"NaN in \["):
            estimate_proxy(x, alpha)

    def test_root_on_a_bracket_end(self):
        # the starting bracket is [-10, 10] and the score 40 - 4 mu is
        # exactly 0 at its upper end, so no Brent step is taken
        res = estimate_proxy([0.0, 0.0, 0.0, 40.0], 0.5)
        assert (res.theta_hat, res.outer_iters) == (10.0, 0)

    def test_proxy_releases_its_sample(self):
        x = sample(parse_spec("laplace"), 1000, 5)
        ref = weakref.ref(x)
        enabled = gc.isenabled()
        gc.disable()
        try:
            estimate_proxy(x, 0.05)
            del x
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
