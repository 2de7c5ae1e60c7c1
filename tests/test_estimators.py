import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from fracmom import (
    BracketFailure,
    NonFiniteInput,
    NonFiniteMoment,
    empirical_moments,
    build_correlant_system,
    estimate_full,
    estimate_ols,
    estimate_proxy,
    parse_spec,
    run_baseline,
    sample,
    second_exponent,
)
from fracmom.estimators import TOL, estimate_full_grid

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

    def test_bracket_widens_to_root_and_caps_at_bracket_failure(self):
        x = np.array([-100.0, 0.0, 100.0])
        assert estimate_proxy(x, 0.2).theta_hat == pytest.approx(0.0, abs=1e-8)
        # monotone score: the starting half-width 10 widens until it holds
        # the root near 110
        mu = estimate_proxy(np.array([-1.0, -1.0, -1.0, 1e3]), 0.05).theta_hat
        p = second_exponent(0.05)
        assert 3.0 * (mu + 1.0) ** p == pytest.approx((1e3 - mu) ** p, rel=1e-9)
        # the root sits past the last bracket the doubling cap checks, so the
        # search stops with BracketFailure, not a raw scipy error; solving in
        # standardized units (see ROADMAP.md) is expected to make this succeed
        with pytest.raises(BracketFailure):
            estimate_proxy(np.array([-1.0, -1.0, -1.0, 1e20]), 0.05)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_nan_score_is_nonfinite_moment(self, scale):
        # |x - mu|^p overflows on both sides of the root, so the score
        # inside the bracket is inf - inf; scipy raised a raw ValueError
        x = scale * sample(parse_spec("laplace"), 200, 0) + 5.5 * scale
        with pytest.raises(NonFiniteMoment, match="NaN"):
            estimate_proxy(x, 0.95)

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
