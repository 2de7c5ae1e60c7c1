import math

import numpy as np
import pytest

from fracmom import (
    AllGridDegenerate,
    DegenerateSample,
    NonFiniteInput,
    NonFiniteMoment,
    SmallSample,
    alpha_grid,
    calibrate_grid_mc,
    calibrate_oracle,
    calibrate_plugin,
    entropy_diagnostic,
    parse_spec,
    sample,
    topographic_coords,
)


BAND_REFUSED = "band must be finite, >= 0 and leave a point of the alpha grid"


def _with_non_finite(n: int, value: float) -> np.ndarray:
    x = sample(parse_spec("laplace"), n, [77, 1])
    x[n // 3] = value
    return x


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
class TestNonFiniteInput:
    """A NaN or infinite value is refused as such, never read as a
    degenerate grid or a NaN diagnostic."""

    def test_plugin(self, value):
        with pytest.raises(NonFiniteInput):
            calibrate_plugin(_with_non_finite(60, value), bootstrap_b=10)

    def test_grid_mc(self, value):
        with pytest.raises(NonFiniteInput):
            calibrate_grid_mc(_with_non_finite(60, value), (0.05, 0.95),
                              bootstrap_b=100)

    def test_entropy_diagnostic(self, value):
        with pytest.raises(NonFiniteInput):
            entropy_diagnostic(_with_non_finite(200, value))
        with pytest.raises(NonFiniteInput):
            topographic_coords(_with_non_finite(200, value))

    def test_argument_checks_come_first(self, value):
        with pytest.raises(SmallSample):
            calibrate_plugin(_with_non_finite(29, value))
        with pytest.raises(ValueError, match="bootstrap_b"):
            calibrate_plugin(_with_non_finite(60, value), bootstrap_b=-1)
        with pytest.raises(ValueError, match="bootstrap_b"):
            calibrate_grid_mc(_with_non_finite(60, value), (0.05,),
                              bootstrap_b=50)
        with pytest.raises(ValueError, match="alpha grid"):
            calibrate_grid_mc(_with_non_finite(60, value), (),
                              bootstrap_b=100)
        with pytest.raises(SmallSample):
            entropy_diagnostic(_with_non_finite(99, value))


def _summary(res):
    """A CalibrationResult as a comparable tuple, curve values by bits."""
    return (res.alpha_star, res.criterion, res.sensitivity_interval,
            res.ambiguous, res.entropy, res.curve.alphas.tolist(),
            [float(v).hex() for v in res.curve.g2],
            res.curve.degenerate.tolist())


class TestSampleShape:
    """A sample of any shape is read flattened, as the estimators read it."""

    def test_plugin(self):
        x = sample(parse_spec("gaussian"), 200, [12, 2])
        assert _summary(calibrate_plugin(x.reshape(2, -1), bootstrap_b=40)) \
            == _summary(calibrate_plugin(x, bootstrap_b=40))

    def test_grid_mc(self):
        x = sample(parse_spec("laplace"), 60, 1)
        assert _summary(calibrate_grid_mc(x.reshape(2, -1), (0.05, 0.95),
                                          bootstrap_b=100)) == \
            _summary(calibrate_grid_mc(x, (0.05, 0.95), bootstrap_b=100))

    def test_entropy_diagnostic(self):
        x = sample(parse_spec("laplace"), 200, 5)
        assert entropy_diagnostic(x.reshape(2, -1)) == entropy_diagnostic(x)


@pytest.mark.parametrize("band", [0.6, math.nan, -0.1])
def test_band_that_leaves_no_grid_is_refused(band):
    x = sample(parse_spec("laplace"), 100, 5)
    for call in (lambda: calibrate_oracle(parse_spec("beta:2:5"), 0.05, band),
                 lambda: calibrate_plugin(x, 0.05, band, bootstrap_b=10),
                 lambda: calibrate_grid_mc(x, alpha_grid(0.05, band))):
        with pytest.raises(ValueError, match=BAND_REFUSED):
            call()


class TestOracleCalibration:
    def test_laplace_prefers_fractal_end(self):
        res = calibrate_oracle(parse_spec("laplace"))
        assert res.alpha_star == 0.0
        assert res.criterion == "oracle"
        assert not res.ambiguous

    def test_gg4_prefers_power_end(self):
        assert calibrate_oracle(parse_spec("gg:4")).alpha_star == 1.0

    def test_gaussian_flat_flagged_ambiguous(self):
        res = calibrate_oracle(parse_spec("gaussian"))
        assert res.ambiguous
        lo, hi = res.sensitivity_interval
        assert lo == 0.0 and hi == 1.0  # the whole grid ties

    def test_cauchy_refused(self):
        with pytest.raises(NonFiniteMoment):
            calibrate_oracle(parse_spec("cauchy"))

    def test_interval_contains_choice(self):
        for name in ("laplace", "gg:1.5", "gg:4", "beta:2:5"):
            res = calibrate_oracle(parse_spec(name))
            lo, hi = res.sensitivity_interval
            assert lo <= res.alpha_star <= hi


class TestPluginCalibration:
    def test_small_sample_refused(self):
        with pytest.raises(SmallSample):
            calibrate_plugin(np.arange(29.0))

    def test_constant_sample_all_degenerate(self):
        with pytest.raises(AllGridDegenerate):
            calibrate_plugin(np.full(100, 3.14))

    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_bootstrap_refused(self, count):
        x = sample(parse_spec("laplace"), 60, 1)
        with pytest.raises(ValueError, match="bootstrap_b must be >= 0"):
            calibrate_plugin(x, bootstrap_b=count)

    def test_non_integer_bootstrap_refused(self):
        x = sample(parse_spec("laplace"), 60, 1)
        with pytest.raises(ValueError, match="bootstrap_b must be an integer"):
            calibrate_plugin(x, bootstrap_b=2.5)
        with pytest.raises(ValueError, match="bootstrap_b must be an integer"):
            calibrate_grid_mc(x, (0.05, 0.95), bootstrap_b=150.5)
        for seed in (1.5, None, "1", True, [1, 2]):
            with pytest.raises(ValueError, match="seed must be an integer"):
                calibrate_plugin(x, seed=seed)
            with pytest.raises(ValueError, match="seed must be an integer"):
                calibrate_grid_mc(x, (0.05, 0.95), bootstrap_b=100,
                                  seed=seed)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_moments_raise_no_warning(self):
        # the plug-in ratio's higher moments overflow at this scale and every
        # alpha is flagged (the ratio is not yet scale-equivariant); numpy's
        # overflow warnings stay inside the curve kernel
        x = sample(parse_spec("laplace"), 200, 3)
        with pytest.raises(AllGridDegenerate):
            calibrate_plugin(1e200 * x, bootstrap_b=20)

    def test_zero_bootstrap_reads_the_sample_alone(self):
        x = sample(parse_spec("laplace"), 60, 1)
        res = calibrate_plugin(x, bootstrap_b=0)
        assert res.sensitivity_interval == (res.alpha_star, res.alpha_star)
        assert not res.ambiguous

    def test_laplace_picks_fractal_side(self):
        # measured hit rate with these seeds: 0.92 for alpha* <= 0.45
        spec = parse_spec("laplace")
        hits = sum(
            calibrate_plugin(sample(spec, 500, [101, r]), bootstrap_b=0).alpha_star
            <= 0.45
            for r in range(100))
        assert hits >= 80

    def test_gg4_picks_power_side(self):
        # measured hit rate with these seeds: 0.84 for alpha* >= 0.7 at N=1000
        spec = parse_spec("gg:4")
        hits = sum(
            calibrate_plugin(sample(spec, 1000, [101, r]), bootstrap_b=0).alpha_star
            >= 0.7
            for r in range(100))
        assert hits >= 70

    @pytest.mark.xfail(strict=True,
                       reason="stated frequency is not reachable: the plug-in "
                              "ratio at the fractal end rides on a negative-"
                              "order moment whose estimator has infinite "
                              "variance, so the argmin concentrates slowly; "
                              "measured rate at N=500 is ~0.43 (~0.73 for the "
                              "power side), rising only with much larger N")
    def test_stated_pick_frequencies_at_n500(self):
        lap, gg4 = parse_spec("laplace"), parse_spec("gg:4")
        lap_hits = sum(
            calibrate_plugin(sample(lap, 500, [13, 500, r]),
                             bootstrap_b=0).alpha_star in (0.0, 0.05)
            for r in range(200))
        gg4_hits = sum(
            calibrate_plugin(sample(gg4, 500, [13, 500, r]),
                             bootstrap_b=0).alpha_star >= 0.7
            for r in range(200))
        assert lap_hits >= 160 and gg4_hits >= 160

    def test_frequency_nondecreasing_in_n(self):
        for name, cond in (("laplace", lambda a: a <= 0.05),
                           ("gg:4", lambda a: a >= 0.7)):
            spec = parse_spec(name)
            rates = []
            for n in (200, 1000, 5000):
                hits = sum(
                    cond(calibrate_plugin(sample(spec, n, [55, n, r]),
                                          bootstrap_b=0).alpha_star)
                    for r in range(100))
                rates.append(hits)
            assert rates[0] <= rates[1] <= rates[2], name

    def test_bootstrap_interval_contains_choice(self):
        for seed in (1, 2, 3):
            x = sample(parse_spec("gg:1.5"), 300, seed)
            res = calibrate_plugin(x, bootstrap_b=60, seed=seed)
            lo, hi = res.sensitivity_interval
            assert lo <= res.alpha_star <= hi

    def test_ambiguous_choice_attaches_entropy(self):
        x = sample(parse_spec("gaussian"), 500, [12, 1])
        res = calibrate_plugin(x, bootstrap_b=100, seed=5)
        assert res.ambiguous  # flat true curve, unstable argmin
        assert res.entropy is not None
        assert res.entropy.k_hat > 0.0


class TestGridMcCalibration:
    def test_requires_enough_bootstrap(self):
        with pytest.raises(ValueError):
            calibrate_grid_mc(np.arange(50.0), (0.1, 0.9), bootstrap_b=50)

    @pytest.mark.parametrize("alphas", [0.3, None, "0.3", b"\x00", (),
                                        (0.3, 1.5)],
                             ids=["float", "None", "str", "bytes", "empty",
                                  "out-of-range"])
    def test_grid_is_checked_before_the_draw(self, alphas, monkeypatch):
        # the bootstrap is drawn only for a usable grid
        draws = []
        monkeypatch.setattr("fracmom.calibration._resamples",
                            lambda *args: draws.append(args))
        x = sample(parse_spec("laplace"), 60, 1)
        with pytest.raises(ValueError):
            calibrate_grid_mc(x, alphas, bootstrap_b=100)
        assert draws == []

    def test_single_point_grid(self):
        x = sample(parse_spec("laplace"), 60, 1)
        res = calibrate_grid_mc(x, (0.3,), bootstrap_b=100, seed=0)
        assert res.alpha_star == 0.3
        assert res.sensitivity_interval == (0.3, 0.3)

    def test_laplace_picks_fractal_side(self):
        # cross-sample rate at N=200 is ~0.75; this seeded sample is one of
        # the majority draws
        x = sample(parse_spec("laplace"), 200, [31, 1])
        res = calibrate_grid_mc(x, (0.05, 0.3, 0.7, 0.95), bootstrap_b=200,
                                seed=1)
        assert res.alpha_star < 0.5
        lo, hi = res.sensitivity_interval
        assert lo <= res.alpha_star <= hi

    def test_small_sample_runs(self):
        x = sample(parse_spec("laplace"), 30, [8, 0])
        res = calibrate_grid_mc(x, (0.05, 0.3, 0.7, 0.95), bootstrap_b=100,
                                seed=2)
        assert res.criterion == "grid_mc"
        assert 0.0 <= res.alpha_star <= 1.0


class TestEntropyDiagnostic:
    def test_small_sample_refused(self):
        with pytest.raises(SmallSample):
            entropy_diagnostic(np.arange(99.0))

    def test_zero_variance_refused(self):
        with pytest.raises(DegenerateSample):
            entropy_diagnostic(np.zeros(200))

    def test_gaussian_coefficient(self):
        x = sample(parse_spec("gaussian"), 5000, [42, 0])
        d = entropy_diagnostic(x - x.mean())
        assert d.k_hat == pytest.approx(2.0663, abs=0.05)
        assert d.kernel == "epanechnikov"
        assert d.bandwidth > 0.0

    def test_uniform_coefficient(self):
        x = sample(parse_spec("uniform"), 5000, [42, 1])
        d = entropy_diagnostic(x - x.mean())
        assert d.k_hat == pytest.approx(1.7321, abs=0.06)

    def test_laplace_coefficient(self):
        x = sample(parse_spec("laplace"), 5000, [42, 2])
        d = entropy_diagnostic(x - x.mean())
        assert d.k_hat == pytest.approx(1.9300, abs=0.06)
        assert d.k_hat == pytest.approx(math.e / math.sqrt(2.0), abs=0.06)

    def test_scale_invariance(self):
        x = sample(parse_spec("gg:1.5"), 1000, 6)
        base = entropy_diagnostic(x).k_hat
        for c in (0.1, 10.0):
            assert entropy_diagnostic(c * x).k_hat == pytest.approx(base, abs=0.01)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_scales(self):
        # the KDE, sd, IQR and kurtosis are taken at unit scale, so neither
        # overflow (k_hat 0 at 1e200, and inf where the largest |residual|
        # is 1e308 and n * h overflows, or the largest float and the KDE's
        # differences overflow) nor underflow (a zero sd at 1e-200) reaches
        # the coordinates; at the largest float exp(h_hat) overflows too
        x = sample(parse_spec("laplace"), 200, 3)
        base = entropy_diagnostic(x)
        top = np.max(np.abs(x))
        for c in (1e-300, 1e-200, 1e-100, 1e-12, 1e12, 1e100, 1e150, 1e200,
                  1e300, 1e308 / top, np.finfo(float).max / top):
            d = entropy_diagnostic(c * x)
            assert d.k_hat == pytest.approx(base.k_hat, rel=1e-12), c
            assert d.kappa_hat == pytest.approx(base.kappa_hat, rel=1e-12), c
            assert d.bandwidth == pytest.approx(c * base.bandwidth,
                                                rel=1e-12), c

    @pytest.mark.parametrize("family,seed", [("laplace", 3), ("gg:1.5", 6),
                                             ("uniform", 1), ("beta:2:5", 9),
                                             ("cauchy", 4)])
    def test_unit_scale_is_the_unscaled_arithmetic(self, family, seed):
        # a power of two scales exactly: at ordinary scales the results are
        # those of the sd, IQR and kurtosis taken on the residuals as given
        x = sample(parse_spec(family), 300, seed)
        sd = float(np.std(x, ddof=1))
        q75, q25 = np.percentile(x, [75.0, 25.0])
        iqr = float(q75 - q25)
        h = 0.9 * (min(sd, iqr / 1.34) if iqr > 0.0 else sd) * 300 ** (-0.2)
        d = entropy_diagnostic(x)
        centered = x - np.mean(x)
        g4 = float(np.mean(centered**4) / np.mean(centered**2) ** 2 - 3.0)
        assert d.bandwidth.hex() == h.hex()
        assert d.k_hat.hex() == (math.exp(d.h_hat) / (2.0 * sd)).hex()
        assert d.kappa_hat.hex() == (1.0 / math.sqrt(g4 + 3.0)).hex()

    def test_contrexcess_estimate(self):
        x = sample(parse_spec("uniform"), 5000, [42, 3])
        d = entropy_diagnostic(x)
        assert d.kappa_hat == pytest.approx(1.0 / math.sqrt(1.8), abs=0.03)


class TestTopographicCoords:
    def test_theoretical_points(self):
        kappa, k = topographic_coords(parse_spec("laplace"))
        assert (kappa, k) == pytest.approx((0.408, 1.930), abs=0.01)
        kappa, k = topographic_coords(parse_spec("arcsine"))
        assert (kappa, k) == pytest.approx((0.816, 1.111), abs=0.001)

    def test_cauchy_undefined(self):
        assert topographic_coords(parse_spec("cauchy")) == (None, None)

    def test_empirical_route(self):
        x = sample(parse_spec("gaussian"), 5000, [42, 4])
        kappa, k = topographic_coords(x - x.mean())
        assert kappa == pytest.approx(0.577, abs=0.03)
        assert k == pytest.approx(2.0663, abs=0.05)

