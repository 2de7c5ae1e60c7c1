import math

import numpy as np
import pytest

from fracmom import (
    DegenerateRatio,
    FractionalMomentSet,
    NonFiniteMoment,
    NonPositiveDenominator,
    SingularSystem,
    alpha_grid,
    build_correlant_system,
    empirical_moments,
    estimate_full,
    g2_classical,
    g2_closed_form,
    g2_sweep,
    g2_with_flag,
    parse_spec,
    sample,
    second_exponent,
    theoretical_moments,
)
from fracmom.efficiency import g2_rows, system_rows

LAPLACE_RAW = parse_spec("laplace", standardized=False)
BAND_REFUSED = "band must be finite, >= 0 and leave a point of the alpha grid"


def g2_symmetric_power_endpoint(c2: float, nu1: float, nu3: float,
                                nu4: float) -> float:
    """Independent alpha = 1 ratio for symmetric laws from {c2, nu1, nu3, nu4}:
    (c2*nu4 - nu3^2) / (c2*(nu4 - 4*nu3*nu1 + 4*c2*nu1^2))."""
    return (c2 * nu4 - nu3**2) / (c2 * (nu4 - 4.0 * nu3 * nu1 + 4.0 * c2 * nu1**2))


class TestCorrelantSystem:
    def test_laplace_integer_endpoint_by_hand(self):
        # gamma forms at p=2: c2=2, nu1=1, nu3=6, nu4=24; solving the 2x2
        # system by hand gives h = (1, -1/6)
        sys = build_correlant_system(theoretical_moments(LAPLACE_RAW, 2.0))
        assert (sys.f11, sys.f12, sys.f22) == pytest.approx((2.0, 6.0, 24.0))
        assert (sys.b1, sys.b2) == pytest.approx((1.0, 2.0))
        assert sys.det == pytest.approx(12.0, rel=1e-12)
        assert (sys.h1, sys.h2) == pytest.approx((1.0, -1.0 / 6.0), rel=1e-12)

    def test_solution_residual_small(self):
        for name in ("laplace", "gg:0.5", "gg:4", "gaussian", "beta:2:5"):
            spec = parse_spec(name)
            for a in (0.0, 0.2, 0.8, 1.0):
                m = theoretical_moments(spec, second_exponent(a))
                s = build_correlant_system(m)
                r1 = s.f11 * s.h1 + s.f12 * s.h2 - s.b1
                r2 = s.f12 * s.h1 + s.f22 * s.h2 - s.b2
                bnorm = math.hypot(s.b1, s.b2)
                assert math.hypot(r1, r2) <= 1e-12 * bnorm

    def test_collapsed_exponent_is_singular(self):
        # at p=1 every entry equals c2, a rank-one matrix
        m = theoretical_moments(LAPLACE_RAW, 1.0)
        with pytest.raises(SingularSystem):
            build_correlant_system(m)

    def test_gaussian_integer_endpoint_well_posed(self):
        s = build_correlant_system(theoretical_moments(parse_spec("gaussian"), 2.0))
        assert s.det > 0.0
        assert np.isfinite(s.h1) and np.isfinite(s.h2)

    def test_nonfinite_moments_rejected(self):
        m = FractionalMomentSet(p=2.0, c2=math.inf, nu_pm1=1.0, nu_pp1=1.0,
                                nu_2p=3.0, sigma_p=0.0)
        with pytest.raises(NonFiniteMoment):
            build_correlant_system(m)

    def test_nan_condition_number_is_not_refused(self):
        # det is finite, but (f11 - f22)^2 overflows, so cond is inf / inf:
        # NaN does not exceed COND_CAP, so the system is accepted, and
        # system_rows marks the row regular for the full solver too
        m = FractionalMomentSet(p=1.3, c2=4e-34, nu_pm1=2e77, nu_pp1=1.4e94,
                                nu_2p=7.3e155, sigma_p=-37.0)
        s = build_correlant_system(m)
        assert math.isnan(s.cond) and math.isfinite(s.det)
        with np.errstate(all="ignore"):
            assert system_rows(m.rows()).regular[0]

    def test_overflowing_products_refused(self):
        # near 1e150 the moments are finite but c2 * f22 and f12^2 overflow,
        # so det is inf - inf; the system and the ratio were NaN before
        x = 1e150 * sample(parse_spec("laplace"), 200, 0) + 5.5e150
        m = empirical_moments(x, float(np.mean(x)), second_exponent(0.3))
        assert all(math.isfinite(v) for v in (m.c2, m.nu_pp1, m.nu_2p))
        with pytest.raises(SingularSystem, match="det=nan"):
            build_correlant_system(m)
        with pytest.raises(NonFiniteMoment):
            g2_with_flag(m)
        value, flag = g2_rows(m.rows())
        assert math.isnan(value[0]) and flag[0]
        assert estimate_full(x, 0.3).method == "proxy"


class TestClosedFormRatio:
    def test_laplace_integer_endpoint_exact(self):
        m = theoretical_moments(LAPLACE_RAW, 2.0)
        assert g2_closed_form(m) == pytest.approx(0.75, abs=1e-14)

    def test_laplace_fractal_endpoint_exact(self):
        m = theoretical_moments(LAPLACE_RAW, 0.5)
        expected = (2.0 - 9.0 * math.pi / 16.0) / (2.0 - math.pi / 2.0)
        assert g2_closed_form(m) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self):
        raw = g2_closed_form(theoretical_moments(LAPLACE_RAW, 0.74))
        std = g2_closed_form(theoretical_moments(parse_spec("laplace"), 0.74))
        assert raw == pytest.approx(std, rel=1e-10)

    def test_consistency_with_quadratic_form(self):
        # g2 * c2 * b' F^{-1} b = 1 wherever the system solves
        for name in ("laplace", "gg:1.5", "gg:4", "beta:2:5", "uniform"):
            spec = parse_spec(name)
            for a in (0.0, 0.15, 0.35, 0.65, 0.85, 1.0):
                m = theoretical_moments(spec, second_exponent(a))
                s = build_correlant_system(m)
                bfb = s.b1 * s.h1 + s.b2 * s.h2
                assert g2_closed_form(m) * m.c2 * bfb == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_point_raises_and_flag_maps_to_one(self):
        m = theoretical_moments(LAPLACE_RAW, 1.0)
        with pytest.raises(DegenerateRatio):
            g2_closed_form(m)
        assert g2_with_flag(m) == (1.0, True)

    def test_two_sided_limits_agree_at_collapse(self):
        # the 0/0 point is a removable singularity: both sides converge to
        # the same family-dependent value (ratio of second-order terms)
        for name, limit in (("laplace", 0.6124), ("gg:4", 0.7753),
                            ("uniform", 0.5), ("gaussian", 1.0)):
            spec = parse_spec(name)
            lo = g2_closed_form(theoretical_moments(spec, second_exponent(0.5 - 1e-4)))
            hi = g2_closed_form(theoretical_moments(spec, second_exponent(0.5 + 1e-4)))
            assert lo == pytest.approx(hi, abs=1e-3), name
            assert lo == pytest.approx(limit, abs=1e-3), name

    @pytest.mark.xfail(strict=True,
                       reason="the claimed limit of 1 at the collapse point "
                              "only holds for Gaussian noise: both first "
                              "derivatives of numerator and denominator "
                              "vanish there, and the second-order ratio is "
                              "family-dependent (0.61 two-sided exponential, "
                              "exactly 1/2 uniform).  The estimator itself "
                              "does reduce to the mean at alpha=1/2 (rank "
                              "collapse), but the ratio's limit is not 1")
    def test_near_degenerate_limit_close_to_one(self):
        for name in ("laplace", "gg:1.5", "gg:4", "gaussian", "uniform"):
            spec = parse_spec(name)
            for a in (0.47, 0.53):
                m = theoretical_moments(spec, second_exponent(a))
                assert g2_closed_form(m) == pytest.approx(1.0, abs=0.05), (name, a)

    def test_positive_whenever_system_solves(self):
        for name in ("laplace", "gg:0.5", "gg:4", "beta:2:5"):
            spec = parse_spec(name)
            for a in np.linspace(0.0, 1.0, 21):
                if abs(a - 0.5) < 0.05:
                    continue
                m = theoretical_moments(spec, second_exponent(a))
                s = build_correlant_system(m)
                if s.det > 0.0:
                    assert g2_closed_form(m) > 0.0

    def test_negative_denominator_reported(self):
        m = FractionalMomentSet(p=2.0, c2=1.0, nu_pm1=10.0, nu_pp1=100.0,
                                nu_2p=1.0, sigma_p=0.0)
        with pytest.raises(NonPositiveDenominator):
            g2_closed_form(m)

    def test_symmetric_integer_endpoint_identity(self):
        # independent alpha=1 expression from {c2, nu1, nu3, nu4}
        for name in ("laplace", "gaussian", "gg:4", "uniform"):
            spec = parse_spec(name)
            m = theoretical_moments(spec, 2.0)
            direct = g2_symmetric_power_endpoint(m.c2, m.nu_pm1, m.nu_pp1, m.nu_2p)
            assert g2_closed_form(m) == pytest.approx(direct, rel=1e-12)


class TestClassicalReference:
    def test_no_gain_for_zero_skew(self):
        assert g2_classical(0.0, 0.0) == 1.0
        assert g2_classical(0.0, 3.0) == 1.0

    def test_beta_cumulants_value(self):
        assert g2_classical(0.596, -0.12) == pytest.approx(
            1.0 - 0.596**2 / 1.88, rel=1e-12)
        assert g2_classical(0.596, -0.12) == pytest.approx(0.8111, abs=5e-4)

    def test_kurtosis_floor(self):
        with pytest.raises(ValueError):
            g2_classical(0.5, -2.0)
        # NaN passed the floor check and came back as the ratio
        with pytest.raises(ValueError, match="gamma4"):
            g2_classical(0.0, math.nan)
        # a gamma3 that is not finite came back as NaN or -inf
        for gamma3 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma3"):
                g2_classical(gamma3, 0.0)


class TestSweep:
    def test_alpha_grid_excludes_band(self):
        grid = alpha_grid(0.05, 0.05)
        assert 0.0 in grid and 1.0 in grid
        assert all(abs(a - 0.5) >= 0.05 - 1e-12 for a in grid)
        assert 0.45 in grid and 0.55 in grid

    def test_band_zero_keeps_midpoint_with_flag(self):
        curve = g2_sweep(parse_spec("laplace"), 0.05, 0.0)
        mid = np.where(np.isclose(curve.alphas, 0.5))[0]
        assert mid.size == 1
        assert curve.degenerate[mid[0]]
        assert curve.g2[mid[0]] == 1.0

    def test_laplace_argmin_fractal(self):
        curve = g2_sweep(parse_spec("laplace"), 0.05, 0.05)
        assert curve.argmin_alpha == 0.0
        assert curve.argmin_g2 == pytest.approx(0.5425259542093142, rel=1e-10)

    def test_gg4_argmin_power_side(self):
        curve = g2_sweep(parse_spec("gg:4"), 0.05, 0.05)
        assert curve.argmin_alpha == 1.0
        assert curve.argmin_g2 == pytest.approx(0.7392, abs=0.01)

    def test_gg_half_argmin_value(self):
        curve = g2_sweep(parse_spec("gg:0.5"), 0.05, 0.05)
        assert curve.argmin_alpha == 0.0
        assert curve.argmin_g2 == pytest.approx(0.1021, abs=0.01)

    def test_gaussian_flat(self):
        curve = g2_sweep(parse_spec("gaussian"), 0.05, 0.05)
        assert np.max(np.abs(curve.g2 - 1.0)) < 1e-6

    def test_cauchy_refused_whole_sweep(self):
        with pytest.raises(NonFiniteMoment):
            g2_sweep(parse_spec("cauchy"), 0.05, 0.05)

    def test_rows_schema(self):
        curve = g2_sweep(parse_spec("laplace"), 0.25, 0.05)
        rows = list(curve.rows())
        assert rows[0] == (0.0, pytest.approx(0.5425259542093142), 0)
        assert all(len(r) == 3 for r in rows)

    def test_grid_step_validation(self):
        with pytest.raises(ValueError):
            alpha_grid(0.3, 0.05)

    @pytest.mark.parametrize("band", [0.6, 0.5 + 1e-9, math.nan, math.inf,
                                      -0.1, -math.inf])
    def test_band_that_leaves_no_grid_is_refused(self, band):
        for call in (lambda: alpha_grid(0.05, band),
                     lambda: g2_sweep(parse_spec("laplace"), 0.05, band)):
            with pytest.raises(ValueError, match=BAND_REFUSED):
                call()

    def test_widest_band_keeps_the_grid_ends(self):
        assert alpha_grid(0.05, 0.5).tolist() == [0.0, 1.0]
