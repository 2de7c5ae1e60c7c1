import math

import numpy as np
import pytest
from scipy import special

from fracmom import (
    FractionalMomentSet,
    NonFiniteMoment,
    abs_moment,
    empirical_moments,
    parse_spec,
    quadrature_moment,
    sample,
    signed_moment,
    theoretical_moments,
)


class TestEmpiricalMoments:
    def test_symmetric_three_point_sample(self):
        m = empirical_moments([-1.0, 0.0, 1.0], 0.0, 1.0)
        assert m.c2 == pytest.approx(2.0 / 3.0)
        assert m.nu_pm1 == pytest.approx(1.0)   # order zero via the floor
        assert m.nu_pp1 == pytest.approx(2.0 / 3.0)
        assert m.nu_2p == pytest.approx(2.0 / 3.0)
        assert m.sigma_p == pytest.approx(0.0, abs=1e-16)

    def test_single_point_sample(self):
        m = empirical_moments([2.0], 0.0, 2.0)
        assert (m.c2, m.nu_pm1, m.nu_pp1, m.nu_2p, m.sigma_p) == \
            pytest.approx((4.0, 2.0, 8.0, 16.0, 4.0))

    def test_laplace_convergence_to_gamma_form(self):
        x = sample(parse_spec("laplace", standardized=False), 100_000, 2024)
        m = empirical_moments(x, 0.0, 0.5)
        assert m.nu_pp1 == pytest.approx(special.gamma(2.5), rel=0.02)

    def test_symmetric_signed_moment_is_small(self):
        x = sample(parse_spec("laplace"), 100_000, 7)
        m = empirical_moments(x, 0.0, 1.0)
        assert abs(m.sigma_p) < 0.02  # O(N^{-1/2})

    def test_winsorization_caps_upper_tail(self):
        x = np.array([0.5, 1.0, 1.5, 2.0, 100.0])
        plain = empirical_moments(x, 0.0, 2.0)
        wins = empirical_moments(x, 0.0, 2.0, winsor_fraction=0.25)
        cap = np.quantile(np.abs(x), 0.75)
        capped = np.minimum(np.abs(x), cap)
        assert wins.c2 == pytest.approx(np.mean(capped**2))
        assert wins.c2 < plain.c2

    def test_continuity_in_order(self):
        x = sample(parse_spec("gg:1.5"), 2000, 3)
        qs = np.linspace(0.4, 3.0, 53)
        vals = [empirical_moments(x, 0.1, q).nu_2p for q in qs]
        jumps = np.abs(np.diff(np.log(vals)))
        assert jumps.max() < 0.2

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_moments([], 0.0, 1.0)
        with pytest.raises(ValueError):
            empirical_moments([1.0], 0.0, 0.0)
        with pytest.raises(ValueError):
            empirical_moments([1.0], 0.0, 1.0, winsor_fraction=0.3)
        with pytest.raises(ValueError):
            empirical_moments([1.0], 0.0, 1.0, zero_floor=0.0)

    def test_nonnegative_fields_enforced(self):
        with pytest.raises(ValueError):
            FractionalMomentSet(p=1.0, c2=-1.0, nu_pm1=1.0, nu_pp1=1.0,
                                nu_2p=1.0, sigma_p=0.0)


class TestQuadratureOracle:
    def test_laplace_self_check(self):
        spec = parse_spec("laplace", standardized=False)
        v = quadrature_moment(spec.density, 1.5, spec.support)
        assert v == pytest.approx(special.gamma(2.5), abs=1e-8)

    def test_uniform_unit_variance(self):
        spec = parse_spec("uniform")
        v = quadrature_moment(spec.density, 2.0, spec.support)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_fourth_moment(self):
        spec = parse_spec("gg:2")
        c2 = quadrature_moment(spec.density, 2.0, spec.support)
        v4 = quadrature_moment(spec.density, 4.0, spec.support)
        assert v4 == pytest.approx(3.0 * c2 * c2, abs=1e-7)

    def test_rejects_unnormalized_density(self):
        with pytest.raises(ValueError):
            quadrature_moment(lambda x: np.exp(-np.abs(x)), 1.0,
                              (-np.inf, np.inf))

    def test_signed_moment_of_symmetric_density_vanishes(self):
        spec = parse_spec("laplace")
        v = quadrature_moment(spec.density, 1.5, spec.support, center=0.0,
                              signed=True, check_density=False)
        assert v == pytest.approx(0.0, abs=1e-9)


class TestTheoreticalMoments:
    def test_gamma_closed_forms_match_quadrature(self):
        for name in ("laplace", "gg:0.5", "gg:1.5", "gg:2", "gg:4"):
            spec = parse_spec(name)
            for q in (-0.5, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
                cf = abs_moment(spec, q)
                qd = quadrature_moment(spec.density, q, spec.support,
                                       center=0.0, check_density=False)
                assert cf == pytest.approx(qd, abs=1e-8), (name, q)

    def test_gaussian_mean_absolute_deviation(self):
        assert abs_moment(parse_spec("gaussian"), 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_laplace_scale_one_values(self):
        spec = parse_spec("laplace", standardized=False)
        assert abs_moment(spec, 1.5) == pytest.approx(1.3293403881791370, rel=1e-10)

    def test_cauchy_refusals(self):
        cauchy = parse_spec("cauchy")
        with pytest.raises(NonFiniteMoment):
            abs_moment(cauchy, 2.0)
        with pytest.raises(NonFiniteMoment):
            theoretical_moments(cauchy, 0.5)  # c2 always required
        # sub-unit orders stay finite: E|X|^q = 1/cos(pi q/2)
        assert abs_moment(cauchy, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_symmetric_families_have_exact_zero_signed_moment(self):
        for name in ("laplace", "gaussian", "uniform", "gg:4"):
            assert signed_moment(parse_spec(name), 1.3) == 0.0

    def test_beta_signed_moment_from_quadrature(self):
        spec = parse_spec("beta:2:5")
        # Monte Carlo oracle at 4e6 draws gave sigma_2 ~ +0.0045
        assert signed_moment(spec, 2.0) == pytest.approx(0.004498, abs=2e-4)

    def test_moment_set_fields(self):
        m = theoretical_moments(parse_spec("laplace", standardized=False), 2.0)
        assert (m.c2, m.nu_pm1, m.nu_pp1, m.nu_2p) == \
            pytest.approx((2.0, 1.0, 6.0, 24.0), rel=1e-12)
        assert m.sigma_p == 0.0
        assert m.is_finite()
