import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from fracmom import (
    FractionalMomentSet,
    NonFiniteInput,
    NonFiniteMoment,
    QuadratureError,
    abs_moment,
    calibrate_oracle,
    empirical_moments,
    parse_spec,
    quadrature_moment,
    sample,
    signed_moment,
    theoretical_moments,
)
from fracmom import efficiency, moments, montecarlo
from fracmom.distributions import DistributionSpec
from fracmom.moments import moment_rows, winsorize_rows


def reference_winsorized_rows(x, p, fraction):
    """The winsorized moment rows about 0 as moment_rows computed them when
    it capped the |residuals| itself, at every call."""
    a = np.abs(x)
    np.minimum(a, np.quantile(a, 1.0 - fraction, axis=-1, keepdims=True),
               out=a)
    sums = [np.add.reduce(a * a, axis=-1)]
    for q in (p - 1.0, p + 1.0, 2.0 * p):
        base = np.maximum(a, 1e-12) if q < 0.0 else a
        sums.append(np.add.reduce(np.power(base, q), axis=-1))
    sums.append(np.add.reduce(np.sign(x) * np.power(a, p), axis=-1))
    return np.array(sums) / x.shape[-1]


@st.composite
def residual_rows(draw):
    """(M, N) residuals whose rows are random, hold -0.0 entries, are
    constant, or are zero but for a few values (a zero cap)."""
    n = draw(st.integers(1, 60))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(arrays(np.float64, n, elements=st.floats(
            -1e6, 1e6, allow_nan=False, allow_subnormal=False)))
        kind = draw(st.sampled_from(("random", "negzero", "constant",
                                     "zero_cap")))
        if kind == "negzero":
            row[::2] = -0.0
        elif kind == "constant":
            row[:] = row[0]
        elif kind == "zero_cap":
            keep = row[: max(1, n // 10)].copy()
            row[:] = draw(st.sampled_from((0.0, -0.0)))
            row[: keep.size] = -np.abs(keep)
        rows.append(row)
    return np.stack(rows)


def reference_moment_rows(x, center, p, zero_floor=1e-12):
    """moment_rows at the one exponent p, as it was before it took a
    sequence of exponents: the residuals, |residuals|, signs and c2 are
    recomputed at every exponent."""
    xi = x - center
    a = np.abs(xi)
    work = np.multiply(a, a)
    sums = [np.add.reduce(work, axis=-1)]
    for q in (p - 1.0, p + 1.0, 2.0 * p):
        if q < 0.0:
            np.power(np.maximum(a, zero_floor, out=work), q, out=work)
        else:
            np.power(a, q, out=work)
        sums.append(np.add.reduce(work, axis=-1))
    signed = np.sign(xi, out=xi)
    signed *= np.power(a, p, out=work)
    sums.append(np.add.reduce(signed, axis=-1))
    return np.array(sums) / x.shape[-1]


def sign_array_moment_sums(x, center, ps, zero_floor):
    """moment_sums as it was with the signs in an array of their own, the
    residuals' array serving as the work array: three arrays of x's size."""
    xi = x - center
    a = np.abs(xi)
    sign = np.sign(xi)
    work = np.multiply(a, a, out=xi)
    c2 = np.add.reduce(work, axis=-1)
    out = []
    for p in ps:
        sums = [c2]
        for q in (p - 1.0, p + 1.0, 2.0 * p):
            if q < 0.0:
                np.power(np.maximum(a, zero_floor, out=work), q, out=work)
            else:
                np.power(a, q, out=work)
            sums.append(np.add.reduce(work, axis=-1))
        np.power(a, p, out=work)
        work *= sign
        sums.append(np.add.reduce(work, axis=-1))
        out.append(np.array(sums))
    return out


EXPONENTS = st.lists(st.one_of(
    st.sampled_from((0.5, 0.5025, 0.9, 1.0, 1.05, 1.5, 2.0)),
    st.floats(0.5, 2.0)), min_size=1, max_size=20)


@st.composite
def centred_rows(draw):
    """(x, center, zero_floor, ps): an (M, N) matrix whose rows are random,
    hold exact zeros at their centre, residuals below their zero floor, or
    NaN and inf; a scalar or (M, 1) centre and floor; and an exponent list
    of length 1 to 20, or exactly 20, on both sides of 1."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 4))
    center = draw(st.sampled_from((0.0, 1.5, -2.25)))
    floor = draw(st.sampled_from((1e-12, 1e-3, 0.25)))
    if draw(st.booleans()):  # a centre and floor per row
        shift = draw(arrays(np.float64, (m, 1), elements=st.floats(
            -1.0, 1.0, allow_subnormal=False)))
        center, floor = center + shift, floor * (1.0 + np.abs(shift))
    rows = []
    for r in range(m):
        c, f = np.broadcast_to(center, (m, 1))[r, 0], \
            np.broadcast_to(floor, (m, 1))[r, 0]
        row = draw(arrays(np.float64, n, elements=st.floats(
            -1e3, 1e3, allow_nan=False, allow_subnormal=False)))
        kind = draw(st.sampled_from(("random", "zeros", "below_floor",
                                     "nan", "inf")))
        if kind == "zeros":
            row[::2] = c
        elif kind == "below_floor":
            row[::2] = c + 0.5 * f * np.sign(row[::2] - c)
        elif kind == "nan":
            row[draw(st.integers(0, n - 1))] = math.nan
        elif kind == "inf":
            row[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
                (math.inf, -math.inf)))
        rows.append(row)
    ps = draw(st.one_of(EXPONENTS, st.lists(
        st.floats(0.5, 2.0), min_size=20, max_size=20)))
    return np.stack(rows), center, floor, ps


class TestMomentRows:
    @settings(max_examples=300, deadline=None)
    @given(centred_rows())
    def test_exponent_grid_equals_one_exponent_at_a_time(self, case):
        x, center, floor, ps = case
        with np.errstate(all="ignore"):
            got = moment_rows(x - center, ps, floor)
            expected = [reference_moment_rows(x, center, p, floor)
                        for p in ps]
        assert [m.p for m in got] == list(ps)
        for m, values in zip(got, expected):
            assert m.values.shape == (5, x.shape[0])
            assert [v.hex() for v in m.values.ravel().tolist()] == \
                [v.hex() for v in values.ravel().tolist()]

    @pytest.mark.parametrize("per_row", [False, True])
    def test_long_rows_match_the_in_place_sign(self, per_row):
        """At N = 10^4 numpy takes its vectorized loops: the signs taken
        by copysign give the bits of reference_moment_rows' sign taken in
        place, on the residuals the plug-in winsorizes about 0."""
        n = 10_000
        rng = np.random.default_rng(20)
        x = rng.laplace(size=(8, n))
        center = np.array([[0.0], [0.0], [0.0], [0.0], [1.5], [-2.25],
                           [0.75], [0.0]]) if per_row else 0.0
        x[0, ::3], x[0, 1::3] = 0.0, -0.0  # +0.0 and -0.0 residuals
        x[1] = -0.0
        x[2] = 0.0
        x[3, ::2] = np.where(x[3, ::2] < 0.0, -1.0, 1.0) \
            * rng.choice((5e-324, 1e-310, 2.2e-308), size=n // 2)
        x[4, ::2] = np.broadcast_to(center, (8, 1))[4, 0]  # zeros at it
        x[5, 5] = math.nan
        x[6, 6], x[6, 60] = math.inf, -math.inf
        x[7, ::2] = math.inf
        ps = (0.5, 0.9, 1.0, 1.5, 2.0)
        with np.errstate(all="ignore"):
            got = moment_rows(x - center, ps, 1e-12)
            expected = [reference_moment_rows(x, center, p, 1e-12)
                        for p in ps]
        for m, values in zip(got, expected):
            assert [v.hex() for v in m.values.ravel().tolist()] == \
                [v.hex() for v in values.ravel().tolist()]

    @pytest.mark.parametrize("count", [1, 20])
    @pytest.mark.parametrize("n", [7, 10_000])
    def test_kernel_is_the_sign_array_kernel(self, n, count):
        """copysign(|xi|**p, xi) in the work array gives the bits of the
        sign array's product, in numpy's scalar loops (N = 7) and its
        vectorized ones (N = 10^4), on +0.0, -0.0, inf, -inf and NaN
        residuals."""
        rng = np.random.default_rng([23, n])
        x = rng.laplace(size=(6, n))
        x[0, ::2], x[0, 1::2] = -0.0, 0.0
        x[1] = -0.0
        x[2, 1], x[2, 3] = math.inf, -math.inf
        x[3, 2] = math.nan
        x[4, ::2] = -math.inf
        ps = np.linspace(0.5, 2.0, count).tolist() if count > 1 else [0.75]
        with np.errstate(all="ignore"):
            xi = x.copy()
            got = moments.moment_sums(xi, ps, 1e-12)
            expected = sign_array_moment_sums(x, 0.0, ps, 1e-12)
        assert [s.tobytes() for s in got] == [s.tobytes() for s in expected]
        # the kernel leaves the absolute residuals in the rows it was given
        assert xi.tobytes() == np.abs(x).tobytes()

    def test_floor_applies_below_one_only(self):
        x = np.array([[0.0, 1e-20, 2.0]])
        low, high = moment_rows(x, (0.5, 1.5), 1e-12)
        assert low.values[1, 0] == pytest.approx(
            (2 * 1e-12 ** -0.5 + 2.0 ** -0.5) / 3, rel=1e-15)
        assert high.values[1, 0] == pytest.approx(
            (1e-20 ** 0.5 + 2.0 ** 0.5) / 3, rel=1e-15)


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

    @settings(max_examples=300, deadline=None)
    @given(residual_rows(), st.sampled_from((0.01, 0.1, 0.25)),
           st.sampled_from((0.1, 0.5, 1.0, 1.05, 1.9, 2.0)))
    def test_winsorize_once_equals_capping_at_every_call(self, x, fraction,
                                                         p):
        expected = reference_winsorized_rows(x, p, fraction)
        capped = winsorize_rows(x.copy(), fraction)
        got = moment_rows(capped, (p,))[0].values
        assert [v.hex() for v in got.ravel().tolist()] == \
            [v.hex() for v in expected.ravel().tolist()]
        for r in range(x.shape[0]):
            one = empirical_moments(x[r], 0.0, p, winsor_fraction=fraction)
            assert [v.hex() for v in (one.c2, one.nu_pm1, one.nu_pp1,
                                      one.nu_2p, one.sigma_p)] == \
                [v.hex() for v in expected[:, r].tolist()]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("winsor", [0.0, 0.1])
    def test_overflowing_moments_raise_no_warning(self, winsor):
        x = sample(parse_spec("laplace"), 200, 3)
        m = empirical_moments(1e200 * x, 0.0, 1.5, winsor_fraction=winsor)
        assert not m.is_finite()

    def test_winsorize_rows_keeps_signs_and_works_in_place(self):
        x = np.array([[-4.0, -0.0, 1.0, 2.0, 3.0]])
        out = winsorize_rows(x, 0.25)
        assert out is x
        assert x.tolist() == [[-3.0, -0.0, 1.0, 2.0, 3.0]]
        assert math.copysign(1.0, x[0, 1]) == -1.0

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
        for center, p in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan),
                          (0.0, math.inf), (0.0, -math.inf)):
            for winsor in (0.0, 0.1):
                with pytest.raises(ValueError):
                    empirical_moments([1.0, 2.0], center, p,
                                      winsor_fraction=winsor)

    @pytest.mark.parametrize("bad, p", [(math.nan, 1.0), (math.inf, 1.5),
                                        (-math.inf, 0.7)])
    def test_non_finite_sample_refused(self, bad, p):
        with pytest.raises(NonFiniteInput):
            empirical_moments([1.0, bad, 2.0], 0.0, p)
        with pytest.raises(NonFiniteInput):
            empirical_moments([1.0, bad, 2.0], 0.0, p, winsor_fraction=0.1)

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

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("q", [-1.0, -1.2, -1.5, -2.0])
    @pytest.mark.parametrize("family", ["laplace", "beta:2:5"])
    def test_orders_at_or_below_minus_one_diverge(self, family, q, signed):
        # both densities are positive at the center 0.  At -1.2 and -1.5
        # QUADPACK's extrapolation returns the analytic continuation, a
        # finite negative number, with a small error estimate
        spec = parse_spec(family)
        with pytest.raises(NonFiniteMoment, match="diverges at the center"):
            quadrature_moment(spec.density, q, spec.support, center=0.0,
                              signed=signed, check_density=False)

    def test_orders_below_minus_one_where_the_density_vanishes(self):
        # about the edge 0 of its support, a beta(a, 5) density is
        # c x^(a - 1) (1 - x)^4, and E|X|^q = B(q + a, 5) / B(a, 5) is
        # finite for q > -a.  For a = 1.2 and q <= -1.2 it diverges, and
        # QUADPACK's extrapolation gives a negative half (-95.4 at -1.3)
        for a, q in ((2.0, -1.0), (2.0, -1.5), (1.2, -1.0)):
            spec = parse_spec(f"beta:{a}:5", standardized=False)
            v = quadrature_moment(spec.density, q, spec.support, center=0.0,
                                  check_density=False)
            assert v == pytest.approx(
                special.beta(q + a, 5.0) / special.beta(a, 5.0), rel=1e-10)
        spec = parse_spec("beta:1.2:5", standardized=False)
        for q in (-1.3, -1.5, -1.9):
            for signed in (False, True):
                with pytest.raises(NonFiniteMoment):
                    quadrature_moment(spec.density, q, spec.support,
                                      center=0.0, signed=signed,
                                      check_density=False)

    def test_divergent_integral_is_a_quadrature_error(self):
        # cauchy's first absolute moment diverges in its tails
        spec = parse_spec("cauchy")
        with pytest.raises(QuadratureError):
            quadrature_moment(spec.density, 1.0, spec.support, center=0.0,
                              check_density=False)


class TestTheoreticalMoments:
    def test_gamma_closed_forms_match_quadrature(self):
        for name in ("laplace", "gg:0.5", "gg:1.5", "gg:2", "gg:4",
                     "gaussian", "uniform", "arcsine", "triangular"):
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

    @pytest.mark.parametrize("family,q", [("cauchy", -1.0), ("laplace", -1.5)])
    def test_orders_at_or_below_minus_one_diverge(self, family, q):
        with pytest.raises(NonFiniteMoment, match="diverges at the center"):
            abs_moment(parse_spec(family), q)

    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_exponent_refused(self, p):
        with pytest.raises(ValueError):
            theoretical_moments(parse_spec("laplace"), p)

    def test_symmetric_families_have_exact_zero_signed_moment(self):
        for name in ("laplace", "gaussian", "uniform", "gg:4"):
            assert signed_moment(parse_spec(name), 1.3) == 0.0

    def test_beta_signed_moment_from_quadrature(self):
        spec = parse_spec("beta:2:5")
        # Monte Carlo oracle at 4e6 draws gave sigma_2 ~ +0.0045
        assert signed_moment(spec, 2.0) == pytest.approx(0.004498, abs=2e-4)

    # float-hex values computed before the density had its float route;
    # the beta law's moments come from quadrature of that density
    BETA_2_5 = {
        0.1: ("0x1.a1f58d0fac688p-6", "0x1.30ba431669f3fp+5",
              "0x1.bea76f7f41d59p-4", "0x1.428d02f7105a1p-1",
              "-0x1.2bcd065fb0ee0p-4"),
        1.0: ("0x1.a1f58d0fac688p-6", "0x1.0000000000000p+0",
              "0x1.a1f58d0fac688p-6", "0x1.a1f58d0fac688p-6",
              "0x1.0000000000000p-56"),
        1.9: ("0x1.a1f58d0fac688p-6", "0x1.3f11d6d95067fp-3",
              "0x1.d8aff5cfc0898p-8", "0x1.3580b0fb19273p-9",
              "0x1.30602138fad34p-8"),
    }
    ORACLE_BETA_2_5 = (
        "0x1.ec7870ffa7071p-1", "0x1.ec7f17546990dp-1", "0x1.ec8d275287f76p-1",
        "0x1.eca550e16d621p-1", "0x1.ecca5ebaa40efp-1", "0x1.ecff1759a4680p-1",
        "0x1.ed461bd5f1af1p-1", "0x1.eda1c594a75e1p-1", "0x1.ee1403fdb5ac9p-1",
        "0x1.ee9e3b888ae6ap-1", "0x1.effcc21a7b37ap-1", "0x1.f0d02f39047b7p-1",
        "0x1.f1b9b50e0e1f7p-1", "0x1.f2b6bb15eaa37p-1", "0x1.f3c3d6580b933p-1",
        "0x1.f4dce1d5bb10cp-1", "0x1.f5fd234df9be0p-1", "0x1.f71f7b2d7da12p-1",
        "0x1.f83e9d5cf2d18p-1", "0x1.f9554f8bb05dap-1")

    @pytest.mark.parametrize("p", sorted(BETA_2_5))
    def test_beta_moments_golden(self, p):
        m = theoretical_moments(parse_spec("beta:2:5"), p)
        assert tuple(float(v).hex() for v in (
            m.c2, m.nu_pm1, m.nu_pp1, m.nu_2p, m.sigma_p)) == self.BETA_2_5[p]

    def test_beta_oracle_curve_golden(self):
        curve = calibrate_oracle(parse_spec("beta:2:5")).curve
        assert tuple(float(v).hex() for v in curve.g2) == self.ORACLE_BETA_2_5

    def test_oracle_computes_c2_once(self, monkeypatch):
        """c2 does not depend on alpha: the beta law's sweep integrates it
        once, and three orders at each of the grid's 20 alphas."""
        orders = []

        def counted(spec, q):
            orders.append(q)
            return abs_moment(spec, q)

        for module in (efficiency, montecarlo):
            monkeypatch.setattr(module, "abs_moment", counted)
        curve = calibrate_oracle(parse_spec("beta:2:5")).curve
        assert len(orders) == 61 and orders[0] == 2.0
        assert tuple(float(v).hex() for v in curve.g2) == self.ORACLE_BETA_2_5

    def test_oracle_density_runs_once_per_node(self, monkeypatch):
        """QUADPACK revisits the same nodes for every order it integrates:
        the spec's memo evaluates the density once per distinct node, and
        the curve is the unmemoized one bit for bit."""
        nodes = []
        density = DistributionSpec.density

        def counted(spec, x):
            nodes.append(x)
            return density(spec, x)

        monkeypatch.setattr(DistributionSpec, "density", counted)
        memoized = calibrate_oracle(parse_spec("beta:2:5")).curve.g2
        distinct = len(nodes)
        assert distinct == len(set(nodes)) > 0
        monkeypatch.setattr(DistributionSpec, "quadrature_density", counted)
        plain = calibrate_oracle(parse_spec("beta:2:5")).curve.g2
        assert set(nodes[distinct:]) == set(nodes[:distinct])
        assert len(nodes) - distinct > 10 * distinct
        assert memoized.tobytes() == plain.tobytes()
        assert tuple(float(v).hex() for v in memoized) == \
            self.ORACLE_BETA_2_5

    def test_moment_set_fields(self):
        m = theoretical_moments(parse_spec("laplace", standardized=False), 2.0)
        assert (m.c2, m.nu_pm1, m.nu_pp1, m.nu_2p) == \
            pytest.approx((2.0, 1.0, 6.0, 24.0), rel=1e-12)
        assert m.sigma_p == 0.0
        assert m.is_finite()
