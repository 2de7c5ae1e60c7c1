import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracmom import (
    basis_value,
    collision_roots,
    exponent,
    second_exponent,
)


class TestExponent:
    def test_structural_anchors(self):
        assert exponent(2, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert exponent(2, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert exponent(2, 1.0) == pytest.approx(2.0, abs=1e-15)
        assert exponent(3, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert exponent(5, 1.0) == pytest.approx(5.0, abs=1e-15)

    def test_direct_quadratic_evaluation(self):
        # 0.5 + 0.5*0.3 + 0.3^2
        assert exponent(2, 0.3) == pytest.approx(0.74, abs=1e-15)
        assert second_exponent(0.3) == pytest.approx(0.74, abs=1e-15)

    def test_identity_member(self):
        for a in np.linspace(0.0, 1.0, 7):
            assert exponent(1, a) == 1.0

    def test_anchor_precision_up_to_i_12(self):
        for i in range(2, 13):
            assert abs(exponent(i, 0.0) - 1.0 / i) < 1e-12
            assert abs(exponent(i, 0.5) - 1.0) < 1e-12
            assert abs(exponent(i, 1.0) - i) < 1e-12

    def test_positive_on_unit_interval_for_low_members(self):
        grid = np.linspace(0.0, 1.0, 401)
        for i in range(1, 6):
            assert all(exponent(i, a) > 0.0 for a in grid)
        # the second member drives the estimator and stays in [1/2, 2]
        assert all(0.5 <= exponent(2, a) <= 2.0 for a in grid)

    def test_high_members_dip_negative_between_anchors(self):
        # the interpolating quadratic is not positive everywhere from i=6 on
        assert exponent(6, 0.15) < 0.0
        assert exponent(12, 0.2) < 0.0

    def test_matches_second_exponent(self):
        for a in np.linspace(0.0, 1.0, 11):
            assert exponent(2, a) == pytest.approx(second_exponent(a), abs=0)

    @given(st.floats(-1e3, 1e3))
    def test_second_exponent_is_exponent_2_bit_for_bit(self, a):
        # basis_value takes p_2 from second_exponent
        assert exponent(2, a) == second_exponent(a)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            exponent(0, 0.3)
        # NaN returned NaN, 2.5 a value and "2" a raw TypeError; the basis
        # values and collision roots took them too
        for i in (math.nan, math.inf, 2.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="basis index"):
                exponent(i, 0.3)
            with pytest.raises(ValueError, match="basis index"):
                basis_value(i, 0.3, [1.0, -2.0])
            with pytest.raises(ValueError, match="basis index"):
                collision_roots(i, 3)
            with pytest.raises(ValueError, match="basis index"):
                collision_roots(3, i)
        for i in (0, -1):
            with pytest.raises(ValueError, match="basis index"):
                basis_value(i, 0.5, [1.0, -2.0])
        assert exponent(np.int64(3), 0.3) == exponent(3, 0.3)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf,
                                       "0.3", b"0.3", None, 1j])
    def test_alpha_must_be_a_finite_real(self, alpha):
        # NaN and inf returned NaN or inf, also through the identity
        # shortcut of basis_value, and "0.3" was parsed
        for f in (lambda: exponent(2, alpha), lambda: exponent(1, alpha),
                  lambda: exponent(3, alpha), lambda: second_exponent(alpha),
                  lambda: basis_value(2, alpha, [1.0, -2.0, 0.0]),
                  lambda: basis_value(1, alpha, [1.0, -2.0, 0.0])):
            with pytest.raises(ValueError, match="alpha"):
                f()

    def test_any_finite_real_alpha(self):
        # the quadratic extends beyond [0, 1], as documented
        assert second_exponent(-1.0) == 1.0
        assert exponent(2, 3) == second_exponent(np.float32(3.0)) == 11.0
        assert basis_value(2, -2, 2.0) == 2.0 ** 3.5


class TestCollisionRoots:
    def test_stated_roots(self):
        assert collision_roots(2, 3) == pytest.approx((0.5, -0.2))
        assert collision_roots(2, 5) == pytest.approx((0.5, -1.0 / 9.0))

    def test_roots_are_actual_collisions(self):
        # substitute both roots back into the exponent polynomials
        for (i, j) in [(3, 4), (2, 6), (4, 5)]:
            for r in collision_roots(i, j):
                assert abs(exponent(i, r) - exponent(j, r)) < 1e-12

    def test_second_root_negative(self):
        for i in range(1, 6):
            for j in range(i + 1, 7):
                assert collision_roots(i, j)[1] < 0.0

    def test_invalid_pairs(self):
        with pytest.raises(ValueError):
            collision_roots(2, 2)
        with pytest.raises(ValueError):
            collision_roots(0, 3)
        # NaN and inf once reached an assert: -1 / (inf - 1) is -0.0
        for pair in [(math.nan, 2), (2, math.nan), (math.inf, 2),
                     (2, math.inf)]:
            with pytest.raises(ValueError):
                collision_roots(*pair)

    def test_no_other_collision_inside_unit_interval(self):
        # sign scan at step 1e-3: single crossing, located at 1/2
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        for i in range(2, 6):
            for j in range(i + 1, 7):
                d = np.array([exponent(i, a) - exponent(j, a) for a in grid])
                zeroish = np.abs(d) < 1e-12
                assert all(abs(grid[k] - 0.5) <= 1e-3 for k in np.where(zeroish)[0])
                s = np.sign(d[~zeroish])
                assert np.sum(s[1:] != s[:-1]) == 1


class TestBasisValue:
    def test_signed_power_examples(self):
        assert basis_value(2, 1.0, -4.0) == pytest.approx(-16.0, abs=0)
        assert basis_value(2, 0.0, 0.25) == pytest.approx(0.5, abs=1e-15)
        # exponent(6, 0.125) < 0: the odd basis is still exactly 0 at xi = 0
        assert basis_value(6, 0.125, 0.0) == 0.0

    def test_midpoint_collapse_exact(self):
        for i in (1, 2, 3, 7):
            for xi in (-7.25, -0.3, 0.0, 1e-9, 7.3, 123.0):
                assert basis_value(i, 0.5, xi) == xi

    @given(st.integers(min_value=1, max_value=9),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=-1e6, max_value=1e6),
           st.sampled_from([0.0, 1e-6, 1e-3]))
    def test_odd_in_xi(self, i, alpha, xi, eps):
        assert basis_value(i, alpha, -xi, epsilon=eps) == pytest.approx(
            -basis_value(i, alpha, xi, epsilon=eps), rel=1e-12, abs=1e-300)

    def test_vectorized_matches_scalar(self):
        xi = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        vec = basis_value(2, 0.2, xi)
        assert vec == pytest.approx([basis_value(2, 0.2, v) for v in xi])

    def test_smoothing_only_below_linear(self):
        # p = 2 at alpha = 1: smoothing must not apply
        assert basis_value(2, 1.0, 3.0, epsilon=0.1) == pytest.approx(9.0, abs=0)
        # p = 1/2 at alpha = 0: smoothed form
        expected = math.copysign((4.0 + 0.01) ** 0.25, 2.0)
        assert basis_value(2, 0.0, 2.0, epsilon=0.1) == pytest.approx(
            expected, rel=1e-15)


# every branch of basis_value: p < 1, p > 1, the identity member and the
# alpha = 1/2 collapse, smoothing, and the negative exponents of i >= 6,
# with and without smoothing
BRANCHES = [(2, 0.0, 0.0), (2, 0.05, 0.0), (2, 1.0, 0.0), (2, 0.95, 0.0),
            (1, 0.3, 0.0), (3, 0.5, 0.0), (2, 0.05, 1e-3), (2, 1.0, 0.1),
            (6, 0.125, 0.0), (6, 0.125, 1e-3)]
RESIDUALS = np.array([-7.25, -1.0, -1e-300, -0.0, 0.0, 5e-324, 0.3, 1.0,
                      123.0, 1e200, math.inf, -math.inf, math.nan])


def _reference(i, alpha, x, eps):
    # the formulas basis_value evaluated before it wrote into one array
    p = exponent(i, alpha)
    if i == 1 or alpha == 0.5:
        return x.copy()
    with np.errstate(all="ignore"):
        if eps > 0.0 and p < 1.0:
            return np.sign(x) * np.power(x * x + eps**2, 0.5 * p)
        if p < 0.0:
            return np.where(x == 0.0, 0.0,
                            np.sign(x) * np.power(np.abs(x), p))
        return np.copysign(np.power(np.abs(x), p), x)


class TestBasisValueOut:
    @pytest.mark.parametrize("i,alpha,eps", BRANCHES)
    def test_out_gives_the_fresh_bits(self, i, alpha, eps):
        x = RESIDUALS.copy()
        with np.errstate(all="ignore"):
            fresh = basis_value(i, alpha, x, eps)
            out = np.full_like(x, 42.0)
            got = basis_value(i, alpha, x, eps, out=out)
        assert got is out
        assert out.tobytes() == fresh.tobytes() \
            == _reference(i, alpha, x, eps).tobytes()
        assert x.tobytes() == RESIDUALS.tobytes()

    @pytest.mark.parametrize("i,alpha,eps", BRANCHES)
    def test_out_on_rows_of_a_matrix(self, i, alpha, eps):
        x = np.stack([RESIDUALS, -RESIDUALS[::-1]])
        work = np.empty((2,) + x.shape)
        work[0] = x
        with np.errstate(all="ignore"):
            for r in range(2):
                basis_value(i, alpha, work[0, r], eps, out=work[1, r])
            assert work[1].tobytes() == basis_value(i, alpha, x,
                                                    eps).tobytes()

    @pytest.mark.parametrize("i,alpha,eps", BRANCHES)
    def test_scalar_with_out(self, i, alpha, eps):
        for xi in RESIDUALS.tolist():
            with np.errstate(all="ignore"):
                fresh = basis_value(i, alpha, xi, eps)
                got = basis_value(i, alpha, xi, eps, out=np.empty(()))
            assert type(got) is type(fresh) is float
            assert np.float64(got).tobytes() == np.float64(fresh).tobytes()
            assert np.float64(got).tobytes() == _reference(
                i, alpha, np.array(xi), eps).tobytes()


class TestConfigs:
    def test_smoothing_validation(self):
        with pytest.raises(ValueError):
            basis_value(2, 0.0, 1.0, epsilon=-1.0)
        with pytest.raises(ValueError):
            basis_value(2, 0.0, 1.0, epsilon=math.nan)
