import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from fracmom import (
    DistributionSpec,
    ENTROPY_COEFF_MAX,
    NonFiniteMoment,
    differential_entropy,
    gg_kurtosis,
    parse_spec,
    sample,
    shape_summary,
)
from fracmom.distributions import block_keys, sample_block

FINITE_VAR = ("gaussian", "laplace", "gg:0.5", "gg:1.5", "gg:4", "uniform",
              "arcsine", "triangular", "beta:2:5")
# every family, with gg:2 (where ** 2 would square) and beta laws that are
# unbounded at an edge or not centred
DENSITY_SPECS = tuple(parse_spec(name) for name in FINITE_VAR + (
    "cauchy", "gg:2", "beta:0.5:0.5", "beta:3:1.5")) \
    + (DistributionSpec("beta", (2.0, 5.0), standardized=False),)


def _density_points(spec):
    """Points on, next to and outside the support's edges, and far out."""
    points = [0.0, -0.0, 1e-300, 1e300, -1e300, math.inf, -math.inf]
    for edge in spec.support:
        if math.isfinite(edge):
            points += [edge, math.nextafter(edge, -math.inf),
                       math.nextafter(edge, math.inf), edge - 1.0,
                       edge + 1.0, 2.0 * edge]
    return points


def _assert_float_density_is_array_element(spec, x):
    one = spec.density(float(x))
    assert isinstance(one, float)
    with np.errstate(all="ignore"):
        element = spec.density(np.array([x]))[0]
    assert float(one).hex() == float(element).hex(), (spec.name, x)


class TestSpec:
    def test_parsing(self):
        assert parse_spec("laplace").family == "laplace"
        assert parse_spec("gg:1.5").shape == (1.5,)
        assert parse_spec("beta:2:5").shape == (2.0, 5.0)
        assert parse_spec("simpson").family == "triangular"

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            DistributionSpec("gg", ())
        with pytest.raises(ValueError):
            DistributionSpec("beta", (2.0,))
        with pytest.raises(ValueError):
            DistributionSpec("gauss")
        with pytest.raises(ValueError):
            DistributionSpec("laplace", (1.0,))
        for name in ("gg:nan", "gg:inf", "beta:nan:2", "beta:2:inf"):
            with pytest.raises(ValueError, match="finite shape"):
                parse_spec(name)
        for family, shape in (("gg", ("2",)), ("beta", ("2", 5.0)),
                              ("gg", (None,)), ("gg", 2.0), ("gg", [2.0]),
                              ("gg", (True,))):
            with pytest.raises(ValueError, match="tuple of real numbers"):
                DistributionSpec(family, shape)

    def test_flags(self):
        assert parse_spec("cauchy").infinite_variance
        assert not parse_spec("beta:2:5").symmetric
        assert parse_spec("gg:4").symmetric

    def test_true_location(self):
        assert parse_spec("beta:2:5").true_location == 0.0
        assert parse_spec("beta:2:5", standardized=False).true_location == \
            pytest.approx(2.0 / 7.0)
        assert parse_spec("laplace").true_location == 0.0

    def test_cauchy_variance_refused(self):
        with pytest.raises(NonFiniteMoment):
            parse_spec("cauchy").variance

    @pytest.mark.parametrize("name", ["gg:1.5", "beta:2:5", "laplace"])
    def test_spec_with_cached_constants_is_a_plain_value(self, name):
        spec, fresh = parse_spec(name), parse_spec(name)
        # caches the constants and memoizes the density at 0.1
        spec.scale, spec.density(0.1), spec.quadrature_density(0.1)
        assert spec == fresh and hash(spec) == hash(fresh)
        assert repr(spec) == repr(fresh)
        for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == fresh and hash(twin) == hash(fresh)
            assert repr(twin) == repr(fresh)
            assert twin.scale == fresh.scale
            assert twin.density(0.1) == fresh.density(0.1)
            assert twin.quadrature_density(0.1) == fresh.density(0.1)

    @pytest.mark.parametrize("name", ["gg:1.5", "beta:2:5", "laplace"])
    def test_replaced_spec_gets_its_own_constants(self, name):
        spec = parse_spec(name)
        # caches the constants and memoizes the density at 0.1
        spec.scale, spec.density(0.1), spec.quadrature_density(0.1)
        raw = dataclasses.replace(spec, standardized=False)
        fresh = parse_spec(name, standardized=False)
        assert raw == fresh and raw != spec
        assert raw.scale == fresh.scale
        assert raw.support == fresh.support
        for x in (-0.3, 0.1, 0.5, 0.9):
            assert raw.density(x) == fresh.density(x)
            assert raw.quadrature_density(x) == fresh.density(x)
        if name != "beta:2:5":  # beta's scale is its support either way
            assert raw.scale != spec.scale
        else:
            assert raw.density(0.1) != spec.density(0.1)
            assert raw.quadrature_density(0.1) != \
                spec.quadrature_density(0.1)


class TestSampling:
    def test_determinism(self):
        spec = parse_spec("gg:1.5")
        a = sample(spec, 1000, 42)
        b = sample(spec, 1000, 42)
        c = sample(spec, 1000, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_composite_seed_keys(self):
        spec = parse_spec("laplace")
        a = sample(spec, 100, [5, 0, 1])
        b = sample(spec, 100, [5, 0, 2])
        assert not np.array_equal(a, b)

    def test_gaussian_mean_within_clt_band(self):
        x = sample(parse_spec("gaussian"), 100_000, 11)
        assert abs(x.mean()) < 3.0 / math.sqrt(100_000)

    def test_gg2_is_gaussian_by_ks(self):
        x = sample(parse_spec("gg:2"), 10_000, 4242)
        assert stats.kstest(x, "norm").statistic < 1.63 / math.sqrt(10_000)

    def test_standardized_unit_sample_variance(self):
        for name in FINITE_VAR:
            x = sample(parse_spec(name), 200_000, 9)
            assert x.var() == pytest.approx(1.0 if name != "beta:2:5"
                                            else parse_spec(name).variance,
                                            rel=0.05), name

    def test_laplace_standardized_abs_mean(self):
        x = sample(parse_spec("laplace"), 100_000, 3)
        assert np.mean(np.abs(x)) == pytest.approx(1.0 / math.sqrt(2.0), rel=0.02)

    def test_beta_centered(self):
        x = sample(parse_spec("beta:2:5"), 100_000, 13)
        assert abs(x.mean()) < 5e-3
        assert x.min() > -2.0 / 7.0 - 1e-12

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            sample(parse_spec("laplace"), 0, 1)
        with pytest.raises(ValueError):
            sample_block(parse_spec("laplace"), 0, (1,), 3)
        with pytest.raises(ValueError, match="n must be an integer"):
            sample(parse_spec("laplace"), 2.5, 1)
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_block(parse_spec("laplace"), 2.5, (1,), 3)
        with pytest.raises(ValueError, match="replicates must be an integer"):
            sample_block(parse_spec("laplace"), 3, (1,), 2.5)
        spec = parse_spec("laplace")
        for seed in (1.5, None, "1", True, [1, 2.5], [[1]]):
            with pytest.raises(ValueError, match="a seed must be an integer"):
                sample(spec, 3, seed)
        with pytest.raises(ValueError):
            sample(spec, 3, -1)
        # numpy integers and arrays of them seed as the ints they hold
        assert sample(spec, 3, np.int64(5)).tobytes() == \
            sample(spec, 3, 5).tobytes()
        assert sample(spec, 3, np.array([1, 2])).tobytes() == \
            sample(spec, 3, [1, 2]).tobytes()


class TestSampleBlock:
    """sample_block derives every replicate's Philox key by SeedSequence's
    arithmetic and resets one generator per block; written against numpy
    2.4.6, whose SeedSequence is kept stable by its reproducibility policy
    (NEP 19)."""

    @pytest.mark.parametrize("prefix", [
        (), (0,), (1234, 0, 0), (2**32 - 1, 3, 1), (2**32, 0, 2),
        (2**40, 1, 2), (2**70, 5), (7, 0, 2**32 - 1, 9)])
    def test_keys_are_seed_sequence_keys(self, prefix):
        keys = block_keys(prefix, 300)
        assert keys.dtype == np.uint64 and keys.shape == (300, 2)
        for r in range(300):
            expected = np.random.SeedSequence([*prefix, r]).generate_state(
                2, np.uint64)
            assert keys[r].tolist() == expected.tolist(), r

    @pytest.mark.parametrize("name", FINITE_VAR + ("cauchy",))
    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_rows_are_sample_rows(self, name, n):
        spec = parse_spec(name)
        rows = sample_block(spec, n, (2026, 4, 1), 12)
        assert rows.shape == (12, n)
        for r in range(12):
            assert rows[r].tobytes() == \
                sample(spec, n, [2026, 4, 1, r]).tobytes(), r

    @pytest.mark.parametrize("prefix", [(-1,), (1.5,), ("a",)])
    def test_prefix_must_hold_non_negative_ints(self, prefix):
        with pytest.raises(ValueError):
            block_keys(prefix, 3)


class TestDensities:
    def test_densities_integrate_to_one(self):
        for name in FINITE_VAR + ("cauchy",):
            spec = parse_spec(name)
            lo, hi = spec.support
            mass = integrate.quad(spec.density, lo, 0.1, limit=200)[0] \
                + integrate.quad(spec.density, 0.1, hi, limit=200)[0]
            assert mass == pytest.approx(1.0, abs=1e-7), name

    def test_standardized_unit_variance_by_quadrature(self):
        for name in ("gaussian", "laplace", "gg:0.5", "gg:4", "uniform",
                     "arcsine", "triangular"):
            spec = parse_spec(name)
            lo, hi = spec.support
            var = integrate.quad(lambda x: x * x * spec.density(x), lo, 0,
                                 limit=200)[0] \
                + integrate.quad(lambda x: x * x * spec.density(x), 0, hi,
                                 limit=200)[0]
            assert var == pytest.approx(1.0, abs=1e-8), name

    @pytest.mark.parametrize("spec", DENSITY_SPECS, ids=lambda s: s.name + (
        "" if s.standardized else "-raw"))
    def test_float_density_at_edges_is_array_element(self, spec):
        for x in _density_points(spec):
            _assert_float_density_is_array_element(spec, x)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(DENSITY_SPECS), st.floats(-12.0, 12.0))
    def test_float_density_is_array_element(self, spec, x):
        _assert_float_density_is_array_element(spec, x)


class TestShapeSummaries:
    def test_gg_kurtosis_anchors(self):
        assert gg_kurtosis(1.0) == pytest.approx(3.0, abs=1e-12)
        assert gg_kurtosis(2.0) == pytest.approx(0.0, abs=1e-12)
        assert gg_kurtosis(4.0) == pytest.approx(-0.8117, abs=5e-4)
        # stated gamma-ratio expression; the raw (non-excess) kurtosis
        # at beta = 0.5 is 25.2, so the excess form gives 22.2
        assert gg_kurtosis(0.5) == pytest.approx(22.2, abs=1e-10)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_gg_kurtosis_needs_a_positive_shape(self, beta):
        with pytest.raises(ValueError, match="beta must be > 0"):
            gg_kurtosis(beta)

    def test_gaussian_row(self):
        s = shape_summary(parse_spec("gaussian"))
        assert s.gamma3 == 0.0 and s.gamma4 == 0.0
        assert s.contrexcess == pytest.approx(0.577, abs=5e-4)
        assert s.entropy_coeff == pytest.approx(ENTROPY_COEFF_MAX, rel=1e-12)
        assert s.entropy_coeff == pytest.approx(2.0663, abs=1e-4)

    def test_laplace_row(self):
        s = shape_summary(parse_spec("laplace"))
        assert s.gamma4 == 3.0
        assert s.contrexcess == pytest.approx(0.408, abs=5e-4)
        # exact value e/sqrt(2); reference tables print the rounded 1.93
        assert s.entropy_coeff == pytest.approx(math.e / math.sqrt(2.0), rel=1e-12)
        assert s.entropy_coeff == pytest.approx(1.93, abs=0.01)

    def test_uniform_row(self):
        s = shape_summary(parse_spec("uniform"))
        assert s.contrexcess == pytest.approx(0.745, abs=5e-4)
        assert s.entropy_coeff == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_arcsine_and_triangular_rows(self):
        s = shape_summary(parse_spec("arcsine"))
        assert s.contrexcess == pytest.approx(0.816, abs=5e-4)
        assert s.entropy_coeff == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)),
                                                rel=1e-12)
        t = shape_summary(parse_spec("triangular"))
        assert t.gamma4 == -0.6
        assert t.entropy_coeff == pytest.approx(math.sqrt(6.0 * math.e) / 2.0,
                                                rel=1e-12)

    def test_beta_cumulants(self):
        s = shape_summary(parse_spec("beta:2:5"))
        assert s.gamma3 == pytest.approx(0.596, abs=5e-4)
        assert s.gamma4 == pytest.approx(-0.12, abs=1e-12)

    def test_cauchy_flags(self):
        s = shape_summary(parse_spec("cauchy"))
        assert s.gamma3 is None and s.gamma4 is None
        assert s.contrexcess is None and s.entropy_coeff is None
        # entropy itself stays finite: H = ln(4 pi)
        assert s.entropic_error == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_entropy_coefficient_upper_bound(self):
        for name in FINITE_VAR:
            k = shape_summary(parse_spec(name)).entropy_coeff
            assert k <= ENTROPY_COEFF_MAX + 1e-9, name
            if name != "gaussian":
                assert k < ENTROPY_COEFF_MAX - 1e-9, name

    def test_gg_curve_through_canonical_points(self):
        betas = np.arange(0.5, 8.0 + 1e-9, 0.01)
        ks = [shape_summary(parse_spec(f"gg:{b}")).entropy_coeff for b in betas]
        assert max(abs(np.diff(ks))) < 0.03  # continuous along the family
        assert shape_summary(parse_spec("gg:1")).entropy_coeff == \
            pytest.approx(math.e / math.sqrt(2.0), rel=1e-12)
        assert shape_summary(parse_spec("gg:2")).entropy_coeff == \
            pytest.approx(ENTROPY_COEFF_MAX, rel=1e-12)
        # the uniform limit is approached at O(1/beta): gap 0.026 at beta=64
        assert shape_summary(parse_spec("gg:64")).entropy_coeff == \
            pytest.approx(math.sqrt(3.0), abs=0.03)
        assert shape_summary(parse_spec("gg:256")).entropy_coeff == \
            pytest.approx(math.sqrt(3.0), abs=0.01)

    def test_entropy_closed_forms_match_quadrature(self):
        for name in ("gaussian", "laplace", "uniform", "arcsine", "triangular",
                     "gg:1.5", "beta:2:5"):
            spec = parse_spec(name)
            lo, hi = spec.support

            def nlogf(x):
                v = spec.density(x)
                return np.where(v > 0.0, -v * np.log(np.maximum(v, 1e-300)), 0.0)

            h = integrate.quad(nlogf, lo, 0.0, limit=200)[0] \
                + integrate.quad(nlogf, 0.0, hi, limit=200)[0]
            assert differential_entropy(spec) == pytest.approx(h, abs=1e-7), name
