import math
import warnings

import numpy as np
import pytest

from fracmom import (
    BASELINE_IDS,
    NonFiniteInput,
    huber_location,
    median_of_means,
    parse_spec,
    run_baseline,
    sample,
    trimmed_mean,
    winsorized_mean,
)
from fracmom.baselines import baseline_rows, mean_rows

OUTLIER_SAMPLE = np.array([1.0, 2.0, 3.0, 4.0, 100.0])


class TestTrimmedMean:
    def test_outlier_example(self):
        assert trimmed_mean(OUTLIER_SAMPLE, 0.2) == pytest.approx(3.0)

    def test_zero_fraction_is_mean(self):
        x = np.array([1.0, 5.0, -2.0, 8.0])
        assert trimmed_mean(x, 0.0) == pytest.approx(float(np.mean(x)), abs=0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            trimmed_mean(OUTLIER_SAMPLE, 0.5)


class TestWinsorizedMean:
    def test_outlier_example(self):
        # clamps to {2,2,3,4,4}
        assert winsorized_mean(OUTLIER_SAMPLE, 0.2) == pytest.approx(3.0)

    def test_zero_fraction_is_mean(self):
        x = np.array([3.0, 1.0, 7.0])
        assert winsorized_mean(x, 0.0) == pytest.approx(float(np.mean(x)), abs=0)

    def test_symmetric_sample_fixed_point(self):
        x = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        assert winsorized_mean(x, 0.2) == pytest.approx(0.0, abs=1e-15)

    def test_input_not_mutated(self):
        x = OUTLIER_SAMPLE.copy()
        winsorized_mean(x, 0.2)
        assert np.array_equal(x, OUTLIER_SAMPLE)


class TestHuberLocation:
    def test_symmetric_sample(self):
        assert huber_location([-1.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_huge_tuning_recovers_mean(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        assert huber_location(x, tuning_c=1e9) == pytest.approx(
            float(np.mean(x)), rel=1e-9)

    def test_zero_mad_returns_median(self):
        assert huber_location([5.0, 5.0, 5.0, 9.0]) == 5.0

    def test_against_brute_force_loss_minimizer(self):
        # oracle: dense grid minimization of the Huber loss with the same
        # fixed scale
        x = OUTLIER_SAMPLE
        c = 1.345
        s = 1.4826 * np.median(np.abs(x - np.median(x)))
        k = c * s

        def loss(mu):
            r = np.abs(x[None, :] - mu[:, None])
            return np.where(r <= k, 0.5 * r * r, k * (r - 0.5 * k)).sum(axis=1)

        grid = np.linspace(0.0, 10.0, 2_000_001)
        oracle = grid[np.argmin(loss(grid))]
        assert huber_location(x, c) == pytest.approx(oracle, abs=1e-4)

    def test_invalid_tuning(self):
        with pytest.raises(ValueError):
            huber_location([1.0, 2.0], tuning_c=0.0)

    def test_nan_tuning_refused(self):
        # a NaN c made every weight 1, and so returned the mean
        with pytest.raises(ValueError):
            huber_location([1.0, 2.0, 7.0], tuning_c=math.nan)


class TestMedianOfMeans:
    def test_contiguous_blocking_example(self):
        # groups {1,2}, {3,4}, {100} -> means {1.5, 3.5, 100} -> median 3.5
        assert median_of_means(OUTLIER_SAMPLE, 3) == pytest.approx(3.5)

    def test_single_block_is_mean(self):
        assert median_of_means(OUTLIER_SAMPLE, 1) == pytest.approx(
            float(np.mean(OUTLIER_SAMPLE)))

    def test_n_blocks_is_median(self):
        assert median_of_means(OUTLIER_SAMPLE, 5) == pytest.approx(
            float(np.median(OUTLIER_SAMPLE)))

    def test_default_block_count(self):
        x = sample(parse_spec("laplace"), 100, 1)
        assert median_of_means(x) == pytest.approx(median_of_means(x, 10))

    def test_deterministic_for_fixed_order(self):
        x = sample(parse_spec("gg:1.5"), 64, 9)
        assert median_of_means(x, 8) == median_of_means(x, 8)

    def test_block_validation(self):
        with pytest.raises(ValueError):
            median_of_means(OUTLIER_SAMPLE, 0)
        with pytest.raises(ValueError):
            median_of_means(OUTLIER_SAMPLE, 6)

    @pytest.mark.parametrize("blocks", [2.0, 2.5, True, "2"])
    def test_blocks_must_be_an_integer(self, blocks):
        # a float failed inside the slicing with a TypeError, and True was
        # taken as one block
        with pytest.raises(ValueError, match="blocks must be an integer"):
            median_of_means(OUTLIER_SAMPLE, blocks)
        assert median_of_means(OUTLIER_SAMPLE, np.int64(3)) == \
            median_of_means(OUTLIER_SAMPLE, 3)


class TestDispatch:
    def test_examples(self):
        assert run_baseline("median", OUTLIER_SAMPLE) == pytest.approx(3.0)
        assert run_baseline("mean", [1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_all_ids_run(self):
        x = sample(parse_spec("laplace"), 40, 4)
        for name in BASELINE_IDS:
            assert np.isfinite(run_baseline(name, x))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_alone_and_nan_in_a_batch(self, value):
        x = sample(parse_spec("laplace"), 20, 5)
        bad = x.copy()
        bad[3] = value
        for fn in (lambda s: trimmed_mean(s, 0.1),
                   lambda s: winsorized_mean(s, 0.1), huber_location,
                   median_of_means,
                   *(lambda s, n=n: run_baseline(n, s) for n in BASELINE_IDS)):
            with pytest.raises(NonFiniteInput):
                fn(bad)
        rows = baseline_rows(np.stack([x, bad, x]))
        for name in BASELINE_IDS:
            assert math.isnan(rows[name][1]), name
            assert rows[name][0] == rows[name][2] == run_baseline(name, x)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_baseline("mode", [1.0, 2.0])

    def test_translation_and_negation_invariance(self):
        x = sample(parse_spec("gg:1.5"), 101, 13)
        for name in BASELINE_IDS:
            base = run_baseline(name, x)
            assert run_baseline(name, x + 9.75) == pytest.approx(
                base + 9.75, abs=1e-12)
            assert run_baseline(name, -x) == pytest.approx(-base, abs=1e-12)


def test_averages_of_finite_values_near_the_float_limit():
    # the block and trimmed sums overflow; every average is mean_rows',
    # which stays inside the data, and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sign in (1.0, -1.0):
            x = np.full(16, sign * 1e308)
            for name in BASELINE_IDS:
                assert run_baseline(name, x) == sign * 1e308, name
            assert trimmed_mean(x[:10], 0.1) == sign * 1e308
            assert winsorized_mean(x[:10], 0.1) == sign * 1e308
            assert median_of_means(x) == sign * 1e308


def test_mean_rows_is_np_mean_on_trimmed_slices_and_blocks():
    # the slices and block reshapes the baselines hand to mean_rows, and a
    # sample as one row, as the plug-in calibrator centres it
    rng = np.random.default_rng(2024)
    for n in range(1, 300):
        x = rng.standard_t(2, size=n)
        assert mean_rows(x[None, :])[0].hex() == np.mean(x).hex()
    for scale in (1e-5, 1.0, 1e4):
        for n in (7, 16, 50, 101):
            s = np.sort(scale * rng.standard_t(2, size=(5, n)), axis=-1)
            for k in range(n // 2):
                part = s[:, k:n - k]
                assert mean_rows(part).tobytes() == \
                    np.mean(part, axis=-1).tobytes()
            for blocks in (1, 2, 3, math.ceil(math.sqrt(n)), n):
                q, longer = divmod(n, blocks)
                cut = longer * (q + 1)
                for part in (s[:, :cut].reshape(5, longer, q + 1),
                             s[:, cut:].reshape(5, blocks - longer, q)):
                    assert mean_rows(part).tobytes() == \
                        np.mean(part, axis=-1).tobytes()
