import time
from dataclasses import replace

import numpy as np
import pytest

from fracmom import (
    McDesign,
    abs_moment,
    default_design,
    estimate_full,
    estimate_proxy,
    g2_closed_form,
    parse_spec,
    run_baseline,
    run_baseline_mc,
    run_mc,
    sample,
    second_exponent,
    theoretical_moments,
    write_baseline_csv,
    write_mc_csv,
)
from fracmom import moments, montecarlo

SMALL = McDesign((parse_spec("laplace"), parse_spec("beta:2:5")), (40, 80),
                 (0.05, 0.95), replicates=60, base_seed=99)


@pytest.fixture(scope="module")
def small_records():
    return run_mc(SMALL)


class TestRunMc:
    def test_cell_count(self, small_records):
        # per (dist, n): 1 ols row + 2 estimators x 2 alphas
        assert len(small_records) == 2 * 2 * (1 + 2 * 2)

    def test_mse_identity(self, small_records):
        for r in small_records:
            if r.mse is not None:
                assert r.mse == pytest.approx(r.var + r.bias**2, rel=1e-12)

    def test_are_and_g2_are_reciprocal(self, small_records):
        for r in small_records:
            if r.are is not None and r.g2_emp is not None:
                assert r.are * r.g2_emp == pytest.approx(1.0, rel=1e-12)

    def test_ols_rows_have_no_alpha(self, small_records):
        ols = [r for r in small_records if r.estimator == "ols"]
        assert len(ols) == 4
        assert all(r.alpha is None and r.are == 1.0 for r in ols)

    def test_replicates_recorded(self, small_records):
        assert all(r.replicates == 60 for r in small_records)

    def test_deterministic_rerun(self, small_records):
        assert run_mc(SMALL) == small_records

    def test_worker_count_independence(self, small_records):
        assert run_mc(SMALL, workers=4) == small_records

    @pytest.mark.parametrize("workers", ["3", 2.7, True])
    def test_workers_must_be_an_integer(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_mc(SMALL, workers=workers)
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_baseline_mc(SMALL, workers=workers)

    def test_g2_theo_populated_for_estimator_cells(self, small_records):
        for r in small_records:
            if r.estimator in ("proxy", "full"):
                assert r.g2_theo is not None and r.g2_theo > 0.0

    def test_g2_reference_computes_c2_once_per_distribution(self,
                                                           monkeypatch):
        expected = {(spec.name, a): g2_closed_form(
            theoretical_moments(spec, second_exponent(a)))
            for spec in SMALL.distributions for a in SMALL.alpha_values}
        orders = []

        def counted(spec, q):
            orders.append(q)
            return abs_moment(spec, q)

        for module in (moments, montecarlo):
            monkeypatch.setattr(module, "abs_moment", counted)
        records = run_mc(replace(SMALL, n_values=(40,), replicates=2))
        # per distribution: c2, then three orders at each of the 2 alphas
        assert len(orders) == 2 * (1 + 3 * 2)
        for r in records:
            if r.estimator in ("proxy", "full"):
                assert r.g2_theo == expected[r.distribution, r.alpha]

    def test_gaussian_proxy_near_sandwich_prediction(self):
        # the scalar signed-power root has its own asymptotic efficiency,
        # c2 (p nu_{p-1})^2 / nu_{2p}; on Gaussian noise this is 1 only at
        # the all-linear point
        from fracmom import abs_moment, second_exponent
        spec = parse_spec("gaussian")
        design = McDesign((spec,), (500,), (0.3, 0.95), replicates=1000,
                          base_seed=1234, estimators=("ols", "proxy"))
        recs = {r.alpha: r for r in run_mc(design) if r.estimator == "proxy"}
        for alpha, rec in recs.items():
            p = second_exponent(alpha)
            sandwich = (p * abs_moment(spec, p - 1.0)) ** 2 / abs_moment(spec, 2.0 * p)
            assert rec.are == pytest.approx(sandwich, rel=0.10)
        assert 0.9 <= recs[0.3].are <= 1.1


class TestDesignValidation:
    def test_unknown_estimator_and_bad_alpha_rejected(self):
        laplace = (parse_spec("laplace"),)
        with pytest.raises(ValueError, match="huber"):
            McDesign(laplace, (50,), (0.05,), replicates=10,
                     estimators=("ols", "huber"))
        with pytest.raises(ValueError, match="alpha"):
            McDesign(laplace, (50,), (0.05, 1.5), replicates=10)

    @pytest.mark.parametrize("dists", [("laplace",), (None,),
                                       (parse_spec("laplace"), "gg:4")])
    def test_distributions_must_be_specs(self, dists):
        # a name where a spec belongs failed inside run_mc with a raw
        # AttributeError
        with pytest.raises(ValueError, match="DistributionSpec"):
            McDesign(dists, (10,), (0.05,), replicates=2)

    @pytest.mark.parametrize("field", ["distributions", "n_values",
                                       "estimators"])
    @pytest.mark.parametrize("value", [None, 3, np.array(10)])
    def test_fields_must_be_iterable(self, field, value):
        # they failed with a raw TypeError, "object is not iterable"
        fields = dict(distributions=(parse_spec("laplace"),), n_values=(10,),
                      alpha_values=(0.05,), replicates=2)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a sequence"):
            McDesign(**fields)

    def test_sample_size_below_one_rejected(self):
        laplace = (parse_spec("laplace"),)
        for n_values in ((0,), (50, -3)):
            with pytest.raises(ValueError, match="n must be >= 1"):
                McDesign(laplace, n_values, (0.05,), replicates=10)
        McDesign(laplace, (1,), (0.05,), replicates=10)

    @pytest.mark.parametrize("n_values, replicates", [
        ((50,), 2.5), ((50,), "a"), ((2.5,), 10), ((50, True), 10)])
    def test_counts_must_be_integers(self, n_values, replicates):
        with pytest.raises(ValueError, match="must be an integer"):
            McDesign((parse_spec("laplace"),), n_values, (0.05,),
                     replicates=replicates)

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True, None])
    def test_base_seed_must_be_a_non_negative_int(self, seed):
        # -1, 1.5 and "a" used to fail only inside numpy, once run_mc drew
        with pytest.raises(ValueError, match="base_seed"):
            McDesign((parse_spec("laplace"),), (5,), (0.05,), replicates=2,
                     base_seed=seed)

    def test_base_seed_beyond_one_word_keys_each_replicate(self):
        # 2**40 is two uint32 words of the replicate keys
        specs = (parse_spec("laplace"), parse_spec("gg:4"))
        design = McDesign(specs, (3, 8), (0.05,), replicates=4,
                          base_seed=2**40)
        assert len(run_mc(design)) == 4 * 3
        for di, spec in enumerate(specs):
            for ni, n in enumerate(design.n_values):
                rows = montecarlo._draw_block(design, (di, ni))[2]
                expected = np.stack([sample(spec, n, [2**40, di, ni, r])
                                     for r in range(4)])
                assert rows.tobytes() == expected.tobytes()


class TestCauchyHandling:
    def test_full_refused_proxy_allowed(self):
        design = McDesign((parse_spec("cauchy"),), (50,), (0.05,),
                          replicates=40, base_seed=7,
                          estimators=("ols", "proxy", "full"))
        recs = {r.estimator: r for r in run_mc(design)}
        assert recs["full"].replicates == 0
        assert recs["full"].var is None and recs["full"].g2_theo is None
        assert recs["proxy"].replicates == 40
        assert np.isfinite(recs["proxy"].var)
        assert recs["proxy"].g2_theo is None


class TestBaselineMc:
    def test_relative_mse_column(self):
        design = McDesign((parse_spec("laplace"),), (60,), (0.05,),
                          replicates=200, base_seed=3)
        recs = run_baseline_mc(design)
        by_name = {r.estimator: r for r in recs}
        assert by_name["mean"].rel_mse == pytest.approx(1.0)
        assert by_name["median"].rel_mse < 1.0
        assert set(by_name) == {"mean", "median", "trimmed10", "winsorized10",
                                "huber", "median_of_means"}

    def test_tiny_samples_run_everywhere(self):
        design = McDesign((parse_spec("gg:1.5"),), (10,), (0.05,),
                          replicates=30, base_seed=4)
        recs = run_baseline_mc(design)
        assert all(r.replicates == 30 for r in recs)

    def test_light_tails_keep_the_mean_near_best(self):
        design = McDesign((parse_spec("gg:4"),), (100,), (0.05,),
                          replicates=500, base_seed=1234)
        for r in run_baseline_mc(design):
            assert r.rel_mse >= 0.95, r.estimator


class TestCsvEmission:
    def test_mc_csv_layout_and_determinism(self, small_records, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_mc_csv(small_records, p1)
        write_mc_csv(run_mc(SMALL), p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == ("distribution,n,alpha,estimator,var,bias,mse,"
                            "are,g2_emp,g2_theo,replicates,seed")
        # ols rows carry an empty alpha and empty g2_theo
        ols_line = next(l for l in lines[1:] if ",ols," in l)
        assert ols_line.split(",")[2] == ""

    def test_round_trip_precision(self, small_records, tmp_path):
        path = tmp_path / "mc.csv"
        write_mc_csv(small_records, path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[4]) == small_records[0].var

    def test_baseline_csv_has_relative_column(self, tmp_path):
        design = McDesign((parse_spec("laplace"),), (30,), (0.05,),
                          replicates=50, base_seed=5)
        path = tmp_path / "base.csv"
        write_baseline_csv(run_baseline_mc(design), path)
        header = path.read_text().splitlines()[0]
        assert header.endswith(",rel_mse_vs_mean")


class TestBench:
    """Per-call cost of the public estimators on seeded laplace samples."""

    TIMED = {
        "mean": lambda x: run_baseline("mean", x),
        "median": lambda x: run_baseline("median", x),
        "huber": lambda x: run_baseline("huber", x),
        "median_of_means": lambda x: run_baseline("median_of_means", x),
        "proxy": lambda x: estimate_proxy(x, 0.05),
        "full": lambda x: estimate_full(x, 0.05),
    }

    @staticmethod
    def per_call_ms(fn, n, batch=10, repeats=3, seed=7):
        """Median over repeats of the mean time of a batch of calls."""
        x = sample(parse_spec("laplace"), n, [seed, n])
        fn(x)  # warm-up
        per_call = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(batch):
                fn(x)
            per_call.append(1e3 * (time.perf_counter() - t0) / batch)
        return float(np.median(per_call))

    def test_ordering_and_scaling(self):
        times = {(name, n): self.per_call_ms(fn, n)
                 for name, fn in self.TIMED.items() for n in (1000, 10000)}
        cheapest = min(t for (e, n), t in times.items() if n == 10000)
        assert times[("mean", 10000)] == cheapest
        assert times[("proxy", 10000)] >= 10.0 * times[("mean", 10000)]
        for name in self.TIMED:
            ratio = times[(name, 10000)] / times[(name, 1000)]
            assert ratio < 20.0, name

    def test_full_estimator_scales_linearly_to_1e5(self):
        full = self.TIMED["full"]
        ratio = (self.per_call_ms(full, 100_000)
                 / self.per_call_ms(full, 10_000))
        assert ratio < 20.0

    def test_default_design_shape(self):
        d = default_design()
        assert len(d.distributions) == 4
        assert d.n_values == (50, 100, 200, 500)
        assert d.alpha_values == (0.05, 0.30, 0.70, 0.95)
