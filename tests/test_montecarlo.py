import numpy as np
import pytest

from fracmom import (
    McDesign,
    bench_scaling_ratios,
    default_design,
    parse_spec,
    run_baseline_mc,
    run_bench,
    run_mc,
    write_baseline_csv,
    write_bench_csv,
    write_mc_csv,
)

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

    def test_g2_theo_populated_for_estimator_cells(self, small_records):
        for r in small_records:
            if r.estimator in ("proxy", "full"):
                assert r.g2_theo is not None and r.g2_theo > 0.0

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

    def test_bench_csv_flags_nondeterminism(self, tmp_path):
        recs = run_bench((100,), estimators=("mean", "median"), batch=10,
                         repeats=2)
        path = tmp_path / "bench.csv"
        write_bench_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",nondeterministic")
        assert all(l.endswith(",1") for l in lines[1:])


class TestBench:
    def test_batch_floor(self):
        with pytest.raises(ValueError):
            run_bench((100,), batch=5)

    def test_ordering_and_scaling(self):
        recs = run_bench((1000, 10000), batch=10, repeats=3, seed=7)
        times = {(r.estimator, r.n): r.per_call_ms for r in recs}
        cheapest = min(t for (e, n), t in times.items() if n == 10000)
        assert times[("mean", 10000)] == cheapest
        assert times[("proxy", 10000)] >= 10.0 * times[("mean", 10000)]
        ratios = bench_scaling_ratios(recs)
        for est, rs in ratios.items():
            assert all(r < 20.0 for r in rs), est

    def test_full_estimator_scales_linearly_to_1e5(self):
        recs = run_bench((10_000, 100_000), estimators=("full",), batch=10,
                         repeats=3, seed=7)
        ratios = bench_scaling_ratios(recs)["full"]
        assert ratios and all(r < 20.0 for r in ratios)

    def test_default_design_shape(self):
        d = default_design()
        assert len(d.distributions) == 4
        assert d.n_values == (50, 100, 200, 500)
        assert d.alpha_values == (0.05, 0.30, 0.70, 0.95)
