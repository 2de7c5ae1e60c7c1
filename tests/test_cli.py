import hashlib
import json

import pytest

from fracmom import default_design, sample, parse_spec
from fracmom.cli import cli_main, read_data_file


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    x = sample(parse_spec("laplace"), 120, 42)
    lines = ["# laplace draws"] + [repr(float(v)) for v in x]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestDataFile:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.5\n\n# note\n2.5  # trailing\n-3.0\n", encoding="utf-8")
        assert read_data_file(path) == pytest.approx([1.5, 2.5, -3.0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# nothing\n", encoding="utf-8")
        assert cli_main(["estimate", "--data", str(path), "--alpha", "0.3"]) == 2


class TestSweepCommand:
    def test_argmin_row_at_fractal_end(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_main(["sweep", "--dist", "laplace", "--step", "0.05",
                         "--band", "0.05", "--out", str(out)])
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        values = [(float(a), float(g)) for a, g, _ in rows]
        best = min(values, key=lambda t: t[1])
        assert best[0] == 0.0
        assert "argmin alpha=0" in capsys.readouterr().out

    def test_cauchy_sweep_is_runtime_error(self, tmp_path):
        code = cli_main(["sweep", "--dist", "cauchy", "--out",
                         str(tmp_path / "x.csv")])
        assert code == 2


    @pytest.mark.parametrize("band", ["0.6", "nan", "-0.1"])
    def test_band_that_leaves_no_grid_is_runtime_error(self, capsys, band):
        assert cli_main(["sweep", "--dist", "laplace", "--band", band]) == 2
        assert capsys.readouterr().err == (
            "error: band must be finite, >= 0 and leave a point of the alpha "
            f"grid, got {float(band)}\n")


class TestEstimateCommand:
    def test_degenerate_alpha_records_fallback(self, data_file, capsys):
        assert cli_main(["estimate", "--data", str(data_file),
                         "--alpha", "0.5"]) == 0
        assert "method=ols_fallback" in capsys.readouterr().out

    def test_dist_file_alias(self, data_file, capsys):
        assert cli_main(["estimate", "--dist-file", str(data_file),
                         "--alpha", "0.05", "--method", "proxy"]) == 0
        assert "method=proxy" in capsys.readouterr().out

    def test_full_and_proxy_methods(self, data_file, tmp_path, capsys):
        assert cli_main(["estimate", "--data", str(data_file), "--alpha", "0.05",
                         "--method", "proxy"]) == 0
        assert "method=proxy" in capsys.readouterr().out
        assert cli_main(["estimate", "--data", str(data_file), "--alpha", "0.05",
                         "--method", "full"]) == 0
        assert "method=full" in capsys.readouterr().out
        path = tmp_path / "four.txt"
        path.write_text("1\n2.5\n-0.5\n3\n", encoding="utf-8")
        assert cli_main(["estimate", "--data", str(path), "--alpha", "0.3",
                         "--method", "ols"]) == 0
        assert capsys.readouterr().out == (
            "theta_hat=1.5 method=ols_fallback iters=0 converged=1\n")

    def test_missing_file_is_runtime_error(self):
        assert cli_main(["estimate", "--data", "no-such-file.txt",
                         "--alpha", "0.3"]) == 2

    def test_missing_flag_is_usage_error(self, data_file):
        assert cli_main(["estimate", "--data", str(data_file)]) == 1

    def test_unknown_command_is_usage_error(self):
        assert cli_main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ")


class TestMcCommand:
    def test_flag_design(self, tmp_path):
        out = tmp_path / "mc"
        code = cli_main(["mc", "--dist", "laplace", "--n", "30", "--alpha",
                         "0.05", "--replicates", "25", "--seed", "3",
                         "--estimators", "ols", "proxy", "--out", str(out)])
        assert code == 0
        lines = (out / "mc_results.csv").read_text().splitlines()
        assert lines[0].startswith("distribution,n,alpha")
        assert len(lines) == 1 + 2  # ols + one proxy cell

    def test_unknown_estimator_is_usage_error(self, tmp_path):
        out = tmp_path / "mc"
        code = cli_main(["mc", "--dist", "laplace", "--n", "50", "--alpha",
                         "0.05", "--replicates", "10", "--estimators",
                         "huber", "--out", str(out)])
        assert code == 1
        assert not (out / "mc_results.csv").exists()

    def test_json_design(self, tmp_path):
        design = {"distributions": ["gg:1.5"], "n_values": [25],
                  "alpha_values": [0.95], "replicates": 20, "base_seed": 9,
                  "estimators": ["ols", "full"]}
        dfile = tmp_path / "design.json"
        dfile.write_text(json.dumps(design), encoding="utf-8")
        out = tmp_path / "mc"
        assert cli_main(["mc", "--design", str(dfile), "--out", str(out)]) == 0
        body = (out / "mc_results.csv").read_text()
        assert "gg:1.5" in body

    def test_design_fields_default(self, tmp_path):
        design = {"n_values": [20], "alpha_values": [0.05], "replicates": 10,
                  "estimators": ["ols"]}
        dfile = tmp_path / "design.json"
        dfile.write_text(json.dumps(design), encoding="utf-8")
        out = tmp_path / "mc"
        assert cli_main(["mc", "--design", str(dfile), "--out", str(out)]) == 0
        rows = (out / "mc_results.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == \
            [s.name for s in default_design().distributions]

    @pytest.mark.parametrize("change", [
        {"n_value": [25]},
        {"estimators": ["huber"]},
        {"alpha_values": [1.5]},
        {"alpha_values": ["0.3", "0.7"]},
        {"replicates": 0},
        None,
    ], ids=["unknown-key", "estimator", "alpha", "alpha-strings", "replicates",
            "not-object"])
    def test_bad_design_is_usage_error(self, tmp_path, capsys, change):
        design = {"distributions": ["laplace"], "n_values": [20],
                  "alpha_values": [0.05], "replicates": 10, "base_seed": 3,
                  "estimators": ["ols"]}
        design = [design] if change is None else {**design, **change}
        dfile = tmp_path / "design.json"
        dfile.write_text(json.dumps(design), encoding="utf-8")
        out = tmp_path / "mc"
        assert cli_main(["mc", "--design", str(dfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", [
        ["--dist", "cauchy"], ["--n", "30"], ["--alpha", "0.3"],
        ["--replicates", "5"], ["--seed", "4"], ["--estimators", "proxy"],
    ], ids=lambda f: f[0])
    def test_design_file_with_flags_is_usage_error(self, tmp_path, capsys,
                                                   flag):
        design = {"distributions": ["laplace"], "n_values": [20],
                  "alpha_values": [0.05], "replicates": 10,
                  "estimators": ["ols"]}
        dfile = tmp_path / "design.json"
        dfile.write_text(json.dumps(design), encoding="utf-8")
        out = tmp_path / "mc"
        assert cli_main(["mc", "--design", str(dfile), *flag,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert flag[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"replicates": 2.7}, {"replicates": True}, {"n_values": [20.5]},
        {"n_values": [True]}, {"base_seed": 3.5}, {"base_seed": False},
        {"replicates": "10"},
    ], ids=["replicates-2.7", "replicates-true", "n-20.5", "n-true",
            "seed-3.5", "seed-false", "replicates-string"])
    def test_design_counts_must_be_whole(self, tmp_path, capsys, change):
        design = {"distributions": ["laplace"], "n_values": [20],
                  "alpha_values": [0.05], "replicates": 10, "base_seed": 3,
                  "estimators": ["ols"], **change}
        dfile = tmp_path / "design.json"
        dfile.write_text(json.dumps(design), encoding="utf-8")
        out = tmp_path / "mc"
        assert cli_main(["mc", "--design", str(dfile), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_integral_float_counts_accepted(self, tmp_path):
        design = {"distributions": ["laplace"], "n_values": [20.0],
                  "alpha_values": [0.05], "replicates": 10.0,
                  "base_seed": 3.0, "estimators": ["ols"]}
        dfile = tmp_path / "design.json"
        dfile.write_text(json.dumps(design), encoding="utf-8")
        out = tmp_path / "mc"
        assert cli_main(["mc", "--design", str(dfile), "--out", str(out)]) == 0
        row = (out / "mc_results.csv").read_text().splitlines()[1].split(",")
        assert (row[1], row[-2], row[-1]) == ("20", "10", "3")

    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_zero_n_is_usage_error(self, tmp_path, capsys, source):
        out = tmp_path / "dd"
        if source == "flags":
            argv = ["mc", "--dist", "laplace", "--n", "0", "--alpha", "0.05"]
        else:
            dfile = tmp_path / "design.json"
            dfile.write_text(json.dumps({"n_values": [0]}), encoding="utf-8")
            argv = ["mc", "--design", str(dfile)]
        assert cli_main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_non_finite_shape_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli_main(["mc", "--dist", "gg:nan", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["mc", "--alpha", "0.05", "--estimators", "ols"],
        ["baselines"],
    ], ids=["mc", "baselines"])
    def test_zero_replicates_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = cli_main(argv + ["--dist", "laplace", "--n", "20",
                                "--replicates", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()


class TestBaselinesCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "b"
        code = cli_main(["baselines", "--dist", "laplace", "--n", "40",
                         "--replicates", "50", "--seed", "2", "--out", str(out)])
        assert code == 0
        header = (out / "baselines.csv").read_text().splitlines()[0]
        assert header.endswith("rel_mse_vs_mean")


class TestCalibrateCommand:
    def test_oracle(self, tmp_path, capsys):
        out = tmp_path / "cal.csv"
        assert cli_main(["calibrate", "--dist", "gg:4", "--criterion", "oracle",
                         "--out", str(out)]) == 0
        assert "alpha_star=1" in capsys.readouterr().out
        assert out.read_text().splitlines()[-1].startswith("# alpha_star=")

    def test_plugin(self, data_file, capsys):
        assert cli_main(["calibrate", "--data", str(data_file), "--criterion",
                         "plugin", "--bootstrap", "30"]) == 0
        assert "criterion=plugin" in capsys.readouterr().out

    def test_oracle_needs_dist(self):
        assert cli_main(["calibrate", "--criterion", "oracle"]) == 1

    def test_plugin_needs_data(self):
        assert cli_main(["calibrate", "--criterion", "plugin"]) == 1

    def test_grid_uses_bootstrap_count(self, data_file, capsys):
        assert cli_main(["calibrate", "--data", str(data_file), "--criterion",
                         "grid", "--bootstrap", "30"]) == 2
        assert "bootstrap_b must be >= 100" in capsys.readouterr().err

    @pytest.mark.parametrize("criterion", ["oracle", "plugin", "grid"])
    def test_band_that_leaves_no_grid_is_runtime_error(self, data_file,
                                                       capsys, criterion):
        assert cli_main(["calibrate", "--dist", "laplace", "--data",
                         str(data_file), "--criterion", criterion,
                         "--band", "0.6"]) == 2
        assert capsys.readouterr().err == (
            "error: band must be finite, >= 0 and leave a point of the alpha "
            "grid, got 0.6\n")

    @pytest.mark.parametrize("count", ["-1", "-5"])
    def test_plugin_refuses_negative_bootstrap(self, data_file, capsys,
                                               count):
        assert cli_main(["calibrate", "--data", str(data_file), "--criterion",
                         "plugin", "--bootstrap", count]) == 2
        assert "bootstrap_b must be >= 0" in capsys.readouterr().err


# sha256 of every reproduce-all CSV at --seed 11 --replicates 25; a change
# that alters results on purpose updates them and says so
REPRODUCE_DIGESTS = {
    "baselines.csv":
        "ef5bef9944fdd0522ec3ab7cd46353a7c4b4f25625bf164582c135edd93e4d18",
    "calibrate_oracle_laplace.csv":
        "33957d53398367f54a411955c559c1ac822cbf6462606ebb0d6ca504000ce372",
    "mc_results.csv":
        "c5917c64eaebeae9a8c947e037e086de53f4d31d15a9171a3f17d9f2eb4d20a0",
    "sweep_beta_2_5.csv":
        "24340c2318717648cc6022f9b7f174330b7867c48761e40ad4046f20df73b8a1",
    "sweep_gaussian.csv":
        "46b36f6e0c4d008ac705f6eab8f13c7eac320564222fc82131675471d6ba2279",
    "sweep_gg_0.5.csv":
        "581d40d9d73d1dc3e38a0962f0bf86925a73b5e12641ce6007c5e487df766864",
    "sweep_gg_1.5.csv":
        "5f1ea91541324715e0620471ecab5f2ed0795649a5d559db3aaa478f0dbd290e",
    "sweep_gg_4.csv":
        "98c2146b25989c7c450504e2edf87e68ea138e765bdc294fbdf0eb70710ccbbe",
    "sweep_laplace.csv":
        "0e8062cdc82909551a693b57ad07da90e069711006dd5749a189b3d590a87ae1",
    "topographic.csv":
        "68bf57fafdeb3fb98192bcb6762426e615c9c0cb2bea42a5f789b46987b225a2",
}


class TestReproduceAll:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert cli_main(["reproduce-all", "--out", str(out), "--seed",
                             "11", "--replicates", "25"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert "mc_results.csv" in names and "baselines.csv" in names
        assert any(n.startswith("sweep_") for n in names)
        assert "topographic.csv" in names
        assert "bench.csv" not in names
        assert names == sorted(REPRODUCE_DIGESTS)
        for name in names:
            data = (out1 / name).read_bytes()
            assert data == (out2 / name).read_bytes(), name
            assert hashlib.sha256(data).hexdigest() == \
                REPRODUCE_DIGESTS[name], name
