import json

import pytest

from fracmom import sample, parse_spec
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


class TestEstimateCommand:
    def test_degenerate_alpha_records_fallback(self, data_file, capsys):
        assert cli_main(["estimate", "--data", str(data_file),
                         "--alpha", "0.5"]) == 0
        assert "method=ols_fallback" in capsys.readouterr().out

    def test_dist_file_alias(self, data_file, capsys):
        assert cli_main(["estimate", "--dist-file", str(data_file),
                         "--alpha", "0.05", "--method", "proxy"]) == 0
        assert "method=proxy" in capsys.readouterr().out

    def test_full_and_proxy_methods(self, data_file, capsys):
        assert cli_main(["estimate", "--data", str(data_file), "--alpha", "0.05",
                         "--method", "proxy"]) == 0
        assert "method=proxy" in capsys.readouterr().out
        assert cli_main(["estimate", "--data", str(data_file), "--alpha", "0.05",
                         "--method", "full"]) == 0
        assert "method=full" in capsys.readouterr().out

    def test_missing_file_is_runtime_error(self):
        assert cli_main(["estimate", "--data", "no-such-file.txt",
                         "--alpha", "0.3"]) == 2

    def test_missing_flag_is_usage_error(self, data_file):
        assert cli_main(["estimate", "--data", str(data_file)]) == 1

    def test_unknown_command_is_usage_error(self):
        assert cli_main(["frobnicate"]) == 1


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


class TestBenchCommand:
    def test_writes_records(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli_main(["bench", "--n", "100", "1000", "--batch", "10",
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) >= 3


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
        for name in names:
            if name == "bench.csv":  # wall-clock timings differ by design
                continue
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
