"""Self-tests of the benchmark; they run the workloads, so they take one to
two minutes:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_benchmark_json_names_what_the_benchmark_reports():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(PER_LAYER)


def test_two_traced_runs_of_one_seed_give_identical_counts(tmp_path):
    deadline = time.monotonic() + 170
    first, second = (run.run_child("mc_design", 5, True, tmp_path / str(i),
                                   deadline) for i in range(2))
    counts = [{k: v for k, v in rec["layers"].items() if not k.endswith("_s")}
              for rec in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["basis.basis_value.calls"] > 0
    assert first["digest"] == second["digest"]
    assert not first["failures"] and not first["missing_bindings"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_second_seed_passes_every_output_check(workload):
    proc = _run_benchmark(ROOT, "--workload", workload, "--seed", "99",
                          "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m for m, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(workloads.inputs_digest(sys.argv[2], int(sys.argv[3])))")

    def digest(seed: int, cwd: Path, **extra: str) -> str:
        env = {**run.child_env(), **extra}
        return subprocess.run(
            [sys.executable, "-c", code, str(BENCH), workload, str(seed)],
            cwd=cwd, env=env, capture_output=True, text=True, check=True,
            timeout=120).stdout.strip()

    base = digest(3, ROOT)
    assert digest(3, tmp_path, FRACMOM_WORKERS="2", PYTHONHASHSEED="1") == base
    assert digest(4, ROOT) != base


def test_reference_check_catches_a_shifted_value(tmp_path):
    for name in run.REFERENCE_CSVS:
        shutil.copy(run.REFERENCE / name, tmp_path / name)
    assert run.compare_reference(tmp_path) == []
    path = tmp_path / "mc_results.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) * (1.0 + 1e-9))  # the var column
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(run.compare_reference(tmp_path)) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, "--workload", "large_n", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
