"""Run one workload of the fracmom benchmark and print its metrics.

    python3 perfbench/run.py --workload mc_design --seed 7 --seconds 30 \
        --trace 0

Each repeat runs in a fresh single-threaded process (perfbench/workloads.py),
so imports, lazy set-up and module-level caches are paid as a user of
``fracmom mc`` pays them.  Repeats start until ``--seconds`` have passed
(at least MIN_REPEATS of them).  Every repeat of a run makes the same calls
on the same inputs, so each call's slowest time over the repeats is known:
``wall_s`` sums those over the body and ``*_ms_p50`` is their median.
``*_ms_p90`` is taken over every timed call of the run, and ``setup_s`` and
``peak_rss_mb`` are medians over the repeats; perfbench/README.md explains
why.  With ``--trace 1`` traced and untraced repeats alternate and the
per-layer metrics are printed instead, with the tracing overhead.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The exit code is 1 when an output check fails and 2
when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference"

WORKLOADS = ("mc_design", "large_n", "calibrate")
DEFAULT_SEED = 1234  # the seed of the reference CSVs
REFERENCE_CSVS = ("mc_results.csv", "baselines.csv")
REFERENCE_REL_TOL = 1e-12

MIN_REPEATS = 4  # untraced processes per run
MIN_PAIRS = 2  # traced/untraced pairs per traced run: counts are compared
DEADLINE_S = 170.0  # the whole run, every process included

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("full_ms_p50", "ms"),
    ("full_ms_p90", "ms"),
    ("proxy_ms_p50", "ms"),
    ("proxy_ms_p90", "ms"),
    ("huber_ms_p50", "ms"),
    ("huber_ms_p90", "ms"),
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FRACMOM_WORKERS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: bool, out: Path,
              deadline: float) -> dict:
    """One repeat in a fresh process; its last stdout line is its record."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(int(trace)),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repeat ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repeat exited with {proc.returncode}")
    return json.loads(lines[-1])


def machine_facts(versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, **versions}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 1..99, interpolated between calls."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def slowest(rows: list[list]) -> list[float]:
    """Each call's maximum over the repeats (rows), skipping failed calls."""
    out = []
    for values in zip(*rows, strict=True):
        done = [v for v in values if v is not None]
        if done:
            out.append(max(done))
    return out


def compare_reference(out: Path) -> list[str]:
    """mc_design CSVs of the default seed against the committed reference."""
    problems = []
    for name in REFERENCE_CSVS:
        with open(REFERENCE / name, newline="", encoding="utf-8") as fh:
            want = list(csv.reader(fh))
        with open(out / name, newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))
        if len(got) != len(want) or got[:1] != want[:1]:
            problems.append(f"{name}: layout differs from the reference")
            continue
        for row, (g_row, w_row) in enumerate(zip(got, want)):
            for g, w in zip(g_row, w_row):
                if g != w and not _close(g, w):
                    problems.append(f"{name} row {row}: {g} != {w}")
    return problems


def _close(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= REFERENCE_REL_TOL * max(abs(g), abs(w))


def measure(args, out_root: Path) -> tuple[list[dict], list[dict]]:
    """Untraced and traced repeat records, started until time is up."""
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        enough = (len(traced) >= MIN_PAIRS if args.trace
                  else len(plain) >= MIN_REPEATS)
        if enough and time.monotonic() - start >= args.seconds:
            return plain, traced
        for trace in ((False, True) if args.trace else (False,)):
            out = out_root / f"repeat{len(plain) + len(traced)}"
            rec = run_child(args.workload, args.seed, trace, out,
                            args.deadline)
            rec["out"] = out
            (traced if trace else plain).append(rec)


def reduce(args, plain: list[dict], traced: list[dict],
           out_root: Path) -> tuple[list[str], dict]:
    """Output checks over all repeats, and each metric to report as
    (value, sample count, unit): the count is of processes, or of calls
    for the latency percentiles."""
    records = plain + traced
    problems = [msg for rec in records for msg in rec["failures"]]
    if len({rec["digest"] for rec in records}) != 1:
        problems.append("repeats of one seed gave different outputs"
                        + (" (traced vs untraced)" if traced else ""))
    if args.workload == "mc_design":
        out = plain[0]["out"]
        if args.seed != DEFAULT_SEED:
            out = out_root / "reference_check"
            ref = run_child(args.workload, DEFAULT_SEED, False, out,
                            args.deadline)
            problems += ref["failures"]
        problems += compare_reference(out)

    if not args.trace:
        n = len(plain)
        metrics = {name: (statistics.median(r[name] for r in plain), n)
                   for name in ("setup_s", "peak_rss_mb")}
        metrics["wall_s"] = (sum(slowest([r["parts_s"] for r in plain])), n)
        for name in ("full", "proxy", "huber"):
            rows = [r["latency_ms"][name] for r in plain]
            calls = slowest(rows)
            timed = [ms for row in rows for ms in row if ms is not None]
            if len(calls) < 100:
                raise BenchError(f"only {len(calls)} distinct {name} calls")
            metrics[f"{name}_ms_p50"] = (percentile(calls, 50), len(calls))
            metrics[f"{name}_ms_p90"] = (percentile(timed, 90), len(timed))
        return problems, {name: (*metrics[name], unit)
                          for name, unit in END_TO_END}

    metrics = {}
    for name, unit, _ in PER_LAYER:
        values = [r["layers"][name] for r in traced]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), len(traced), unit)
            continue
        if len(set(values)) != 1:
            problems.append(f"traced count {name} differs between repeats: "
                            f"{values}")
        metrics[name] = (values[0], len(traced), unit)
    untraced_wall = sum(slowest([r["parts_s"] for r in plain]))
    overhead = sum(slowest([r["parts_s"] for r in traced])) - untraced_wall
    metrics["trace.overhead_s"] = (overhead, len(records), "s")
    metrics["trace.overhead_frac"] = (overhead / untraced_wall, len(records),
                                      "fraction")
    return problems, metrics


def report(args, plain, traced, problems, metrics) -> dict:
    records = plain + traced
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    facts = machine_facts(records[0]["versions"])
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}"
          f" processes={len(plain)} untraced + {len(traced)} traced")
    print("# machine: " + json.dumps(facts, sort_keys=True))
    for target in records[0]["missing_bindings"]:
        print(f"# not traced, attribute missing: {target}")
    for name, (value, n, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted}"
          " operations failed)")
    defects = [msg for r in plain for msg in r["defects"]]
    if defects:
        print(f"# {len(defects)} results show known program defects, counted"
              " and not failed (see perfbench/README.md), first:")
        for msg in list(dict.fromkeys(defects))[:5]:
            print(f"#   {msg}")
    for msg in list(dict.fromkeys(problems))[:20]:
        print(f"# CHECK FAILED: {msg}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, _, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "fracmom" / "__init__.py").is_file():
        print(f"no fracmom sources under {SRC}", file=sys.stderr)
        return 2

    args.deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        plain, traced = measure(args, out_root)
        problems, metrics = reduce(args, plain, traced, out_root)
        result = report(args, plain, traced, problems, metrics)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run of the benchmark is using it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
