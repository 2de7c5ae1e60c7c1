"""One repeat of one benchmark workload, run in a fresh process.

    python3 perfbench/workloads.py --workload mc_design --seed 1234 \
        --trace 0 --out DIR

Prints one JSON line with the set-up time, the times of the timed body's
parts (its public calls), the per-call latencies, the peak resident memory,
the operations attempted and failed, every output check that failed, a
digest of all outputs and, with ``--trace 1``, the per-layer metrics.  ``perfbench/run.py`` starts one such
process per repeat and reduces them; ``perfbench/README.md`` explains the
workloads.  The program sees only the generated inputs: the benchmark draws
its own samples, with numpy, from the seed alone.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fracmom  # noqa: E402
import fracmom.baselines  # noqa: E402
import fracmom.calibration  # noqa: E402
import fracmom.estimators  # noqa: E402
import fracmom.montecarlo  # noqa: E402
from fracmom.basis import SWEEP_BAND  # noqa: E402
from fracmom.distributions import parse_spec  # noqa: E402
from fracmom.efficiency import alpha_grid  # noqa: E402
from fracmom.errors import FracmomError  # noqa: E402

from tracer import Tracer  # noqa: E402

MC_REPLICATES = 50
MC_PROBE_N = 100

# per-call latency: the three estimators on fresh samples.  The cycle puts
# p < 1 (alpha 0.05) and p = 2 (alpha 0.95) on a heavy and a light tail.  It
# weighs the pairs 4:2:2:1, so each family and each alpha takes 2/3 or 1/3 of
# the calls and no set of pairs holds exactly 50 % or 90 % of them: p50 and
# p90 fall inside a cluster of similar calls (huber's cost follows the
# family, full's the alpha), not in the gap between two, where they would
# jump from run to run.
ESTIMATORS = ("full", "proxy", "huber")
LATENCY_CYCLE = (("laplace", 0.05), ("gg:4", 0.95), ("laplace", 0.05),
                 ("laplace", 0.95), ("gg:4", 0.05), ("laplace", 0.05),
                 ("laplace", 0.95), ("gg:4", 0.05), ("laplace", 0.05))
PROBE_CALLS = 100  # per estimator and process, so p90 has 10 calls beyond it
LARGE_N = 100_000
LARGE_N_CALLS = 100  # per estimator, so p90 has 10 calls beyond it

CALIBRATE_N = 500
CALIBRATE_FAMILIES = ("laplace", "gaussian", "beta:2:5", "cauchy")
GRID_STEP = 0.05  # the CLI's --step and --band defaults
PLUGIN_B = 200
GRID_B = 100

MSE_REL_TOL = 1e-12


class Repeat:
    """What one repeat did: operations, check failures, outputs, latencies.

    ``failures`` fail the run.  ``defects`` are wrong results of known
    program defects (see perfbench/README.md): they are counted and printed
    but do not fail the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.defects: list[str] = []
        self.outputs: list = []
        # in plan order, None for a call that raised
        self.latency_ms: dict[str, list] = {k: [] for k in ESTIMATORS}
        self.csv_bytes = 0

    def check(self, ok: bool, message: str, known_defect: bool = False):
        if not ok:
            (self.defects if known_defect else self.failures).append(message)

    def digest(self) -> str:
        h = hashlib.sha256()
        for item in self.outputs:
            h.update(item if isinstance(item, bytes) else repr(item).encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# inputs: a function of the seed alone
# ---------------------------------------------------------------------------

def draw(family: str, n: int, key) -> np.ndarray:
    """Seeded sample of unit scale, drawn by the benchmark, not by fracmom."""
    rng = np.random.default_rng(np.random.SeedSequence(key))
    if family == "laplace":
        return rng.laplace(0.0, math.sqrt(0.5), n)
    if family == "gaussian":
        return rng.standard_normal(n)
    if family == "gg:4":
        # |x|^4 ~ Gamma(1/4) gives the density proportional to exp(-|x|^4)
        x = rng.gamma(0.25, 1.0, n) ** 0.25 * rng.choice((-1.0, 1.0), n)
        return x / math.sqrt(math.gamma(0.75) / math.gamma(0.25))
    if family == "beta:2:5":
        return rng.beta(2.0, 5.0, n) - 2.0 / 7.0
    if family == "cauchy":
        return rng.standard_cauchy(n)
    raise ValueError(f"no sampler for {family!r}")


def latency_plan(seed: int, n: int, calls: int) -> list[tuple]:
    """(estimator, family, alpha, sample key) for each timed call."""
    return [(name, *LATENCY_CYCLE[i % len(LATENCY_CYCLE)], (seed, n, k, i))
            for i in range(calls) for k, name in enumerate(ESTIMATORS)]


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "mc_design":
        mc = fracmom.montecarlo
        design = mc.default_design(MC_REPLICATES, base_seed=seed)
        baseline = mc.McDesign(design.distributions, (100,), (0.05,),
                               MC_REPLICATES, seed)
        return {"design": design, "baseline": baseline,
                "probe": latency_plan(seed, MC_PROBE_N, PROBE_CALLS),
                "probe_n": MC_PROBE_N}
    if workload == "large_n":
        return {"plan": latency_plan(seed, LARGE_N, LARGE_N_CALLS)}
    return {"seed": seed,
            "oracle": parse_spec("beta:2:5"),
            "grid": alpha_grid(GRID_STEP, SWEEP_BAND),
            "samples": [(f, draw(f, CALIBRATE_N, (seed, CALIBRATE_N, j)))
                        for j, f in enumerate(CALIBRATE_FAMILIES)],
            "probe": latency_plan(seed, CALIBRATE_N, PROBE_CALLS),
            "probe_n": CALIBRATE_N}


def inputs_digest(workload: str, seed: int) -> str:
    """Digest of everything the program receives in one repeat."""
    inputs = make_inputs(workload, seed)
    h = hashlib.sha256(repr(sorted(
        (k, v) for k, v in inputs.items() if k != "samples")).encode())
    for _, x in inputs.get("samples", ()):
        h.update(x.tobytes())
    for plan, n in ((inputs.get("plan", ()), LARGE_N),
                    (inputs.get("probe", ()), inputs.get("probe_n"))):
        for _, family, _, key in plan:
            h.update(draw(family, n, key).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# timed bodies and their output checks
# ---------------------------------------------------------------------------

def _estimate(name: str, x: np.ndarray, alpha: float) -> float:
    # looked up through the module at call time, so a traced run sees it
    if name == "full":
        return fracmom.estimators.estimate_full(x, alpha).theta_hat
    if name == "proxy":
        return fracmom.estimators.estimate_proxy(x, alpha).theta_hat
    return fracmom.baselines.huber_location(x)


def time_calls(plan: list[tuple], n: int, rec: Repeat,
               require_in_range: bool) -> list:
    """Seconds of each call, on its own fresh sample; draws are not timed.

    Every estimate must be finite.  One outside [min x, max x] fails the run
    where ``require_in_range``, and is a known defect elsewhere.
    """
    parts: list = []
    for name, family, alpha, key in plan:
        x = draw(family, n, key)
        rec.attempted += 1
        start = time.perf_counter()
        try:
            theta = _estimate(name, x, alpha)
        except FracmomError as exc:
            rec.failed += 1
            rec.outputs.append((name, key, type(exc).__name__))
            parts.append(None)
            rec.latency_ms[name].append(None)
            continue
        elapsed = time.perf_counter() - start
        parts.append(elapsed)
        rec.latency_ms[name].append(1e3 * elapsed)
        rec.outputs.append(theta)
        rec.check(math.isfinite(theta), f"{name} estimate {theta!r} for "
                  f"sample {key} is not finite")
        rec.check(x.min() <= theta <= x.max(),
                  f"{name} estimate {theta!r} outside [min x, max x] "
                  f"for sample {key}", known_defect=not require_in_range)
    return parts


def _check_mc(design, records, rec: Repeat, baseline: bool) -> None:
    per_cell = 6 if baseline else 1 + 2 * len(design.alpha_values)
    expected = len(design.distributions) * len(design.n_values) * per_cell
    rec.check(len(records) == expected,
              f"{len(records)} Monte Carlo rows, expected {expected}")
    specs = {s.name: s for s in design.distributions}
    for r in records:
        if r.estimator == "full" and specs[r.distribution].infinite_variance:
            continue  # refused by design, not a failure
        rec.attempted += design.replicates
        rec.failed += design.replicates - r.replicates
        if r.replicates == 0:
            continue
        cell = f"{r.distribution} n={r.n} alpha={r.alpha} {r.estimator}"
        values = (r.var, r.bias, r.mse) + ((r.rel_mse,) if baseline else ())
        if not all(v is not None and math.isfinite(v) for v in values):
            rec.failures.append(f"non-finite aggregate in {cell}: {values}")
            continue
        rec.check(abs(r.mse - (r.var + r.bias ** 2)) <= MSE_REL_TOL * r.mse,
                  f"mse != var + bias^2 in {cell}")


def _timed(parts: list, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    parts.append(time.perf_counter() - start)
    return result


def mc_design(inputs: dict, out: Path, rec: Repeat) -> list:
    mc = fracmom.montecarlo
    paths = (out / "mc_results.csv", out / "baselines.csv")
    parts: list = []
    records = _timed(parts, mc.run_mc, inputs["design"], workers=1)
    base_records = _timed(parts, mc.run_baseline_mc, inputs["baseline"],
                          workers=1)
    _timed(parts, mc.write_mc_csv, records, paths[0])
    _timed(parts, mc.write_baseline_csv, base_records, paths[1])
    _check_mc(inputs["design"], records, rec, baseline=False)
    _check_mc(inputs["baseline"], base_records, rec, baseline=True)
    for path in paths:
        data = path.read_bytes()
        rec.csv_bytes += len(data)
        rec.outputs.append(data)
    return parts


def large_n(inputs: dict, out: Path, rec: Repeat) -> list:
    return time_calls(inputs["plan"], LARGE_N, rec, require_in_range=True)


def _check_calibration(result, rec: Repeat, label: str) -> None:
    curve = result.curve
    lo, hi = result.sensitivity_interval
    rec.check(result.alpha_star in curve.alphas,
              f"{label}: alpha* {result.alpha_star!r} is not a grid point")
    rec.check(lo <= result.alpha_star <= hi,
              f"{label}: alpha* outside its interval [{lo}, {hi}]")
    best = curve.argmin_g2
    if result.criterion == "grid_mc":
        rec.check(bool(np.all(np.isfinite(curve.g2) & (curve.g2 > 0.0))),
                  f"{label}: bootstrap variances not finite and positive")
    else:
        rec.check(math.isfinite(best),
                  f"{label}: minimum ratio {best!r} is not finite")
        rec.check(0.0 < best <= 1.0 + 1e-9,
                  f"{label}: minimum ratio {best!r} outside (0, 1]",
                  known_defect=result.criterion == "plugin")
    if result.entropy is not None:
        e = result.entropy
        rec.check(math.isfinite(e.h_hat) and e.k_hat > 0.0
                  and e.bandwidth > 0.0, f"{label}: unusable entropy {e}")


def _calibration_output(result) -> tuple:
    e = result.entropy
    return (result.criterion, result.alpha_star, result.sensitivity_interval,
            result.ambiguous, result.curve.g2.tolist(),
            result.curve.degenerate.tolist(),
            None if e is None else (e.h_hat, e.k_hat, e.kappa_hat,
                                    e.bandwidth))


def calibrate(inputs: dict, out: Path, rec: Repeat) -> list:
    cal, seed, grid = fracmom.calibration, inputs["seed"], inputs["grid"]
    calls = [("oracle beta:2:5", cal.calibrate_oracle, (inputs["oracle"],),
              {})]
    for family, x in inputs["samples"]:
        calls.append((f"plugin {family}", cal.calibrate_plugin,
                      (x, GRID_STEP, SWEEP_BAND),
                      {"bootstrap_b": PLUGIN_B, "seed": seed}))
        calls.append((f"grid_mc {family}", cal.calibrate_grid_mc, (x, grid),
                      {"bootstrap_b": GRID_B, "seed": seed}))
    results, parts = [], []
    for label, fn, args, kwargs in calls:
        start = time.perf_counter()
        try:
            results.append((label, fn(*args, **kwargs)))
        except FracmomError as exc:
            results.append((label, exc))
        parts.append(time.perf_counter() - start)
    for label, result in results:
        rec.attempted += 1
        if isinstance(result, FracmomError):
            rec.failed += 1
            rec.outputs.append((label, type(result).__name__))
            continue
        _check_calibration(result, rec, label)
        rec.outputs.append((label, _calibration_output(result)))
    return parts


BODIES = {"mc_design": mc_design, "large_n": large_n, "calibrate": calibrate}


def warm_up() -> None:
    """First calls of the estimators, so their lazy set-up is not timed."""
    x = draw("laplace", 64, (0,))
    for name in ESTIMATORS:
        _estimate(name, x, 0.05)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(BODIES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for the CSVs a workload writes")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(fracmom.__file__).resolve().parent.parent != src:
        print(f"fracmom was imported from {fracmom.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(args.workload, args.seed)
    warm_up()
    setup_s = time.perf_counter() - T_START

    rec = Repeat()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        parts_s = BODIES[args.workload](inputs, args.out, rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if "probe" in inputs:
        time_calls(inputs["probe"], inputs["probe_n"], rec,
                   require_in_range=False)

    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["montecarlo.csv_bytes"] = rec.csv_bytes
    print(json.dumps({
        "setup_s": setup_s,
        "parts_s": parts_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        "latency_ms": rec.latency_ms,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "digest": rec.digest(),
        "defects": rec.defects,
        "layers": layers,
        "missing_bindings": tracer.missing if tracer is not None else [],
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "fracmom": fracmom.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
