"""Command-line front end.

Subcommands: sweep, estimate, mc, baselines, calibrate, bench, and
reproduce-all (regenerates every desk-scale CSV in one run).  Exit codes:
0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .basis import SWEEP_BAND
from .calibration import calibrate_grid_mc, calibrate_oracle, calibrate_plugin
from .distributions import parse_spec, shape_summary
from .efficiency import alpha_grid, g2_sweep
from .errors import FracmomError
from .estimators import estimate_full, estimate_ols, estimate_proxy
from .montecarlo import MC_ESTIMATORS, McDesign, bench_scaling_ratios, \
    default_design, run_baseline_mc, run_bench, run_mc, write_baseline_csv, \
    write_bench_csv, write_calibration_csv, write_csv_rows, write_mc_csv, \
    write_sweep_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not 2
        raise UsageError(message)


def read_data_file(path) -> np.ndarray:
    """One real per line, UTF-8, '#' comments and blank lines allowed."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if text:
                values.append(float(text))
    if not values:
        raise FracmomError(f"no data values in {path}")
    return np.asarray(values)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracmom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="theoretical variance-ratio curve")
    p.add_argument("--dist", required=True)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--band", type=float, default=SWEEP_BAND)
    p.add_argument("--out", default=None)

    p = sub.add_parser("estimate", help="estimate location from a data file")
    p.add_argument("--data", "--dist-file", dest="data", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("full", "proxy", "ols"), default="full")

    p = sub.add_parser("mc", help="Monte Carlo over a design")
    p.add_argument("--design", default=None, help="JSON design file")
    p.add_argument("--dist", nargs="+", default=None)
    p.add_argument("--n", type=int, nargs="+", default=None)
    p.add_argument("--alpha", type=float, nargs="+", default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--estimators", nargs="+", choices=MC_ESTIMATORS,
                   default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("baselines", help="robust baselines on the MC design")
    p.add_argument("--dist", nargs="+", default=None)
    p.add_argument("--n", type=int, nargs="+", default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("calibrate", help="select alpha from data or a family")
    p.add_argument("--data", default=None)
    p.add_argument("--dist", default=None)
    p.add_argument("--criterion", choices=("oracle", "plugin", "grid"),
                   default="plugin")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--band", type=float, default=SWEEP_BAND)
    p.add_argument("--bootstrap", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bench", help="runtime micro-benchmark")
    p.add_argument("--n", type=int, nargs="+", default=[100, 1000, 10000])
    p.add_argument("--batch", type=int, default=10)
    p.add_argument("--out", default=None)

    p = sub.add_parser("reproduce-all", help="regenerate every desk-scale CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--replicates", type=int, default=400)
    return parser


def _design_from_args(args) -> McDesign:
    base = default_design()
    if getattr(args, "design", None):
        with open(args.design, encoding="utf-8") as fh:
            raw = json.load(fh)
        return McDesign(
            tuple(parse_spec(s) for s in raw["distributions"]),
            tuple(int(v) for v in raw["n_values"]),
            tuple(float(v) for v in raw["alpha_values"]),
            int(raw.get("replicates", base.replicates)),
            int(raw.get("base_seed", base.base_seed)),
            tuple(raw.get("estimators", base.estimators)),
        )
    return McDesign(
        tuple(parse_spec(s) for s in args.dist) if args.dist else base.distributions,
        tuple(args.n) if args.n else base.n_values,
        tuple(args.alpha) if getattr(args, "alpha", None) else base.alpha_values,
        args.replicates if args.replicates else base.replicates,
        args.seed if args.seed is not None else base.base_seed,
        tuple(args.estimators) if getattr(args, "estimators", None) else base.estimators,
    )


def _cmd_sweep(args) -> int:
    curve = g2_sweep(parse_spec(args.dist), args.step, args.band)
    if args.out:
        write_sweep_csv(curve, args.out)
    print(f"argmin alpha={curve.argmin_alpha:g} g2={curve.argmin_g2:.6f}"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def _cmd_estimate(args) -> int:
    x = read_data_file(args.data)
    if args.method == "full":
        res = estimate_full(x, args.alpha)
    elif args.method == "proxy":
        res = estimate_proxy(x, args.alpha)
    else:
        res = estimate_ols(x)
    print(f"theta_hat={res.theta_hat!r} method={res.method}"
          f" iters={res.outer_iters} converged={int(res.converged)}")
    return 0


def _cmd_mc(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    design = _design_from_args(args)
    records = run_mc(design)
    path = out / "mc_results.csv"
    write_mc_csv(records, path)
    print(f"{len(records)} cells -> {path}")
    return 0


def _cmd_baselines(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    design = _design_from_args(args)
    records = run_baseline_mc(design)
    path = out / "baselines.csv"
    write_baseline_csv(records, path)
    print(f"{len(records)} cells -> {path}")
    return 0


def _cmd_calibrate(args) -> int:
    if args.criterion == "oracle":
        if not args.dist:
            raise UsageError("--criterion oracle requires --dist")
        result = calibrate_oracle(parse_spec(args.dist), args.step, args.band)
    else:
        if not args.data:
            raise UsageError(f"--criterion {args.criterion} requires --data")
        x = read_data_file(args.data)
        if args.criterion == "plugin":
            result = calibrate_plugin(x, args.step, args.band,
                                      bootstrap_b=args.bootstrap,
                                      seed=args.seed)
        else:
            result = calibrate_grid_mc(x, alpha_grid(args.step, args.band),
                                       bootstrap_b=max(100, args.bootstrap),
                                       seed=args.seed)
    if args.out:
        write_calibration_csv(result, args.out)
    lo, hi = result.sensitivity_interval
    print(f"alpha_star={result.alpha_star:g} criterion={result.criterion}"
          f" interval=[{lo:g},{hi:g}] ambiguous={int(result.ambiguous)}")
    return 0


def _cmd_bench(args) -> int:
    records = run_bench(args.n, batch=args.batch)
    if args.out:
        write_bench_csv(records, args.out)
    for name, ratios in sorted(bench_scaling_ratios(records).items()):
        joined = ", ".join(f"{r:.1f}" for r in ratios)
        print(f"{name}: time(10N)/time(N) = {joined}")
    return 0


def _cmd_reproduce_all(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed

    for name in ("laplace", "gaussian", "gg:0.5", "gg:1.5", "gg:4", "beta:2:5"):
        curve = g2_sweep(parse_spec(name), 0.05, SWEEP_BAND)
        write_sweep_csv(curve, out / f"sweep_{name.replace(':', '_')}.csv")

    design = default_design(replicates=args.replicates, base_seed=seed)
    write_mc_csv(run_mc(design), out / "mc_results.csv")

    base_design = McDesign(design.distributions, (100,), (0.05,),
                           replicates=args.replicates, base_seed=seed)
    write_baseline_csv(run_baseline_mc(base_design), out / "baselines.csv")

    rows = []
    for name in ("gaussian", "laplace", "triangular", "uniform", "arcsine",
                 "gg:0.5", "gg:1.5", "gg:4", "beta:2:5", "cauchy"):
        spec = parse_spec(name)
        s = shape_summary(spec)
        rows.append((name, s.gamma3, s.gamma4, s.contrexcess, s.entropy_coeff,
                     s.entropic_error))
    write_csv_rows(out / "topographic.csv",
                   ("distribution", "gamma3", "gamma4", "contrexcess",
                    "entropy_coeff", "entropic_error"), rows)

    result = calibrate_oracle(parse_spec("laplace"))
    write_calibration_csv(result, out / "calibrate_oracle_laplace.csv")

    write_bench_csv(run_bench((100, 1000, 10000), batch=10, seed=seed),
                    out / "bench.csv")
    print(f"reproduced CSVs in {out}")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "estimate": _cmd_estimate,
    "mc": _cmd_mc,
    "baselines": _cmd_baselines,
    "calibrate": _cmd_calibrate,
    "bench": _cmd_bench,
    "reproduce-all": _cmd_reproduce_all,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except (FracmomError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
