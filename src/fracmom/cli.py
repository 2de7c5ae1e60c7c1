"""Command-line front end.

Subcommands: sweep, estimate, mc, baselines, calibrate, and reproduce-all
(regenerates every desk-scale CSV in one run).  Exit codes: 0 success,
1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

# the package's names load their modules on first use, so a command loads
# only what it runs: ``estimate`` imports no scipy
import fracmom as fm


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
        raise fm.FracmomError(f"no data values in {path}")
    return np.asarray(values)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracmom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="theoretical variance-ratio curve")
    p.add_argument("--dist", required=True)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--band", type=float, default=fm.SWEEP_BAND)
    p.add_argument("--out", default=None)

    p = sub.add_parser("estimate", help="estimate location from a data file")
    p.add_argument("--data", "--dist-file", dest="data", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("full", "proxy", "ols"), default="full")

    design_flags = argparse.ArgumentParser(add_help=False)
    design_flags.add_argument("--dist", nargs="+", default=None)
    design_flags.add_argument("--n", type=int, nargs="+", default=None)
    design_flags.add_argument("--replicates", type=int, default=None)
    design_flags.add_argument("--seed", type=int, default=None)
    design_flags.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("mc", parents=[design_flags],
                       help="Monte Carlo over a design")
    p.add_argument("--design", default=None, help="JSON design file")
    p.add_argument("--alpha", type=float, nargs="+", default=None)
    p.add_argument("--estimators", nargs="+", default=None)

    sub.add_parser("baselines", parents=[design_flags],
                   help="robust baselines on the MC design")

    p = sub.add_parser("calibrate", help="select alpha from data or a family")
    p.add_argument("--data", default=None)
    p.add_argument("--dist", default=None)
    p.add_argument("--criterion", choices=("oracle", "plugin", "grid"),
                   default="plugin")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--band", type=float, default=fm.SWEEP_BAND)
    p.add_argument("--bootstrap", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("reproduce-all", help="regenerate every desk-scale CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--replicates", type=int, default=400)
    return parser


def _count(v) -> int:
    """A whole number: an integer, or an integral float such as 100.0."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{v!r} is not a whole number")
    return int(v)


# McDesign field -> conversion of its JSON or flag value
_DESIGN_FIELDS = {
    "distributions": lambda v: tuple(fm.parse_spec(s) for s in v),
    "n_values": lambda v: tuple(_count(n) for n in v),
    "alpha_values": lambda v: tuple(fm.basis.alpha_list(v)),
    "replicates": _count,
    "base_seed": _count,
    "estimators": tuple,
}


def _design_from_args(args) -> fm.McDesign:
    """The design of ``--design`` or of the flags; a field left out keeps
    ``default_design()``'s value.  A malformed design, or ``--design``
    together with a design flag, is a usage error."""
    flags = (("--dist", "distributions", args.dist),
             ("--n", "n_values", args.n),
             ("--alpha", "alpha_values", getattr(args, "alpha", None)),
             ("--replicates", "replicates", args.replicates),
             ("--seed", "base_seed", args.seed),
             ("--estimators", "estimators", getattr(args, "estimators", None)))
    if getattr(args, "design", None):
        given = [flag for flag, _, v in flags if v is not None]
        if given:
            raise UsageError(f"--design cannot be combined with "
                             f"{', '.join(given)}")
        with open(args.design, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise UsageError(f"{args.design}: a design must be a JSON object")
    else:
        raw = {key: v for _, key, v in flags}
    unknown = sorted(set(raw) - set(_DESIGN_FIELDS))
    if unknown:
        raise UsageError(f"unknown design keys {unknown}; "
                         f"choose from {tuple(_DESIGN_FIELDS)}")
    try:
        return replace(fm.default_design(),
                       **{k: _DESIGN_FIELDS[k](v) for k, v in raw.items()
                          if v is not None})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid design: {exc}") from None


def _cmd_sweep(args) -> int:
    curve = fm.g2_sweep(fm.parse_spec(args.dist), args.step, args.band)
    if args.out:
        fm.write_sweep_csv(curve, args.out)
    print(f"argmin alpha={curve.argmin_alpha:g} g2={curve.argmin_g2:.6f}"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def _cmd_estimate(args) -> int:
    x = read_data_file(args.data)
    if args.method == "full":
        res = fm.estimate_full(x, args.alpha)
    elif args.method == "proxy":
        res = fm.estimate_proxy(x, args.alpha)
    else:
        res = fm.estimate_ols(x)
    print(f"theta_hat={res.theta_hat!r} method={res.method}"
          f" iters={res.outer_iters} converged={int(res.converged)}")
    return 0


def _cmd_design_run(run, write, name, args) -> int:
    design = _design_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = run(design)
    path = out / name
    write(records, path)
    print(f"{len(records)} cells -> {path}")
    return 0


def _cmd_calibrate(args) -> int:
    if args.criterion == "oracle":
        if not args.dist:
            raise UsageError("--criterion oracle requires --dist")
        result = fm.calibrate_oracle(fm.parse_spec(args.dist), args.step,
                                     args.band)
    else:
        if not args.data:
            raise UsageError(f"--criterion {args.criterion} requires --data")
        x = read_data_file(args.data)
        if args.criterion == "plugin":
            result = fm.calibrate_plugin(x, args.step, args.band,
                                         bootstrap_b=args.bootstrap,
                                         seed=args.seed)
        else:
            result = fm.calibrate_grid_mc(x, fm.alpha_grid(args.step,
                                                           args.band),
                                          bootstrap_b=args.bootstrap,
                                          seed=args.seed)
    if args.out:
        fm.write_calibration_csv(result, args.out)
    lo, hi = result.sensitivity_interval
    print(f"alpha_star={result.alpha_star:g} criterion={result.criterion}"
          f" interval=[{lo:g},{hi:g}] ambiguous={int(result.ambiguous)}")
    return 0


def _cmd_reproduce_all(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed

    for name in ("laplace", "gaussian", "gg:0.5", "gg:1.5", "gg:4", "beta:2:5"):
        curve = fm.g2_sweep(fm.parse_spec(name), 0.05, fm.SWEEP_BAND)
        fm.write_sweep_csv(curve, out / f"sweep_{name.replace(':', '_')}.csv")

    design = fm.default_design(replicates=args.replicates, base_seed=seed)
    fm.write_mc_csv(fm.run_mc(design), out / "mc_results.csv")

    base_design = replace(design, n_values=(100,), alpha_values=(0.05,))
    fm.write_baseline_csv(fm.run_baseline_mc(base_design),
                          out / "baselines.csv")

    rows = []
    for name in ("gaussian", "laplace", "triangular", "uniform", "arcsine",
                 "gg:0.5", "gg:1.5", "gg:4", "beta:2:5", "cauchy"):
        spec = fm.parse_spec(name)
        s = fm.shape_summary(spec)
        rows.append((name, s.gamma3, s.gamma4, s.contrexcess, s.entropy_coeff,
                     s.entropic_error))
    fm.write_csv_rows(out / "topographic.csv",
                      ("distribution", "gamma3", "gamma4", "contrexcess",
                       "entropy_coeff", "entropic_error"), rows)

    result = fm.calibrate_oracle(fm.parse_spec("laplace"))
    fm.write_calibration_csv(result, out / "calibrate_oracle_laplace.csv")

    print(f"reproduced CSVs in {out}")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "estimate": _cmd_estimate,
    # the montecarlo functions are looked up only when their command runs
    "mc": lambda args: _cmd_design_run(fm.run_mc, fm.write_mc_csv,
                                       "mc_results.csv", args),
    "baselines": lambda args: _cmd_design_run(
        fm.run_baseline_mc, fm.write_baseline_csv, "baselines.csv", args),
    "calibrate": _cmd_calibrate,
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
    except (fm.FracmomError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
