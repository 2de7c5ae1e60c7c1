"""Seeded Monte Carlo driver and CSV emission.

Every replicate draws from its own counter-based substream keyed by
(base_seed, distribution index, sample-size index, replicate), so results are
byte-identical across runs and worker counts, and every estimator within a
cell sees the same samples (required for the variance-ratio columns).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .baselines import baseline_rows, mean_rows
from .basis import alpha_list, second_exponent
from .distributions import DistributionSpec, parse_spec, sample_block
from .efficiency import g2_closed_form
from .errors import FracmomError, integer_value
from .estimators import estimate_full_grid, estimate_proxy_grid
from .moments import abs_moment, theoretical_set
# estimate_full, estimate_proxy, run_baseline, sample and theoretical_moments
# are no longer called here; perfbench/tracer.py binds them through this
# module
from .baselines import run_baseline  # noqa: F401
from .distributions import sample  # noqa: F401
from .estimators import estimate_full, estimate_proxy  # noqa: F401
from .moments import theoretical_moments  # noqa: F401

WORKERS_ENV = "FRACMOM_WORKERS"
MC_ESTIMATORS = ("ols", "proxy", "full")

MC_CSV_FIELDS = ("distribution", "n", "alpha", "estimator", "var", "bias",
                 "mse", "are", "g2_emp", "g2_theo", "replicates", "seed")


@dataclass(frozen=True)
class McDesign:
    """Full factorial Monte Carlo design."""

    distributions: tuple[DistributionSpec, ...]
    n_values: tuple[int, ...]
    alpha_values: tuple[float, ...]
    replicates: int = 1000
    base_seed: int = 1234
    estimators: tuple[str, ...] = MC_ESTIMATORS

    def __post_init__(self):
        for name in ("distributions", "n_values", "estimators"):
            if not np.iterable(getattr(self, name)):
                raise ValueError(f"{name} must be a sequence")
        odd = [d for d in self.distributions
               if not isinstance(d, DistributionSpec)]
        if odd:
            raise ValueError(f"distributions must be DistributionSpec "
                             f"(see parse_spec), got {odd}")
        if integer_value(self.replicates, "replicates") < 1:
            raise ValueError("replicates must be >= 1")
        # the replicate keys are built from its uint32 words
        if integer_value(self.base_seed, "base_seed") < 0:
            raise ValueError("base_seed must be >= 0")
        if any(integer_value(n, "n") < 1 for n in self.n_values):
            raise ValueError(f"every n must be >= 1, got {self.n_values}")
        unknown = [e for e in self.estimators if e not in MC_ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators {unknown}; "
                             f"choose from {MC_ESTIMATORS}")
        alpha_list(self.alpha_values)


def default_design(replicates: int = 1000, base_seed: int = 1234) -> McDesign:
    """The desk-scale reference design used throughout the test battery."""
    dists = tuple(parse_spec(s) for s in ("laplace", "gg:1.5", "gg:4", "beta:2:5"))
    return McDesign(dists, (50, 100, 200, 500), (0.05, 0.30, 0.70, 0.95),
                    replicates, base_seed)


@dataclass(frozen=True)
class McRecord:
    """Aggregates of one (distribution, N, alpha, estimator) cell.

    ``replicates`` counts the successful replicates; estimator failures or
    by-design refusals leave the metric fields empty.  ``rel_mse`` is only
    populated by baseline runs (MSE relative to the sample mean).
    """

    distribution: str
    n: int
    alpha: float | None
    estimator: str
    var: float | None
    bias: float | None
    mse: float | None
    are: float | None
    g2_emp: float | None
    g2_theo: float | None
    replicates: int
    seed: int
    rel_mse: float | None = None


def _g2_theoretical(spec: DistributionSpec, alphas):
    """Yield the theoretical g2 of spec at every alpha, None where it is
    refused; c2 does not depend on alpha and is computed once."""
    c2 = None
    for a in alphas:
        try:
            if c2 is None:
                c2 = abs_moment(spec, 2.0)
            g2 = g2_closed_form(theoretical_set(spec, second_exponent(a), c2))
        except FracmomError:
            g2 = None
        yield g2


def _aggregate(spec: DistributionSpec, n: int, alpha: float | None,
               estimator: str, est: np.ndarray, ok: np.ndarray,
               ols_est: np.ndarray, base_seed: int,
               g2_theo: float | None) -> McRecord:
    good = int(ok.sum())
    if good == 0:
        return McRecord(spec.name, n, alpha, estimator, None, None, None,
                        None, None, None, 0, base_seed)
    e = est[ok]
    o = ols_est[ok]
    true_loc = spec.true_location
    # ddof=0 keeps mse = var + bias^2 an exact identity
    var = float(np.var(e))
    bias = float(np.mean(e) - true_loc)
    mse = float(np.mean((e - true_loc) ** 2))
    var_ols = float(np.var(o))
    are = var_ols / var if var > 0.0 else None
    g2_emp = var / var_ols if var_ols > 0.0 else None
    return McRecord(spec.name, n, alpha, estimator, var, bias, mse, are,
                    g2_emp, g2_theo, good, base_seed)


def _draw_block(design: McDesign, task: tuple[int, int]):
    """(spec, n, samples, per-replicate means) of one (distribution, N); the
    samples are the rows of one (replicates, N) matrix."""
    di, ni = task
    spec = design.distributions[di]
    n = design.n_values[ni]
    samples = sample_block(spec, n, (design.base_seed, di, ni),
                           design.replicates)
    return spec, n, samples, mean_rows(samples)


def _mc_block(design: McDesign, g2_theo: dict,
              task: tuple[int, int]) -> list[McRecord]:
    spec, n, samples, ols_est = _draw_block(design, task)
    records = []
    for estimator in design.estimators:
        if estimator == "ols":
            records.append(_aggregate(spec, n, None, "ols", ols_est,
                                      np.ones(len(samples), dtype=bool),
                                      ols_est, design.base_seed, None))
            continue
        if estimator == "proxy":
            cells = estimate_proxy_grid(samples, design.alpha_values)
        elif spec.infinite_variance:
            # the weight system has no meaning without a second moment, so
            # the cell refuses every replicate
            cells = [None] * len(design.alpha_values)
        else:
            cells = estimate_full_grid(samples, design.alpha_values)
        for alpha, rows in zip(design.alpha_values, cells):
            if rows is None:
                est, ok = ols_est, np.zeros(len(samples), dtype=bool)
            else:
                est, ok = rows.theta_hat, rows.ok
            records.append(_aggregate(spec, n, alpha, estimator, est, ok,
                                      ols_est, design.base_seed,
                                      g2_theo[task[0], alpha]))
    return records


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, integer_value(workers, "workers"))
    env = os.environ.get(WORKERS_ENV)
    return max(1, int(env)) if env else 1


def _run_blocks(block_fn, design: McDesign, workers: int | None) -> list:
    tasks = [(di, ni) for di in range(len(design.distributions))
             for ni in range(len(design.n_values))]
    w = _worker_count(workers)
    if w > 1:
        with ThreadPoolExecutor(max_workers=w) as pool:
            blocks = list(pool.map(block_fn, tasks))
    else:
        blocks = [block_fn(t) for t in tasks]
    return [rec for block in blocks for rec in block]


def run_mc(design: McDesign, workers: int | None = None) -> list[McRecord]:
    """Run the design cell by cell; per-replicate estimator failures are
    skipped and reflected in the replicates count, never aborting the run."""
    # only proxy and full cells carry a g2 reference
    alphas = design.alpha_values if set(design.estimators) - {"ols"} else ()
    g2_theo = {(di, a): g
               for di, spec in enumerate(design.distributions)
               for a, g in zip(alphas, _g2_theoretical(spec, alphas))}
    return _run_blocks(partial(_mc_block, design, g2_theo), design, workers)


def _baseline_block(design: McDesign, task: tuple[int, int]) -> list[McRecord]:
    spec, n, samples, ols_est = _draw_block(design, task)
    # the "mean" baseline's mse, by the same arithmetic
    mean_mse = float(np.mean((ols_est - spec.true_location) ** 2))
    ok = np.ones(len(samples), dtype=bool)  # every baseline takes any sample
    records = []
    for name, est in baseline_rows(samples).items():
        r = _aggregate(spec, n, None, name, est, ok, ols_est,
                       design.base_seed, None)
        rel = r.mse / mean_mse if (r.mse is not None and mean_mse) else None
        records.append(replace(r, rel_mse=rel))
    return records


def run_baseline_mc(design: McDesign, workers: int | None = None,
                    ) -> list[McRecord]:
    """Same design, six robust baselines, with MSE relative to the mean."""
    return _run_blocks(partial(_baseline_block, design), design, workers)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def write_csv_rows(path, header, rows) -> None:
    """Write a deterministic CSV: repr floats, empty string for None."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def mc_record_row(r: McRecord) -> tuple:
    return (r.distribution, r.n, r.alpha, r.estimator, r.var, r.bias, r.mse,
            r.are, r.g2_emp, r.g2_theo, r.replicates, r.seed)


def write_mc_csv(records: list[McRecord], path) -> None:
    write_csv_rows(path, MC_CSV_FIELDS, (mc_record_row(r) for r in records))


def write_baseline_csv(records: list[McRecord], path) -> None:
    header = MC_CSV_FIELDS + ("rel_mse_vs_mean",)
    write_csv_rows(path, header,
                   (mc_record_row(r) + (r.rel_mse,) for r in records))


def write_sweep_csv(curve, path) -> None:
    write_csv_rows(path, ("alpha", "g2", "degenerate_flag"), curve.rows())


def write_calibration_csv(result, path) -> None:
    """Per-grid criterion values plus a one-line summary record."""
    write_csv_rows(path, ("alpha", "criterion_value", "flag"),
                   result.curve.rows())
    lo, hi = result.sensitivity_interval
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# alpha_star={_fmt(result.alpha_star)}"
                 f" criterion={result.criterion}"
                 f" interval={_fmt(lo)}..{_fmt(hi)}"
                 f" ambiguous={int(result.ambiguous)}\n")
