"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public fracmom functions at the module attributes their
callers look them up through (``fracmom.estimators.basis_value`` is what
``estimate_proxy`` calls, ``fracmom.montecarlo.estimate_full`` is what
``run_mc`` calls) with wrappers that record one span per call:
(name, start, end, parent).  Counts are recorded at the same boundaries.
Spans stay in memory and are reduced to per-layer metrics once the timed
body ends; nothing inside the package is changed.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> the module attributes through which callers reach the function
BINDINGS = {
    "distributions.sample": ("fracmom.montecarlo.sample",),
    "basis.basis_value": ("fracmom.estimators.basis_value",),
    "moments.empirical_moments": ("fracmom.estimators.empirical_moments",
                                  "fracmom.calibration.empirical_moments"),
    "moments.theoretical_moments": ("fracmom.montecarlo.theoretical_moments",
                                    "fracmom.efficiency.theoretical_moments"),
    "efficiency.build_correlant_system": (
        "fracmom.estimators.build_correlant_system",),
    "efficiency.g2_with_flag": ("fracmom.efficiency.g2_with_flag",
                                "fracmom.calibration.g2_with_flag"),
    "efficiency.g2_sweep": ("fracmom.calibration.g2_sweep",),
    "estimators.estimate_full": ("fracmom.estimators.estimate_full",
                                 "fracmom.montecarlo.estimate_full",
                                 "fracmom.calibration.estimate_full"),
    "estimators.estimate_proxy": ("fracmom.estimators.estimate_proxy",
                                  "fracmom.montecarlo.estimate_proxy"),
    "baselines.run_baseline": ("fracmom.montecarlo.run_baseline",),
    "baselines.huber_location": ("fracmom.baselines.huber_location",),
    "calibration.calibrate_oracle": ("fracmom.calibration.calibrate_oracle",),
    "calibration.calibrate_plugin": ("fracmom.calibration.calibrate_plugin",),
    "calibration.calibrate_grid_mc": (
        "fracmom.calibration.calibrate_grid_mc",),
    "calibration.entropy_diagnostic": (
        "fracmom.calibration.entropy_diagnostic",),
    "montecarlo.run_mc": ("fracmom.montecarlo.run_mc",),
    "montecarlo.run_baseline_mc": ("fracmom.montecarlo.run_baseline_mc",),
    "montecarlo.write_csv": ("fracmom.montecarlo.write_mc_csv",
                             "fracmom.montecarlo.write_baseline_csv"),
}

# (metric, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("distributions.sample.calls", "count", "lower"),
    ("distributions.sample.self_s", "s", "lower"),
    ("distributions.sample.elements", "count", "lower"),
    ("basis.basis_value.calls", "count", "lower"),
    ("basis.basis_value.self_s", "s", "lower"),
    ("basis.basis_value.elements", "count", "lower"),
    ("moments.empirical_moments.calls", "count", "lower"),
    ("moments.empirical_moments.self_s", "s", "lower"),
    ("moments.empirical_moments.elements", "count", "lower"),
    ("moments.theoretical_moments.calls", "count", "lower"),
    ("moments.theoretical_moments.self_s", "s", "lower"),
    ("efficiency.build_correlant_system.calls", "count", "lower"),
    ("efficiency.build_correlant_system.self_s", "s", "lower"),
    ("efficiency.singular_frac", "fraction", "lower"),
    ("efficiency.g2_with_flag.calls", "count", "lower"),
    ("efficiency.g2_with_flag.self_s", "s", "lower"),
    ("efficiency.g2_sweep.self_s", "s", "lower"),
    ("estimators.estimate_full.calls", "count", "lower"),
    ("estimators.estimate_full.self_s", "s", "lower"),
    ("estimators.estimate_proxy.calls", "count", "lower"),
    ("estimators.estimate_proxy.self_s", "s", "lower"),
    ("estimators.full_outer_iters", "count", "lower"),
    ("estimators.full_converged_frac", "fraction", "higher"),
    ("estimators.full_fallback_frac", "fraction", "lower"),
    ("estimators.proxy_root_iters", "count", "lower"),
    ("estimators.score_evals_per_proxy", "count", "lower"),
    ("estimators.failures", "count", "lower"),
    ("baselines.run_baseline.calls", "count", "lower"),
    ("baselines.run_baseline.self_s", "s", "lower"),
    ("baselines.huber_location.calls", "count", "lower"),
    ("baselines.huber_location.self_s", "s", "lower"),
    ("calibration.calibrate_oracle.self_s", "s", "lower"),
    ("calibration.calibrate_plugin.self_s", "s", "lower"),
    ("calibration.calibrate_grid_mc.self_s", "s", "lower"),
    ("calibration.entropy_diagnostic.calls", "count", "lower"),
    ("calibration.entropy_diagnostic.self_s", "s", "lower"),
    ("montecarlo.run_mc.self_s", "s", "lower"),
    ("montecarlo.run_baseline_mc.self_s", "s", "lower"),
    ("montecarlo.write_csv.self_s", "s", "lower"),
    ("montecarlo.csv_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

FULL = "estimators.estimate_full"
PROXY = "estimators.estimate_proxy"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the BINDINGS while installed and keeps every span in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for span, targets in BINDINGS.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(target)
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counts taken at the boundaries ------------------------------------

    def _observe_distributions_sample(self, args, result):
        self.counts["distributions.sample.elements"] += np.size(result)

    def _observe_basis_basis_value(self, args, result):
        self.counts["basis.basis_value.elements"] += np.size(result)

    def _observe_moments_empirical_moments(self, args, result):
        self.counts["moments.empirical_moments.elements"] += np.size(args[0])

    def _observe_estimators_estimate_full(self, args, result):
        if result.method == "full":
            self.counts["full_route"] += 1
            self.counts["estimators.full_outer_iters"] += result.outer_iters
            self.counts["full_converged"] += int(result.converged)
        elif result.method == "proxy":
            self.counts["full_to_proxy"] += 1

    def _observe_estimators_estimate_proxy(self, args, result):
        self.counts["estimators.proxy_root_iters"] += result.outer_iters

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric of the spans recorded so far."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        proxy_evals = 0
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration
            if parent >= 0:
                parent_name = self.spans[parent][0]
                self_s[parent_name] -= duration
                proxy_evals += (name == "basis.basis_value"
                                and parent_name == PROXY)
        out: dict[str, float] = {}
        for span in BINDINGS:
            out[span + ".calls"] = calls[span]
            out[span + ".self_s"] = self_s[span]
        out.update(self.counts)
        out["efficiency.singular_frac"] = _ratio(
            self.errors["efficiency.build_correlant_system", "SingularSystem"],
            calls["efficiency.build_correlant_system"])
        out["estimators.full_converged_frac"] = _ratio(
            self.counts["full_converged"], self.counts["full_route"])
        out["estimators.full_fallback_frac"] = _ratio(
            self.counts["full_to_proxy"], calls[FULL])
        out["estimators.score_evals_per_proxy"] = _ratio(proxy_evals,
                                                         calls[PROXY])
        out["estimators.failures"] = sum(
            n for (span, _), n in self.errors.items() if span in (FULL, PROXY))
        # montecarlo.csv_bytes and trace.* are filled in by the caller
        return {name: out.get(name, 0) for name, _, _ in PER_LAYER}
