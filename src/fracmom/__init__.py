"""Adaptive signed fractional-power location estimation toolkit.

Every public name is imported from its module on first access (PEP 562),
so ``import fracmom`` loads no module, and a name loads only the modules
its own module imports: the estimators, baselines and plug-in moments
import numpy only, and scipy comes in with the population side
(``efficiency``, ``distributions``, ``calibration``, ``montecarlo``).
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "basis": ("ESTIMATOR_BAND", "SWEEP_BAND", "basis_value",
              "collision_roots", "exponent", "second_exponent"),
    "baselines": ("BASELINE_IDS", "huber_location", "median_of_means",
                  "run_baseline", "trimmed_mean", "winsorized_mean"),
    "calibration": ("CalibrationResult", "EntropyDiagnostic",
                    "calibrate_grid_mc", "calibrate_oracle",
                    "calibrate_plugin", "entropy_diagnostic",
                    "topographic_coords"),
    "distributions": ("DistributionSpec", "ENTROPY_COEFF_MAX", "ShapeSummary",
                      "differential_entropy", "gg_kurtosis", "make_rng",
                      "parse_spec", "sample", "shape_summary"),
    "efficiency": ("G2Curve", "abs_moment", "alpha_grid", "g2_classical",
                   "g2_closed_form", "g2_sweep", "g2_with_flag",
                   "quadrature_moment", "signed_moment",
                   "theoretical_moments"),
    "errors": ("AllGridDegenerate", "BracketFailure", "DegenerateRatio",
               "DegenerateSample", "FracmomError", "NonFiniteInput",
               "NonFiniteMoment", "NonPositiveDenominator", "QuadratureError",
               "SingularSystem", "SmallSample"),
    "estimators": ("CorrelantSystem", "EstimateResult",
                   "build_correlant_system", "estimate_full", "estimate_ols",
                   "estimate_proxy"),
    "moments": ("FractionalMomentSet", "empirical_moments"),
    "montecarlo": ("McDesign", "McRecord", "default_design",
                   "run_baseline_mc", "run_mc", "write_baseline_csv",
                   "write_calibration_csv", "write_csv_rows", "write_mc_csv",
                   "write_sweep_csv"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_PUBLIC, *_HOME])


def __getattr__(name: str):
    """The public name, or the module, ``name``, imported on first use."""
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
