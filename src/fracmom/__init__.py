"""Adaptive signed fractional-power location estimation toolkit."""

from .basis import ESTIMATOR_BAND, SWEEP_BAND, basis_value, collision_roots, \
    exponent, second_exponent
from .baselines import BASELINE_IDS, huber_location, median_of_means, \
    run_baseline, trimmed_mean, winsorized_mean
from .calibration import CalibrationResult, EntropyDiagnostic, \
    calibrate_grid_mc, calibrate_oracle, calibrate_plugin, \
    entropy_diagnostic, topographic_coords
from .distributions import DistributionSpec, ENTROPY_COEFF_MAX, ShapeSummary, \
    differential_entropy, gg_kurtosis, make_rng, parse_spec, sample, \
    shape_summary
from .efficiency import CorrelantSystem, G2Curve, alpha_grid, \
    build_correlant_system, g2_classical, g2_closed_form, g2_sweep, \
    g2_with_flag
from .errors import AllGridDegenerate, BracketFailure, DegenerateRatio, \
    DegenerateSample, FracmomError, NonFiniteInput, NonFiniteMoment, \
    NonPositiveDenominator, QuadratureError, SingularSystem, SmallSample
from .estimators import EstimateResult, estimate_full, estimate_ols, \
    estimate_proxy
from .moments import FractionalMomentSet, abs_moment, empirical_moments, \
    quadrature_moment, signed_moment, theoretical_moments
from .montecarlo import BenchRecord, McDesign, McRecord, \
    bench_scaling_ratios, default_design, run_baseline_mc, run_bench, run_mc, \
    write_baseline_csv, write_bench_csv, write_calibration_csv, \
    write_csv_rows, write_mc_csv, write_sweep_csv

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
