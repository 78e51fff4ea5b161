"""Shift estimation and alignment for noisy periodic curves.

The estimator works in the frequency domain: curves are transformed, a
candidate shift is undone per curve by rephasing, and the weighted dispersion
of the rephased coefficients around their cross-curve mean is minimized with
analytic gradients.  Companion modules provide plug-in covariance and
confidence intervals for the estimated shifts, a landmark-alignment
baseline, and a Monte Carlo harness; the `curveshift` command line exposes
the whole pipeline on CSV files.
"""

from .criterion import (
    ConstrainedShift,
    CriterionContext,
    check_identifiability,
    evaluate,
    gradient,
    grid_profile,
    hessian,
    wrap_phase,
)
from .fourier import (
    CurveSet,
    SpectralTable,
    WeightScheme,
    forward_dft,
    inverse_dft,
    rephase,
    synthesize,
    transform,
)
from .inference import CovarianceReport, confidence_intervals
from .landmark import LandmarkConfig, landmark_shifts, max_location, smooth
from .optimize import EstimationResult, OptimizerConfig, minimize
from .simulate import (
    PATTERNS,
    MonteCarloSummary,
    Replicate,
    SimulationSpec,
    generate,
    run_study,
    theoretical_gamma,
    true_coefficients,
)

__version__ = "0.1.0"
