"""Linearisation of nonlinear SDEs about deterministic trajectories.

Builds the exact Gaussian law of the linearised solution, evaluates
explicit strong-error bounds with their predicted scaling in the noise and
initial-uncertainty scales, validates that scaling by coupled Monte-Carlo
simulation, and computes stochastic-sensitivity fields with robust-set
extraction.
"""

from .bounds import (BoundBreakdown, BoundConstants, bound_rhs,
                     default_bdg_constant, estimate_constants,
                     gaussian_delta_bound, lemma_constants, moment_constant,
                     theorem_constants)
from .exceptions import (BatchError, ConfigError, CovarianceError, FieldError,
                         IntegrationFailure, LinSDEError,
                         NumericalDomainError, SingularGradientError,
                         UnknownModelError)
from .flow import solve_flow
from .linearise import (GaussianState, InitialCondition,
                        covariance_by_quadrature, linearised_distribution)
from .models import (MODEL_NAMES, MeanderingJetParams, VectorFieldModel,
                     builtin_model)
from .sampling import (SamplePairBatch, SimulationConfig, read_batch,
                       sample_coupled)
from .scaling import (BASES, ScalingFit, SweepResult, bootstrap_coefficients,
                      fit_scaling, read_sweep, rho_curvature_interval,
                      run_sweep, strong_error)
from .sensitivity import (GridSpec, RobustSet, S2Field, extract_robust_set,
                          read_field, s2_empirical_limit, s2_field, s2_point,
                          write_robust_csv)

__version__ = "0.1.0"

__all__ = [
    "BASES", "BatchError", "BoundBreakdown", "BoundConstants", "ConfigError",
    "CovarianceError", "FieldError",
    "GaussianState", "GridSpec", "InitialCondition", "IntegrationFailure",
    "LinSDEError", "MODEL_NAMES", "MeanderingJetParams",
    "NumericalDomainError", "RobustSet", "S2Field", "SamplePairBatch",
    "ScalingFit", "SimulationConfig", "SingularGradientError", "SweepResult",
    "UnknownModelError", "VectorFieldModel", "bound_rhs", "builtin_model",
    "bootstrap_coefficients", "covariance_by_quadrature",
    "default_bdg_constant", "estimate_constants",
    "extract_robust_set", "fit_scaling", "gaussian_delta_bound",
    "lemma_constants", "linearised_distribution", "moment_constant",
    "read_batch", "read_field", "read_sweep", "rho_curvature_interval",
    "run_sweep", "s2_empirical_limit", "s2_field", "s2_point",
    "sample_coupled", "solve_flow", "strong_error", "theorem_constants",
    "write_robust_csv",
]
