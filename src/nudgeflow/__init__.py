"""Fully discrete nudging-based downscaling for 2D incompressible flow.

Spectral Galerkin in space, semi-implicit or fully implicit Euler in
time, feedback nudging toward coarse observations, a postprocessing
correction for the unresolved modes, and an analysis layer that
evaluates the a-priori constants and verifies the stability,
contraction, and convergence bounds numerically.
"""

from .analysis import (
    BoundConstants,
    ConditionCheck,
    ConditionReport,
    DecayFit,
    FitError,
    OrderFit,
    bound_constants,
    check_conditions,
    contraction_envelope,
    convergence_order,
    decay_rate_fit,
    gronwall_envelope,
    stability_bound_h2,
    stability_bound_v2,
)
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .fields import (
    FieldInvariantError,
    GalerkinCutoff,
    GridMismatchError,
    SpectralField,
    TorusGrid,
    inner_product,
    is_low_supported,
    norm_DA,
    norm_H,
    norm_V,
    project_high,
    project_low,
    random_field,
    to_physical,
)
from .interpolants import InterpolantSpec, apply_ih, estimate_c0
from .krylov import SolveResult, SolverError, gmres
from .operators import (
    apply_stokes,
    bilinear_B,
    inverse_stokes,
    kolmogorov_forcing,
    kolmogorov_steady_state,
    phi1,
    taylor_green,
)
from .schemes import (
    FULLY_IMPLICIT,
    SCHEMES,
    SEMI_IMPLICIT,
    PhysicsParams,
    advance,
    nse_integrate,
    reference_galerkin_integrate,
)
from .storage import (
    SnapshotFormatError,
    Trajectory,
    load_snapshot,
    save_snapshot,
)
from .experiments import (
    CheckResult,
    ExperimentReport,
    run_contraction_test,
    run_n_sweep,
    run_stability_soak,
    run_tau_sweep,
    run_twin_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
