"""Multi-step predictor-corrector solver toolkit for decoupled FBSDEs.

Subpackages: schemes (coefficient derivation), stability (root condition),
simulation (Brownian ensembles and Euler paths), regression (least-squares
Monte Carlo), problems (benchmark definitions), solver (the backward pass),
experiments (convergence/stability harness), cli (command line).
"""

from .exceptions import DegenerateIndicator, FbsdeError, NumericalError, ValidationError
from .experiments import (
    ConvergenceReport,
    TrialLadder,
    batch_ci,
    convergence_rate,
    emit_report,
    run_ladder,
    run_trial,
    stability_demo,
    t_quantile,
)
from .problems import (
    FbsdeProblem,
    closed_form_reference,
    example1,
    example2,
    exponential_ode,
)
from .regression import (
    PolynomialBasis,
    RegressionModel,
    build_basis,
    truncate,
)
from .schemes import (
    Coefficients,
    MultistepScheme,
    adams_pair,
    derivative_weights,
    load_scheme,
    milne_factor,
    scheme_from_json,
    scheme_to_json,
    solve_order_conditions,
    stable_preset,
    truncation_residuals,
    unstable_three_step,
    unstable_two_step,
)
from .simulation import (
    GridSpec,
    PathEnsemble,
    brownian_increments,
    euler_paths,
    sample_ensemble,
)
from .solver import (
    BackwardSolution,
    SolverConfig,
    deterministic_solve,
    milne_local_ratios,
    solve,
)
from .stability import (
    StabilityVerdict,
    characteristic_polynomial,
    check_root_condition,
    polynomial_roots,
    scheme_verdict,
)

__version__ = "0.1.0"
