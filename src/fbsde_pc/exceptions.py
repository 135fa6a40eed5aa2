"""Exception hierarchy shared by all fbsde_pc modules.

Two branches matter for the CLI exit codes: ValidationError (bad inputs,
precondition violations, exit code 2) and NumericalError (a computation
produced garbage at runtime, exit code 3).  ValidationError is also a
ValueError, so callers that catch the builtin still see bad inputs.
"""


class FbsdeError(Exception):
    pass


class ValidationError(FbsdeError, ValueError):
    pass


class NumericalError(FbsdeError):
    pass


# -- scheme coefficient derivation -------------------------------------------

class UnderdeterminedSystem(ValidationError):
    """Too few pinned values: the order conditions leave free parameters."""


class OverdeterminedSystem(ValidationError):
    """Pinned values conflict with the order conditions."""


class SingularSystem(ValidationError):
    """The pinned assignment makes the remaining linear system rank-deficient."""


class UnsupportedOrder(ValidationError):
    """Requested order / step count outside the supported range."""


class DegenerateIndicator(ValidationError):
    """Predictor and corrector error constants coincide; the Milne local-error
    indicator is undefined."""


# -- stability ----------------------------------------------------------------

class NonConvergence(NumericalError):
    """Eigenvalue iteration for polynomial roots failed to converge."""


class UnstableScheme(ValidationError):
    """Scheme failed the root-condition check and no override was given."""


# -- simulation ---------------------------------------------------------------

class AllocationTooLarge(ValidationError):
    """Requested ensemble exceeds the configured memory budget."""


class NonFiniteState(NumericalError):
    """Drift or diffusion produced a NaN/inf state during path generation."""


# -- regression ---------------------------------------------------------------

class BasisTooLarge(ValidationError):
    """Polynomial basis size exceeds the configured cap."""


class EmptySample(ValidationError):
    """Regression called with zero samples."""


class DimensionMismatch(ValidationError):
    """Input dimension does not match the basis dimension."""


# -- problems -----------------------------------------------------------------

class NoClosedForm(ValidationError):
    """Problem carries no closed-form solution."""


class NotDeterministic(ValidationError):
    """Deterministic (ODE-mode) solve requested for a problem with noise or a
    z-dependent driver."""


# -- solver -------------------------------------------------------------------

class NonFiniteResponse(NumericalError):
    """Driver evaluation produced NaN/inf inside a regression response."""


# -- experiments --------------------------------------------------------------

class TooFewBatches(ValidationError):
    """Confidence interval needs at least two batches."""


class NonPositiveError(ValidationError):
    """Convergence-rate fit needs strictly positive errors."""
