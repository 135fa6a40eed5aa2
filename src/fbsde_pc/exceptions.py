"""Exception hierarchy shared by all fbsde_pc modules.

Two branches matter for the CLI exit codes: ValidationError (bad inputs,
precondition violations, exit code 2) and NumericalError (a computation
produced garbage at runtime, exit code 3).  Each message names the check
that failed.  ValidationError is also a ValueError, so callers that catch
the builtin still see bad inputs.
"""


class FbsdeError(Exception):
    pass


class ValidationError(FbsdeError, ValueError):
    pass


class NumericalError(FbsdeError):
    pass


class DegenerateIndicator(ValidationError):
    """Predictor and corrector error constants coincide; the Milne local-error
    indicator is undefined."""
