"""Exception hierarchy shared by all cohsets modules.

Errors carry a (module, operation) tag so CLI scripts can report structured
failures and map them to exit codes.
"""


class CohsetsError(Exception):
    """Base class for all cohsets errors."""

    def __init__(self, message, module=None, operation=None):
        self.module = module
        self.operation = operation
        if module or operation:
            message = f"[{module or '?'}:{operation or '?'}] {message}"
        super().__init__(message)


class InputError(CohsetsError):
    """Invalid user-supplied data or parameters. CLI exit code 2."""


class NumericalError(CohsetsError):
    """Factorization/eigensolver failure or diverged computation. CLI exit code 3."""
