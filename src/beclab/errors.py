"""Exception hierarchy shared by all beclab modules.

Exit-code mapping used by the command line driver:
config/setup problems exit 2, solver failures exit 3, verification
failures exit 4.
"""


class BecLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BecLabError):
    """Invalid configuration, schema violation, or inadequate setup."""

    def __init__(self, message, field=None):
        self.detail = message           # the message without its field
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class InvalidParameterError(ConfigError):
    """A parameter is outside its mathematically valid range."""


class OutOfDomainError(ConfigError):
    """Evaluation requested outside a tabulated field's extent."""


class DomainTooSmallError(ConfigError):
    """Grid extent cannot contain the solution to the required decay."""


class CapacityError(ConfigError):
    """Requested problem exceeds a configured size cap."""


class ResolutionError(ConfigError):
    """Grid too coarse to represent the requested objects."""


class BasisInsufficientError(ConfigError):
    """Truncated mode basis cannot carry the requested state."""


class SolverFailureError(BecLabError):
    """An iterative solver did not converge; carries diagnostics."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class IntegrityError(BecLabError):
    """A stored report is missing, truncated, or inconsistent."""
