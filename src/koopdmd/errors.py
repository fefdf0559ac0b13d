"""Exception types shared across the package.

The CLI maps ConfigError to exit code 2, NumericalError (and its
subclasses) to exit code 3, and OSError (an unreadable input or an
unwritable output path) to exit code 4. Plain ValueError is reserved for
violated call preconditions, which the CLI prevents by validating configs
first.
"""


class KoopdmdError(Exception):
    """Base class for package-specific failures."""


class ConfigError(KoopdmdError):
    """Invalid run configuration or CLI usage."""


class NumericalError(KoopdmdError):
    """A computation failed for numerical reasons."""


class DecompositionError(NumericalError):
    """A matrix factorization could not be completed or is unusable."""


class RankDeficiencyError(NumericalError):
    """Input data is rank deficient where full rank is required."""


class IntegrationError(NumericalError):
    """Numerical integration produced a non-finite state."""
