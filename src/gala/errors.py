"""Exception types shared across the package."""


class GalaError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GalaError, ValueError):
    """A spec, config file, or argument is structurally invalid."""


class NumericsError(GalaError, ArithmeticError):
    """A computation produced non-finite values; ``runs`` lists the runs of
    a stacked pass that did."""

    def __init__(self, message: str, runs=()):
        super().__init__(message)
        self.runs = [int(r) for r in runs]


class TrainingError(GalaError, RuntimeError):
    """Pretraining diverged or otherwise failed mid-run."""
