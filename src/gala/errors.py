"""Exception types shared across the package, and the reading of input
files under the error contract: a file that cannot be read or decoded is
a configuration problem naming its path."""

import json
from pathlib import Path


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


def read_input(path, what: str, as_json: bool = True):
    """The parsed JSON of an input file, or with ``as_json`` False its text.

    A file that is missing, cannot be read (a directory, say) or does not
    decode raises a ConfigurationError naming ``what`` and the path.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"{what} not found at expected path: {p}")
    try:
        text = p.read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except OSError as e:
        raise ConfigurationError(f"{what} {p} cannot be read: {e.strerror or e}") from e
    except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
        form = "valid JSON" if as_json else "UTF-8 text"
        raise ConfigurationError(f"{what} {p} is not {form}: {e}") from e
