"""Exception hierarchy shared across the package, and `open_output`."""

import contextlib


class DfrtoError(Exception):
    """Base class for all package errors."""


class ConfigError(DfrtoError):
    """Invalid configuration value or malformed config file."""


class DomainError(DfrtoError, ValueError):
    """Model evaluated outside its domain (e.g. non-positive concentration)."""


class StallError(DfrtoError):
    """Permeate flux dropped to zero on a concentrating arc."""


class SimulationTimeout(DfrtoError):
    """Stop condition not reached before the simulation time cap."""


class UnsupportedStructureError(DfrtoError):
    """Initial state is not in the concentrate/singular/dilute regime."""


class DegenerateModelError(DfrtoError):
    """Flux model degenerate (p2 + p3 = 0): singular control undefined."""


class ModelInvalidatedError(DfrtoError):
    """Measurement constraints are inconsistent with the assumed noise bound."""


class InfeasibleLPError(DfrtoError):
    """Linear program has an empty feasible region."""


@contextlib.contextmanager
def open_output(path: str):
    """`with open_output(path) as fh:` writes path; an OSError on opening,
    writing or closing it (a full disk) raises as a ConfigError naming it."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
