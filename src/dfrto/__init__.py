"""Time-optimal batch diafiltration under parametric uncertainty.

Simulation of the plant, the concentrate/singular/dilute optimal policy,
guaranteed set-membership parameter estimation, switching-time reachability,
and nominal/robust/adaptive closed-loop strategies with a Monte Carlo harness.

The names below load from their modules on first access (PEP 562), so that
`import dfrto.cli` loads only what its subcommand runs.  Any other name, a
submodule's too, raises AttributeError, so `from dfrto import cli` still works.
"""

import importlib

_EXPORTS = {
    "process": ("GAMMA1_UNIT_SCALE", "Measurement", "PlantParams", "PlantState",
                "ProcessSpec", "StopCondition", "Trajectory", "dilute", "flux"),
    "arc": ("integrate",),
    "policy": ("plan_vectorized", "singular_control"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value
    return value
