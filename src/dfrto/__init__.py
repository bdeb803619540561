"""Time-optimal batch diafiltration under parametric uncertainty.

Simulation of the plant, the concentrate/singular/dilute optimal policy,
guaranteed set-membership parameter estimation, switching-time reachability,
and nominal/robust/adaptive closed-loop strategies with a Monte Carlo harness.
"""

from .process import (GAMMA1_UNIT_SCALE, Measurement, PlantParams, PlantState,
                      ProcessSpec, StopCondition, Trajectory, dilute, flux,
                      integrate)
from .policy import (PolicyParams, compute_switch_times, singular_control,
                     switching_function)

__all__ = [
    "GAMMA1_UNIT_SCALE", "Measurement", "PlantParams", "PlantState",
    "ProcessSpec", "StopCondition", "Trajectory", "dilute", "flux",
    "integrate", "PolicyParams", "compute_switch_times", "singular_control",
    "switching_function",
]
