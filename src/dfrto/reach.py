"""Projection of a parameter box into switching-time windows and the control band.

The singular-control band follows exactly from monotonicity of p2/(p2+p3).
Switching-time windows are sampled (the box vertices, midpoint and
Latin-hypercube interior points of setmem.scenario_points, each evaluated with
the closed-form planner) and outward rounded by the event tolerance plus a
guard fraction of the hull width; the guarantee is validated by containment
tests rather than proven.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateModelError, open_output
from .policy import plan_vectorized
from .process import TOL_EVENT, ProcessSpec
from .setmem import ParamBox, scenario_points

GUARD_FRACTION = 0.05
N_LHS = 64
_LHS_SEED = 1729  # fixed so projections are reproducible


@dataclass(frozen=True)
class SwitchWindows:
    """Guaranteed intervals for the switching times and the singular control."""

    t1: tuple[float, float]
    t2: tuple[float, float]
    tf: tuple[float, float]
    u_band: tuple[float, float]

    def __post_init__(self):
        for name in ("t1", "t2", "tf", "u_band"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ConfigError(f"window {name} is empty: [{lo}, {hi}]")
        if not (0.0 < self.u_band[1] <= 1.0 + 1e-12):
            raise ConfigError(f"u_band must lie in (0, 1]: {self.u_band}")

    def to_json(self, path: str | None = None) -> str:
        payload = {"t1": list(self.t1), "t2": list(self.t2),
                   "tf": list(self.tf), "us": list(self.u_band)}
        text = json.dumps(payload, indent=2) + "\n"
        if path is not None:
            with open_output(path) as fh:
                fh.write(text)
        return text


def project_u_band(P: ParamBox) -> tuple[float, float]:
    """Exact singular-control interval over the box by monotonicity."""
    lo, hi = P.lo_arr(), P.hi_arr()
    if lo[1] <= 0.0:
        raise DegenerateModelError("p2 lower bound must be positive")
    if lo[1] + hi[2] <= 0.0:
        raise DegenerateModelError("p2 + p3 degenerate on the box")
    return (lo[1] / (lo[1] + hi[2]), hi[1] / (hi[1] + lo[2]))


def project_switch_windows(P: ParamBox, spec: ProcessSpec) -> SwitchWindows:
    """Windows for t1, t2, tf over the box, plus the exact singular band.

    Every sampled scenario uses its own optimal policy, so the windows bound
    the optimal switching times as functions of the parameters.  A scenario
    starting below the singular surface makes plan_vectorized raise
    UnsupportedStructureError naming its parameter vector.
    """
    plan = plan_vectorized(scenario_points(P.lo_arr(), P.hi_arr(), N_LHS, _LHS_SEED), spec)

    def hull(values: np.ndarray) -> tuple[float, float]:
        lo, hi = float(values.min()), float(values.max())
        pad = (GUARD_FRACTION * (hi - lo) + TOL_EVENT) / 2.0
        return max(lo - pad, 0.0), hi + pad

    t1 = hull(plan["t1"])
    t2 = hull(plan["t2"])
    tf = hull(plan["tf"])
    return SwitchWindows(t1, t2, tf, project_u_band(P))
