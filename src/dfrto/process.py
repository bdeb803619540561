"""Batch diafiltration plant: flux law, dynamics, dilution jumps, flux samples.

States are the macro-solute concentration c1 and micro-solute concentration c2
(both g/L); the tank volume is not a state because macro-solute mass is
conserved, V(t) = c1_0*V0/c1(t).  All times are hours internally; the sampling
period is configured in seconds.

`integrate` runs the plant along a constant-control arc in closed form
(dfrto.arc): states on the sampling grid and the stop (a time or the terminal
ratio) come from explicit expressions, with no step size or event tolerance.
The test suite keeps an independent ODE integrator as the cross-check.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .arc import Arc, _exp
from .errors import ConfigError, DomainError, SimulationTimeout, StallError

# Flux prefactor calibration: the reported mass-transfer coefficient with A in
# m^2 yields A*gamma1 = 0.03 L/h, which puts batch times at hundreds of hours.
# The working interpretation is A*gamma1 = 3 L/h (gamma1 in dm/h with A in
# dm^2).
GAMMA1_UNIT_SCALE = 100.0

# Resolution of the switching-time windows (reach) and of event-time checks;
# the plant propagation itself is exact up to rounding.
TOL_EVENT = 1e-6  # hours


@dataclass(frozen=True)
class PlantParams:
    """Flux-model parameters in the linear-in-parameters form.

    p1: flux offset [L/h], p2: macro-solute log coefficient [L/h],
    p3: micro-solute log coefficient [L/h].
    """

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        if not self.p2 > 0.0:
            raise DomainError(f"p2 must be positive, got {self.p2}")
        if self.p3 < 0.0:
            raise DomainError(f"p3 must be nonnegative, got {self.p3}")

    @classmethod
    def from_gamma(cls, gamma1: float, gamma2: float, gamma3: float,
                   area: float = 1.0) -> "PlantParams":
        """Map phenomenological parameters (gamma1, gamma2, gamma3) to p-space."""
        if gamma2 <= 1.0:
            raise DomainError("gamma2 must exceed 1 g/L for a positive p1")
        if gamma3 < 0.0:
            raise DomainError("gamma3 must be nonnegative")
        k = area * gamma1 * GAMMA1_UNIT_SCALE
        return cls(p1=k * math.log(gamma2), p2=k, p3=k * gamma3)

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3], dtype=float)


@dataclass(frozen=True)
class PlantState:
    """Plant state at time t [h]: concentrations c1, c2 [g/L]."""

    t: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.c1 > 0.0 and self.c2 > 0.0):
            raise DomainError(f"concentrations must be positive: c1={self.c1}, c2={self.c2}")

    def ratio(self) -> float:
        return self.c1 / self.c2


@dataclass(frozen=True)
class ProcessSpec:
    """Batch task definition and measurement setup."""

    c1_0: float = 50.0
    c2_0: float = 50.0
    c1_f: float = 150.0
    c2_f: float = 0.05
    V0: float = 20.0
    A: float = 1.0
    sigma: float = 0.1          # flux noise bound [L/h]
    dt_sample: float = 1.0      # sampling period [s]
    t_max: float = 100.0        # simulation cap [h]

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if not (self.c1_f > self.c1_0 > 0.0):
            raise ConfigError("require c1_f > c1_0 > 0")
        if not (0.0 < self.c2_f < self.c2_0):
            raise ConfigError("require 0 < c2_f < c2_0")
        if self.V0 <= 0.0 or self.A <= 0.0:
            raise ConfigError("V0 and A must be positive")
        if self.sigma < 0.0:
            raise ConfigError("sigma must be nonnegative")
        if self.dt_sample <= 0.0:
            raise ConfigError("dt_sample must be positive")
        if self.t_max <= 0.0:
            raise ConfigError("t_max must be positive")

    @property
    def mass(self) -> float:
        """Conserved macro-solute mass c1_0*V0 [g]."""
        return self.c1_0 * self.V0

    @property
    def ratio_f(self) -> float:
        """Terminal concentration ratio c1_f/c2_f."""
        return self.c1_f / self.c2_f

    @property
    def dt_h(self) -> float:
        """Sampling period in hours."""
        return self.dt_sample / 3600.0

    def initial_state(self) -> PlantState:
        return PlantState(0.0, self.c1_0, self.c2_0)

    @classmethod
    def from_json(cls, path: str) -> "ProcessSpec":
        """The spec of a JSON object of field values; ConfigError names the
        file when it cannot be read or holds no valid spec."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read process spec {path!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"process spec {path!r} must be a JSON object")
        bad = set(raw) - {f.name for f in fields(cls)}
        if bad:
            raise ConfigError(f"unknown process spec keys in {path!r}: {sorted(bad)}")
        try:
            return cls(**raw)
        except ConfigError as exc:
            raise ConfigError(f"process spec {path!r}: {exc}") from exc


class Measurement(NamedTuple):
    """One flux sample: noisy q, exactly measured concentrations.  A named
    tuple, since a full measurement stream builds one per sample."""

    t: float
    q_m: float
    c1: float
    c2: float


def flux(c1, c2, p: PlantParams):
    """Permeate flux q = p1 - p2*ln(c1) - p3*ln(c2) [L/h]; may be <= 0."""
    c1a, c2a = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
    if np.any(c1a <= 0.0) or np.any(c2a <= 0.0):
        raise DomainError("flux requires positive concentrations")
    q = p.p1 - p.p2 * np.log(c1a) - p.p3 * np.log(c2a)
    return float(q) if np.ndim(q) == 0 else q


def dilute(state: PlantState, c1_target: float) -> PlantState:
    """Instantaneous water addition to reach c1_target; c1/c2 is preserved."""
    if not 0.0 < c1_target <= state.c1:
        raise DomainError(
            f"dilution cannot concentrate: target {c1_target} vs c1 {state.c1}")
    factor = c1_target / state.c1
    return PlantState(state.t, c1_target, state.c2 * factor)


# --- stop conditions & integration ------------------------------------------

@dataclass(frozen=True)
class StopCondition:
    """Arc termination criterion for :func:`integrate`: a time, or the ratio
    c1/c2 reaching a value."""

    kind: str
    value: float = math.nan

    def __post_init__(self):
        if self.kind not in ("time", "ratio"):
            raise ConfigError(f"unknown stop kind {self.kind!r}")
        if self.kind == "time" and not math.isfinite(self.value):
            raise ConfigError(f"stop time must be finite, got {self.value}")
        if self.kind == "ratio" and not self.value > 0.0:
            raise ConfigError(f"ratio stop needs a positive value, got {self.value}")

    @classmethod
    def at_time(cls, t: float) -> "StopCondition":
        return cls("time", t)

    @classmethod
    def ratio_reached(cls, ratio: float) -> "StopCondition":
        return cls("ratio", ratio)


@dataclass
class Trajectory:
    """Sampled trajectory of one constant-u arc chain."""

    t: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    u: np.ndarray
    q: np.ndarray
    event_time: float | None = None

    def final_state(self) -> PlantState:
        return PlantState(float(self.t[-1]), float(self.c1[-1]), float(self.c2[-1]))

    @staticmethod
    def concat(parts: Sequence["Trajectory"]) -> "Trajectory":
        parts = [p for p in parts if p.t.size]
        ev = next((p.event_time for p in reversed(parts) if p.event_time is not None), None)
        return Trajectory(
            np.concatenate([p.t for p in parts]),
            np.concatenate([p.c1 for p in parts]),
            np.concatenate([p.c2 for p in parts]),
            np.concatenate([p.u for p in parts]),
            np.concatenate([p.q for p in parts]),
            event_time=ev,
        )

    def write_csv(self, path: str, spec: ProcessSpec) -> None:
        with open(path, "w") as fh:
            fh.write("t,c1,c2,V,u,q\n")
            V = spec.mass / self.c1
            for i in range(self.t.size):
                fh.write(f"{self.t[i]:.10g},{self.c1[i]:.10g},{self.c2[i]:.10g},"
                         f"{V[i]:.10g},{self.u[i]:.10g},{self.q[i]:.10g}\n")


def integrate(state0: PlantState, u: float, p: PlantParams, stop: StopCondition,
              spec: ProcessSpec, *, record: bool = True) -> Trajectory:
    """Run the plant under a constant control u in [0, 1] until `stop`.

    The arc is propagated in closed form (dfrto.arc).  The returned trajectory
    holds the start and the stop point, or (when `record`) the dt_sample grid
    from the start plus the exact stop point.  A ratio stop that already holds
    at the start stops there.

    Raises SimulationTimeout if the stop lies beyond t_max or is never reached
    (a ratio behind the flux stall, a time after c1 has grown without bound)
    and StallError if the flux is not positive at the start of a concentrating
    arc (u < 1).
    """
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"control ratio u must lie in [0, 1], got {u}")
    t0 = state0.t
    # scalar inputs: the arc's constants and its stop are Python floats
    arc = Arc(t0, math.log(state0.c1), math.log(state0.c2), u,
              p.p1, p.p2, p.p3, spec.mass)
    q0 = arc.q0
    if u < 1.0 and q0 <= 0.0:
        raise StallError(
            f"flux nonpositive at the start of a concentrating arc (t={t0:.4f} h)")

    if stop.kind == "time":
        if stop.value < t0 - 1e-15:
            raise ConfigError(f"stop time {stop.value} precedes state time {t0}")
        if stop.value > spec.t_max:
            raise SimulationTimeout(
                f"stop time {stop.value} h exceeds t_max {spec.t_max} h")
        t_stop = stop.value
        if t_stop <= t0 + 1e-15:
            return Trajectory(np.array([t0]), np.array([state0.c1]),
                              np.array([state0.c2]), np.array([u]), np.array([q0]))
        # states brackets with the stall asymptote 1/r where r > 0
        y_hi = 0.0 if arc.frozen or arc.r > 0.0 else arc.y_bound(t_stop)
        if not y_hi < math.inf:
            raise SimulationTimeout(
                f"c1 grows without bound before t={t_stop} h on this arc")
    else:
        t_stop, x_ev, v_ev = arc.ratio_event(math.log(stop.value))
        if not t_stop <= spec.t_max:
            raise SimulationTimeout(
                f"stop condition {stop.kind!r} not reached by t_max={spec.t_max} h")
        y_hi = x_ev - arc.x0

    event_time = t_stop if stop.kind != "time" else None
    if not record:
        # The start and the stop only, in Python floats.  The start state is
        # exact: in a states() call it sits at Y = 0 and converges on the first
        # Halley pass, so solving for the stop alone gives the same bits.
        if event_time is None:
            x_ev, v_ev = arc.states(t_stop, y_hi)
        moved = t_stop > t0
        ts = [t0, t_stop] if moved else [t0]
        xs = [arc.x0, x_ev] if moved else [x_ev]
        vs = [arc.v0, v_ev] if moved else [v_ev]
        # relative to the start, so that a state that does not move stays exact
        c1s = [state0.c1 * _exp(x - arc.x0) for x in xs]
        c2s = [state0.c2 * _exp(v - arc.v0) for v in vs]
        qs = [p.p1 - p.p2 * x - p.p3 * v for x, v in zip(xs, vs)]
        return Trajectory(np.array(ts), np.array(c1s), np.array(c2s),
                          np.array([u] * len(ts)), np.array(qs), event_time=event_time)
    dt = spec.dt_h
    n = int(math.floor((t_stop - t0) / dt + 1e-9))
    ts = t0 + dt * np.arange(n + 1)
    if t_stop - ts[-1] > 1e-12:
        ts = np.append(ts, t_stop)
    else:
        ts[-1] = t_stop
    x, v = arc.states(ts, y_hi)
    if event_time is not None:
        x[-1], v[-1] = x_ev, v_ev
    c1s = state0.c1 * np.exp(x - arc.x0)          # relative to the start, as above
    c2s = state0.c2 * np.exp(v - arc.v0)
    qs = p.p1 - p.p2 * x - p.p3 * v
    return Trajectory(ts, c1s, c2s, np.full_like(ts, u), qs, event_time=event_time)
