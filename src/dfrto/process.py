"""Batch diafiltration plant: flux law, dynamics, dilution jumps, flux samples.

States are the macro-solute concentration c1 and micro-solute concentration c2
(both g/L); the tank volume is not a state because macro-solute mass is
conserved, V(t) = c1_0*V0/c1(t).  All times are hours internally; the sampling
period is configured in seconds.

The stop conditions and trajectories of `dfrto.arc.integrate` live here too.
`integrate` itself lives next to `Arc` in dfrto.arc, which imports scipy.special,
so that this module, and the estimator and CLI parts built on it, import without
scipy.  The test suite keeps an independent ODE integrator as the cross-check.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, open_output

# Flux prefactor calibration: the reported mass-transfer coefficient with A in
# m^2 yields A*gamma1 = 0.03 L/h, which puts batch times at hundreds of hours.
# The working interpretation is A*gamma1 = 3 L/h (gamma1 in dm/h with A in
# dm^2).
GAMMA1_UNIT_SCALE = 100.0

# Resolution of the switching-time windows (reach) and of event-time checks;
# the plant propagation itself is exact up to rounding.
TOL_EVENT = 1e-6  # hours

# Most sample times t_max/dt_h (360,000 by default); runs allocate per sample.
MAX_SAMPLES = 10_000_000


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
        if self.t_max / self.dt_h > MAX_SAMPLES:
            raise ConfigError(f"t_max = {self.t_max} h at dt_sample = {self.dt_sample} s "
                              f"gives more than {MAX_SAMPLES:,} samples")

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


# --- stop conditions & trajectories ------------------------------------------

@dataclass(frozen=True)
class StopCondition:
    """Arc termination criterion for :func:`dfrto.arc.integrate`: a time, or
    the ratio c1/c2 reaching a value."""

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
        with open_output(path) as fh:
            fh.write("t,c1,c2,V,u,q\n")
            V = spec.mass / self.c1
            for i in range(self.t.size):
                fh.write(f"{self.t[i]:.10g},{self.c1[i]:.10g},{self.c2[i]:.10g},"
                         f"{V[i]:.10g},{self.u[i]:.10g},{self.q[i]:.10g}\n")
