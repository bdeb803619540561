"""The two studied flux cases and their uncertainty setup.

limiting_flux: q = A*g1*ln(g2/c1), i.e. no micro-solute effect (g3 = 0).
generalized:   adds the c2 term with g3 = 0.1.

The prior parameter box is the tightest p-space enclosure of the +-pct
gamma-space box; gamma3 is certain (zero) in the limiting-flux case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .process import GAMMA1_UNIT_SCALE, PlantParams, ProcessSpec
from .setmem import ParamBox, scenario_points

UNCERTAINTY_PCT_DEFAULT = 0.10
# interior Latin-hypercube points of the robust scenario set, and their seed
_N_LHS = 16
_LHS_SEED = 2718


@dataclass(frozen=True)
class CaseStudy:
    name: str
    gamma1: float
    gamma2: float
    gamma3: float

    def nominal_params(self, spec: ProcessSpec) -> PlantParams:
        return PlantParams.from_gamma(self.gamma1, self.gamma2, self.gamma3, area=spec.A)

    def prior_box(self, spec: ProcessSpec,
                  pct: float = UNCERTAINTY_PCT_DEFAULT) -> ParamBox:
        if not 0.0 < pct < 1.0:
            raise ConfigError(f"uncertainty fraction must be in (0,1): {pct}")
        lo = (self.gamma1 * (1 - pct), self.gamma2 * (1 - pct), self.gamma3 * (1 - pct))
        hi = (self.gamma1 * (1 + pct), self.gamma2 * (1 + pct), self.gamma3 * (1 + pct))
        return ParamBox.from_gamma_box(lo, hi, area=spec.A)

    def draw_truth_gamma(self, rng: np.random.Generator, pct: float,
                         spec: ProcessSpec) -> PlantParams:
        """Uniform componentwise draw of (gamma1, gamma2, gamma3) in the +-pct
        box, mapped to p-space; always inside the enclosing prior box.  The
        parameters are Python floats, so the plant runs on the float path of
        dfrto.arc."""
        g = np.array([self.gamma1, self.gamma2, self.gamma3])
        draw = rng.uniform(g * (1 - pct), g * (1 + pct)).tolist()
        return PlantParams.from_gamma(*draw, area=spec.A)

    def gamma_scenarios(self, spec: ProcessSpec,
                        pct: float = UNCERTAINTY_PCT_DEFAULT) -> np.ndarray:
        """Worst-case scenario sample consistent with the +-pct uncertainty.

        The vertices, midpoint (the nominal point) and interior Latin-hypercube
        points of the gamma-space box, mapped to p-space.  All rows lie inside
        the enclosing prior box.
        """
        g = np.array([self.gamma1, self.gamma2, self.gamma3])
        gam = scenario_points(g * (1 - pct), g * (1 + pct), _N_LHS, _LHS_SEED)
        k = spec.A * GAMMA1_UNIT_SCALE * gam[:, 0]
        return np.column_stack([k * np.log(gam[:, 1]), k, k * gam[:, 2]])


CASES: dict[str, CaseStudy] = {
    "limiting_flux": CaseStudy("limiting_flux", 3e-2, 1000.0, 0.0),
    "generalized": CaseStudy("generalized", 3e-2, 1000.0, 0.1),
}


def get_case(name: str) -> CaseStudy:
    try:
        return CASES[name]
    except KeyError:
        raise ConfigError(
            f"unknown case {name!r}; choose from {sorted(CASES)}") from None
