"""Optimal control structure for the diafiltration plant.

The time-optimal policy is concentrate (u=0) -> constant-flux diafiltration
(singular, u=u_s) -> instantaneous dilution.  The switching surface is where
the flux drops to p2+p3; along the singular arc the flux is pinned there and
the control is the constant u_s = p2/(p2+p3).

Switching times have closed forms in the exponential integral Ei (the arc
times of dfrto.arc); the test suite checks them against an independent ODE
integrator.
"""

from __future__ import annotations

import math

import numpy as np

from .arc import Arc
from .arc import integrate  # noqa: F401  (perfbench/tracing.py wraps policy.integrate)
from .errors import DegenerateModelError, UnsupportedStructureError
from .process import PlantParams, ProcessSpec


def singular_control(p: PlantParams) -> float:
    """Constant singular control u_s = p2/(p2+p3)."""
    if p.p2 + p.p3 <= 0.0:
        raise DegenerateModelError("p2 + p3 must be positive")
    return p.p2 / (p.p2 + p.p3)


# --- closed-form plan ---------------------------------------------------------

def plan_vectorized(P: np.ndarray, spec: ProcessSpec) -> dict:
    """Switching times and singular controls for each parameter row of P (n,3).

    Returns arrays t1, t2, tf, us, c1_switch, c1_end; for the single plant of
    a 1-D P (3,) they are Python floats, computed on the float path of
    dfrto.arc with the same bits.  Raises UnsupportedStructureError, naming the
    first such row, when a row does not start above the singular surface
    (S(x0) = q(x0) - p2 - p3 <= 0) or would switch past the ratio target
    (c1_switch > ratio_f*c2_0, reached on the concentrate arc).  A c1_end below
    c1_f is returned as is: a batch on such a plant ends infeasible at its
    dilution.
    """
    P = np.asarray(P, dtype=float)
    single = P.ndim == 1
    if single:
        p1, p2, p3 = P.tolist()
    else:
        P = np.atleast_2d(P)
        p1, p2, p3 = P[:, 0], P[:, 1], P[:, 2]
    m = spec.mass
    ln_c10, ln_c20 = math.log(spec.c1_0), math.log(spec.c2_0)

    alpha = p1 - p3 * ln_c20            # arc-1 flux intercept (c2 frozen)
    w0 = alpha / p2 - ln_c10            # q(x0)/p2
    ws = (p2 + p3) / p2                 # q/p2 on the singular surface
    ln_sw = alpha / p2 - ws             # ln c1 at the switch; NaN is beyond the target
    for bad, what in ((w0 <= ws, "initial state not above the singular surface"),
                      (np.logical_not(ln_sw <= math.log(spec.ratio_f * spec.c2_0)),
                       "ratio target reached before the singular surface")):
        if np.any(bad):
            row = P if single else P[int(np.argmax(bad))]
            raise UnsupportedStructureError(f"{what} for p={row.tolist()}")
    c1_sw = np.exp(ln_sw)
    t1 = Arc(0.0, ln_c10, ln_c20, 0.0, p1, p2, p3, m).time_to(ln_sw)
    us = p2 / (p2 + p3)
    if single:
        c1_sw = float(c1_sw)
        c1_end, dt2 = (_constant_c1_arc(c1_sw, p2, spec) if p3 <= 0.0
                       else _singular_arc(c1_sw, p2, p3, spec))
        tf = float(t1 + dt2)
        return {"t1": t1, "t2": tf, "tf": tf, "us": us,
                "c1_switch": c1_sw, "c1_end": float(c1_end)}
    dt2 = np.empty_like(t1)
    c1_end = np.empty_like(t1)
    pure = p3 <= 0.0
    if np.any(pure):
        c1_end[pure], dt2[pure] = _constant_c1_arc(c1_sw[pure], p2[pure], spec)
    gen = ~pure
    if np.any(gen):
        c1_end[gen], dt2[gen] = _singular_arc(c1_sw[gen], p2[gen], p3[gen], spec)
    tf = t1 + dt2
    return {"t1": t1, "t2": tf.copy(), "tf": tf, "us": us,
            "c1_switch": c1_sw, "c1_end": c1_end}


def _constant_c1_arc(c1_sw, p2, spec: ProcessSpec):
    """(c1 at the ratio target, duration) of the singular arc from c1_sw when
    p3 = 0: c1 stays constant while c2 washes out."""
    return c1_sw, spec.mass * np.log(spec.c2_0 * spec.ratio_f / c1_sw) / (c1_sw * p2)


def _singular_arc(c1_sw, p2, p3, spec: ProcessSpec):
    """(c1 at the ratio target, duration) of the singular arc from c1_sw when
    p3 > 0."""
    # ln c1 grows by L*p3/(p2+p3) over the arc; expm1 keeps the duration
    # stable as p3 -> 0 (limit is the constant-c1 branch above)
    L = np.log(spec.ratio_f * spec.c2_0) - np.log(c1_sw)
    delta = L * p3 / (p2 + p3)
    return c1_sw * np.exp(delta), -spec.mass * np.expm1(-delta) / (p3 * c1_sw)
