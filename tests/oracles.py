"""Independent numerical oracles used only by the test suite.

Deliberately naive implementations: fixed-step RK4, an event-detecting
adaptive ODE solve, dense grid feasibility scans, vertex enumeration, and an
exact-rational bound certificate.
They must not share code with the package.  The helpers at the end are the
exception: they replay a committed policy with the package itself, or draw
test truths, and exist only for the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from dfrto.arc import integrate
from dfrto.errors import ConfigError
from dfrto.policy import plan_vectorized, singular_control
from dfrto.process import (PlantParams, PlantState, ProcessSpec, StopCondition,
                           Trajectory, dilute, flux)
from dfrto.setmem import ParamBox

DILUTE = math.inf  # control value standing for the instantaneous-dilution mode


def _deriv(c1, c2, V, u, p, mass):
    q = p.p1 - p.p2 * math.log(c1) - p.p3 * math.log(c2)
    dc1 = c1 * c1 * q * (1.0 - u) / mass
    dc2 = -c1 * c2 * q * u / mass
    dV = (u - 1.0) * q
    return dc1, dc2, dV


def rk4_integrate(state0, u, p, spec, t_end, h=1e-4):
    """Fixed-step RK4 of (c1, c2, V) from state0.t to t_end."""
    t, c1, c2 = state0.t, state0.c1, state0.c2
    V = spec.mass / c1
    mass = spec.mass
    n = int(round((t_end - t) / h))
    h_exact = (t_end - t) / n if n else 0.0
    for _ in range(n):
        k1 = _deriv(c1, c2, V, u, p, mass)
        k2 = _deriv(c1 + 0.5 * h_exact * k1[0], c2 + 0.5 * h_exact * k1[1],
                    V + 0.5 * h_exact * k1[2], u, p, mass)
        k3 = _deriv(c1 + 0.5 * h_exact * k2[0], c2 + 0.5 * h_exact * k2[1],
                    V + 0.5 * h_exact * k2[2], u, p, mass)
        k4 = _deriv(c1 + h_exact * k3[0], c2 + h_exact * k3[1],
                    V + h_exact * k3[2], u, p, mass)
        c1 += h_exact * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        c2 += h_exact * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        V += h_exact * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
        t += h_exact
    return t, c1, c2, V


def rk4_event_time(state0, u, p, spec, event, h=1e-4, t_max=None):
    """First zero upcrossing/downcrossing time of event(c1, c2), located by
    linear interpolation between fixed RK4 steps."""
    t_cap = t_max if t_max is not None else spec.t_max
    t, c1, c2 = state0.t, state0.c1, state0.c2
    V = spec.mass / c1
    mass = spec.mass
    g_prev = event(c1, c2)
    while t < t_cap:
        k1 = _deriv(c1, c2, V, u, p, mass)
        k2 = _deriv(c1 + 0.5 * h * k1[0], c2 + 0.5 * h * k1[1], V, u, p, mass)
        k3 = _deriv(c1 + 0.5 * h * k2[0], c2 + 0.5 * h * k2[1], V, u, p, mass)
        k4 = _deriv(c1 + h * k3[0], c2 + h * k3[1], V, u, p, mass)
        c1n = c1 + h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        c2n = c2 + h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        g = event(c1n, c2n)
        if g == 0.0 or (g > 0.0) != (g_prev > 0.0):
            frac = g_prev / (g_prev - g)
            return t + frac * h
        t, c1, c2, g_prev = t + h, c1n, c2n, g
    raise AssertionError("oracle: event not reached before t_max")


@dataclass
class OdeArc:
    """Result of ode_integrate: samples (t, c1, c2, q) and the stop event time."""

    t: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    q: np.ndarray
    event_time: float | None


def ode_integrate(state0, u, p, spec, stop, value=math.nan, *, record=False,
                  rtol=1e-11):
    """The plant under a constant control u from state0 until a stop, by RK45.

    stop is "time" (at t = value), "ratio" (c1/c2 rises to value) or "switch"
    (the flux falls to p2 + p3).  Returns the start and the stop point, or with
    `record` the dt_sample grid from the start plus the stop point.  Raises
    AssertionError when the event is not reached by spec.t_max.
    """
    m = spec.mass

    def flux(c1, c2, pp):
        return pp.p1 - pp.p2 * math.log(c1) - pp.p3 * math.log(c2)

    def f(t, y):
        q = flux(y[0], y[1], p)
        return (y[0] * y[0] * q * (1.0 - u) / m, -y[0] * y[1] * q * u / m)

    events = None
    if stop == "ratio":
        def ev(t, y):
            return y[0] / y[1] - value
    elif stop == "switch":
        def ev(t, y):
            return p.p2 + p.p3 - flux(y[0], y[1], p)
    else:
        ev = None
    if ev is not None:
        ev.terminal, ev.direction = True, 1.0
        events = [ev]
    t_end = value if stop == "time" else spec.t_max
    sol = solve_ivp(f, (state0.t, t_end), (state0.c1, state0.c2), method="RK45",
                    rtol=rtol, atol=(1e-12, 1e-14), dense_output=True, events=events)
    assert sol.success, sol.message
    event_time = None
    if events is not None:
        assert sol.t_events[0].size, f"oracle: {stop} not reached by t_max"
        event_time = t_end = float(sol.t_events[0][0])
    if record:
        n = int(math.floor((t_end - state0.t) / spec.dt_h + 1e-9))
        ts = state0.t + spec.dt_h * np.arange(n + 1)
        if t_end - ts[-1] > 1e-12:
            ts = np.append(ts, t_end)
    else:
        ts = np.array([state0.t, t_end])
    c1, c2 = sol.sol(ts)
    q = p.p1 - p.p2 * np.log(c1) - p.p3 * np.log(c2)
    return OdeArc(ts, c1, c2, q, event_time)


def grid_feasible_box(rows, q_values, sigma, prior, n=101):
    """Componentwise bounds of grid points satisfying every noise constraint.

    rows: (k, 3) regressors a with a.p predicting q; feasible iff
    |a.p - q_i| <= sigma for all i.  Grid is n points per axis over the prior.
    Returns (lo, hi, cell) or None when no grid point is feasible.
    """
    lo_p, hi_p = np.asarray(prior.lo), np.asarray(prior.hi)
    axes = [np.linspace(lo_p[j], hi_p[j], n) for j in range(3)]
    cell = (hi_p - lo_p) / (n - 1)
    rows = np.asarray(rows, dtype=float)
    q_values = np.asarray(q_values, dtype=float)
    # for fixed (p2, p3) the feasible p1 values form an interval
    P2, P3 = np.meshgrid(axes[1], axes[2], indexing="ij")
    base = rows[:, 1][:, None, None] * P2[None] + rows[:, 2][:, None, None] * P3[None]
    lo_req = np.max(q_values[:, None, None] - sigma - base, axis=0)
    hi_req = np.min(q_values[:, None, None] + sigma - base, axis=0)
    lo_out = np.full(3, np.inf)
    hi_out = np.full(3, -np.inf)
    found = False
    for i1, p1 in enumerate(axes[0]):
        mask = (lo_req <= p1) & (p1 <= hi_req)
        if not mask.any():
            continue
        found = True
        lo_out[0] = min(lo_out[0], p1)
        hi_out[0] = max(hi_out[0], p1)
        lo_out[1] = min(lo_out[1], P2[mask].min())
        hi_out[1] = max(hi_out[1], P2[mask].max())
        lo_out[2] = min(lo_out[2], P3[mask].min())
        hi_out[2] = max(hi_out[2], P3[mask].max())
    if not found:
        return None
    return lo_out, hi_out, cell


def lp_vertex_enumeration(c, G, h, prior):
    """Brute-force optimum of min c.p over {G p <= h} within the prior box."""
    A = np.vstack([G, np.eye(3), -np.eye(3)])
    b = np.concatenate([h, np.asarray(prior.hi), -np.asarray(prior.lo)])
    best = None
    for comb in itertools.combinations(range(A.shape[0]), 3):
        M = A[list(comb)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, b[list(comb)])
        if np.all(A @ x <= b + 1e-8):
            val = float(c @ x)
            if best is None or val < best[1]:
                best = (x, val)
    return best


def _solve_exact(M, rhs):
    """The solution of M x = rhs in Fractions, or None when M is singular."""
    n = len(M)
    R = [list(row) + [r] for row, r in zip(M, rhs)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if R[r][c] != 0), None)
        if pivot is None:
            return None
        R[c], R[pivot] = R[pivot], R[c]
        for r in range(n):
            if r != c and R[r][c] != 0:
                f = R[r][c] / R[c][c]
                R[r] = [x - f * y for x, y in zip(R[r], R[c])]
    return [R[i][n] / R[i][i] for i in range(n)]


def certify_bound(facets, halfspaces, prior, j, sign, box):
    """Exact certificate of one box bound: max p_j (sign = +1) or min p_j
    (sign = -1) over the half-spaces a.p <= b in `halfspaces` and the prior
    box is at most box.hi[j] (at least box.lo[j]).

    `facets` are the half-spaces (a0, a1, a2, b) through the vertex that
    achieves the bound.  A coordinate with zero prior width is fixed at its
    prior value.  The routine looks for d of the facets (d free coordinates)
    whose vertex x has multipliers lam >= 0 with sum(lam_i a_i) = sign*e_j,
    so x is optimal over those d half-spaces, then checks exactly that x
    satisfies every half-space and lies in the box.  Every number is the
    Fraction of its float.  Returns x; raises AssertionError otherwise.
    """
    free = [i for i in range(3) if prior.lo[i] < prior.hi[i]]
    fixed = {i: Fraction(prior.lo[i]) for i in range(3) if i not in free}
    exact = [([Fraction(v) for v in f[:3]], Fraction(f[3])) for f in facets]
    target = [Fraction(sign) if i == j else Fraction(0) for i in free]
    for combo in itertools.combinations(exact, len(free)):
        M = [[a[i] for i in free] for a, _ in combo]
        rhs = [b - sum(a[i] * c for i, c in fixed.items()) for a, b in combo]
        y = _solve_exact(M, rhs)
        if y is None:
            continue
        lam = _solve_exact([list(col) for col in zip(*M)], target)
        if lam is None or min(lam, default=0) < 0:
            continue
        x = [Fraction(0)] * 3
        for i, v in zip(free, y):
            x[i] = v
        for i, c in fixed.items():
            x[i] = c
        break
    else:
        raise AssertionError(f"no {len(free)} facets certify bound {j} ({sign:+d})")
    box_rows = [([Fraction(float(i == k)) for i in range(3)], Fraction(prior.hi[k]))
                for k in range(3)]
    box_rows += [([-Fraction(float(i == k)) for i in range(3)], -Fraction(prior.lo[k]))
                 for k in range(3)]
    for a, b in itertools.chain(
            (([Fraction(v) for v in h[:3]], Fraction(h[3])) for h in halfspaces), box_rows):
        if a[0] * x[0] + a[1] * x[1] + a[2] * x[2] > b:
            raise AssertionError(f"bound {j} ({sign:+d}): its vertex violates a half-space")
    for i in range(3):
        if not Fraction(box.lo[i]) <= x[i] <= Fraction(box.hi[i]):
            raise AssertionError(f"bound {j} ({sign:+d}): its vertex leaves the box in p{i + 1}"
                                 f" by {float(max(Fraction(box.lo[i]) - x[i], x[i] - Fraction(box.hi[i]))):.3g}")
    return x


# --- policy helpers that only the tests use ------------------------------------

@dataclass(frozen=True)
class Policy:
    """A committed policy: the plant's parameters and its switch times."""

    p: PlantParams
    t1: float
    t2: float
    tf: float


def plan_policy(p: PlantParams, spec: ProcessSpec) -> Policy:
    """The clairvoyant policy of the plant p (dfrto.policy.plan_vectorized)."""
    plan = plan_vectorized(p.as_array(), spec)
    return Policy(p, plan["t1"], plan["t2"], plan["tf"])


@dataclass(frozen=True)
class ControlArc:
    """One arc of the policy; the dilute arc has zero duration."""

    kind: str  # "concentrate" | "singular" | "dilute"
    start: float
    end: float
    u_value: float


def arcs_from_policy(pi: Policy) -> list[ControlArc]:
    return [
        ControlArc("concentrate", 0.0, pi.t1, 0.0),
        ControlArc("singular", pi.t1, pi.t2, singular_control(pi.p)),
        ControlArc("dilute", pi.t2, pi.t2, DILUTE),
    ]


def evaluate_policy(t: float, state: PlantState, pi: Policy) -> float:
    """Step-wise control law: 0 before t1, u_s on [t1, t2), DILUTE (inf) at t2."""
    if t > pi.tf + 1e-12:
        raise ConfigError(f"t={t} beyond final time {pi.tf}")
    if t < pi.t1:
        return 0.0
    if t < pi.t2:
        return singular_control(pi.p)
    return DILUTE


def draw_truth(P0: ParamBox, rng: np.random.Generator) -> PlantParams:
    """Componentwise uniform draw from the box."""
    return PlantParams(*rng.uniform(P0.lo_arr(), P0.hi_arr()))


def scaled(p: PlantParams, alpha: float) -> PlantParams:
    """Multiply the whole flux law by alpha > 0 (times scale by 1/alpha)."""
    return PlantParams(alpha * p.p1, alpha * p.p2, alpha * p.p3)


def simulate_policy(pi: Policy, spec: ProcessSpec, *,
                    record: bool = True) -> Trajectory:
    """Open-loop replay of a committed policy on the plant with the same params."""
    arc1 = integrate(spec.initial_state(), 0.0, pi.p,
                     StopCondition.at_time(pi.t1), spec, record=record)
    us = singular_control(pi.p)
    arc2 = integrate(arc1.final_state(), us, pi.p,
                     StopCondition.at_time(pi.t2), spec, record=record)
    end = arc2.final_state()
    final = dilute(end, min(spec.c1_f, end.c1))
    tail = Trajectory(np.array([final.t]), np.array([final.c1]), np.array([final.c2]),
                      np.array([DILUTE]), np.array([flux(final.c1, final.c2, pi.p)]))
    return Trajectory.concat([arc1, arc2, tail])
