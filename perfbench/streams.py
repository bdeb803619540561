"""Measurement streams for the estimate_replay workload, made without dfrto.

Each stream is the flux record of one full generalized-case batch run under
its own optimal policy: concentrate (u = 0) until the flux falls to p2 + p3,
then hold the singular control u_s = p2/(p2 + p3) until c1/c2 reaches
c1_f/c2_f.  The truth is drawn uniformly in the +-10% gamma box, the plant ODE
is integrated by scipy directly, and the flux is sampled once per second with
uniform noise in [-sigma, sigma].  Nothing here imports the package under
test, so the bytes of a stream depend only on (seed, index) and stay the same
on every commit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

# Generalized case and default process spec, restated rather than imported.
GAMMA = np.array([3e-2, 1000.0, 0.1])
UNCERTAINTY = 0.10
UNIT_SCALE = 100.0          # A*gamma1 in L/h per unit gamma1 at A = 1
C1_0, C2_0, C1_F, C2_F, V0 = 50.0, 50.0, 150.0, 0.05, 20.0
SIGMA = 0.1                 # flux noise bound [L/h]
DT_H = 1.0 / 3600.0         # sampling period [h]
T_MAX = 100.0               # [h]


def draw_truth(rng: np.random.Generator) -> np.ndarray:
    """(p1, p2, p3) of a gamma drawn uniformly in the +-10% box."""
    g = rng.uniform(GAMMA * (1 - UNCERTAINTY), GAMMA * (1 + UNCERTAINTY))
    k = UNIT_SCALE * g[0]
    return np.array([k * math.log(g[1]), k, k * g[2]])


def _arc(p: np.ndarray, u: float, t0: float, y0, event):
    mass = C1_0 * V0

    def rhs(t, y):
        q = p[0] - p[1] * math.log(y[0]) - p[2] * math.log(y[1])
        return (y[0] * y[0] * q * (1.0 - u) / mass, -y[0] * y[1] * q * u / mass)

    event.terminal = True
    sol = solve_ivp(rhs, (t0, T_MAX), y0, method="RK45", rtol=1e-10,
                    atol=(1e-10, 1e-12), dense_output=True, events=event)
    if sol.status != 1 or not sol.t_events[0].size:
        raise RuntimeError(f"stream arc did not reach its event: {sol.message}")
    return sol.sol, float(sol.t_events[0][0]), sol.y_events[0][0]


def make_stream(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Truth p (3,) and measurements (n, 4) with columns t, q_m, c1, c2."""
    truth_ss, noise_ss = np.random.SeedSequence((seed, index)).spawn(2)
    p = draw_truth(np.random.default_rng(truth_ss))

    def switch(t, y):
        return p[0] - p[1] * math.log(y[0]) - p[2] * math.log(y[1]) - p[1] - p[2]
    switch.direction = -1.0

    def ratio(t, y):
        return y[0] / y[1] - C1_F / C2_F
    ratio.direction = 1.0

    arc1, t1, y1 = _arc(p, 0.0, 0.0, (C1_0, C2_0), switch)
    arc2, t2, _ = _arc(p, p[1] / (p[1] + p[2]), t1, y1, ratio)
    t = DT_H * np.arange(1, int(t2 / DT_H) + 1)
    first = t <= t1
    c = np.empty((2, t.size))
    c[:, first] = arc1(t[first])
    c[:, ~first] = arc2(t[~first])
    q = p[0] - p[1] * np.log(c[0]) - p[2] * np.log(c[1])
    q_m = q + np.random.default_rng(noise_ss).uniform(-SIGMA, SIGMA, t.size)
    return p, np.column_stack([t, q_m, c[0], c[1]])


def write_csv(path: str, rows: np.ndarray) -> None:
    """Write with 17 significant digits so parsing gives back the same floats."""
    with open(path, "w") as fh:
        fh.write("t,q_m,c1,c2\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")
