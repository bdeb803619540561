"""Exact propagation of the plant along one constant-control arc.

Let x = ln c1 and v = ln c2.  Under a constant water-addition ratio u < 1,
dv/dx = -k with k = u/(1-u), so v is affine in x, the flux q = p1 - p2*x - p3*v
is linear in x, and dt = m*e^(-x) dx / ((1-u)*q).  From (t0, x0, v0), with
Y = x - x0, q0 = q(x0) and r = (p2 - p3*k)/q0,

    t = t0 + T*F(Y, r),   T = m*e^(-x0) / ((1-u)*q0),
    F(Y, r) = integral_0^Y e^(-y) / (1 - r*y) dy,

an exponential integral for r != 0 and 1 - e^(-Y) for r = 0 (the flux is
pinned, which is what the true singular control does).  For r > 0 the flux
stalls as Y -> 1/r and t grows without bound; for r <= 0, c1 grows without
bound by the finite time t0 + T*F(inf, r).  The ratio c1/c2 is e^(x-v), so
the ratio event is where Y reaches (1-u)*(ln rf - (x0 - v0)).

At u = 1, c1 is frozen, c2 washes out, and the flux grows as q0*e^(beta*s)
with beta = p3*c1/m after a time s, so states and event times are explicit.

Every routine broadcasts over numpy arrays: one arc per parameter row
(realized_batch_times) or one arc at many sample times (the adaptive loop and
`integrate`).

`integrate` lives here, not in dfrto.process, so that the estimator and the
CLI, which import dfrto.process, load no scipy; a call-time import would cost
it ~0.8 us a call (2-vCPU Xeon, Python 3.11).

One plant at a few points is mostly numpy call overhead: a Halley pass over
two points costs 35 to 70 numpy calls, and each np.where or np.errstate on a
0-d value costs as much as the arithmetic of a whole arc.  So there is a path
in Python floats too, and the shape of the inputs selects it:
  - `_ArcIntegral` takes it for a scalar r and at most _FLOAT_POINTS points
    (a tail block of the adaptive loop);
  - `Arc` takes it when every plant input (t0, x0, v0, u, p1, p2, p3) is a
    scalar: it then holds Python floats, and `time_to`, `at_y`, `ratio_y`,
    `ratio_event`, `y_bound` and `states` at one time return Python floats
    (the stop of an `integrate` arc, the t1 of a one-plant plan).
    With an array argument (a block of sample times) they take the array
    form.
Parameter rows and sample blocks stay on the array form.  The float path
performs the array form's operations in the same order, with the same stopping
rule (every point iterates until all points of the call have converged), and
returns the same bits (a NaN's sign bit aside, which no comparison reads):
  - Python's + - * / are the IEEE operations numpy's loops perform; where
    numpy would divide by zero, the float path takes the branch the resulting
    inf or nan would have taken, or divides with _div.
  - Every transcendental is a numpy or scipy ufunc called on a Python float
    (np.exp, np.expm1, np.log, np.log1p, scipy.special.expi and exprel),
    which runs the array loop on one element.  Never use math.*: on an
    AVX-512 Xeon, math.exp, math.expm1, math.log1p and math.log differ from
    numpy's array loops on 9,236, 17,008, 17,275 and 79 of 200,000 uniform
    inputs (on [-5, 5], [-5, 5], [-0.999, 5] and [1e-3, 50]), while the
    scalar ufunc calls matched the array loops on all of 20,000 inputs on
    [-600, 600].
  - The array form ignores floating-point flags under np.errstate, which
    costs about 2 us a block; the float path calls a ufunc through _call,
    which enters one only for an argument that can raise a flag.
tests/test_arc.py checks the two forms bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expi, exprel

from .errors import ConfigError, DomainError, SimulationTimeout, StallError
from .process import PlantParams, PlantState, ProcessSpec, StopCondition, Trajectory

_Q_FLOOR = 1e-12          # flux at or below this counts as stalled
_U_FROZEN = 1.0 - 1e-12   # controls at or above this run the u = 1 arc
# from |z| = 500 on, e^(-z)*Ei(z) is its asymptotic series sum_n n!/z^n, whose
# terms fall below 1e-19 by n = 9; below that, Ei itself neither over- nor
# underflows
_ASYMPTOTIC_Z = 500.0
_ASYMPTOTIC_TERMS = 9
# a scalar r evaluates calls of at most this many points in Python floats: an
# inverse breaks even with the array form at 12 to ~25 points (r = -0.3, 0.4,
# 0, 1e-4) and takes 0.3 to 0.45 of its time at 8
_FLOAT_POINTS = 8
_INF, _NAN = float("inf"), float("nan")
# plant inputs of these types put an Arc on the float path (numpy's float64 is
# a float)
_SCALAR = (float, int)
# np.exp and np.expm1 overflow above ln(DBL_MAX) = 709.78
_EXP_MAX = 709.0
# Arc.state_bounds pads Y by this fraction of (1 + Ybar): five orders above the
# rounding and the Halley stop (last step below 1e-14*(1 + Y), F noise a few ulps)
_Y_PAD = 1e-10


def _call(f, x: float, safe: bool) -> float:
    """The ufunc f at one Python float x, as a Python float.  Where `safe` is
    false (x may raise a floating-point flag), the flags are ignored, as the
    array form ignores them; the value is the same either way."""
    if safe:
        return float(f(x))
    with np.errstate(all="ignore"):
        return float(f(x))


def _exp(x: float) -> float:
    """np.exp at one Python float, as _call evaluates it."""
    if x <= _EXP_MAX:
        return float(np.exp(x))
    return _call(np.exp, x, False)


def _div(a: float, b: float) -> float:
    """a/b in Python floats, with numpy's IEEE result (+-inf or nan) where b
    is zero instead of ZeroDivisionError."""
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return _NAN
    return math.copysign(_INF, a) * math.copysign(1.0, b)


def _scaled_expi(z: np.ndarray) -> np.ndarray:
    """e^(-z)*Ei(z) for z != 0; finite for every |z| up to infinity."""
    z = np.asarray(z, dtype=float)
    big = np.abs(z) >= _ASYMPTOTIC_Z
    if not big.any():
        return np.exp(-z) * expi(z)
    s = np.ones(z.shape)
    for n in range(_ASYMPTOTIC_TERMS, 0, -1):
        s = 1.0 + n * s / z
    if big.all():
        return s / z
    return np.where(big, s / z, np.exp(-z) * expi(z))


def _scaled_expi_float(z: float) -> float:
    """_scaled_expi of one Python float, by the same operations in the same order."""
    if abs(z) >= _ASYMPTOTIC_Z:
        s = 1.0
        for n in range(_ASYMPTOTIC_TERMS, 0, -1):
            s = 1.0 + n * s / z
        return s / z
    return float(np.exp(-z)) * float(expi(z))     # |z| < 500 raises no flag


class _ArcIntegral:
    """Y -> F(Y, r) for fixed r, with the parts that depend only on r kept.

    F(Y, 0) = 1 - e^(-Y); every other r uses the exponential-integral form.
    A scalar r evaluates calls of at most _FLOAT_POINTS points in Python
    floats (see the module docstring); the results are bitwise those of the
    array form.
    """

    def __init__(self, r):
        self.r = np.asarray(r, dtype=float)
        self._rf = float(self.r) if self.r.ndim == 0 else None
        self._g0 = None

    def _consts(self):
        """(1/r, e^(-1/r)*Ei(1/r)), computed once; floats for a scalar r."""
        if self._g0 is None:
            if self._rf is None:
                self._z0 = 1.0 / self.r
                self._g0 = _scaled_expi(self._z0)
            else:
                self._z0 = 1.0 / self._rf
                self._g0 = _scaled_expi_float(self._z0)
        return self._z0, self._g0

    def __call__(self, Y) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        if self._rf is None or Y.size > _FLOAT_POINTS:
            return self._array(Y)
        if Y.ndim == 0:
            return np.float64(self._float(float(Y)))
        return np.array([self._float(y) for y in Y.ravel().tolist()]).reshape(Y.shape)

    def _array(self, Y: np.ndarray) -> np.ndarray:
        r = self.r
        if r.ndim == 0 and r == 0.0:
            return -np.expm1(-Y)
        z0, g0 = self._consts()
        ei = (g0 - np.exp(-Y) * _scaled_expi(z0 - Y)) / r
        return ei if r.ndim == 0 else np.where(r == 0.0, -np.expm1(-Y), ei)

    def _float(self, y: float) -> float:
        """F(y, r) for a scalar r and one Python float y, by the operations of
        the array form in the same order."""
        r = self._rf
        if r == 0.0:
            return -_call(np.expm1, -y, -y <= _EXP_MAX)
        z0, g0 = self._consts()
        return (g0 - _exp(-y) * _scaled_expi_float(z0 - y)) / r

    def inverse(self, tau, y_hi) -> np.ndarray:
        """Y in (0, y_hi) with F(Y, r) = tau, elementwise (safeguarded Halley).

        F(y_hi, r) must be at least tau; F increases with Y.  Every point
        iterates until all points of the call have converged.
        """
        tau = np.asarray(tau, dtype=float)
        if self._rf is not None and tau.size <= _FLOAT_POINTS and np.ndim(y_hi) == 0:
            his = [0.0 + float(y_hi)] * tau.size
            return np.array(self._inverse_floats(tau.ravel().tolist(), his)).reshape(tau.shape)
        lo = np.zeros(np.broadcast(tau, self.r, y_hi).shape)
        return self._inverse_array(tau, lo, lo + y_hi)

    def _inverse_array(self, tau: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        r = self.r
        y0 = -np.log1p(-tau)                  # the r = 0 solution
        y = np.where(tau <= 0.0, 0.0,
                     np.where(np.isfinite(y0) & (y0 > 0.0) & (y0 < hi), y0, 0.5 * hi))
        for _ in range(100):
            f = self._array(y) - tau
            hi = np.where(f > 0.0, y, hi)
            lo = np.where(f < 0.0, y, lo)
            # F' = e^-Y/(1 - rY) and F''/F' = r/(1 - rY) - 1
            g = 1.0 - r * y
            step = f * np.exp(y) * g
            y_new = y - step / (1.0 - 0.5 * step * (r / g - 1.0))
            bad = ~np.isfinite(y_new) | (y_new < lo) | (y_new > hi)
            y_new = np.where(bad, 0.5 * (lo + hi), y_new)
            # F carries rounding noise of a few ulps, so the last steps only jitter
            if np.all(np.abs(y_new - y) <= 1e-14 * (1.0 + np.abs(y))):
                return y_new
            y = y_new
        return y

    def _inverse_floats(self, taus: list, his: list) -> list:
        """inverse() for a scalar r on lists of Python floats: the same
        iteration, point by point.  A zero divisor, where numpy would return
        inf or nan, makes the Halley step non-finite, so it bisects instead."""
        r = self._rf
        n = len(taus)
        los = [0.0] * n
        ys = []
        for tau, hi in zip(taus, his):
            if tau <= 0.0:
                ys.append(0.0)
            elif tau < 1.0:
                y0 = -float(np.log1p(-tau))   # the r = 0 solution, finite here
                ys.append(y0 if 0.0 < y0 < hi else 0.5 * hi)
            else:                             # y0 would be +inf or nan
                ys.append(0.5 * hi)
        for _ in range(100):
            done = True
            for i in range(n):
                y = ys[i]
                f = self._float(y) - taus[i]
                if f > 0.0:
                    his[i] = y
                elif f < 0.0:
                    los[i] = y
                lo, hi = los[i], his[i]
                y_new = _NAN
                g = 1.0 - r * y
                if g != 0.0:
                    step = f * _exp(y) * g
                    d = 1.0 - 0.5 * step * (r / g - 1.0)
                    if d != 0.0:
                        y_new = y - step / d
                if not -_INF < y_new < _INF or y_new < lo or y_new > hi:
                    y_new = 0.5 * (lo + hi)
                if not abs(y_new - y) <= 1e-14 * (1.0 + abs(y)):
                    done = False
                ys[i] = y_new
            if done:
                break
        return ys

    def limit(self):
        """F(inf, r): +inf for r > 0 (the flux stalls at Y = 1/r), finite for
        r <= 0 (c1 grows without bound in finite time); a Python float for a
        scalar r."""
        r = self._rf
        if r is not None:
            return _INF if r > 0.0 else 1.0 if r == 0.0 else self._consts()[1] / r
        r = self.r
        if np.all(r > 0.0):
            return np.full(r.shape, np.inf)
        with np.errstate(all="ignore"):
            g0 = _scaled_expi(1.0 / r)
            return np.where(r > 0.0, np.inf, np.where(r == 0.0, 1.0, g0 / r))


def _log1p_rel(y: np.ndarray) -> np.ndarray:
    """log1p(y)/y, equal to 1 at y = 0."""
    y = np.asarray(y, dtype=float)
    safe = np.where(y == 0.0, 1.0, y)
    return np.where(y == 0.0, 1.0, np.log1p(safe) / safe)


class Arc:
    """The plant from (t0, x0 = ln c1, v0 = ln c2) under a constant control u.

    t0, x0, v0 and the parameters p1, p2, p3 may be arrays of one shape, and
    so may u if every control is below _U_FROZEN.  For u < 1, v = v0 - k*Y
    and t = t0 + T*F(Y, r) with Y = x - x0.  When every one of them is a
    scalar, the arc is on the float path (`scalar`; see the module
    docstring): its constants are Python floats, and so are its results at
    one point.
    """

    def __init__(self, t0, x0, v0, u, p1, p2, p3, m: float):
        self.scalar = (isinstance(t0, _SCALAR) and isinstance(x0, _SCALAR)
                       and isinstance(v0, _SCALAR) and isinstance(u, _SCALAR)
                       and isinstance(p1, _SCALAR) and isinstance(p2, _SCALAR)
                       and isinstance(p3, _SCALAR))
        if self.scalar:
            t0, x0, v0, u, p1, p2, p3, m = map(float, (t0, x0, v0, u, p1, p2, p3, m))
        self.t0, self.x0, self.v0, self.p3, self.m = t0, x0, v0, p3, m
        self.u = u
        self.frozen = ((self.scalar or np.ndim(u) == 0)
                       and u >= _U_FROZEN)               # c1 stays constant
        if self.scalar:
            self.q0 = p1 - p2 * x0 - p3 * v0
            if not self.frozen:
                self.k = u / (1.0 - u)
                self.r = _div(p2 - p3 * self.k, self.q0)
                self.T = _div(m * _exp(-x0), (1.0 - u) * self.q0)
                self._F = _ArcIntegral(self.r)
            return
        self.q0 = np.asarray(p1 - p2 * x0 - p3 * v0, dtype=float)
        if not self.frozen:
            self.k = u / (1.0 - u)
            with np.errstate(all="ignore"):
                self.r = (p2 - p3 * self.k) / self.q0
                self.T = m * np.exp(-x0) / ((1.0 - u) * self.q0)
            self._F = _ArcIntegral(self.r)

    def time_to(self, x):
        """Time at which ln c1 reaches x >= x0 (u < 1); +inf at the stall."""
        if self.scalar and isinstance(x, _SCALAR):
            return self.t0 + self.T * self._F._float(float(x) - self.x0)
        with np.errstate(all="ignore"):
            return self.t0 + self.T * self._F(x - self.x0)

    def ratio_y(self, ln_rf: float):
        """Y (or, at u = 1, the fall of v) at which c1/c2 reaches e^ln_rf."""
        if self.scalar:
            gap = ln_rf - (self.x0 - self.v0)         # ln c1/c2 still to gain
            if not (gap > 0.0 or gap != gap):         # np.maximum keeps a NaN
                gap = 0.0
        else:
            gap = np.maximum(ln_rf - (self.x0 - self.v0), 0.0)
        return gap if self.frozen else (1.0 - self.u) * gap

    def at_y(self, Y):
        """(t, x, v) where ln c1 has grown by Y >= 0 (u < 1); t = +inf where
        the flux stalls first (or is not positive to begin with)."""
        q0 = self.q0
        if self.scalar and isinstance(Y, _SCALAR):
            q_end = q0 * (1.0 - self.r * Y)
            x, v = self.x0 + Y, self.v0 - self.k * Y
            reached = q0 > _Q_FLOOR and q_end > _Q_FLOOR
            return (self.time_to(x) if reached else _INF), x, v
        with np.errstate(all="ignore"):
            q_end = q0 * (1.0 - self.r * Y)
            x, v = self.x0 + Y, self.v0 - self.k * Y
            t = self.time_to(x)
            reached = (q0 > _Q_FLOOR) & (q_end > _Q_FLOOR)
            return np.where(reached, t, np.inf), x, v

    def ratio_event(self, ln_rf: float):
        """(t, x, v) where c1/c2 first reaches e^ln_rf; t = +inf where the flux
        stalls first (or is not positive to begin with)."""
        Y = self.ratio_y(ln_rf)
        if not self.frozen:
            return self.at_y(Y)
        q0, p3 = self.q0, self.p3
        # v falls by Y while the flux grows linearly in that fall
        if self.scalar:
            t = _INF
            if q0 > _Q_FLOOR and q0 + p3 * Y > _Q_FLOOR:
                z = p3 * Y / q0
                rel = 1.0 if z == 0.0 else _call(np.log1p, z, z > -1.0) / z
                t = self.t0 + (self.m * _exp(-self.x0) * Y / q0 * rel)
            return t, self.x0 + 0.0 * Y, self.v0 - Y
        with np.errstate(all="ignore"):
            q_end = q0 + p3 * Y
            t = self.t0 + (self.m * np.exp(-self.x0) * Y / q0
                           * _log1p_rel(p3 * Y / q0))
            reached = (q0 > _Q_FLOOR) & (q_end > _Q_FLOOR)
            return np.where(reached, t, np.inf), self.x0 + 0.0 * Y, self.v0 - Y

    def y_bound(self, t):
        """For r <= 0, a Y that the arc (u < 1) reaches no earlier than time t,
        to bracket states(t): there F(inf) - F(Y) <= e^(-Y).  The result is
        +inf or nan where c1 has grown without bound by t, and -inf where
        r > 0, where states does not use it."""
        if self.scalar and isinstance(t, _SCALAR):
            rest = self._F.limit() - _div(float(t) - self.t0, self.T)
            return -_call(np.log, rest, rest > 0.0)
        with np.errstate(all="ignore"):
            return -np.log(self._F.limit() - (t - self.t0) / self.T)

    def states(self, t, y_hi):
        """(x, v) at times t >= t0.

        For u < 1 the Y at these times is bracketed by the stall asymptote 1/r
        where r > 0 and by y_hi elsewhere, so y_hi must be a Y that the arc
        reaches no earlier than the last of t (its stop: ratio_y or y_bound).
        """
        if self.scalar and isinstance(t, _SCALAR) and isinstance(y_hi, _SCALAR):
            return self._state(float(t) - self.t0, float(y_hi))
        s = np.asarray(t, dtype=float) - self.t0
        q0 = self.q0
        with np.errstate(all="ignore"):
            if self.frozen:
                beta = self.p3 * np.exp(self.x0) / self.m
                v = self.v0 - np.exp(self.x0) * q0 / self.m * s * exprel(beta * s)
                return self.x0 + 0.0 * s, v
            moving = q0 > _Q_FLOOR            # a stalled plant stays where it is
            # np.divide: the r of a float-path arc may be a Python 0.0
            hi = np.where(self.r > 0.0, np.divide(1.0, self.r), y_hi)
            Y = self._F.inverse(np.where(moving, s / self.T, 0.0), hi)
            Y = np.where(moving, Y, 0.0)
            return self.x0 + Y, self.v0 - self.k * Y

    def _state(self, s: float, y_hi: float) -> tuple[float, float]:
        """states() of a float-path arc at the one time t0 + s."""
        if self.frozen:
            ex = _exp(self.x0)
            beta = self.p3 * ex / self.m
            rel = float(exprel(beta * s))     # scipy's exprel raises no flag
            return self.x0 + 0.0 * s, self.v0 - ex * self.q0 / self.m * s * rel
        Y = 0.0                               # a stalled plant stays where it is
        if self.q0 > _Q_FLOOR:
            r = self.r
            hi = 1.0 / r if r > 0.0 else y_hi
            Y = self._F._inverse_floats([_div(s, self.T)], [0.0 + hi])[0]
        return self.x0 + Y, self.v0 - self.k * Y

    def state_bounds(self, t, y_hi):
        """(x_lo, x_hi, v_lo, v_hi) around states(t, y_hi) of a float-path arc
        at sorted times t, without a Halley pass; y_hi bounds Y at every t.

        Y0 = -log1p(-tau), tau = (t - t0)/T, is the r = 0 inverse.  F(Y, r) -
        F(Y, 0) = integral_0^Y e^(-y)*r*y/(1 - r*y) dy has the sign of r and
        size at most |r|*Yt^2/(2*(1 - max(r, 0)*Yt)) for Yt >= Y; as F(., 0)'
        = e^(-y), Y lies within e^Yt times that of Y0 for Yt >= Y, Y0: below Y0
        for r > 0 (Yt = Y0), above it for r < 0 (Yt = Y0 plus the bound at
        Ybar = max(y_hi, last Y0)).  _Y_PAD covers rounding and the Halley stop,
        and x = x0 + Y, v = v0 - k*Y round monotonically.  Past r*Ybar >= 1 it
        pads this call's Halley results; frozen and stalled arcs are exact."""
        t = np.asarray(t, dtype=float)
        if self.frozen or not self.q0 > _Q_FLOOR or not t.size:
            x, v = self.states(t, y_hi)     # elementwise: the same bits at any subset
            return x, x, v, v
        r = self.r
        with np.errstate(all="ignore"):
            y0 = -np.log1p(-((t - self.t0) / self.T))
        y_bar = float(np.maximum(y_hi, y0[-1]))           # NaN stays NaN
        if r * y_bar < 1.0 and y_bar < _EXP_MAX / 2.0:
            c = 0.5 * abs(r) / (1.0 - max(r, 0.0) * y_bar)
            y_top = y0 + _exp(y_bar) * c * y_bar * y_bar if r < 0.0 else y0
            pad = _Y_PAD * (1.0 + y_bar)
            rad = np.exp(y_top) * y_top * y_top * c + pad
            y_lo, y_up = y0 - (rad if r > 0.0 else pad), y0 + (rad if r < 0.0 else pad)
        else:       # no bound short of the stall: the Halley results, padded
            y0 = self.states(t, y_hi)[0] - self.x0
            y_lo, y_up = y0 - _Y_PAD * (1.0 + y0), y0 + _Y_PAD * (1.0 + y0)
        v_a, v_b = self.v0 - self.k * y_up, self.v0 - self.k * y_lo
        return (self.x0 + y_lo, self.x0 + y_up) + ((v_a, v_b) if self.k >= 0.0 else (v_b, v_a))


def integrate(state0: PlantState, u: float, p: PlantParams, stop: StopCondition,
              spec: ProcessSpec, *, record: bool = True) -> Trajectory:
    """Run the plant under a constant control u in [0, 1] until `stop`.

    The arc is propagated in closed form by `Arc`.  The returned trajectory
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
