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
process.integrate).

One plant row at a few points is mostly numpy call overhead: a Halley pass
over two points costs 35 to 70 numpy calls.  So `_ArcIntegral` also has a
kernel in Python floats.  The shape of the call selects it: a scalar r and at
most _FLOAT_POINTS points (the end state of a `process.integrate` arc, an
event time through `Arc.time_to`, a tail block of the adaptive loop).
Parameter rows and sample blocks stay on the array form.  The float kernel
performs the array form's operations in the same order, with the same stopping
rule (every point iterates until all points of the call have converged), and
returns the same bits (a NaN's sign bit aside, which no comparison reads):
  - Python's + - * / are the IEEE operations numpy's loops perform; where
    numpy would divide by zero, the kernel takes the branch the resulting
    inf or nan would have taken.
  - Every transcendental is a numpy or scipy ufunc called on a Python float
    (np.exp, np.expm1, np.log1p, scipy.special.expi), which runs the array
    loop on one element.  Never use math.*: on an AVX-512 Xeon, math.exp,
    math.expm1, math.log1p and math.log differ from numpy's array loops on
    9,236, 17,008, 17,275 and 79 of 200,000 uniform inputs (on [-5, 5],
    [-5, 5], [-0.999, 5] and [1e-3, 50]), while the scalar ufunc calls
    matched the array loops on all of 20,000 inputs on [-600, 600].
tests/test_arc.py checks the two forms bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expi, exprel

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
    return float(np.exp(-z)) * float(expi(z))


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
            return -float(np.expm1(-y))
        z0, g0 = self._consts()
        return (g0 - float(np.exp(-y)) * _scaled_expi_float(z0 - y)) / r

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
                continue
            y0 = -float(np.log1p(-tau))       # the r = 0 solution
            ys.append(y0 if -_INF < y0 < _INF and 0.0 < y0 < hi else 0.5 * hi)
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
                    step = f * float(np.exp(y)) * g
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

    def limit(self) -> np.ndarray:
        """F(inf, r): +inf for r > 0 (the flux stalls at Y = 1/r), finite for
        r <= 0 (c1 grows without bound in finite time)."""
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
    and t = t0 + T*F(Y, r) with Y = x - x0.
    """

    def __init__(self, t0, x0, v0, u: float, p1, p2, p3, m: float):
        self.t0, self.x0, self.v0, self.p3, self.m = t0, x0, v0, p3, m
        self.u = u
        self.q0 = np.asarray(p1 - p2 * x0 - p3 * v0, dtype=float)
        self.frozen = np.ndim(u) == 0 and u >= _U_FROZEN     # c1 stays constant
        if not self.frozen:
            self.k = u / (1.0 - u)
            with np.errstate(all="ignore"):
                self.r = (p2 - p3 * self.k) / self.q0
                self.T = m * np.exp(-x0) / ((1.0 - u) * self.q0)
            self._F = _ArcIntegral(self.r)

    def time_to(self, x):
        """Time at which ln c1 reaches x >= x0 (u < 1); +inf at the stall."""
        with np.errstate(all="ignore"):
            return self.t0 + self.T * self._F(x - self.x0)

    def ratio_y(self, ln_rf: float):
        """Y (or, at u = 1, the fall of v) at which c1/c2 reaches e^ln_rf."""
        gap = np.maximum(ln_rf - (self.x0 - self.v0), 0.0)   # ln c1/c2 still to gain
        return gap if self.frozen else (1.0 - self.u) * gap

    def at_y(self, Y):
        """(t, x, v) where ln c1 has grown by Y >= 0 (u < 1); t = +inf where
        the flux stalls first (or is not positive to begin with)."""
        q0 = self.q0
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
        q0 = self.q0
        with np.errstate(all="ignore"):
            # v falls by Y while the flux grows linearly in that fall
            q_end = q0 + self.p3 * Y
            t = self.t0 + (self.m * np.exp(-self.x0) * Y / q0
                           * _log1p_rel(self.p3 * Y / q0))
            reached = (q0 > _Q_FLOOR) & (q_end > _Q_FLOOR)
            return np.where(reached, t, np.inf), self.x0 + 0.0 * Y, self.v0 - Y

    def y_bound(self, t):
        """For r <= 0, a Y that the arc (u < 1) reaches no earlier than time t,
        to bracket states(t): there F(inf) - F(Y) <= e^(-Y).  The result is
        +inf or nan where c1 has grown without bound by t, and -inf where
        r > 0, where states does not use it."""
        with np.errstate(all="ignore"):
            return -np.log(self._F.limit() - (t - self.t0) / self.T)

    def states(self, t, y_hi):
        """(x, v) at times t >= t0.

        For u < 1 the Y at these times is bracketed by the stall asymptote 1/r
        where r > 0 and by y_hi elsewhere, so y_hi must be a Y that the arc
        reaches no earlier than the last of t (its stop: ratio_y or y_bound).
        """
        s = np.asarray(t, dtype=float) - self.t0
        q0 = self.q0
        with np.errstate(all="ignore"):
            if self.frozen:
                beta = self.p3 * np.exp(self.x0) / self.m
                v = self.v0 - np.exp(self.x0) * q0 / self.m * s * exprel(beta * s)
                return self.x0 + 0.0 * s, v
            moving = q0 > _Q_FLOOR            # a stalled plant stays where it is
            hi = np.where(self.r > 0.0, 1.0 / self.r, y_hi)
            Y = self._F.inverse(np.where(moving, s / self.T, 0.0), hi)
            Y = np.where(moving, Y, 0.0)
            return self.x0 + Y, self.v0 - self.k * Y
