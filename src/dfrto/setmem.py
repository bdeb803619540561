"""Guaranteed parameter estimation from bounded-noise flux measurements.

Each flux sample q_m at exactly known concentrations gives two half-spaces
    q_m - sigma <= p1 - p2*ln(c1) - p3*ln(c2) <= q_m + sigma,
so the feasible parameter set is the prior box cut by a polytope, and the
estimator reports its per-coordinate bounding box.

While every sample shares one c2 (the concentrate arc, where u = 0 freezes
c2) the rows constrain only theta = p1 - ln(c2)*p3 and p2: the feasible set
is a cylinder over an exact 2-D polygon, clipped sample by sample, and the box
follows in closed form (Walter & Piet-Lahanier, "Exact recursive polyhedral
description of the feasible parameter set for bounded-error models", IEEE TAC
34(8), 1989).  The first sample with another c2 lifts the polygon's few edges
into six warm-started bound LPs.  The LP solver is a dense revised simplex
with Bland's rule (deterministic, anti-cycling) working on the dual, which
keeps the basis 3x3 regardless of how many measurements accumulate; each
pivot inverts that basis explicitly in Python floats.  A half-space that
holds on the whole current box is filtered out at ingest, since the box only
shrinks and it can never bind.  One per-row routine takes every sample that
may change the estimator.  On the LP it first screens the whole strip against
a hull box of the current box and the cached LP optimizers: when the strip
contains that hull, neither half-space can be stored or move a bound, which
the screen proves with six float products and two sums (no tolerance, see
`_WarmBoundLP.strip_is_inert`), and most samples of a batch stop there.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import (ConfigError, DomainError, InfeasibleLPError,
                     ModelInvalidatedError, open_output)
from .process import GAMMA1_UNIT_SCALE, Measurement, PlantParams

_LP_TOL = 1e-9
# a row moves a bound when it excludes a cached optimizer by more than this
# fraction of (1 + |b|); each LP bound is padded outward by the same fraction
_MOVE_REL = 1e-11
_INCONSISTENT = "constraints inconsistent with noise bound or model structure"
_MAX_PIVOTS = 20000      # per bound LP re-solve; see _simplex_iterate


@dataclass(frozen=True)
class ParamBox:
    """Interval box [lo, hi] for the three flux parameters."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        if len(self.lo) != 3 or len(self.hi) != 3:
            raise ConfigError("ParamBox needs 3-vectors")
        if not all(math.isfinite(x) for x in (*self.lo, *self.hi)):
            raise ConfigError(f"box bounds must be finite: {self.lo} vs {self.hi}")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ConfigError(f"box bounds crossed: {self.lo} vs {self.hi}")

    @classmethod
    def from_arrays(cls, lo, hi) -> "ParamBox":
        return cls(tuple(float(x) for x in lo), tuple(float(x) for x in hi))

    @classmethod
    def from_json(cls, path: str) -> "ParamBox":
        """The box of a JSON file {"lo": [3 numbers], "hi": [3 numbers]}, inside
        the flux model's domain (p2 > 0, p3 >= 0)."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read parameter box {path!r}: {exc}") from exc
        try:
            box = cls.from_arrays(raw["lo"], raw["hi"])
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise ConfigError(f"parameter box {path!r} needs 'lo' and 'hi' lists of "
                              f"three finite numbers ({exc})") from exc
        if not (box.lo[1] > 0.0 and box.lo[2] >= 0.0):
            raise ConfigError(f"parameter box {path!r} leaves the flux model's domain "
                              f"p2 > 0, p3 >= 0: lo = {list(box.lo)}")
        return box

    @classmethod
    def from_gamma_box(cls, gamma_lo, gamma_hi, area: float = 1.0) -> "ParamBox":
        """Tightest p-space box enclosing the image of a gamma-space box.

        p1 = A*g1*ln(g2), p2 = A*g1, p3 = A*g1*g3 are all increasing in each
        gamma (for g2 > 1), so endpoint evaluation is exact.
        """
        g1l, g2l, g3l = gamma_lo
        g1u, g2u, g3u = gamma_hi
        if g2l <= 1.0:
            raise DomainError("gamma2 lower bound must exceed 1")
        if g1l <= 0.0 or g3l < 0.0:
            raise DomainError("gamma1 must be positive and gamma3 nonnegative")
        kl, ku = area * GAMMA1_UNIT_SCALE * g1l, area * GAMMA1_UNIT_SCALE * g1u
        return cls((kl * math.log(g2l), kl, kl * g3l),
                   (ku * math.log(g2u), ku, ku * g3u))

    def lo_arr(self) -> np.ndarray:
        return np.array(self.lo, dtype=float)

    def hi_arr(self) -> np.ndarray:
        return np.array(self.hi, dtype=float)

    def mid(self) -> PlantParams:
        m = 0.5 * (self.lo_arr() + self.hi_arr())
        return PlantParams(*m)

    def widths(self) -> np.ndarray:
        return self.hi_arr() - self.lo_arr()

    def contains(self, p, tol: float = 0.0) -> bool:
        v = p.as_array() if isinstance(p, PlantParams) else np.asarray(p, dtype=float)
        return bool(np.all(v >= self.lo_arr() - tol) and np.all(v <= self.hi_arr() + tol))

    def is_subset_of(self, other: "ParamBox", tol: float = 1e-9) -> bool:
        return bool(np.all(self.lo_arr() >= other.lo_arr() - tol)
                    and np.all(self.hi_arr() <= other.hi_arr() + tol))


def scenario_points(lo, hi, n_lhs: int, seed: int = 0) -> np.ndarray:
    """Scenario rows of the box [lo, hi]: its corners (sorted, deduplicated
    where a coordinate is degenerate), its midpoint, then n_lhs deterministic
    Latin-hypercube points, one in each of the n_lhs strata of every
    coordinate."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    corners = np.unique(np.array(list(itertools.product(*zip(lo, hi)))), axis=0)
    parts = [corners, 0.5 * (lo + hi)[None, :]]
    if n_lhs > 0:
        rng = np.random.default_rng(seed)
        u = (np.argsort(rng.random((lo.size, n_lhs)), axis=1).T
             + rng.random((n_lhs, lo.size))) / n_lhs
        parts.append(lo + u * (hi - lo))
    return np.vstack(parts)


# --- dense simplex -------------------------------------------------------------

def _inverse3(B: list[list[float]]) -> list[list[float]]:
    """Rows of the inverse of the 3x3 matrix with rows B: Gaussian elimination
    with partial pivoting in Python floats, where numpy's per-call overhead
    would dominate."""
    r0 = B[0] + [1.0, 0.0, 0.0]
    r1 = B[1] + [0.0, 1.0, 0.0]
    r2 = B[2] + [0.0, 0.0, 1.0]
    if abs(r1[0]) > abs(r0[0]):
        r0, r1 = r1, r0
    if abs(r2[0]) > abs(r0[0]):
        r0, r2 = r2, r0
    f1, f2 = r1[0] / r0[0], r2[0] / r0[0]
    r1 = [x - f1 * y for x, y in zip(r1, r0)]
    r2 = [x - f2 * y for x, y in zip(r2, r0)]
    if abs(r2[1]) > abs(r1[1]):
        r1, r2 = r2, r1
    f2 = r2[1] / r1[1]
    r2 = [x - f2 * y for x, y in zip(r2, r1)]
    z2 = [x / r2[2] for x in r2[3:]]
    z1 = [(x - r1[2] * y) / r1[1] for x, y in zip(r1[3:], z2)]
    z0 = [(x - r0[1] * y - r0[2] * w) / r0[0] for x, y, w in zip(r0[3:], z1, z2)]
    return [z0, z1, z2]


def _simplex_iterate(A: np.ndarray, d: list[float], cost: np.ndarray,
                     basis: list[int], tol: float
                     ) -> tuple[list[int], float, list[float], bool]:
    """min cost'z s.t. A z = d, z >= 0 from a feasible basis (Bland's rule).

    A is 3 x m.  Each pivot inverts the 3x3 basis explicitly in Python floats
    and prices every column with one pi @ A.  Returns (basis, value, pi, capped)
    with pi the duals of the final basis (B'pi = cost_B), capped after
    _MAX_PIVOTS pivots at a basis still feasible here: by weak duality a looser
    bound.  Raises InfeasibleLPError when the primal is infeasible (unbounded).
    """
    basis = list(basis)
    for pivots in range(_MAX_PIVOTS + 1):
        Binv = _inverse3(A[:, basis].tolist())
        c_b = cost[basis].tolist()
        z_b = [r[0] * d[0] + r[1] * d[1] + r[2] * d[2] for r in Binv]
        pi = [c_b[0] * Binv[0][k] + c_b[1] * Binv[1][k] + c_b[2] * Binv[2][k]
              for k in range(3)]
        reduced = cost - np.array(pi) @ A
        j = -1
        for cand in np.flatnonzero(reduced < -tol).tolist():
            if cand not in basis:      # Bland: lowest index enters
                j = cand
                break
        if j < 0 or pivots == _MAX_PIVOTS:
            return basis, c_b[0] * z_b[0] + c_b[1] * z_b[1] + c_b[2] * z_b[2], pi, j >= 0
        a = A[:, j].tolist()
        direction = [r[0] * a[0] + r[1] * a[1] + r[2] * a[2] for r in Binv]
        ratios = [z / g if g > tol else math.inf for z, g in zip(z_b, direction)]
        rmin = min(ratios)
        if rmin == math.inf:
            raise InfeasibleLPError("primal infeasible (dual unbounded)")
        cut = rmin + tol * (1.0 + abs(rmin))
        # Bland: among tied ratios the lowest variable index leaves
        leave = min((i for i in range(3) if ratios[i] <= cut), key=lambda i: basis[i])
        basis[leave] = j


# --- bounding boxes -------------------------------------------------------------

# Each clip line of the polygon is moved outward by this fraction of (1+|b|):
# round-off then never cuts a feasible point, and noise-free rows at the sigma
# floor never empty the polygon.
_CLIP_REL = 1e-13


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _product_bounds(a_lo: np.ndarray, a_hi: np.ndarray, x_lo: float, x_hi: float):
    """Elementwise (min, max) of the rounded a*x over a in [a_lo, a_hi], x in
    [x_lo, x_hi]: at two corners where a, x >= 0, else at four."""
    if x_lo >= 0.0 and a_lo.min(initial=np.inf) >= 0.0:
        return a_lo * x_lo, a_hi * x_hi
    c = np.array([a_lo * x_lo, a_lo * x_hi, a_hi * x_lo, a_hi * x_hi])
    return c.min(axis=0), c.max(axis=0)


class _ArcPolygon:
    """Exact feasible set while every row has regressor (1, a1, k), one k.

    On the concentrate arc u = 0 freezes c2, so every row shares k = -ln c2
    and constrains only theta = p1 + k*p3 and p2: the feasible set is the
    prior box intersected with a cylinder over a convex polygon in
    (theta, p2) (Walter & Piet-Lahanier, IEEE TAC 34(8), 1989).  The polygon
    starts as the prior's projection, a rectangle, and each half-plane that
    cuts it clips it (Sutherland-Hodgman); a few edges survive however many
    rows arrive.  The box and its six optimizer points follow in closed form,
    with bounds rounded outward.  Each edge keeps the 3-D half-space it lies
    on (None for the prior's facets), so `lift` hands the polygon to the LP
    when another c2 arrives.
    """

    def __init__(self, prior: ParamBox, k: float):
        self.prior = prior
        self.k = k
        lo3, hi3 = prior.lo[2], prior.hi[2]
        self.kp3 = (_down(min(k * lo3, k * hi3)), _up(max(k * lo3, k * hi3)))
        t0, t1 = _down(prior.lo[0] + self.kp3[0]), _up(prior.hi[0] + self.kp3[1])
        self.th = [t0, t1, t1, t0]
        self.p2 = [prior.lo[1], prior.lo[1], prior.hi[1], prior.hi[1]]
        self.edges: list = [None] * 4
        self.ext = (t0, t1, prior.lo[1], prior.hi[1])

    def cut(self, g0: float, g1: float, b: float) -> bool:
        """Clip by g0*theta + g1*p2 <= b; True when a box bound moved."""
        th, p2, edges = self.th, self.p2, self.edges
        s = [g0 * t + g1 * p - b for t, p in zip(th, p2)]
        if not max(s) > 0.0:
            return False
        if min(s) > 0.0:
            raise ModelInvalidatedError(_INCONSISTENT)
        row = (g0, g1, g0 * self.k, b)
        n = len(s)
        nth, np2, nedges = [], [], []
        for i in range(n):
            j = i + 1 if i + 1 < n else 0
            si, sj = s[i], s[j]
            if si <= 0.0:
                nth.append(th[i])
                np2.append(p2[i])
                nedges.append(row if si == 0.0 and sj > 0.0 else edges[i])
            if (si < 0.0 < sj) or (sj < 0.0 < si):
                f = si / (si - sj)
                nth.append(th[i] + f * (th[j] - th[i]))
                np2.append(p2[i] + f * (p2[j] - p2[i]))
                nedges.append(row if si < 0.0 else edges[i])
        self.th, self.p2, self.edges = nth, np2, nedges
        ext = (min(nth), max(nth), min(np2), max(np2))
        moved = ext != self.ext
        self.ext = ext
        return moved

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box of the cylinder over the polygon, rounded outward into the prior."""
        tmin, tmax, p2min, p2max = self.ext
        (lo1, lo2, lo3), (hi1, hi2, hi3) = self.prior.lo, self.prior.hi
        k = self.k
        lo = [max(lo1, _down(tmin - self.kp3[1])), max(lo2, _down(p2min)), lo3]
        hi = [min(hi1, _up(tmax - self.kp3[0])), min(hi2, _up(p2max)), hi3]
        if k > 0.0:      # p3 = (theta - p1)/k
            lo[2] = max(lo3, _down(_down(tmin - hi1) / k))
            hi[2] = min(hi3, _up(_up(tmax - lo1) / k))
        elif k < 0.0:
            lo[2] = max(lo3, _down(_up(tmax - lo1) / k))
            hi[2] = min(hi3, _up(_down(tmin - hi1) / k))
        return np.array(lo), np.array(hi)

    @property
    def x_opt(self) -> np.ndarray:
        """Optimizer points of min p1, max p1, ..., max p3 (rows as in the LP)."""
        th, p2, k = self.th, self.p2, self.k
        (lo1, _, lo3), (hi1, _, hi3) = self.prior.lo, self.prior.hi

        def point(i: int, p3: float) -> tuple[float, float, float]:
            # a point of the prior on p1 + k*p3 = theta_i, preferring this p3
            p1 = th[i] - k * p3
            if not lo1 <= p1 <= hi1:
                p1 = min(max(p1, lo1), hi1)
                if k != 0.0:
                    p3 = min(max((th[i] - p1) / k, lo3), hi3)
            return p1, p2[i], p3

        tmin, tmax = th.index(self.ext[0]), th.index(self.ext[1])
        low_k, high_k = (lo3, hi3) if k >= 0.0 else (hi3, lo3)   # minimize/maximize k*p3
        p3_lo, p3_hi = (tmin, tmax) if k >= 0.0 else (tmax, tmin)
        return np.array([point(tmin, high_k), point(tmax, low_k),
                         point(p2.index(self.ext[2]), lo3), point(p2.index(self.ext[3]), lo3),
                         point(p3_lo, lo3), point(p3_hi, hi3)])

    def lift(self) -> "_WarmBoundLP":
        """The LP over the prior and the half-spaces of the polygon's edges."""
        lp = _WarmBoundLP(self.prior)
        rows = [e for e in self.edges if e is not None]
        if rows:
            R = np.array(rows)
            lp.append_rows(R[:, :3], R[:, 3])
            try:
                lp.resolve(range(6))
            except InfeasibleLPError as exc:
                raise ModelInvalidatedError(_INCONSISTENT) from exc
        return lp


class _WarmBoundLP:
    """Six warm-started bound LPs over a half-space collection.

    Dual view: each primal half-space a.p <= b is a column (a, cost b); adding
    a row keeps every stored basis feasible, so re-optimization after a cut
    takes a handful of Bland iterations, each on an explicit 3x3 basis
    inverse.  The six box facets are the first columns and provide trivial
    starting bases.  The optimizer vertex of each direction (the duals of its
    final basis) is cached: a new row can move a bound only if it excludes
    that vertex, so rows cutting the box elsewhere are appended without
    re-solving.

    A row whose half-space holds on the whole box [lo, hi] is never stored,
    and once the LP outgrows its initial buffer every re-solve drops the
    stored rows that the shrunken box has made redundant (except the basic
    ones).  Both are sound for the same reason: the kept basic columns
    certify the six bounds, so the polytope lies inside [lo, hi] and hence
    inside every such half-space, and since the box only shrinks, such a row
    can never bind again.  The kept columns keep their order, so Bland's rule
    meets them in the same order as before.

    The hull box H (`hull`, Python floats) is the smallest box holding
    [lo, hi] and every cached optimizer; it is refreshed wherever either
    changes (at construction and after every re-solve).  `process_row`
    evaluates a.x at the optimizers as left-to-right float sums, which H
    bounds term by term, so `strip_is_inert` can rule out a whole
    measurement from six products and two sums without relying on any
    tolerance.
    """

    _CAP0 = 512

    def __init__(self, prior: ParamBox):
        self.prior = prior
        self._cols = np.zeros((3, self._CAP0))
        self._cost = np.zeros(self._CAP0)
        eye = np.eye(3)
        self._cols[:, :6] = np.hstack([eye, -eye])     # p_j <= hi_j, -p_j <= -lo_j
        self.lo, self.hi = prior.lo_arr(), prior.hi_arr()
        self._cost[:6] = np.concatenate([self.hi, -self.lo])
        self.m = 6
        self.n_capped = 0       # re-solves that stopped at _MAX_PIVOTS
        # direction order: min p1, max p1, min p2, max p2, min p3, max p3, each
        # started from the box facets; the optimizer vertex is the lo corner for
        # the min directions and the hi corner for the max directions
        self._rhs = [(-sign * eye[j]).tolist() for j in range(3) for sign in (1.0, -1.0)]
        self._basis = np.array([[3, 4, 5], [0, 1, 2]] * 3)
        self.x_opt = np.array([self.lo, self.hi] * 3)
        self._refresh_hull()

    def _refresh_hull(self) -> None:
        """Cache the optimizers as Python floats, and the hull box of them and
        [lo, hi] as hull = (H_lo_0, H_lo_1, H_lo_2, H_hi_0, H_hi_1, H_hi_2)."""
        self._x_rows = self.x_opt.tolist()
        self.hull = tuple(np.minimum(self.lo, self.x_opt.min(axis=0)).tolist()
                          + np.maximum(self.hi, self.x_opt.max(axis=0)).tolist())

    def strip_is_inert(self, a: tuple[float, float, float], bl: float, bu: float) -> bool:
        """Whether `process_row` would neither store nor re-solve for either
        half-space of the strip bl <= a.p <= bu, i.e. for (a, bu) and then
        (-a, -bl).

        Exact, with no tolerance: every term a_i*x_i that `process_row` (x an
        optimizer) or `_cuts_box` (x a corner of [lo, hi]) forms has x_i in
        [H_lo_i, H_hi_i], and a rounded product is monotone in x_i, so the
        term lies between a_i*H_lo_i and a_i*H_hi_i.  Rounded left-to-right
        sums are monotone in each term, so each of their sums lies in
        [s_lo, s_hi] below.  With s_hi <= bu, every a.x <= bu <= the re-solve
        threshold and the box maximum of a.p is at most bu: (a, bu) is
        dropped.  Negation is exact, so the sums of -a are exactly the
        negated sums of a, and s_lo >= bl drops (-a, -bl) likewise.  A
        non-finite sum fails a comparison and the strip is not inert.
        """
        l0, l1, l2, h0, h1, h2 = self.hull
        a0, a1, a2 = a
        u0, v0 = (a0 * h0, a0 * l0) if a0 >= 0.0 else (a0 * l0, a0 * h0)
        u1, v1 = (a1 * h1, a1 * l1) if a1 >= 0.0 else (a1 * l1, a1 * h1)
        u2, v2 = (a2 * h2, a2 * l2) if a2 >= 0.0 else (a2 * l2, a2 * h2)
        return u0 + u1 + u2 <= bu and v0 + v1 + v2 >= bl    # s_hi, s_lo

    def _reserve(self, n: int) -> None:
        while self.m + n > self._cols.shape[1]:
            self._cols = np.concatenate([self._cols, np.zeros_like(self._cols)], axis=1)
            self._cost = np.concatenate([self._cost, np.zeros_like(self._cost)])

    def _max_on_box(self, C: np.ndarray) -> np.ndarray:
        """max over [lo, hi] of c.p for each column c of C (3 x k), with the
        same float operations as `_cuts_box`."""
        M = np.maximum(C * self.hi[:, None], C * self.lo[:, None])
        return M[0] + M[1] + M[2]

    def _cuts_box(self, a: list[float], b: float) -> bool:
        """Whether a.p <= b fails somewhere on [lo, hi] (Python floats)."""
        (l0, l1, l2), (h0, h1, h2) = self.lo.tolist(), self.hi.tolist()
        a0, a1, a2 = a
        return (max(a0 * h0, a0 * l0) + max(a1 * h1, a1 * l1)
                + max(a2 * h2, a2 * l2)) > b

    def append_rows(self, G: np.ndarray, h: np.ndarray) -> None:
        """Bulk append of half-spaces known not to move any bound; rows that
        hold on the whole box are discarded, as in `process_row`."""
        keep = self._max_on_box(G.T) > h
        k = int(np.count_nonzero(keep))
        self._reserve(k)
        self._cols[:, self.m:self.m + k] = G[keep].T
        self._cost[self.m:self.m + k] = h[keep]
        self.m += k

    def first_cut(self, A: np.ndarray, bu: np.ndarray, bl: np.ndarray) -> int:
        """Index of the first strip bl <= a.p <= bu (rows a of A) that may
        exclude a cached optimizer, or len(bu) when none can.

        The threshold is half of `process_row`'s, so rounding differences
        between the two only add candidates, which `process_row` rejects.
        """
        V = self.x_opt @ A.T
        hit = ((V.max(axis=0) > bu + 0.5 * _MOVE_REL * (1.0 + np.abs(bu)))
               | (V.min(axis=0) < bl - 0.5 * _MOVE_REL * (1.0 + np.abs(bl))))
        return int(hit.argmax()) if hit.any() else bu.size

    def process_row(self, a: np.ndarray, b: float) -> bool:
        """Append one half-space; re-solve only the directions it invalidates.

        Returns True when at least one bound moved.
        """
        thr = b + _MOVE_REL * (1.0 + abs(b))
        # left-to-right sums in Python floats, as `strip_is_inert` bounds them;
        # numpy's per-call overhead would dominate here
        a_f = a.tolist()
        a0, a1, a2 = a_f
        vals = [a0 * x0 + a1 * x1 + a2 * x2 for x0, x1, x2 in self._x_rows]
        moves = max(vals) > thr
        if not moves and not self._cuts_box(a_f, b):
            return False
        self._reserve(1)
        self._cols[:, self.m] = a
        self._cost[self.m] = b
        self.m += 1
        if not moves:
            return False
        self.resolve([d for d, v in enumerate(vals) if v > thr])
        if self.m > self._CAP0:
            self._drop_redundant()
        return True

    def resolve(self, directions) -> None:
        """Re-optimize the given directions from their stored bases."""
        A = self._cols[:, : self.m]
        cost = self._cost[: self.m]
        for d in directions:
            basis, val, pi, capped = _simplex_iterate(A, self._rhs[d], cost,
                                                      self._basis[d].tolist(), _LP_TOL)
            self.n_capped += capped
            self._basis[d] = basis
            self.x_opt[d] = pi
            j, sign = divmod(d, 2)
            # tiny outward pad keeps the box sound against pivoting round-off
            pad = _MOVE_REL * (1.0 + abs(val))
            if sign == 0:
                self.lo[j] = max(-val - pad, self.lo[j])
            else:
                self.hi[j] = min(val + pad, self.hi[j])
        self._refresh_hull()

    def _drop_redundant(self) -> None:
        """Drop the non-basic rows that hold on the whole box [lo, hi]."""
        keep = np.ones(self.m, dtype=bool)
        keep[6:] = self._max_on_box(self._cols[:, 6: self.m]) > self._cost[6: self.m]
        keep[self._basis.ravel()] = True
        kept = np.flatnonzero(keep)
        n = kept.size
        if n < self.m:
            self._basis = np.searchsorted(kept, self._basis)
            self._cols[:, :n] = self._cols.take(kept, axis=1)
            self._cost[:n] = self._cost.take(kept)
            self.m = n

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lo.copy(), self.hi.copy()


class OnlineBoxEstimator:
    """Streaming set-membership estimator: the exact bounding box after each row.

    While every row shares one c2 regressor (the concentrate arc) the
    feasible set is a cylinder over a 2-D polygon (`_ArcPolygon`), and the
    box comes in closed form without any LP.  The first row with another c2,
    or a regressor whose first entry is not 1, lifts the polygon's few edges
    into `_WarmBoundLP`, which bounds every later row: a half-space can move
    the box only if it excludes a cached optimizer point, a half-space that
    holds on the whole box is not stored at all, and stored rows that the box
    has since made redundant are dropped, so the LP stays at a few hundred
    columns.  `n_lp_rebounds` counts the half-spaces that moved a bound.

    Every row that may change the estimator goes through one routine, `_row`:
    on the polygon it skips a strip that holds on every vertex and clips by
    any other; on the LP it skips a strip that contains the hull box
    (`_WarmBoundLP.strip_is_inert`, which changes no box, column or counter)
    and hands both half-spaces of any other to the LP.  `add` calls `_row`
    directly; `add_rows` and `add_rows_stop_on_change` scan windows of rows
    for the first one `_row` must see (off the arc or outside a vertex strip,
    `first_cut` on the LP), take the rows before it in bulk and hand it to
    `_row`.  So all three give the same boxes bit for bit.
    """

    # exact equalities (sigma = 0) make the LP duals degenerate; a tiny floor
    # keeps the solver well-posed and only widens boxes by ~1e-9
    SIGMA_FLOOR = 1e-9
    # rows the bulk paths check against the polygon vertices or the cached LP
    # optimizers in one numpy pass; the window doubles while no row cuts and
    # restarts after a cut
    _SCAN0 = 256
    _MAX_VERTICES = 32

    def __init__(self, prior: ParamBox, sigma: float):
        if sigma < 0.0:
            raise ConfigError("sigma must be nonnegative")
        self.prior = prior
        self.sigma = max(sigma, self.SIGMA_FLOOR)
        self.box = prior
        self._lp: _ArcPolygon | _WarmBoundLP = _WarmBoundLP(prior)
        self.n_measurements = 0
        self.n_lp_rebounds = 0

    @staticmethod
    def _halfspace_pairs(A: np.ndarray, q: np.ndarray,
                         sigma: float) -> tuple[np.ndarray, np.ndarray]:
        # each measurement's pair is adjacent
        G = np.empty((A.shape[0], 2, 3))
        G[:, 0] = A
        np.negative(A, out=G[:, 1])
        h = np.empty((q.size, 2))
        h[:, 0] = q + sigma
        h[:, 1] = -(q - sigma)
        return G.reshape(-1, 3), h.reshape(-1)

    @staticmethod
    def _checked(A, q) -> tuple[np.ndarray, np.ndarray]:
        A = np.asarray(A, dtype=float).reshape(-1, 3)
        q = np.asarray(q, dtype=float).reshape(-1)
        if A.shape[0] != q.shape[0]:
            raise ConfigError(f"{A.shape[0]} regressor rows for {q.shape[0]} measurements")
        if not (np.isfinite(A).all() and np.isfinite(q).all()):
            raise DomainError("regressors and flux measurements must be finite")
        return A, q

    def add_rows(self, A: np.ndarray, q: np.ndarray) -> ParamBox:
        """Ingest measurements with regressor rows A (k,3) and values q (k,)."""
        self._ingest(A, q, stop=False)
        return self.box

    def add(self, m: Measurement) -> ParamBox:
        """Ingest one measurement; the same boxes as `add_rows` row by row."""
        if not (0.0 < m.c1 < math.inf and 0.0 < m.c2 < math.inf):
            raise DomainError("measurement concentrations must be positive and finite")
        if not math.isfinite(m.q_m):
            raise DomainError("flux measurements must be finite")
        self._row(1.0, -math.log(m.c1), -math.log(m.c2), m.q_m)
        return self.box

    def inert(self, lc1, lc2, q) -> np.ndarray:
        """`_WarmBoundLP.strip_is_inert` over measurements (1, -lc1, -lc2; q) known
        up to intervals, pairs (lo, hi) of arrays: rounded products are monotone in
        each factor and negation is exact, so corner products (`_product_bounds`)
        bound every sum `process_row` and `_cuts_box` form; bu >= q_lo + sigma, bl
        <= q_hi - sigma.  A NaN fails a comparison; the polygon phase has no inert
        rows.  Skipping inert rows changes no box, column or counter."""
        if type(self._lp) is not _WarmBoundLP:
            return np.zeros(q[0].shape, dtype=bool)
        l0, l1, l2, h0, h1, h2 = self._lp.hull
        m1, u1 = _product_bounds(*lc1, l1, h1)
        m2, u2 = _product_bounds(*lc2, l2, h2)
        return (h0 - m1 - m2 <= q[0] + self.sigma) & (l0 - u1 - u2 >= q[1] - self.sigma)

    def add_rows_stop_on_change(self, A: np.ndarray, q: np.ndarray) -> tuple[int, bool]:
        """Ingest measurements in order, stopping after the first one that
        shrinks the box.  Returns (measurements consumed, box changed)."""
        return self._ingest(A, q, stop=True)

    def _ingest(self, A, q, stop: bool) -> tuple[int, bool]:
        A, q = self._checked(A, q)
        # windows of measurements that start at _SCAN0 and double while no row
        # needs `_row`; each row that may goes through it, as in `add`
        n, i, w, changed = A.shape[0], 0, self._SCAN0, False
        bu, bl = q + self.sigma, q - self.sigma
        while i < n and not changed:
            e = min(n, i + w)
            j = i + self._clean_prefix(A[i:e], q[i:e], bu[i:e], bl[i:e])
            if j == e:
                i, w = e, 2 * w
                continue
            moved = self._row(*A[j].tolist(), float(q[j]))
            i, w = j + 1, self._SCAN0
            changed = stop and moved
        return i, changed

    def _clean_prefix(self, A, q, bu, bl) -> int:
        """Ingest the leading rows of a window that `_row` would take without a
        cut or re-solve; returns their number.  The first row goes to `_row`."""
        if self.n_measurements == 0:
            return 0
        lp = self._lp
        if type(lp) is _WarmBoundLP:
            j = lp.first_cut(A, bu, bl)
            lp.append_rows(*self._halfspace_pairs(A[:j], q[:j], self.sigma))
        else:
            # a row per vertex: numpy reduces fast across rows, slowly along short
            # ones; `_row` forms the same sums and cuts only outside its padded
            # strip, which holds [bl, bu], so every row it would cut is a hit
            r = np.array(lp.th)[:, None] + A[:, 1] * np.array(lp.p2)[:, None]
            hit = ((A[:, 0] != 1.0) | (A[:, 2] != lp.k)           # off the arc
                   | (r.max(axis=0) > bu) | (r.min(axis=0) < bl))
            j = int(hit.argmax()) if hit.any() else bu.size
        self.n_measurements += j
        return j

    def _row(self, a0: float, a1: float, k: float, q: float) -> bool:
        """Ingest one measurement with regressor (a0, a1, k); True when the
        box moved."""
        bu, bl = q + self.sigma, q - self.sigma
        moved = False
        if self._on_arc(a0, k):
            up, lo = bu + _CLIP_REL * (1.0 + abs(bu)), bl - _CLIP_REL * (1.0 + abs(bl))
            for t, p in zip(self._lp.th, self._lp.p2):
                r = t + a1 * p
                if r > up or r < lo:
                    moved = self._cut_arc(a1, up, lo)
                    break
        elif not self._lp.strip_is_inert((a0, a1, k), bl, bu):
            a = np.array((a0, a1, k))
            moved = self._process_moving_row(a, bu) | self._process_moving_row(-a, -bl)
        self.n_measurements += 1
        return moved

    # --- polygon phase ---

    def _on_arc(self, a0: float, k: float) -> bool:
        """Whether the polygon takes a row (a0, ., k); if not, the LP takes
        over for good.  A polygon starts only on the estimator's first row."""
        lp = self._lp
        if type(lp) is _ArcPolygon:
            if a0 == 1.0 and k == lp.k:
                return True
            self._lp = lp.lift()
        elif a0 == 1.0 and self.n_measurements == 0:
            self._lp = _ArcPolygon(self.prior, float(k))
            return True
        return False

    def _cut_arc(self, a1: float, up: float, lo: float) -> bool:
        """Clip the polygon by lo <= theta + a1*p2 <= up; True if the box moved.

        Noise-free strips through one point all stay active, so their polygon
        keeps growing; past _MAX_VERTICES vertices the LP takes over.
        """
        poly = self._lp
        moved = False
        for g0, g1, b in ((1.0, a1, up), (-1.0, -a1, -lo)):
            if poly.cut(g0, g1, b):
                self._set_box(*poly.bounds())
                moved = True
        if len(poly.th) > self._MAX_VERTICES:
            self._lp = poly.lift()
        return moved

    # --- LP phase ---

    def _process_moving_row(self, a: np.ndarray, b: float) -> bool:
        try:
            moved = self._lp.process_row(a, b)
        except InfeasibleLPError as exc:
            raise ModelInvalidatedError(_INCONSISTENT) from exc
        if moved:
            self._set_box(*self._lp.bounds())
        return moved

    def _set_box(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Nest new bounds into the current box; count the rebound."""
        lo = [max(a, b) for a, b in zip(lo.tolist(), self.box.lo)]   # ties: as np.maximum
        hi = [min(a, b) for a, b in zip(hi.tolist(), self.box.hi)]
        if any(a > b + 1e-9 for a, b in zip(lo, hi)):
            raise ModelInvalidatedError(_INCONSISTENT)
        self.box = ParamBox(tuple(lo), tuple(max(b, a) for a, b in zip(lo, hi)))
        self.n_lp_rebounds += 1


# --- CSV interfaces --------------------------------------------------------------

def read_measurements_csv(path: str) -> np.ndarray:
    """The (n, 4) float array of a CSV with header t,q_m,c1,c2, parsed in one
    pass; columns t, q_m, c1, c2, one row per measurement, (0, 4) when the
    file has no data rows.

    Blank lines are skipped; a row that is not four finite numbers with
    positive concentrations c1, c2 raises ConfigError naming its line.
    """
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read measurements {path!r}: {exc}") from exc
    with fh:
        header = fh.readline().strip().split(",")
        if header != ["t", "q_m", "c1", "c2"]:
            raise ConfigError(f"expected header t,q_m,c1,c2 in {path!r}, got {header}")
        rows = (line for line in fh if line.strip())
        first = next(rows, None)
        if first is None:
            return np.empty((0, 4))
        try:
            data = np.loadtxt(itertools.chain([first], rows), delimiter=",",
                              comments=None, ndmin=2)
        except ValueError:
            data = None
    if (data is None or data.shape[1] != 4 or not np.isfinite(data).all()
            or not (data[:, 2:] > 0.0).all()):
        _raise_bad_row(path)
    return data


def _raise_bad_row(path: str) -> NoReturn:
    """ConfigError for the first data line that is not four finite numbers
    with c1, c2 > 0."""
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                values = np.loadtxt([line], delimiter=",", comments=None)
            except ValueError:
                values = None
            if (values is None or values.size != 4 or not np.isfinite(values).all()
                    or not (values[2:] > 0.0).all()):
                raise ConfigError(f"{path}:{lineno}: expected four finite numbers "
                                  f"t,q_m,c1,c2 with c1, c2 > 0, got {line.rstrip()!r}")
    raise ConfigError(f"malformed measurement file {path!r}")


def write_boxes_csv(path: str, times, boxes) -> None:
    """One row per time; a box shared by consecutive rows is formatted once."""
    last = tail = None
    with open_output(path) as fh:
        fh.write("t,p1_lo,p1_hi,p2_lo,p2_hi,p3_lo,p3_hi\n")
        for t, box in zip(times, boxes):
            if box is not last:
                lo, hi = box.lo, box.hi
                tail = (f",{lo[0]:.10g},{hi[0]:.10g},{lo[1]:.10g},"
                        f"{hi[1]:.10g},{lo[2]:.10g},{hi[2]:.10g}\n")
                last = box
            fh.write(f"{t:.10g}{tail}")
