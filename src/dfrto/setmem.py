"""Guaranteed parameter estimation from bounded-noise flux measurements.

Each flux sample q_m at exactly known concentrations gives two half-spaces
    q_m - sigma <= p1 - p2*ln(c1) - p3*ln(c2) <= q_m + sigma,
so the feasible parameter set is a polytope; its per-coordinate bounding box
is obtained from six small linear programs.  The LP solver is a dense revised
simplex with Bland's rule (deterministic, anti-cycling) working on the dual,
which keeps the basis 3x3 regardless of how many measurements accumulate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import (ConfigError, DomainError, InfeasibleLPError,
                     ModelInvalidatedError, UnboundedLPError)
from .process import Measurement, PlantParams

_LP_TOL = 1e-9


@dataclass(frozen=True)
class ParamBox:
    """Interval box [lo, hi] for the three flux parameters."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        if len(self.lo) != 3 or len(self.hi) != 3:
            raise ConfigError("ParamBox needs 3-vectors")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ConfigError(f"box bounds crossed: {self.lo} vs {self.hi}")

    @classmethod
    def from_arrays(cls, lo, hi) -> "ParamBox":
        return cls(tuple(float(x) for x in lo), tuple(float(x) for x in hi))

    @classmethod
    def from_gamma_box(cls, gamma_lo, gamma_hi, area: float = 1.0,
                       unit_scale: float | None = None) -> "ParamBox":
        """Tightest p-space box enclosing the image of a gamma-space box.

        p1 = A*g1*ln(g2), p2 = A*g1, p3 = A*g1*g3 are all increasing in each
        gamma (for g2 > 1), so endpoint evaluation is exact.
        """
        from .process import GAMMA1_UNIT_SCALE
        scale = GAMMA1_UNIT_SCALE if unit_scale is None else unit_scale
        g1l, g2l, g3l = gamma_lo
        g1u, g2u, g3u = gamma_hi
        if g2l <= 1.0:
            raise DomainError("gamma2 lower bound must exceed 1")
        if g1l <= 0.0 or g3l < 0.0:
            raise DomainError("gamma1 must be positive and gamma3 nonnegative")
        kl, ku = area * scale * g1l, area * scale * g1u
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

    def vertices(self) -> np.ndarray:
        """Corner points (deduplicated when a coordinate is degenerate)."""
        lo, hi = self.lo_arr(), self.hi_arr()
        pts = np.array([[lo[i] if (k >> i) & 1 == 0 else hi[i] for i in range(3)]
                        for k in range(8)])
        return np.unique(pts, axis=0)

    def sample_lhs(self, n: int, seed: int = 0) -> np.ndarray:
        """Deterministic Latin-hypercube interior sample (n,3)."""
        rng = np.random.default_rng(seed)
        lo, hi = self.lo_arr(), self.hi_arr()
        u = (np.argsort(rng.random((3, n)), axis=1).T + rng.random((n, 3))) / n
        return lo + u * (hi - lo)


@dataclass(frozen=True)
class ConstraintSet:
    """Append-only measurement constraints: rows (1, -ln c1, -ln c2, q_m).

    Instances share a common backing list so that appending is O(1); each
    instance is an immutable prefix view of length `k`.
    """

    sigma: float
    _rows: list
    k: int

    @classmethod
    def empty(cls, sigma: float) -> "ConstraintSet":
        if sigma < 0.0:
            raise ConfigError("sigma must be nonnegative")
        return cls(sigma, [], 0)

    def __len__(self) -> int:
        return self.k

    @property
    def n_constraints(self) -> int:
        """Two half-spaces per measurement."""
        return 2 * self.k

    def regressors(self) -> np.ndarray:
        """Array (k, 4) of rows (1, -ln c1, -ln c2, q_m)."""
        if self.k == 0:
            return np.empty((0, 4))
        return np.asarray(self._rows[: self.k], dtype=float)

    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, h) with G p <= h encoding |q_m - a.p| <= sigma, shape (2k, 3)."""
        rows = self.regressors()
        A, q = rows[:, :3], rows[:, 3]
        G = np.vstack([A, -A])
        h = np.concatenate([q + self.sigma, -(q - self.sigma)])
        return G, h


def add_measurement(cs: ConstraintSet, m: Measurement) -> ConstraintSet:
    """Append the two half-spaces of one measurement; returns the longer view."""
    if m.c1 <= 0.0 or m.c2 <= 0.0:
        raise DomainError("measurement concentrations must be positive")
    if len(cs._rows) != cs.k:
        # branched history: copy-on-write
        rows = list(cs._rows[: cs.k])
    else:
        rows = cs._rows
    rows.append((1.0, -math.log(m.c1), -math.log(m.c2), m.q_m))
    return ConstraintSet(cs.sigma, rows, cs.k + 1)


# --- dense simplex -------------------------------------------------------------

def solve_lp(objective, halfspaces, box: ParamBox, *, maximize: bool = False,
             tol: float = _LP_TOL) -> tuple[np.ndarray, float]:
    """Optimize a linear objective over {G p <= h} intersected with a box.

    `halfspaces` is (G, h) or an empty sequence.  Returns (argmin, value); with
    maximize=True the sign conventions flip.  Deterministic: Bland's rule with
    lowest-index entering/leaving selection.  Raises InfeasibleLPError when the
    feasible region is empty and UnboundedLPError for an unbounded objective
    (impossible while the box is bounded).
    """
    c = np.asarray(objective, dtype=float)
    if c.shape != (3,):
        raise ConfigError("objective must be a 3-vector")
    if maximize:
        x, v = solve_lp(-c, halfspaces, box, tol=tol)
        return x, -v

    if halfspaces is None or (isinstance(halfspaces, (tuple, list)) and len(halfspaces) == 0):
        G = np.empty((0, 3))
        h = np.empty(0)
    else:
        G, h = halfspaces
        G = np.asarray(G, dtype=float).reshape(-1, 3)
        h = np.asarray(h, dtype=float).reshape(-1)
    lo, hi = box.lo_arr(), box.hi_arr()
    eye = np.eye(3)
    A = np.vstack([G, eye, -eye])                 # A p <= b, box rows appended
    b = np.concatenate([h, hi, -lo])

    # Dual in standard form: min b'z  s.t.  A' z = -c, z >= 0.  Its optimal
    # basis names the three active primal constraints.
    basis, z_b = _primal_simplex(A.T.copy(), -c.copy(), b, tol)
    x = np.linalg.solve(A[basis], b[basis])
    value = float(c @ x)
    dual_value = float(b[basis] @ z_b)
    if abs(value + dual_value) > 1e-6 * (1.0 + abs(value)):
        raise InfeasibleLPError("duality gap: LP solve inconsistent")
    return x, value


def _primal_simplex(A_eq: np.ndarray, d: np.ndarray, cost: np.ndarray,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """min cost'z s.t. A_eq z = d, z >= 0 (A_eq is 3 x m); returns (basis, z_B).

    Phase 1 with three artificials, phase 2 with Bland's rule throughout.
    Infeasibility of this problem means the original primal is unbounded;
    unboundedness here means the original primal is infeasible.
    """
    n_rows, m = A_eq.shape
    sign = np.where(d < 0.0, -1.0, 1.0)
    A1 = A_eq * sign[:, None]
    d1 = d * sign

    art = np.arange(m, m + n_rows)
    A_full = np.hstack([A1, np.eye(n_rows)])
    cost1 = np.concatenate([np.zeros(m), np.ones(n_rows)])
    basis, z_b = _simplex_iterate(A_full, d1.copy(), cost1, art.copy(), tol,
                                  allow_unbounded=False)
    if float(cost1[basis] @ z_b) > 1e-7:
        raise UnboundedLPError("dual infeasible: primal LP unbounded")
    # drive any residual artificial (at zero level) out of the basis
    for i in range(n_rows):
        if basis[i] >= m:
            B = A_full[:, basis]
            Binv_row = np.linalg.solve(B.T, np.eye(n_rows)[:, i])
            row = Binv_row @ A1
            candidates = np.flatnonzero(np.abs(row) > 1e-9)
            candidates = [j for j in candidates if j not in basis]
            if not candidates:
                # redundant equality row; pin the artificial at zero with zero cost
                continue
            basis[i] = candidates[0]
            z_b = np.linalg.solve(A_full[:, basis], d1)
    cost2 = np.concatenate([cost, np.full(n_rows, 0.0)])
    basis, z_b = _simplex_iterate(A_full, d1, cost2, basis, tol,
                                  allow_unbounded=True, n_real=m)
    if np.any(basis >= m):
        art_level = z_b[basis >= m]
        if np.any(np.abs(art_level) > 1e-7):
            raise UnboundedLPError("artificial stuck at nonzero level")
    return basis, z_b


def _simplex_iterate(A: np.ndarray, d: np.ndarray, cost: np.ndarray,
                     basis: np.ndarray, tol: float, *,
                     allow_unbounded: bool, n_real: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    n_rows = A.shape[0]
    limit = n_real if n_real is not None else A.shape[1]
    basis = np.asarray(basis, dtype=int).copy()
    B = A[:, basis]
    z_b = np.linalg.solve(B, d)
    for _ in range(20000):
        B = A[:, basis]
        pi = np.linalg.solve(B.T, cost[basis])
        reduced = cost[:limit] - pi @ A[:, :limit]
        eligible = np.flatnonzero(reduced < -tol)
        j = -1
        for cand in eligible:  # Bland: lowest index enters (skip basis members)
            ci = int(cand)
            if ci != basis[0] and ci != basis[1] and ci != basis[2]:
                j = ci
                break
        if j < 0:
            return basis, z_b
        direction = np.linalg.solve(B, A[:, j])
        pos = direction > tol
        if not np.any(pos):
            if allow_unbounded:
                raise InfeasibleLPError("primal infeasible (dual unbounded)")
            raise UnboundedLPError("phase-1 subproblem unbounded")
        ratios = np.full(n_rows, np.inf)
        ratios[pos] = z_b[pos] / direction[pos]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + tol * (1.0 + abs(rmin)))
        leave = int(ties[np.argmin(basis[ties])])  # Bland: lowest variable index leaves
        step = ratios[leave]
        z_b = z_b - step * direction
        z_b[leave] = step
        basis[leave] = j
        z_b = np.linalg.solve(A[:, basis], d)
    raise InfeasibleLPError("simplex iteration limit exceeded")


# --- bounding boxes -------------------------------------------------------------

def bound_params(cs: ConstraintSet, prior: ParamBox) -> ParamBox:
    """Tightest box around the parameters consistent with all constraints.

    min/max of each coordinate over the half-space polytope intersected with
    the prior (six warm-started LPs, redundant rows pruned exactly); the
    result is clipped into the prior so nesting holds.  Raises
    ModelInvalidatedError when no parameter vector inside the prior satisfies
    every half-space at the noise bound.
    """
    if len(cs) == 0:
        return prior
    est = OnlineBoxEstimator(prior, cs.sigma)
    rows = cs.regressors()
    est.add_rows(rows[:, :3], rows[:, 3])
    return est.box


class _WarmBoundLP:
    """Six warm-started bound LPs over a half-space collection.

    Dual view: each primal half-space a.p <= b is a column (a, cost b); adding
    a row keeps every stored basis feasible, so re-optimization after a cut
    takes a handful of Bland iterations.  The six box facets are the first
    columns and provide trivial starting bases.  The optimizer vertex of each
    direction is cached: a new row can move a bound only if it excludes that
    vertex, so rows cutting the box elsewhere are appended without re-solving.

    Rows that no longer cut the box are dropped once the LP outgrows its
    initial buffer: after a re-solve, and between re-solves whenever the LP
    has doubled since the last drop (so the test costs O(1) per row and the
    LP holds at most twice the rows kept then, or one buffer).  A column is
    dropped when it is basic in none of the six LPs and its half-space holds
    on the whole box [lo, hi].  The kept basic columns certify the six
    bounds, so the remaining polytope still lies inside [lo, hi] and hence
    inside every dropped half-space; since the box only shrinks, a dropped
    row can never bind again.  The kept columns keep their order, so Bland's
    rule meets them in the same order as before.  On a concentrate arc c2 is
    frozen and the p1 and p3 edges do not shrink, so almost every row still
    cuts the box and the LP grows until the singular arc bounds p3.
    """

    _CAP0 = 512

    def __init__(self, prior: ParamBox):
        self.prior = prior
        self._cols = np.zeros((3, self._CAP0))
        self._cost = np.zeros(self._CAP0)
        eye = np.eye(3)
        self._cols[:, 0:3] = eye                       # p_j <= hi_j
        self._cols[:, 3:6] = -eye                      # -p_j <= -lo_j
        self._cost[0:3] = prior.hi_arr()
        self._cost[3:6] = -prior.lo_arr()
        self.m = 6
        # direction order: min p1, max p1, min p2, max p2, min p3, max p3
        self._rhs = []
        self._basis = []
        for j in range(3):
            for sign in (1.0, -1.0):
                self._rhs.append(-sign * eye[j])
                self._basis.append([3, 4, 5] if sign > 0 else [0, 1, 2])
        self._basis = np.array(self._basis)
        lo, hi = prior.lo_arr(), prior.hi_arr()
        # optimizer vertices: lo corner for the min directions, hi for max
        self.x_opt = np.empty((6, 3))
        self.x_opt[0::2] = lo
        self.x_opt[1::2] = hi
        self.lo = lo.copy()
        self.hi = hi.copy()
        self._compact_at = self._CAP0

    def _reserve(self, n: int) -> None:
        while self.m + n > self._cols.shape[1]:
            self._cols = np.concatenate([self._cols, np.zeros_like(self._cols)], axis=1)
            self._cost = np.concatenate([self._cost, np.zeros_like(self._cost)])

    def _append(self, a: np.ndarray, b: float) -> None:
        if self.m == self._cols.shape[1]:
            self._reserve(1)
        self._cols[:, self.m] = a
        self._cost[self.m] = b
        self.m += 1
        if self.m >= self._compact_at:
            self._drop_redundant()

    def append_rows(self, G: np.ndarray, h: np.ndarray) -> None:
        """Bulk append of half-spaces known not to move any bound.

        Compacts at the same row counts as appending one row at a time.
        """
        start, n = 0, G.shape[0]
        while start < n:
            k = min(n - start, self._compact_at - self.m)
            self._reserve(k)
            self._cols[:, self.m:self.m + k] = G[start:start + k].T
            self._cost[self.m:self.m + k] = h[start:start + k]
            self.m += k
            start += k
            if self.m >= self._compact_at:
                self._drop_redundant()

    def violates(self, G: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows exclude at least one cached optimizer."""
        return (G @ self.x_opt.T > h[:, None] + 1e-11 * (1.0 + np.abs(h))[:, None]).any(axis=1)

    def process_row(self, a: np.ndarray, b: float) -> bool:
        """Append one half-space; re-solve only the directions it invalidates.

        Returns True when at least one bound moved.
        """
        thr = b + 1e-11 * (1.0 + abs(b))
        # compared as Python floats: numpy's per-call overhead dominates here
        vals = (self.x_opt @ a).tolist()
        self._append(a, b)
        if not max(vals) > thr:    # the same test as below, also for NaN
            return False
        viol = [d for d, v in enumerate(vals) if v > thr]
        A = self._cols[:, : self.m]
        cost = self._cost[: self.m]
        for d in viol:
            basis, z_b = _simplex_iterate(A, self._rhs[d], cost, self._basis[d],
                                          _LP_TOL, allow_unbounded=True)
            self._basis[d] = basis
            x = np.linalg.solve(A[:, basis].T, cost[basis])
            self.x_opt[d] = x
            j, sign = divmod(d, 2)
            val = float(cost[basis] @ z_b)
            # tiny outward pad keeps the box sound against pivoting round-off
            pad = 1e-11 * (1.0 + abs(val))
            if sign == 0:
                self.lo[j] = max(-val - pad, self.lo[j])
            else:
                self.hi[j] = min(val + pad, self.hi[j])
        if self.m > self._CAP0:
            self._drop_redundant()
        return True

    def _drop_redundant(self) -> None:
        """Drop the non-basic rows that hold on the whole box [lo, hi]."""
        G = self._cols[:, 6: self.m]
        worst = self.hi @ np.maximum(G, 0.0) + self.lo @ np.minimum(G, 0.0)  # max over box
        keep = np.ones(self.m, dtype=bool)
        keep[6:] = worst > self._cost[6: self.m]
        keep[self._basis.ravel()] = True
        kept = np.flatnonzero(keep)
        n = kept.size
        if n < self.m:
            self._basis = np.searchsorted(kept, self._basis)
            self._cols[:, :n] = self._cols.take(kept, axis=1)
            self._cost[:n] = self._cost.take(kept)
            self.m = n
        self._compact_at = max(2 * n, self._CAP0)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lo.copy(), self.hi.copy()


class OnlineBoxEstimator:
    """Streaming set-membership estimator with provable redundancy pruning.

    A new half-space can change the bounding box only if it cuts the current
    box; half-spaces satisfied on the whole current box leave the feasible set
    untouched and — since boxes only shrink — stay redundant forever.  Each
    measurement's two half-spaces are appended to the LPs, and the rows that
    no longer cut the box and define none of the six bounds are dropped
    whenever a bound moves or the LP has doubled (see `_WarmBoundLP`).  The
    LPs thus hold at most twice the cutting rows or a few hundred rows,
    which keeps full-batch estimation fast while producing exactly the same
    boxes as solving with every constraint.  During concentration (c2 frozen) p3
    keeps its prior edges, so the rows accumulate until the singular arc.
    """

    # exact equalities (sigma = 0) make the LP duals degenerate; a tiny floor
    # keeps the solver well-posed and only widens boxes by ~1e-9
    SIGMA_FLOOR = 1e-9

    def __init__(self, prior: ParamBox, sigma: float):
        if sigma < 0.0:
            raise ConfigError("sigma must be nonnegative")
        self.prior = prior
        self.sigma = max(sigma, self.SIGMA_FLOOR)
        self.box = prior
        self._lp = _WarmBoundLP(prior)
        self.n_measurements = 0
        self.n_lp_rebounds = 0

    @staticmethod
    def _halfspace_pairs(A: np.ndarray, q: np.ndarray,
                         sigma: float) -> tuple[np.ndarray, np.ndarray]:
        k = A.shape[0]
        G_all = np.empty((2 * k, 3))
        G_all[0::2] = A                       # each measurement's pair is adjacent
        G_all[1::2] = -A
        h_all = np.empty(2 * k)
        h_all[0::2] = q + sigma
        h_all[1::2] = -(q - sigma)
        return G_all, h_all

    def add_rows(self, A: np.ndarray, q: np.ndarray) -> ParamBox:
        """Ingest measurements with regressor rows A (k,3) and values q (k,)."""
        A = np.asarray(A, dtype=float).reshape(-1, 3)
        q = np.asarray(q, dtype=float).reshape(-1)
        G_all, h_all = self._halfspace_pairs(A, q, self.sigma)
        n = G_all.shape[0]
        idx = 0
        while idx < n:
            viol = self._lp.violates(G_all[idx:], h_all[idx:])
            hits = np.flatnonzero(viol)
            if hits.size == 0:
                self._lp.append_rows(G_all[idx:], h_all[idx:])
                break
            j = idx + int(hits[0])
            self._lp.append_rows(G_all[idx:j], h_all[idx:j])
            self._process_moving_row(G_all[j], h_all[j])
            idx = j + 1
        self.n_measurements += A.shape[0]
        return self.box

    def add(self, m: Measurement) -> ParamBox:
        """Ingest one measurement; the same boxes as `add_rows` row by row."""
        if not (0.0 < m.c1 < math.inf and 0.0 < m.c2 < math.inf):
            raise DomainError("measurement concentrations must be positive and finite")
        a = np.array((1.0, -math.log(m.c1), -math.log(m.c2)))
        self._process_moving_row(a, m.q_m + self.sigma)
        self._process_moving_row(-a, -(m.q_m - self.sigma))
        self.n_measurements += 1
        return self.box

    def add_rows_stop_on_change(self, A: np.ndarray, q: np.ndarray) -> tuple[int, bool]:
        """Ingest measurements in order, stopping after the first one that
        shrinks the box.  Returns (measurements consumed, box changed)."""
        A = np.asarray(A, dtype=float).reshape(-1, 3)
        q = np.asarray(q, dtype=float).reshape(-1)
        k = A.shape[0]
        G_all, h_all = self._halfspace_pairs(A, q, self.sigma)
        viol = self._lp.violates(G_all, h_all)
        hits = np.flatnonzero(viol)
        if hits.size == 0:
            self._lp.append_rows(G_all, h_all)
            self.n_measurements += k
            return k, False
        j = int(hits[0])
        i_meas = j // 2
        self._lp.append_rows(G_all[: 2 * i_meas], h_all[: 2 * i_meas])
        for jj in (2 * i_meas, 2 * i_meas + 1):
            self._process_moving_row(G_all[jj], h_all[jj])
        self.n_measurements += i_meas + 1
        return i_meas + 1, True

    def _process_moving_row(self, a: np.ndarray, b: float) -> None:
        try:
            moved = self._lp.process_row(a, b)
        except InfeasibleLPError as exc:
            raise ModelInvalidatedError(
                "constraints inconsistent with noise bound or model structure") from exc
        if not moved:
            return
        lo, hi = self._lp.bounds()
        lo = np.maximum(lo, self.box.lo_arr())
        hi = np.minimum(hi, self.box.hi_arr())
        if np.any(lo > hi + 1e-9):
            raise ModelInvalidatedError(
                "constraints inconsistent with noise bound or model structure")
        self.box = ParamBox.from_arrays(lo, np.maximum(hi, lo))
        self.n_lp_rebounds += 1


# --- CSV interfaces --------------------------------------------------------------

def read_measurements_csv(path: str) -> list[Measurement]:
    """Measurements of a CSV with header t,q_m,c1,c2, parsed in one pass.

    Blank lines are skipped; a row that is not four finite numbers raises
    ConfigError naming its line.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != ["t", "q_m", "c1", "c2"]:
            raise ConfigError(f"expected header t,q_m,c1,c2 in {path!r}, got {header}")
        rows = (line for line in fh if line.strip())
        first = next(rows, None)
        if first is None:
            return []
        try:
            data = np.loadtxt(itertools.chain([first], rows), delimiter=",",
                              comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[1] != 4 or not np.isfinite(data).all():
        _raise_bad_row(path)
    return list(map(Measurement, *data.T.tolist()))


def _raise_bad_row(path: str) -> NoReturn:
    """ConfigError for the first data line that is not four finite numbers."""
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                values = np.loadtxt([line], delimiter=",", comments=None)
            except ValueError:
                values = None
            if values is None or values.size != 4 or not np.isfinite(values).all():
                raise ConfigError(f"{path}:{lineno}: expected four finite numbers "
                                  f"t,q_m,c1,c2, got {line.rstrip()!r}")
    raise ConfigError(f"malformed measurement file {path!r}")


def write_boxes_csv(path: str, times, boxes) -> None:
    """One row per time; a box shared by consecutive rows is formatted once."""
    last = tail = None
    with open(path, "w") as fh:
        fh.write("t,p1_lo,p1_hi,p2_lo,p2_hi,p3_lo,p3_hi\n")
        for t, box in zip(times, boxes):
            if box is not last:
                lo, hi = box.lo, box.hi
                tail = (f",{lo[0]:.10g},{hi[0]:.10g},{lo[1]:.10g},"
                        f"{hi[1]:.10g},{lo[2]:.10g},{hi[2]:.10g}\n")
                last = box
            fh.write(f"{t:.10g}{tail}")
