"""Guaranteed parameter estimation from bounded-noise flux measurements.

Each flux sample q_m at exactly known concentrations gives two half-spaces
    q_m - sigma <= p1 - p2*ln(c1) - p3*ln(c2) <= q_m + sigma,
so the feasible parameter set is the prior box cut by a polytope, and the
estimator reports its per-coordinate bounding box.

The feasible set is kept exactly, as its vertices and the facets each lies
on, and each half-space that leaves a vertex outside cuts it (Walter &
Piet-Lahanier, "Exact recursive polyhedral description of the feasible
parameter set for bounded-error models", IEEE TAC 34(8), 1989), with the
double-description adjacency test of Fukuda & Prodon (1996).  The box is the
vertices' min/max, widened by the same relative pad as each cut.  A few
vertices, rarely more than 20, survive however many samples arrive.  Samples
stop at the bulk paths' numpy scan for a vertex outside their strip or, on the
adaptive singular arc, at `inert`, which screens their strips against the hull
box: 214,002 and 448,785 of the 664,127 samples of 20 generalized adaptive
batches (seed 20240801).  The other 1,340 were cut by both half-spaces.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import ConfigError, DomainError, ModelInvalidatedError, open_output
from .process import GAMMA1_UNIT_SCALE, Measurement, PlantParams

_INCONSISTENT = "constraints inconsistent with noise bound or model structure"


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


# --- the feasible polytope --------------------------------------------------------

# Each cut is moved outward by this fraction of (1+|b|): round-off then never
# cuts a feasible point, and noise-free rows at the sigma floor never empty
# the polytope.
_CLIP_REL = 1e-13
# past this many vertices the polytope is rebuilt from the facets of its
# extreme vertices (see `_Polytope.rebuilt`)
_VERTEX_CAP = 32


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


class _Polytope:
    """The prior box cut by half-spaces, as vertices and the facets they lie on.

    A coordinate with zero prior width is projected out: every vertex keeps
    its prior value there, so the polytope has dimension d, the number of the
    others (limiting_flux runs in (p1, p2) for a whole batch).  `cut` is one
    double-description step (Fukuda & Prodon, "Double description method
    revisited", 1996): the vertices beyond the new half-space go, and each
    edge from a kept vertex u strictly inside to a dropped one v gives the
    vertex u + t*(v - u) on the new facet.  u and v form an edge when they
    share at least d - 1 facets and no third vertex lies on all of them.
    Each vertex keeps its facets as the bits of an int; a facet that no vertex
    lies on any more frees its bit.  `rows[i]` is the half-space
    (a0, a1, a2, b) of bit i.

    `hull` = (lo_0, lo_1, lo_2, hi_0, hi_1, hi_2) is the box that this
    polytope reports: the vertices' min/max widened by _CLIP_REL*(1+|x|) and
    rounded outward.  The interpolated vertices carry the rounding of every
    cut before them, up to ~1e-14 in p1, which one ulp does not cover; the
    exact certificate in the tests checks each bound against that.
    """

    def __init__(self, prior: ParamBox):
        self.prior = prior
        self.free = [j for j in range(3) if prior.lo[j] < prior.hi[j]]
        self.rows: list[tuple[float, float, float, float]] = []
        corners = [[(prior.lo[j], 0)] for j in range(3)]
        for j in self.free:
            e = [float(i == j) for i in range(3)]
            corners[j] = [(prior.lo[j], 1 << len(self.rows)),
                          (prior.hi[j], 2 << len(self.rows))]
            self.rows += [(-e[0], -e[1], -e[2], -prior.lo[j]), (*e, prior.hi[j])]
        self.verts: list[tuple[float, float, float]] = []
        self.masks: list[int] = []
        for (x0, m0), (x1, m1), (x2, m2) in itertools.product(*corners):
            self.verts.append((x0, x1, x2))
            self.masks.append(m0 | m1 | m2)
        self._refresh_hull()

    def _refresh_hull(self) -> None:
        lo, hi = [], []
        for c in zip(*self.verts):
            x, y = min(c), max(c)
            lo.append(_down(x - _CLIP_REL * (1.0 + abs(x))))
            hi.append(_up(y + _CLIP_REL * (1.0 + abs(y))))
        self.hull = (*lo, *hi)

    def cut(self, a0: float, a1: float, a2: float, b: float) -> bool:
        """Cut by a0*p1 + a1*p2 + a2*p3 <= b; True when a vertex went."""
        verts, masks = self.verts, self.masks
        s = [a0 * x0 + a1 * x1 + a2 * x2 - b for x0, x1, x2 in verts]
        if not max(s) > 0.0:
            return False
        if min(s) > 0.0:
            raise ModelInvalidatedError(_INCONSISTENT)
        held = 0
        for m in masks:
            held |= m
        bit = ~held & (held + 1)                 # the lowest free facet bit
        need = len(self.free) - 1
        new_v, new_m = [], []
        for i, si in enumerate(s):
            if si <= 0.0:
                new_v.append(verts[i])
                new_m.append(masks[i] | bit if si == 0.0 else masks[i])
                continue
            (v0, v1, v2), mv = verts[i], masks[i]
            # every vertex on d - 1 of v's facets; a third one on all the
            # facets v shares with u is among them
            near = [k for k, m in enumerate(masks) if (m & mv).bit_count() >= need]
            for k in near:
                if not s[k] < 0.0:
                    continue
                shared = mv & masks[k]
                if sum(masks[w] & shared == shared for w in near) > 2:
                    continue
                (u0, u1, u2), t = verts[k], s[k] / (s[k] - si)
                new_v.append((u0 + t * (v0 - u0), u1 + t * (v1 - u1), u2 + t * (v2 - u2)))
                new_m.append(shared | bit)
        i = bit.bit_length() - 1
        if i == len(self.rows):
            self.rows.append((a0, a1, a2, b))
        else:
            self.rows[i] = (a0, a1, a2, b)
        self.verts, self.masks = new_v, new_m
        self._refresh_hull()
        return True

    def extremes(self) -> list[int]:
        """Indices of the vertices at min p1, max p1, ..., max p3."""
        out = []
        for col in zip(*self.verts):
            out += [col.index(min(col)), col.index(max(col))]
        return out

    def rebuilt(self) -> "_Polytope":
        """The prior box cut by the facets of the 2d extreme vertices.

        A superset of this polytope with the same bounds: each extreme vertex
        satisfies its own facets with equality and the direction of its bound
        is a nonnegative combination of their normals, so no other facet is
        needed to hold that bound.
        """
        keep = 0
        for i in self.extremes():
            keep |= self.masks[i]
        poly = _Polytope(self.prior)
        for i, row in enumerate(self.rows):
            if keep >> i & 1:
                poly.cut(*row)
        return poly


class OnlineBoxEstimator:
    """Streaming set-membership estimator: the exact bounding box after each row.

    The feasible set is kept exactly, as a `_Polytope`: each measurement's
    strip that leaves a vertex outside cuts it twice, once per half-space,
    and the box is the polytope's `hull`, nested into the previous box.  On
    the concentrate arc every strip shares one c2, so the polytope is a prism
    over a polygon in (p1 - ln(c2)*p3, p2) within the prior; the singular arc
    then cuts the same polytope.  Noise-free strips all pass near the truth
    and stay active, so the vertex count grows; past `_VERTEX_CAP` vertices
    the polytope is rebuilt from the facets of its extreme vertices.  An
    empty polytope beyond the `_CLIP_REL` pads raises ModelInvalidatedError.
    `n_lp_rebounds` counts the half-spaces that moved the box.

    Every row that may change the estimator goes through one routine, `_row`,
    which cuts by both half-spaces of its padded strip; a cut that leaves
    every vertex inside is a no-op.  `add` calls `_row` directly; `add_rows`
    and `add_rows_stop_on_change` scan windows of rows for the first one
    with a vertex sum outside its unpadded strip, a superset of the rows
    `_row` cuts, take the rows before it in bulk and hand it to `_row`.  So
    all three give the same boxes bit for bit.  Most rows stop at that scan,
    or, on the adaptive singular arc, at `inert` (module docstring).
    """

    # sigma = 0 strips are planes through the truth; a tiny floor keeps them
    # strips and only widens boxes by ~1e-9
    SIGMA_FLOOR = 1e-9
    # rows the bulk paths check against the vertices in one numpy pass; the
    # window doubles while no row cuts and restarts after a cut
    _SCAN0 = 256

    def __init__(self, prior: ParamBox, sigma: float):
        if sigma < 0.0:
            raise ConfigError("sigma must be nonnegative")
        self.prior = prior
        self.sigma = max(sigma, self.SIGMA_FLOOR)
        self.box = prior
        self._poly = _Polytope(prior)
        self.n_measurements = 0
        self.n_lp_rebounds = 0

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
        """Whether no vertex sum that `_row` forms leaves [q - sigma, q + sigma]
        for any measurement (1, -lc1, -lc2; q) inside intervals, pairs (lo, hi)
        of arrays.  Exact: vertices lie in the hull box, rounded products are
        monotone in each factor (`_product_bounds`) and negation is exact, and
        rounded left-to-right sums are monotone in each term.  A NaN fails a
        comparison.  Skipping inert rows changes nothing but `n_measurements`."""
        l0, l1, l2, h0, h1, h2 = self._poly.hull
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
        while i < n and not changed:
            e = min(n, i + w)
            j = i + self._clean_prefix(A[i:e], q[i:e] + self.sigma, q[i:e] - self.sigma)
            if j == e:
                i, w = e, 2 * w
                continue
            moved = self._row(*A[j].tolist(), float(q[j]))
            i, w = j + 1, self._SCAN0
            changed = stop and moved
        return i, changed

    def _clean_prefix(self, A, bu, bl) -> int:
        """Ingest the leading rows of a window that `_row` would take without a
        cut; returns their number.  The first row goes to `_row`."""
        # a row per vertex: numpy reduces fast across rows, slowly along short
        # ones; `_row` forms the same sums and cuts only outside its padded
        # strip, which holds [bl, bu], so every row it would cut is a hit
        X = np.array(self._poly.verts)
        r = X[:, :1] * A[:, 0] + X[:, 1:2] * A[:, 1] + X[:, 2:] * A[:, 2]
        hit = (r.max(axis=0) > bu) | (r.min(axis=0) < bl)
        j = int(hit.argmax()) if hit.any() else bu.size
        self.n_measurements += j
        return j

    def _row(self, a0: float, a1: float, a2: float, q: float) -> bool:
        """Ingest one measurement with regressor (a0, a1, a2): cut by both
        half-spaces of its padded strip; True when the box moved."""
        bu, bl = q + self.sigma, q - self.sigma
        up, lo = bu + _CLIP_REL * (1.0 + abs(bu)), bl - _CLIP_REL * (1.0 + abs(bl))
        moved = self._cut(a0, a1, a2, up) | self._cut(-a0, -a1, -a2, -lo)
        self.n_measurements += 1
        return moved

    def _cut(self, a0: float, a1: float, a2: float, b: float) -> bool:
        """Cut the polytope by one half-space; True when the box moved."""
        poly = self._poly
        if not poly.cut(a0, a1, a2, b):
            return False
        if len(poly.verts) > _VERTEX_CAP:
            self._poly = poly = poly.rebuilt()
        hull, box = poly.hull, self.box
        lo = tuple(max(x, y) for x, y in zip(hull[:3], box.lo))
        hi = tuple(max(l, min(x, y)) for l, x, y in zip(lo, hull[3:], box.hi))
        if lo == box.lo and hi == box.hi:
            return False
        self.box = ParamBox(lo, hi)
        self.n_lp_rebounds += 1
        return True


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
