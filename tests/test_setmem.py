import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dfrto import setmem
from dfrto.arc import integrate
from dfrto.cases import get_case
from dfrto.cli import main
from dfrto.errors import ConfigError, DomainError, ModelInvalidatedError
from dfrto.process import Measurement, ProcessSpec, StopCondition, flux
from dfrto.setmem import (OnlineBoxEstimator, ParamBox, _Polytope,
                          read_measurements_csv, scenario_points, write_boxes_csv)
from dfrto.strategies import optimal_strategy
from oracles import grid_feasible_box, lp_vertex_enumeration

PRIOR = ParamBox((15.0, 2.0, 0.0), (25.0, 4.0, 1.0))
# with sigma = 1, a strip is wider than this box along any regressor below
NARROW = ParamBox((20.6, 2.9, 0.29), (20.8, 3.1, 0.31))
TRUE_P = np.array([20.7, 3.0, 0.3])


def _synthetic_rows(n, rng, sigma=0.1, c1_range=(50.0, 400.0), c2_range=(0.5, 50.0)):
    c1 = np.exp(rng.uniform(np.log(c1_range[0]), np.log(c1_range[1]), n))
    c2 = np.exp(rng.uniform(np.log(c2_range[0]), np.log(c2_range[1]), n))
    A = np.column_stack([np.ones(n), -np.log(c1), -np.log(c2)])
    q = A @ TRUE_P + rng.uniform(-sigma, sigma, n)
    return A, q


def _est_from_rows(A, q, sigma, prior=PRIOR):
    est = OnlineBoxEstimator(prior, sigma)
    est.add_rows(A, q)
    return est


def _halfspaces(A, q, sigma):
    return np.vstack([A, -A]), np.concatenate([q + sigma, -(q - sigma)])


def _extreme_points(est) -> np.ndarray:
    """The vertices at min p1, max p1, ..., max p3, one row each."""
    poly = est._poly
    return np.array([poly.verts[i] for i in poly.extremes()])


def _state(poly) -> tuple:
    """Everything a cut may change: vertices, their facets and the facet rows."""
    return poly.verts, poly.masks, list(poly.rows), poly.hull


def _linprog_box(A, q, sigma, prior):
    G, h = _halfspaces(A, q, sigma)
    bounds = list(zip(prior.lo, prior.hi))
    lo, hi = np.empty(3), np.empty(3)
    for j in range(3):
        c = np.zeros(3)
        c[j] = 1.0
        for sign, out in ((1.0, lo), (-1.0, hi)):
            res = linprog(sign * c, A_ub=G, b_ub=h, bounds=bounds, method="highs",
                          options={"primal_feasibility_tolerance": 1e-10,
                                   "dual_feasibility_tolerance": 1e-10})
            assert res.status == 0
            out[j] = res.x[j]
    return lo, hi


# --- measurement rows -----------------------------------------------------------

def test_add_measurement_counts():
    est = OnlineBoxEstimator(PRIOR, 0.1)
    assert est.n_measurements == 0
    est.add(Measurement(0.0, 7.8, 50.0, 50.0))
    assert est.n_measurements == 1
    est.add(Measurement(1.0, 7.2, 60.0, 50.0))
    assert est.n_measurements == 2


def test_unit_concentration_bounds_p1_alone():
    G, h = _halfspaces(np.array([[1.0, -math.log(1.0), -math.log(1.0)]]), np.array([20.5]),
                       0.05)
    assert np.allclose(G[:, 1:], 0.0)
    est = OnlineBoxEstimator(PRIOR, 0.05)
    box = est.add(Measurement(0.0, 20.5, 1.0, 1.0))
    assert box.lo[0] == pytest.approx(20.45) and box.hi[0] == pytest.approx(20.55)
    assert (box.lo[1], box.hi[1]) == (PRIOR.lo[1], PRIOR.hi[1])
    assert (box.lo[2], box.hi[2]) == (PRIOR.lo[2], PRIOR.hi[2])


def test_frozen_c2_gives_rank_two():
    # all rows share the same c2 regressor on a pure-concentration arc
    rng = np.random.default_rng(0)
    c1 = np.linspace(50.0, 300.0, 40)
    A = np.column_stack([np.ones(40), -np.log(c1), np.full(40, -math.log(50.0))])
    assert np.linalg.matrix_rank(A) == 2


# --- the bound LPs, solved by the feasible polytope ----------------------------------

def test_lp_box_only():
    est = OnlineBoxEstimator(PRIOR, 0.1)
    assert est.box is PRIOR
    x = _extreme_points(est)
    assert x[1, 0] == pytest.approx(PRIOR.hi[0])    # max p1
    assert x[0, 0] == pytest.approx(PRIOR.lo[0])    # min p1


def test_lp_single_constraint():
    est = _est_from_rows(np.array([[1.0, 0.0, 0.0]]), np.array([16.9]), 0.1)
    assert est.box.hi[0] == pytest.approx(17.0)


def _random_strips(rng):
    A = rng.normal(size=(10, 3))
    return A, rng.normal(size=10), 1.0 + rng.uniform()


def _integer_strips(rng):
    """Strips with coefficients in {-1, 0, 1} and integer centres: many of
    them meet at each vertex, which the adjacency test sees as degenerate
    vertices."""
    A = rng.integers(-1, 2, size=(10, 3)).astype(float)
    A[0, 0] = 0.0                       # a first row without p1
    return A, rng.integers(-1, 2, size=10).astype(float), 1.0


def test_lp_vs_vertex_enumeration():
    rng = np.random.default_rng(42)
    box = ParamBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    worst = 0.0
    for draw in (_random_strips, _integer_strips):
        n_solved = 0
        for _ in range(40):
            A, q, sigma = draw(rng)
            G, h = _halfspaces(A, q, sigma)
            try:
                est = _est_from_rows(A, q, sigma, box)
            except ModelInvalidatedError:
                assert lp_vertex_enumeration(np.array([1.0, 0.0, 0.0]), G, h, box) is None
                continue
            n_solved += 1
            j, sign = rng.integers(3), rng.choice([1.0, -1.0])   # one of the six bounds
            ref = lp_vertex_enumeration(sign * np.eye(3)[j], G, h, box)
            assert ref is not None
            bound = est.box.lo[j] if sign > 0 else -est.box.hi[j]
            worst = max(worst, abs(bound - ref[1]))
        assert n_solved >= 10
    assert worst <= 1e-7


def test_strip_holding_on_the_whole_box_is_not_stored():
    """A strip that contains the whole current box changes the polytope on no
    ingest path."""
    prior = ParamBox((20.6, 2.0, 0.0), (20.75, 4.0, 1.0))     # p1 narrower than 2*sigma
    A, q = _synthetic_rows(40, np.random.default_rng(3))
    strip = np.array([[1.0, 0.0, 0.0]]), np.array([20.675])  # 20.575 <= p1 <= 20.775

    def ingest(est):
        est.add_rows(A, q)
        return _state(est._poly), est.box

    paths = {
        "add": lambda est: est.add(Measurement(0.0, 20.675, 1.0, 1.0)),
        "add_rows": lambda est: est.add_rows(*strip),
        "stop_on_change": lambda est: est.add_rows_stop_on_change(*strip),
    }
    for name, path in paths.items():
        est = OnlineBoxEstimator(prior, 0.1)
        state, box = ingest(est)
        path(est)
        assert _state(est._poly) == state, name
        assert est.box == box and est.n_measurements == 41, name


def test_lp_stores_exactly_the_rows_that_cut_the_box():
    """A half-space that cuts a vertex off becomes a facet, even where the box
    keeps its bounds; one that holds on every vertex adds nothing."""
    a = (1.0, -1.0, 0.0)                # p1 - p2: 23 at most on PRIOR
    poly = _Polytope(PRIOR)
    before = _state(poly)
    assert not poly.cut(*a, 23.5) and not poly.cut(*a, 23.0)    # 23.0 only touches
    assert _state(poly) == before
    assert poly.cut(*a, 22.0)           # cuts the edge p1 = 25, p2 = 2 off
    assert len(poly.verts) == 10 and poly.rows[6] == (*a, 22.0)
    assert sum(m >> 6 & 1 for m in poly.masks) == 4
    assert poly.hull == before[3]       # the vertices keep their extent


def test_lp_determinism():
    rng = np.random.default_rng(9)
    A, q = _synthetic_rows(50, rng)
    e1, e2 = _est_from_rows(A, q, 0.1), _est_from_rows(A, q, 0.1)
    assert e1.box == e2.box and _state(e1._poly) == _state(e2._poly)


# --- the hull screen and marginal cuts --------------------------------------------

def _lp_state(seed: int, n: int, sigma: float, prior: ParamBox = PRIOR):
    """An estimator after n >= 2 rows through a random truth."""
    rng = np.random.default_rng(seed)
    truth = rng.uniform(prior.lo, prior.hi)
    c1 = np.exp(rng.uniform(np.log(50.0), np.log(400.0), n))
    c2 = np.exp(rng.uniform(np.log(0.5), np.log(50.0), n))
    est = OnlineBoxEstimator(prior, sigma)
    for x1, x2 in zip(c1.tolist(), c2.tolist()):
        a1, k = -math.log(x1), -math.log(x2)
        q = truth[0] + a1 * truth[1] + k * truth[2] + rng.uniform(-sigma, sigma)
        est.add(Measurement(0.0, q, x1, x2))
    return est, rng


def _dot(a, x) -> float:
    """a.x summed left to right in Python floats."""
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2]


def _hull_sums(a, lo, hi) -> tuple[float, float]:
    """(max, min) of a.p over the box [lo, hi], summed left to right."""
    up, down = zip(*[(ai * h, ai * l) if ai >= 0.0 else (ai * l, ai * h)
                     for ai, l, h in zip(a, lo, hi)])
    return up[0] + up[1] + up[2], down[0] + down[1] + down[2]


def _hull_inert(hull, a, bl, bu) -> bool:
    """Whether the strip bl <= a.p <= bu holds the box hull = (lo, hi)."""
    s_hi, s_lo = _hull_sums(a, hull[:3], hull[3:])
    return s_hi <= bu and s_lo >= bl


def _hull_of(poly) -> tuple:
    """The vertices' min/max widened by _CLIP_REL*(1+|x|) and rounded
    outward, from scratch."""
    V, pad = np.array(poly.verts), setmem._CLIP_REL
    lo, hi = V.min(axis=0), V.max(axis=0)
    return tuple(np.nextafter(lo - pad * (1.0 + np.abs(lo)), -np.inf).tolist()
                 + np.nextafter(hi + pad * (1.0 + np.abs(hi)), np.inf).tolist())


def _outcome(est, ingest):
    """The estimator state after ingest, or the error it raised."""
    try:
        ingest(est)
    except ModelInvalidatedError:
        return "invalidated"
    return (est.box, _state(est._poly), est.n_lp_rebounds, est.n_measurements)


def _two_step(a, q):
    """`add` without the screens: both padded half-spaces cut the polytope."""
    def ingest(est):
        bu, bl = q + est.sigma, q - est.sigma
        est._cut(*a, bu + setmem._CLIP_REL * (1.0 + abs(bu)))
        est._cut(*(-x for x in a), -(bl - setmem._CLIP_REL * (1.0 + abs(bl))))
        est.n_measurements += 1
    return ingest


@pytest.mark.parametrize("kind", ["hull_hi", "hull_lo", "inside", "box_cut", "move_hi",
                                  "move_lo"])
@settings(max_examples=20)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 30),
       st.sampled_from([(NARROW, 1.0), (PRIOR, 0.5), (PRIOR, 0.05)]),
       st.floats(0.05, 0.95), st.integers(-2, 2))
def test_screened_add_matches_the_two_step_path(kind, seed, n, prior_sigma, frac, ulps):
    """`add` skips the cut for a strip only where both half-spaces would be
    no-ops: strips tangent to the hull box (to the ulp), strips that contain
    it, strips that cut the box but no vertex, and strips that cut vertices
    from either side leave the same state as the two `_cut` steps."""
    est, rng = _lp_state(seed, n, prior_sigma[1], prior_sigma[0])
    poly = est._poly
    c1, c2 = (float(x) for x in np.exp(rng.uniform(np.log([50.0, 0.5]), np.log([400.0, 50.0]))))
    a = (1.0, -math.log(c1), -math.log(c2))
    s_hi, s_lo = _hull_sums(a, poly.hull[:3], poly.hull[3:])
    box_hi = _hull_sums(a, est.box.lo, est.box.hi)[0]
    vals = [_dot(a, x) for x in poly.verts]
    v_hi, v_lo = max(vals), min(vals)
    s = est.sigma
    q = {"hull_hi": s_hi - s, "hull_lo": s_lo + s, "inside": s_lo + frac * (s_hi - s_lo),
         "box_cut": v_hi + frac * (box_hi - v_hi) - s,
         "move_hi": v_hi - frac * (v_hi - v_lo) - s,
         "move_lo": v_lo + frac * (v_hi - v_lo) + s}[kind]
    for _ in range(abs(ulps)):
        q = math.nextafter(q, math.copysign(math.inf, ulps))
    screened = _outcome(copy.deepcopy(est), lambda e: e.add(Measurement(0.0, q, c1, c2)))
    assert screened == _outcome(copy.deepcopy(est), _two_step(a, q))


def test_screen_is_exact_at_tangency():
    """On zero-width intervals `inert` holds a strip whose bound rounds to the
    hull sum, not one whose bound is one step inside it, and not a NaN."""
    est, _ = _lp_state(1, 20, 1.0, NARROW)
    poly, sigma = est._poly, est.sigma
    lc1, lc2 = math.log(120.0), math.log(3.0)
    s_hi, s_lo = _hull_sums((1.0, -lc1, -lc2), poly.hull[:3], poly.hull[3:])
    assert s_hi - s_lo < 2.0 * sigma       # the strip is wider than the hull

    def inert(q):
        return est.inert(*((np.array([x]),) * 2 for x in (lc1, lc2, q)))[0]

    def tangent(q, bound, side):
        """q stepped by ulps until q + side*sigma rounds to bound."""
        while q + side * sigma != bound:
            q = math.nextafter(q, math.inf if q + side * sigma < bound else -math.inf)
        return q

    q = tangent(s_hi - sigma, s_hi, 1.0)
    assert inert(q) and not inert(math.nextafter(q, -math.inf))
    q = tangent(s_lo + sigma, s_lo, -1.0)
    assert inert(q) and not inert(math.nextafter(q, math.inf))
    assert not inert(math.nan)


def test_screen_covers_optimizers_outside_the_box():
    """The box is nested into the earlier boxes, so a vertex may sit just
    outside it; the screen bounds it through the hull box, and a strip that
    holds on the box but excludes that vertex still cuts."""
    est, _ = _lp_state(1, 20, 1.0, NARROW)
    poly = est._poly
    c1, c2 = 120.0, 3.0
    a = (1.0, -math.log(c1), -math.log(c2))
    box_hi, box_lo = _hull_sums(a, est.box.lo, est.box.hi)
    corner = [h if ai >= 0.0 else l for ai, l, h in zip(a, est.box.lo, est.box.hi)]
    i = poly.extremes()[1]                  # max p1, moved 1e-8 outside the box
    poly.verts[i] = (corner[0] + 1e-8, corner[1], corner[2])
    poly._refresh_hull()
    q = box_hi - est.sigma + 1e-12
    assert q - est.sigma <= box_lo and q + est.sigma >= box_hi   # holds on the box
    screened = _outcome(copy.deepcopy(est), lambda e: e.add(Measurement(0.0, q, c1, c2)))
    assert screened == _outcome(copy.deepcopy(est), _two_step(a, q))
    assert screened[1] != _state(poly)


def test_hull_follows_the_box_and_the_optimizers():
    """The hull box is the vertices' min/max rounded outward after every cut
    and after a rebuild, and holds the box."""
    rng = np.random.default_rng(31)
    A, q = _synthetic_rows(300, rng)
    A[:40, 2] = A[0, 2]                    # a concentrate arc first
    q[:40] = A[:40] @ TRUE_P + rng.uniform(-0.1, 0.1, 40)
    est = OnlineBoxEstimator(PRIOR, 0.1)
    est.add_rows(A[:41], q[:41])
    assert est._poly.hull == _hull_of(est._poly) != PRIOR.lo + PRIOR.hi
    moves = 0
    for a, qi in zip(A[41:], q[41:]):
        before = est.n_lp_rebounds
        est.add(Measurement(0.0, qi, math.exp(-a[1]), math.exp(-a[2])))
        moves += est.n_lp_rebounds > before
        assert est._poly.hull == _hull_of(est._poly)
        assert ParamBox(est._poly.hull[:3], est._poly.hull[3:]).contains(est.box.lo_arr())
        assert ParamBox(est._poly.hull[:3], est._poly.hull[3:]).contains(est.box.hi_arr())
    assert moves > 5
    poly = est._poly.rebuilt()
    assert poly.hull == _hull_of(poly)


def test_marginal_cuts_agree_on_every_ingest_path():
    """Rows that exclude the vertex with the largest a.x by 2e-13 of (1 + |b|),
    above the 1e-13 pad of `_row`, cut the same vertices on the per-row,
    bulk and stop-on-change paths (a bulk scan with a coarser threshold
    misses them)."""
    prior, sigma = NARROW, 1.0
    ref, rng = _lp_state(7, 12, sigma, prior)
    n0 = ref.n_measurements
    rows, qs = [], []
    for i in range(30):
        c1, c2 = (float(x) for x in np.exp(rng.uniform(np.log([50.0, 0.5]),
                                                       np.log([400.0, 50.0]))))
        a = (1.0, -math.log(c1), -math.log(c2))
        ax = max(_dot(a, x) for x in ref._poly.verts)
        bu = ax - 2e-13 * (1.0 + abs(ax))
        before = _state(ref._poly)
        ref.add(Measurement(0.0, bu - sigma, c1, c2))
        assert _state(ref._poly) != before          # the upper side cuts
        rows.append(a)
        qs.append(bu - sigma)
    # the same stream, rebuilt from its first n0 rows and the marginal ones
    est0, _ = _lp_state(7, 12, sigma, prior)
    assert est0.n_measurements == n0
    A, q = np.array(rows), np.array(qs)
    bulk = copy.deepcopy(est0)
    bulk.add_rows(A, q)
    blocks = copy.deepcopy(est0)
    start = 0
    while start < len(qs):
        start += blocks.add_rows_stop_on_change(A[start:], q[start:])[0]
    for est in (bulk, blocks):
        assert est.box == ref.box
        assert _state(est._poly) == _state(ref._poly)
        assert est.n_lp_rebounds == ref.n_lp_rebounds


# --- boxes over every row ---------------------------------------------------------

def test_bound_params_empty_returns_prior():
    est = OnlineBoxEstimator(PRIOR, 0.1)
    assert est.add_rows(np.empty((0, 3)), np.empty(0)) is PRIOR


def test_bound_params_three_point_collapse():
    pts = [(2.0, 5.0), (10.0, 2.0), (3.0, 20.0)]
    A = np.array([[1.0, -math.log(c1), -math.log(c2)] for c1, c2 in pts])
    box = _est_from_rows(A, A @ TRUE_P, 1e-9).box
    exact = np.linalg.solve(A, A @ TRUE_P)
    assert np.allclose(box.lo_arr(), exact, atol=1e-7)
    assert np.allclose(box.hi_arr(), exact, atol=1e-7)


def test_bound_params_matches_grid_oracle():
    rng = np.random.default_rng(11)
    A, q = _synthetic_rows(200, rng)
    box = _est_from_rows(A, q, 0.1).box
    res = grid_feasible_box(A, q, 0.1, PRIOR, n=101)
    assert res is not None
    lo_g, hi_g, cell = res
    # grid bounds are inner approximations: within one cell of the LP box
    assert np.all(lo_g >= box.lo_arr() - 1e-9)
    assert np.all(hi_g <= box.hi_arr() + 1e-9)
    assert np.all(lo_g - box.lo_arr() <= cell + 1e-9)
    assert np.all(box.hi_arr() - hi_g <= cell + 1e-9)


def test_bound_params_nesting():
    rng = np.random.default_rng(3)
    A, q = _synthetic_rows(120, rng)
    prev = PRIOR
    for i in range(0, 120, 10):
        box = _est_from_rows(A[:i + 1], q[:i + 1], 0.1).box
        assert box.is_subset_of(prev)
        prev = box
    assert prev.contains(TRUE_P)


def test_bound_params_invalidated():
    # two contradictory rows at one c2: the polygon empties
    est = OnlineBoxEstimator(PRIOR, 0.01)
    est.add(Measurement(0.0, 5.0, 50.0, 50.0))
    with pytest.raises(ModelInvalidatedError):
        est.add(Measurement(0.0, 6.0, 50.0, 50.0))  # contradicts at sigma=0.01
    A = np.array([[1.0, -math.log(50.0), -math.log(50.0)]] * 2)
    with pytest.raises(ModelInvalidatedError):
        _est_from_rows(A, np.array([5.0, 6.0]), 0.01)


def test_online_equals_batch():
    rng = np.random.default_rng(21)
    A, q = _synthetic_rows(400, rng)
    est = _est_from_rows(A, q, 0.1)
    single = OnlineBoxEstimator(PRIOR, 0.1)
    for a, qi in zip(A, q):
        single.add(Measurement(0.0, qi, math.exp(-a[1]), math.exp(-a[2])))
    lo, hi = _linprog_box(A, q, 0.1, PRIOR)
    assert np.max(np.abs(est.box.lo_arr() - lo)) <= 1e-9
    assert np.max(np.abs(est.box.hi_arr() - hi)) <= 1e-9
    assert np.array_equal(est.box.lo_arr(), single.box.lo_arr())
    assert np.array_equal(est.box.hi_arr(), single.box.hi_arr())


def test_online_one_by_one_equals_bulk():
    rng = np.random.default_rng(22)
    A, q = _synthetic_rows(300, rng)
    bulk = OnlineBoxEstimator(PRIOR, 0.1)
    bulk.add_rows(A, q)
    single = OnlineBoxEstimator(PRIOR, 0.1)
    for a, qi in zip(A, q):
        single.add_rows(a[None, :], np.array([qi]))
    assert np.array_equal(bulk.box.lo_arr(), single.box.lo_arr())
    assert np.array_equal(bulk.box.hi_arr(), single.box.hi_arr())


@settings(max_examples=15)
@given(st.integers(1, 60), st.integers(0, 2 ** 31 - 1))
def test_online_nesting_property(n, seed):
    rng = np.random.default_rng(seed)
    A, q = _synthetic_rows(n, rng)
    est = OnlineBoxEstimator(PRIOR, 0.1)
    prev = est.box
    for a, qi in zip(A, q):
        est.add_rows(a[None, :], np.array([qi]))
        assert est.box.is_subset_of(prev)
        prev = est.box
    assert est.box.contains(TRUE_P)


def test_p3_frozen_on_concentrate_arc(p_nom2, spec):
    """With c2 frozen, p3 stays at its prior until the singular arc."""
    prior = ParamBox.from_gamma_box((0.027, 900.0, 0.09), (0.033, 1100.0, 0.11))
    traj = integrate(spec.initial_state(), 0.0, p_nom2,
                     StopCondition.at_time(2.4), spec, record=True)
    rng = np.random.default_rng(77)
    A = np.column_stack([np.ones(traj.t.size), -np.log(traj.c1), -np.log(traj.c2)])
    q = traj.q + rng.uniform(-spec.sigma, spec.sigma, traj.t.size)
    est = OnlineBoxEstimator(prior, spec.sigma)
    est.add_rows(A[1:], q[1:])
    w_prior = prior.widths()
    w_post = est.box.widths()
    assert w_prior[2] - w_post[2] <= 0.01 * w_prior[2]


# --- the concentrate arc: a prism over a polygon -------------------------------------

@settings(max_examples=30)
@given(st.sampled_from([1.0, 0.4, 50.0]), st.integers(1, 80), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.1, 1e-3]))
def test_same_c2_polygon_matches_linprog(c2, n, seed, sigma):
    """c2 = 1 (k = 0), c2 < 1 (k > 0) and c2 > 1 (k < 0): strips at one c2
    cut a prism over a polygon in (p1 - ln(c2)*p3, p2), which stays small."""
    rng = np.random.default_rng(seed)
    A, q = _synthetic_rows(n, rng, sigma=sigma, c2_range=(c2, c2))
    est = _est_from_rows(A, q, sigma)
    assert len(est._poly.verts) <= setmem._VERTEX_CAP
    lo, hi = _linprog_box(A, q, sigma, PRIOR)
    assert np.max(np.abs(est.box.lo_arr() - lo)) <= 1e-9
    assert np.max(np.abs(est.box.hi_arr() - hi)) <= 1e-9
    assert est.box.contains(TRUE_P)
    # the six optimizer points are feasible and attain the bounds
    G, h = _halfspaces(A, q, sigma)
    x = _extreme_points(est)
    assert float(np.max(G @ x.T - h[:, None])) <= 1e-9
    assert np.all([PRIOR.contains(xi, tol=1e-12) for xi in x])
    assert np.allclose(x[0::2].diagonal(), lo, atol=1e-9)
    assert np.allclose(x[1::2].diagonal(), hi, atol=1e-9)


def test_noise_free_concentrate_stream_is_consistent(p_nom2, spec):
    """Exact fluxes at the sigma floor never empty the polytope; its strips
    all pass through the truth and stay active, so it is soon rebuilt from
    the facets of its extreme vertices."""
    prior = get_case("generalized").prior_box(spec)
    traj = integrate(spec.initial_state(), 0.0, p_nom2,
                     StopCondition.at_time(0.5), spec, record=True)
    A = np.column_stack([np.ones(traj.t.size), -np.log(traj.c1), -np.log(traj.c2)])[1:]
    single = OnlineBoxEstimator(prior, 0.0)
    for m in zip(traj.t[1:], traj.q[1:], traj.c1[1:], traj.c2[1:]):
        assert single.add(Measurement(*m)).contains(p_nom2)
    bulk = _est_from_rows(A, traj.q[1:], 0.0, prior)
    assert bulk.box == single.box and bulk.n_lp_rebounds == single.n_lp_rebounds
    # p2 and theta = p1 + k*p3 are pinned; p1 alone is not while p3 is free
    w = bulk.box.widths()
    assert w[1] < 1e-7 and w[2] == prior.widths()[2]
    assert w[0] <= abs(A[0, 2]) * w[2] + 1e-7


@pytest.mark.parametrize("path", ["add", "add_rows", "add_rows_stop_on_change"])
def test_nonfinite_input_rejected_before_any_change(path):
    est = OnlineBoxEstimator(PRIOR, 0.1)
    if path == "add":
        bad = [((Measurement(0.0, math.nan, 60.0, 50.0),)),
               ((Measurement(0.0, -math.inf, 60.0, 50.0),))]
    else:
        rows = np.array([[1.0, -4.0, -3.9], [1.0, math.nan, -3.9]])
        bad = [(rows, np.array([7.0, 7.1])), (rows[:1], np.array([math.inf]))]
    for args in bad:
        with pytest.raises(DomainError):
            getattr(est, path)(*args)
    assert est.n_measurements == 0 and _state(est._poly) == _state(_Polytope(PRIOR))
    assert est.box is PRIOR


def test_box_helpers():
    box = ParamBox((0.0, 0.0, 0.5), (1.0, 2.0, 0.5))
    assert box.mid().as_array() == pytest.approx([0.5, 1.0, 0.5])
    pts = scenario_points(box.lo_arr(), box.hi_arr(), 32, seed=1)
    assert pts.shape == (4 + 1 + 32, 3)  # degenerate p3 deduplicates the corners
    assert np.all(pts >= box.lo_arr()) and np.all(pts <= box.hi_arr())
    assert np.array_equal(scenario_points(box.lo_arr(), box.hi_arr(), 32, seed=1), pts)
    with pytest.raises(ConfigError):
        ParamBox((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))


@pytest.mark.parametrize("n", [1, 5, 16, 64])
def test_scenario_lhs_fills_every_stratum_once(n):
    lo, hi = np.array([-1.0, 2.0, 10.0]), np.array([3.0, 2.5, 30.0])
    lhs = scenario_points(lo, hi, n, seed=7)[-n:]
    strata = np.floor((lhs - lo) / (hi - lo) * n).astype(int)
    for j in range(3):
        assert sorted(strata[:, j].tolist()) == list(range(n))


def test_scenario_corners_deduplicated_and_midpoint_present():
    lo, hi = np.array([1.0, 2.0, 0.0]), np.array([3.0, 2.0, 0.0])
    pts = scenario_points(lo, hi, 0)
    # two coordinates are degenerate: two corners, then the midpoint
    assert pts.tolist() == [[1.0, 2.0, 0.0], [3.0, 2.0, 0.0], [2.0, 2.0, 0.0]]
    full = scenario_points(lo - 1.0, hi + 1.0, 3, seed=2)
    assert len(np.unique(full[:8], axis=0)) == 8
    assert full[8].tolist() == (0.5 * (lo + hi)).tolist()


@pytest.mark.parametrize("case_name, rows", [("generalized", 25), ("limiting_flux", 21)])
def test_gamma_scenarios_row_count(spec, case_name, rows):
    case = get_case(case_name)
    scen = case.gamma_scenarios(spec)
    assert scen.shape == (rows, 3)
    assert len(np.unique(scen, axis=0)) == rows
    box = case.prior_box(spec)
    assert all(box.contains(p, tol=1e-12) for p in scen)
    # the midpoint of the gamma box is the nominal point
    nominal = case.nominal_params(spec).as_array()
    assert min(np.max(np.abs(p - nominal) / nominal.clip(1.0)) for p in scen) <= 1e-14


def test_measurement_csv_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("t,q_m,c1,c2\n0.5,4.25,60,50\n1,4.1,70,50\n")
    assert read_measurements_csv(str(path)).tolist() == [[0.5, 4.25, 60.0, 50.0],
                                                         [1.0, 4.1, 70.0, 50.0]]
    out = tmp_path / "b.csv"
    write_boxes_csv(str(out), [0.5], [PRIOR])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,p1_lo,p1_hi,p2_lo,p2_hi,p3_lo,p3_hi"
    assert lines[1].startswith("0.5,15,25,2,4,0,1")


def test_measurement_csv_exact_and_blank_lines(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.5, 2.0, (50, 4)) * 10.0 ** rng.integers(-12, 12, (50, 4))
    lines = [",".join(f"{v:.17g}" for v in row) for row in vals]
    lines[10:10] = ["", "   ", "\t"]
    path = tmp_path / "m.csv"
    path.write_text("t,q_m,c1,c2\n" + "\n".join(lines) + "\n\n")
    expect = [[float(x) for x in line.split(",")] for line in lines if line.strip()]
    assert read_measurements_csv(str(path)).tolist() == expect


@pytest.mark.parametrize("row", ["0,4.2,50,50,1", "0,4.2,inf,50", "0,4.2,5_0,50",
                                 "0,4.2,0,50", "0,4.2,50,-0.5"])
def test_measurement_csv_bad_row_names_line(tmp_path, row):
    # tests/test_cli.py covers text, short rows and NaN through `dfrto estimate`
    path = tmp_path / "m.csv"
    path.write_text(f"t,q_m,c1,c2\n\n{row}\n1,4.2,50,50\n")
    with pytest.raises(ConfigError, match="m.csv:3:"):
        read_measurements_csv(str(path))


def _boxes_csv_reference(times, boxes) -> str:
    """The per-line format the bounds CSV has always had."""
    out = ["t,p1_lo,p1_hi,p2_lo,p2_hi,p3_lo,p3_hi\n"]
    for t, box in zip(times, boxes):
        lo, hi = box.lo, box.hi
        out.append(f"{t:.10g},{lo[0]:.10g},{hi[0]:.10g},{lo[1]:.10g},"
                   f"{hi[1]:.10g},{lo[2]:.10g},{hi[2]:.10g}\n")
    return "".join(out)


def test_write_boxes_csv_matches_per_line_format(tmp_path):
    a = ParamBox((15.123456789012, 2.0, 0.0), (25.0, 3.999999999987, 1e-7))
    b = ParamBox((20.1, 2.5, 0.1), (20.2, 2.6, 0.3))
    b_again = ParamBox((20.1, 2.5, 0.1), (20.2, 2.6, 0.3))
    assert b_again == b and b_again is not b
    times = [0.0, 1 / 3600, 2 / 3600, 12345.678901234]
    boxes = [a, a, b_again, a]
    out = tmp_path / "b.csv"
    write_boxes_csv(str(out), times, boxes)
    assert out.read_text() == _boxes_csv_reference(times, boxes)


# --- one full batch through every ingest path -------------------------------------

@pytest.fixture(scope="module")
def full_batch():
    """Noisy flux samples of one optimal generalized-case batch (~3e4 rows)."""
    spec, case = ProcessSpec(), get_case("generalized")
    p = case.draw_truth_gamma(np.random.default_rng(5), 0.10, spec)
    traj = optimal_strategy(p, spec, record=True).trajectory
    keep = np.isfinite(traj.u)          # drops the dilution end point
    keep[0] = False                     # and the initial state
    c1, c2 = traj.c1[keep], traj.c2[keep]
    q = traj.q[keep] + np.random.default_rng(6).uniform(-spec.sigma, spec.sigma, c1.size)
    ms = [Measurement(t, qi, x1, x2)
          for t, qi, x1, x2 in zip(traj.t[keep].tolist(), q.tolist(), c1.tolist(), c2.tolist())]
    A = np.array([[1.0, -math.log(m.c1), -math.log(m.c2)] for m in ms])
    return case.prior_box(spec), spec.sigma, p, ms, A, q


def test_ingest_paths_agree_on_full_batch(full_batch):
    prior, sigma, p, ms, A, q = full_batch
    single = OnlineBoxEstimator(prior, sigma)
    boxes = [single.add(m) for m in ms]
    bulk = OnlineBoxEstimator(prior, sigma)
    bulk.add_rows(A, q)
    blocks = OnlineBoxEstimator(prior, sigma)
    start = 0
    while start < len(ms):
        n_used, changed = blocks.add_rows_stop_on_change(A[start:], q[start:])
        start += n_used
        if changed:
            assert blocks.box == boxes[start - 1]
    for est in (bulk, blocks):
        assert np.array_equal(est.box.lo_arr(), single.box.lo_arr())
        assert np.array_equal(est.box.hi_arr(), single.box.hi_arr())
        assert est.n_lp_rebounds == single.n_lp_rebounds
        assert est.n_measurements == len(ms)
    assert single.n_lp_rebounds > 20
    assert single.box.contains(p)
    # the polytope stays small, and every path leaves the same one
    assert len(single._poly.verts) <= setmem._VERTEX_CAP
    for est in (bulk, blocks):
        assert _state(est._poly) == _state(single._poly)


def _log_bits_stream(p, sigma):
    """Noisy rows at random concentrations, some of whose logarithms numpy
    rounds differently from math.log."""
    rng = np.random.default_rng(7)
    c1 = np.exp(rng.uniform(math.log(50.0), math.log(150.0), 3000))
    c2 = np.exp(rng.uniform(math.log(0.05), math.log(50.0), 3000))
    q = [flux(x, y, p) + e for x, y, e in zip(c1.tolist(), c2.tolist(),
                                              rng.uniform(-sigma, sigma, 3000).tolist())]
    return [Measurement(i / 3600.0, qi, x, y) for i, (qi, x, y) in
            enumerate(zip(q, c1.tolist(), c2.tolist()))]


@pytest.mark.parametrize("stream", ["sigma", "sigma0", "log_bits"])
def test_estimate_pipeline_matches_per_row_add(full_batch, tmp_path, monkeypatch, stream):
    """`dfrto estimate` writes the bytes of one `add` per row, hands the
    bulk ingest the regressors -math.log(c) that `add` forms, and on a noisy
    stream takes nearly every row in blocks."""
    prior, sigma, p, ms, _, _ = full_batch
    args = ["--case", "generalized"]
    if stream == "sigma0":
        ms = [m._replace(q_m=flux(m.c1, m.c2, p)) for m in ms[:1000]]
        sigma = 0.0
        (tmp_path / "spec.json").write_text('{"sigma": 0}')
        args += ["--config", str(tmp_path / "spec.json")]
    elif stream == "log_bits":
        ms = _log_bits_stream(p, sigma)
        c = np.array([(m.c1, m.c2) for m in ms])
        assert (np.log(c) != np.vectorize(math.log)(c)).any()
    ref = OnlineBoxEstimator(prior, sigma)
    expect = _boxes_csv_reference([m.t for m in ms], [ref.add(m) for m in ms])
    src, out = tmp_path / "m.csv", tmp_path / "b.csv"
    src.write_text("t,q_m,c1,c2\n" + "".join("%.17g,%.17g,%.17g,%.17g\n" % m for m in ms))
    regressors = np.array([[1.0, -math.log(m.c1), -math.log(m.c2)] for m in ms])

    rows = {"add": 0, "add_rows_stop_on_change": 0}
    add, block = OnlineBoxEstimator.add, OnlineBoxEstimator.add_rows_stop_on_change

    def add_spy(self, m):
        rows["add"] += 1
        return add(self, m)

    def block_spy(self, A, q):
        assert A.tobytes() == regressors[len(regressors) - len(A):].tobytes()
        used, changed = block(self, A, q)
        rows["add_rows_stop_on_change"] += used
        return used, changed

    monkeypatch.setattr(OnlineBoxEstimator, "add", add_spy)
    monkeypatch.setattr(OnlineBoxEstimator, "add_rows_stop_on_change", block_spy)
    assert main(["estimate", "--input", str(src), "--out", str(out)] + args) == 0
    got = out.read_text()
    # the first differing line, not a diff of two megabyte strings
    bad = next((i for i, (a, b) in enumerate(zip(got.splitlines(), expect.splitlines()))
                if a != b), None)
    assert bad is None, f"line {bad + 1}: {got.splitlines()[bad]!r}"
    assert got == expect
    assert sum(rows.values()) == len(ms)
    if stream != "sigma0":
        assert rows["add_rows_stop_on_change"] > 0.9 * len(ms)
    if stream == "sigma":
        assert rows["add"] < 0.01 * len(ms)


def test_compacted_lp_keeps_the_feasible_set(full_batch):
    """Boxes at three prefixes equal the LP bounds over every half-space."""
    prior, sigma, _, ms, A, q = full_batch
    est = OnlineBoxEstimator(prior, sigma)
    n = len(ms)
    prefixes = (n // 5, n // 2, n)
    for k0, k1 in zip((0,) + prefixes, prefixes):
        for m in ms[k0:k1]:
            est.add(m)
        lo, hi = _linprog_box(A[:k1], q[:k1], sigma, prior)
        assert np.max(np.abs(est.box.lo_arr() - lo)) <= 1e-9
        assert np.max(np.abs(est.box.hi_arr() - hi)) <= 1e-9


def test_add_rejects_nonpositive_concentration():
    est = OnlineBoxEstimator(PRIOR, 0.1)
    for c1, c2 in ((0.0, 50.0), (50.0, -1.0), (math.nan, 50.0), (50.0, math.inf)):
        with pytest.raises(DomainError):
            est.add(Measurement(0.0, 4.2, c1, c2))
    assert est.n_measurements == 0 and _state(est._poly) == _state(_Polytope(PRIOR))


def test_vertex_cap_keeps_a_sound_box(full_batch, monkeypatch):
    """Past the vertex cap the polytope is rebuilt from the prior box and the
    facets of its extreme vertices: a superset with the same bounds, so the
    box stays sound and only gets looser as later rows cut the superset."""
    prior, sigma, p, _, A, q = full_batch
    exact = OnlineBoxEstimator(prior, sigma)
    exact.add_rows(A, q)
    rebuilt, shifts = setmem._Polytope.rebuilt, []

    def spy(poly):
        new = rebuilt(poly)
        shifts.append(max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(new.hull, poly.hull)))
        return new

    monkeypatch.setattr(setmem._Polytope, "rebuilt", spy)
    monkeypatch.setattr(setmem, "_VERTEX_CAP", 10)
    capped = OnlineBoxEstimator(prior, sigma)
    capped.add_rows(A, q)
    assert len(shifts) > 5 and max(shifts) <= 1e-12     # a rebuild keeps the bounds
    assert capped.box.contains(p)
    lo, hi = exact.box.lo_arr(), exact.box.hi_arr()
    assert np.all(capped.box.lo_arr() <= lo + 1e-12 * (1.0 + np.abs(lo)))
    assert np.all(capped.box.hi_arr() >= hi - 1e-12 * (1.0 + np.abs(hi)))
    assert np.any(capped.box.widths() > 1.1 * exact.box.widths())


def _interval(rng, x, n):
    """Intervals around the exact values x: zero width, one-sided or two-sided,
    up to 1e-4 of |x| wide."""
    w = 10.0 ** rng.uniform(-16.0, -4.0, (2, n)) * rng.integers(0, 2, (2, n))
    return x - w[0] * np.abs(x), x + w[1] * np.abs(x)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([(1.0, 1.0), (0.5, 3.0), (-2.0, 2.0)]))
def test_interval_inert_implies_exact_inert(seed, sign_mix):
    """On a random hull, a measurement screened inert over intervals of ln c1,
    ln c2 and q is inert for every exact row inside them (the exact screen is
    monotone in each entry, so the corners of the intervals are the worst
    rows), and zero-width intervals screen exactly as the one-row screen."""
    rng = np.random.default_rng(seed)
    est = OnlineBoxEstimator(PRIOR, 0.1)
    est._poly = lp = _Polytope(PRIOR)
    lo = rng.uniform(-1.0, 1.0, 3) * np.array([20.0, sign_mix[0], sign_mix[1]])
    width = rng.uniform(0.0, 1.0, 3) * np.array([0.05, 0.01, 0.01])
    lp.hull = tuple(lo.tolist() + (lo + width).tolist())
    n, sigma = 2000, 0.1
    lc1 = rng.uniform(-6.0 if sign_mix[0] < 0 else 1.0, 6.0, n)
    lc2 = rng.uniform(-4.0, 4.0, n)
    l0, l1, l2, h0, h1, h2 = lp.hull
    centre = 0.5 * (l0 + h0) - lc1 * 0.5 * (l1 + h1) - lc2 * 0.5 * (l2 + h2)
    q = centre + rng.uniform(-0.15, 0.15, n)
    ivs = [_interval(rng, x, n) for x in (lc1, lc2, q)]
    inert = est.inert(*ivs)
    assert 0 < inert.sum() < n
    for i in np.flatnonzero(inert):
        for c1, c2, qe in itertools.product(*((iv[0][i], iv[1][i]) for iv in ivs)):
            assert _hull_inert(lp.hull, (1.0, -c1, -c2), qe - sigma, qe + sigma)
    exact = est.inert((lc1, lc1), (lc2, lc2), (q, q))
    assert exact.tolist() == [_hull_inert(lp.hull, (1.0, -x, -y), qe - sigma, qe + sigma)
                              for x, y, qe in zip(lc1.tolist(), lc2.tolist(), q.tolist())]
