import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dfrto.cases import get_case
from dfrto.errors import (ConfigError, DomainError, InfeasibleLPError,
                          ModelInvalidatedError, UnboundedLPError)
from dfrto.process import Measurement, ProcessSpec, StopCondition, integrate
from dfrto.setmem import (ConstraintSet, OnlineBoxEstimator, ParamBox,
                          add_measurement, bound_params, read_measurements_csv,
                          solve_lp, write_boxes_csv)
from dfrto.strategies import optimal_strategy
from oracles import grid_feasible_box, lp_vertex_enumeration

PRIOR = ParamBox((15.0, 2.0, 0.0), (25.0, 4.0, 1.0))
TRUE_P = np.array([20.7, 3.0, 0.3])


def _synthetic_rows(n, rng, sigma=0.1, c1_range=(50.0, 400.0), c2_range=(0.5, 50.0)):
    c1 = np.exp(rng.uniform(np.log(c1_range[0]), np.log(c1_range[1]), n))
    c2 = np.exp(rng.uniform(np.log(c2_range[0]), np.log(c2_range[1]), n))
    A = np.column_stack([np.ones(n), -np.log(c1), -np.log(c2)])
    q = A @ TRUE_P + rng.uniform(-sigma, sigma, n)
    return A, q


def _cs_from_rows(A, q, sigma):
    cs = ConstraintSet.empty(sigma)
    for a, qi in zip(A, q):
        cs = add_measurement(cs, Measurement(0.0, qi, math.exp(-a[1]), math.exp(-a[2])))
    return cs


# --- ConstraintSet ------------------------------------------------------------

def test_add_measurement_counts():
    cs = ConstraintSet.empty(0.1)
    assert cs.n_constraints == 0
    cs = add_measurement(cs, Measurement(0.0, 5.0, 50.0, 50.0))
    assert len(cs) == 1 and cs.n_constraints == 2
    cs = add_measurement(cs, Measurement(1.0, 4.0, 60.0, 50.0))
    assert cs.n_constraints == 4


def test_unit_concentration_bounds_p1_alone():
    cs = add_measurement(ConstraintSet.empty(0.05), Measurement(0.0, 20.5, 1.0, 1.0))
    G, h = cs.halfspaces()
    assert np.allclose(G[:, 1:], 0.0)
    box = bound_params(cs, PRIOR)
    assert box.lo[0] == pytest.approx(20.45) and box.hi[0] == pytest.approx(20.55)
    assert (box.lo[1], box.hi[1]) == (PRIOR.lo[1], PRIOR.hi[1])
    assert (box.lo[2], box.hi[2]) == (PRIOR.lo[2], PRIOR.hi[2])


def test_frozen_c2_gives_rank_two():
    # all rows share the same c2 regressor on a pure-concentration arc
    rng = np.random.default_rng(0)
    c1 = np.linspace(50.0, 300.0, 40)
    A = np.column_stack([np.ones(40), -np.log(c1), np.full(40, -math.log(50.0))])
    assert np.linalg.matrix_rank(A) == 2


def test_constraint_set_prefix_sharing():
    cs0 = ConstraintSet.empty(0.1)
    cs1 = add_measurement(cs0, Measurement(0.0, 5.0, 50.0, 50.0))
    cs2 = add_measurement(cs1, Measurement(1.0, 4.0, 70.0, 50.0))
    # branching from an old prefix must not corrupt it
    cs1b = add_measurement(cs1, Measurement(1.0, 3.0, 80.0, 50.0))
    assert len(cs1) == 1 and len(cs2) == 2 and len(cs1b) == 2
    assert cs2.regressors()[1][3] == 4.0
    assert cs1b.regressors()[1][3] == 3.0


# --- solve_lp -------------------------------------------------------------------

def test_lp_box_only():
    x, v = solve_lp(np.array([1.0, 0.0, 0.0]), (), PRIOR, maximize=True)
    assert v == pytest.approx(PRIOR.hi[0])
    x, v = solve_lp(np.array([1.0, 0.0, 0.0]), (), PRIOR)
    assert v == pytest.approx(PRIOR.lo[0])


def test_lp_single_constraint():
    G = np.array([[1.0, 0.0, 0.0]])
    h = np.array([17.0])
    x, v = solve_lp(np.array([1.0, 0.0, 0.0]), (G, h), PRIOR, maximize=True)
    assert v == pytest.approx(17.0)


def test_lp_vs_vertex_enumeration():
    rng = np.random.default_rng(42)
    box = ParamBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    worst = 0.0
    for _ in range(40):
        G = rng.normal(size=(20, 3))
        h = rng.normal(size=20) + 2.0
        c = rng.normal(size=3)
        ref = lp_vertex_enumeration(c, G, h, box)
        try:
            _, v = solve_lp(c, (G, h), box)
        except InfeasibleLPError:
            assert ref is None
            continue
        assert ref is not None
        worst = max(worst, abs(v - ref[1]))
    assert worst <= 1e-7


def test_lp_infeasible_distinct_from_unbounded():
    G = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    h = np.array([16.0, -17.0])  # p1 <= 16 and p1 >= 17
    with pytest.raises(InfeasibleLPError):
        solve_lp(np.array([1.0, 0.0, 0.0]), (G, h), PRIOR)
    assert not issubclass(InfeasibleLPError, UnboundedLPError)
    assert not issubclass(UnboundedLPError, InfeasibleLPError)


def test_lp_determinism():
    rng = np.random.default_rng(9)
    G = rng.normal(size=(50, 3))
    h = rng.normal(size=50) + 3.0
    c = np.array([0.3, -1.2, 0.4])
    box = ParamBox((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
    x1, v1 = solve_lp(c, (G, h), box)
    x2, v2 = solve_lp(c, (G, h), box)
    assert v1 == v2 and np.array_equal(x1, x2)


# --- bound_params ---------------------------------------------------------------

def test_bound_params_empty_returns_prior():
    assert bound_params(ConstraintSet.empty(0.1), PRIOR) is PRIOR


def test_bound_params_three_point_collapse():
    pts = [(2.0, 5.0), (10.0, 2.0), (3.0, 20.0)]
    sigma = 1e-9
    cs = ConstraintSet.empty(sigma)
    A = []
    for c1, c2 in pts:
        a = np.array([1.0, -math.log(c1), -math.log(c2)])
        A.append(a)
        cs = add_measurement(cs, Measurement(0.0, float(a @ TRUE_P), c1, c2))
    box = bound_params(cs, PRIOR)
    exact = np.linalg.solve(np.array(A), np.array(A) @ TRUE_P)
    assert np.allclose(box.lo_arr(), exact, atol=1e-7)
    assert np.allclose(box.hi_arr(), exact, atol=1e-7)


def test_bound_params_matches_grid_oracle():
    rng = np.random.default_rng(11)
    A, q = _synthetic_rows(200, rng)
    cs = _cs_from_rows(A, q, 0.1)
    box = bound_params(cs, PRIOR)
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
    cs = ConstraintSet.empty(0.1)
    prev = PRIOR
    for i, (a, qi) in enumerate(zip(A, q)):
        cs = add_measurement(cs, Measurement(0.0, qi, math.exp(-a[1]), math.exp(-a[2])))
        if i % 10 == 0:
            box = bound_params(cs, PRIOR)
            assert box.is_subset_of(prev)
            prev = box
    assert prev.contains(TRUE_P)


def test_bound_params_invalidated():
    cs = ConstraintSet.empty(0.01)
    cs = add_measurement(cs, Measurement(0.0, 5.0, 50.0, 50.0))
    cs = add_measurement(cs, Measurement(0.0, 6.0, 50.0, 50.0))  # contradicts at sigma=0.01
    with pytest.raises(ModelInvalidatedError):
        bound_params(cs, PRIOR)


def test_online_equals_batch():
    rng = np.random.default_rng(21)
    A, q = _synthetic_rows(400, rng)
    est = OnlineBoxEstimator(PRIOR, 0.1)
    est.add_rows(A, q)
    batch = bound_params(_cs_from_rows(A, q, 0.1), PRIOR)
    assert np.array_equal(est.box.lo_arr(), batch.lo_arr())
    assert np.array_equal(est.box.hi_arr(), batch.hi_arr())


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


def test_box_helpers():
    box = ParamBox((0.0, 0.0, 0.5), (1.0, 2.0, 0.5))
    assert box.mid().as_array() == pytest.approx([0.5, 1.0, 0.5])
    assert box.vertices().shape == (4, 3)  # degenerate p3 deduplicates
    pts = box.sample_lhs(32, seed=1)
    assert pts.shape == (32, 3)
    assert np.all(pts >= box.lo_arr()) and np.all(pts <= box.hi_arr())
    assert np.array_equal(box.sample_lhs(32, seed=1), pts)
    with pytest.raises(ConfigError):
        ParamBox((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))


def test_measurement_csv_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("t,q_m,c1,c2\n0.5,4.25,60,50\n1,4.1,70,50\n")
    ms = read_measurements_csv(str(path))
    assert len(ms) == 2
    assert ms[0] == Measurement(0.5, 4.25, 60.0, 50.0)
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
    ms = read_measurements_csv(str(path))
    expect = [Measurement(*(float(x) for x in line.split(",")))
              for line in lines if line.strip()]
    assert ms == expect


@pytest.mark.parametrize("row", ["0,4.2,50,50,1", "0,4.2,inf,50", "0,4.2,5_0,50"])
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
    p = case.draw_truth_gamma(np.random.default_rng(5), spec=spec)
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
    # the kept LP rows stay few: rows that no longer cut the box are dropped
    for est in (single, bulk, blocks):
        assert est._lp.m < 1000


def _linprog_box(A, q, sigma, prior):
    G = np.vstack([A, -A])
    h = np.concatenate([q + sigma, -(q - sigma)])
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
    assert est.n_measurements == 0 and est._lp.m == 6
