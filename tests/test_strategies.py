import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfrto import strategies
from dfrto.arc import Arc, integrate
from dfrto.cases import get_case
from dfrto.harness import ExperimentConfig, _batch_seeds, monte_carlo
from dfrto.policy import compute_switch_times, plan_vectorized, singular_control
from dfrto.process import (TOL_EVENT, PlantParams, PlantState, ProcessSpec,
                           StopCondition)
from dfrto.setmem import OnlineBoxEstimator, ParamBox, scenario_points
from dfrto.strategies import (AdaptiveConfig, NoiseStream, RobustConfig,
                              StrategyDecision, adaptive_strategy,
                              nominal_decision, nominal_strategy,
                              optimal_strategy, realized_batch_times,
                              robust_decision, robust_strategy)
from dfrto.strategies import _concentrate_end, _ratio_times


def _point_box(p):
    arr = p.as_array()
    return ParamBox.from_arrays(arr, arr)


def _noise(seed, spec):
    return NoiseStream(np.random.default_rng(seed), spec.sigma)


# --- realized-time evaluator -----------------------------------------------------

def test_realized_matches_plan_at_own_optimum(spec, p_nom2):
    plan = plan_vectorized(p_nom2.as_array()[None, :], spec)
    tf = realized_batch_times(p_nom2.as_array()[None, :],
                              float(plan["t1"][0]), float(plan["us"][0]), spec)
    assert tf[0] == pytest.approx(float(plan["tf"][0]), abs=1e-7)


def test_realized_suboptimal_is_slower(spec, p_nom1):
    plan = plan_vectorized(p_nom1.as_array()[None, :], spec)
    t1_opt, tf_opt = float(plan["t1"][0]), float(plan["tf"][0])
    rows = p_nom1.as_array()[None, :]
    for t1_c in (t1_opt - 0.4, t1_opt + 0.4):
        tf = realized_batch_times(rows, t1_c, 1.0, spec)[0]
        assert tf > tf_opt


def test_realized_stall_returns_inf(spec):
    # commit far beyond the stall point of a low-limiting-concentration plant
    p = PlantParams(18.3665, 3.3, 0.0)          # effective gamma2 ~ 261 g/L
    spec_short = ProcessSpec(t_max=30.0)
    tf = realized_batch_times(p.as_array()[None, :], 15.0, 1.0, spec_short)[0]
    assert tf > spec_short.t_max


def test_realized_grids_match_single_commits(spec):
    """A column of t1 commits, or of singular controls from one concentrate
    end state (u = 1 included), gives the times of one call per commit."""
    box = ParamBox.from_gamma_box((0.027, 900.0, 0.0), (0.033, 1100.0, 0.11))
    P = scenario_points(box.lo_arr(), box.hi_arr(), 0)[:-1]      # the corners
    t1 = np.linspace(1.5, 3.0, 7)
    grid = realized_batch_times(P, t1[:, None], 0.9, spec)
    each = np.array([realized_batch_times(P, t, 0.9, spec) for t in t1.tolist()])
    assert grid.shape == (7, len(P))
    np.testing.assert_allclose(grid, each, rtol=1e-13)
    u = np.array([0.5, 0.9, 0.99, 1.0])
    grid = _ratio_times(P, 2.5, _concentrate_end(P, 2.5, spec), u[:, None], spec)
    each = np.array([realized_batch_times(P, 2.5, x, spec) for x in u.tolist()])
    assert np.array_equal(grid, each)


@pytest.mark.parametrize("case_name", ["limiting_flux", "generalized"])
def test_batch_run_matches_realized_times(spec, case_name):
    # one monte_carlo chunk runs each committed decision through integrate;
    # realized_batch_times evaluates the same decisions in closed form
    case = get_case(case_name)
    P0 = case.prior_box(spec)
    cfg = ExperimentConfig(case=case_name, n_batches=12, master_seed=11,
                           strategies=("optimal", "nominal", "robust"))
    results = monte_carlo(cfg, spec)
    u_commit = {"nominal": nominal_decision(P0, spec).u_s_commit,
                "robust": robust_decision(P0, spec, RobustConfig(),
                                          scenarios=case.gamma_scenarios(spec)).u_s_commit}
    for res in results:
        u = u_commit.get(res.strategy, singular_control(res.p_true))
        tf = realized_batch_times(res.p_true.as_array()[None, :], res.t1, u, spec)[0]
        assert abs(res.tf - tf) <= 1e-12
        if res.strategy == "optimal":
            assert abs(res.regret) <= 1e-12


# --- strategy behaviors -----------------------------------------------------------

def test_optimal_zero_regret(spec, p_nom1):
    res = optimal_strategy(p_nom1, spec)
    assert res.feasible
    assert abs(res.regret) <= 2 * TOL_EVENT
    assert res.t1 == pytest.approx(2.625, rel=0.10)


def test_nominal_equals_optimal_at_midpoint(spec, case1):
    P0 = case1.prior_box(spec)
    p_mid = P0.mid()
    res_n = nominal_strategy(P0, p_mid, spec)
    res_o = optimal_strategy(p_mid, spec)
    assert res_n.tf == pytest.approx(res_o.tf, abs=2 * TOL_EVENT)
    assert res_n.t1 == pytest.approx(res_o.t1, abs=2 * TOL_EVENT)


def test_nominal_decisions_match_reported_times(spec, case1, case2):
    d1 = nominal_decision(case1.prior_box(spec), spec)
    assert d1.t1_commit == pytest.approx(2.625, rel=0.10)
    assert d1.u_s_commit == 1.0
    d2 = nominal_decision(case2.prior_box(spec), spec)
    assert d2.t1_commit == pytest.approx(2.561, rel=0.10)
    assert d2.u_s_commit == pytest.approx(1 / 1.1, rel=0.01)


def test_feasibility_by_feedback(spec, case2):
    # mismatched decisions still end exactly on target thanks to the ratio trigger
    P0 = case2.prior_box(spec)
    rng = np.random.default_rng(8)
    for _ in range(3):
        p_true = case2.draw_truth_gamma(rng, 0.10, spec)
        res = nominal_strategy(P0, p_true, spec, record=True)
        assert res.feasible
        end_c1 = res.trajectory.c1[-1]
        end_c2 = res.trajectory.c2[-1]
        assert end_c1 == pytest.approx(spec.c1_f, rel=1e-6)
        assert end_c2 == pytest.approx(spec.c2_f, rel=1e-6)


def test_all_strategies_tie_on_point_box(spec, p_nom2):
    P0 = _point_box(p_nom2)
    res_o = optimal_strategy(p_nom2, spec)
    res_n = nominal_strategy(P0, p_nom2, spec)
    res_r = robust_strategy(P0, p_nom2, spec, scenarios=p_nom2.as_array()[None, :])
    res_a = adaptive_strategy(P0, p_nom2, spec, _noise(1, spec))
    for res in (res_n, res_r, res_a):
        assert res.tf == pytest.approx(res_o.tf, abs=2e-3)
        assert res.feasible
    assert res_r.t1 == pytest.approx(res_o.t1, abs=2 * TOL_EVENT)


def test_regret_nonnegative(spec, case1):
    P0 = case1.prior_box(spec)
    rng = np.random.default_rng(4)
    for _ in range(5):
        p_true = case1.draw_truth_gamma(rng, 0.10, spec)
        for res in (optimal_strategy(p_true, spec),
                    nominal_strategy(P0, p_true, spec)):
            assert res.regret >= -2 * TOL_EVENT


# --- robust ------------------------------------------------------------------------

def test_robust_case2_commits_earlier(spec, case2):
    P0 = case2.prior_box(spec)
    scen = case2.gamma_scenarios(spec)
    d_rob = robust_decision(P0, spec, scenarios=scen)
    d_nom = nominal_decision(P0, spec)
    assert d_rob.t1_commit < d_nom.t1_commit


def test_robust_case1_near_nominal(spec, case1):
    P0 = case1.prior_box(spec)
    scen = case1.gamma_scenarios(spec)
    d_rob = robust_decision(P0, spec, scenarios=scen)
    d_nom = nominal_decision(P0, spec)
    assert d_rob.t1_commit == pytest.approx(d_nom.t1_commit, rel=0.10)
    assert d_rob.u_s_commit == 1.0


def test_robust_deterministic(spec, case1):
    P0 = case1.prior_box(spec)
    scen = case1.gamma_scenarios(spec)
    d1 = robust_decision(P0, spec, scenarios=scen)
    d2 = robust_decision(P0, spec, scenarios=scen)
    assert d1 == d2


# --- adaptive -----------------------------------------------------------------------

def test_adaptive_noise_free_is_optimal(case1):
    # with exact flux measurements t1 is identified exactly before the switch
    spec0 = ProcessSpec(sigma=0.0, dt_sample=10.0)
    P0 = case1.prior_box(spec0)
    rng = np.random.default_rng(12)
    p_true = case1.draw_truth_gamma(rng, 0.10, spec0)
    pi = compute_switch_times(p_true, spec0)
    res = adaptive_strategy(P0, p_true, spec0, _noise(0, spec0))
    assert abs(res.t1 - pi.t1) <= 2 * spec0.dt_h
    assert res.regret <= 2e-4
    assert res.feasible


def test_adaptive_noise_free_case2_collapses_on_singular_arc(case2):
    # p3 is unidentifiable while c2 is frozen, so the time of the first switch
    # inherits the p3 prior; once the singular arc starts the box collapses
    # and the cost penalty of the biased switch is tiny
    spec0 = ProcessSpec(sigma=0.0, dt_sample=10.0)
    P0 = case2.prior_box(spec0)
    rng = np.random.default_rng(12)
    p_true = case2.draw_truth_gamma(rng, 0.10, spec0)
    res = adaptive_strategy(P0, p_true, spec0, _noise(0, spec0),
                            cfg=AdaptiveConfig(record_boxes=True))
    assert res.feasible
    assert res.regret <= 1e-3
    final_box = res.box_history[-1][1]
    assert np.all(final_box.widths() <= 1e-6)
    assert final_box.contains(p_true, tol=1e-7)


def test_adaptive_single_reoptimization(spec, case1):
    P0 = case1.prior_box(spec)
    rng = np.random.default_rng(31)
    for _ in range(3):
        p_true = case1.draw_truth_gamma(rng, 0.10, spec)
        res = adaptive_strategy(P0, p_true, spec, _noise(55, spec))
        assert res.reopt_count == 1
        assert res.feasible


def test_adaptive_box_history_monotone(spec, case2):
    P0 = case2.prior_box(spec)
    rng = np.random.default_rng(9)
    p_true = case2.draw_truth_gamma(rng, 0.10, spec)
    res = adaptive_strategy(P0, p_true, spec, _noise(3, spec),
                            cfg=AdaptiveConfig(record_boxes=True))
    boxes = [b for _, b in res.box_history]
    assert len(boxes) >= 3
    for prev, cur in zip(boxes, boxes[1:]):
        assert cur.is_subset_of(prev)
        assert cur.contains(p_true)
    # p3 only becomes identifiable on the singular arc
    t1 = res.t1
    w0 = P0.widths()
    pre = [b for t, b in res.box_history if t <= t1]
    assert w0[2] - pre[-1].widths()[2] <= 0.01 * w0[2]
    assert res.box_history[-1][1].widths()[2] <= 0.5 * w0[2]


def test_adaptive_noise_stream_replay(spec, case1):
    P0 = case1.prior_box(spec)
    rng = np.random.default_rng(17)
    p_true = case1.draw_truth_gamma(rng, 0.10, spec)
    r1 = adaptive_strategy(P0, p_true, spec, _noise(99, spec))
    r2 = adaptive_strategy(P0, p_true, spec, _noise(99, spec))
    assert r1.t1 == r2.t1 and r1.tf == r2.tf and r1.reopt_count == r2.reopt_count


def test_adaptive_segments_follow_their_recorded_control(spec, case2):
    """Every singular-arc segment of a recorded adaptive trajectory is the
    plant under its recorded u: re-propagating it from its first sample with
    arc.integrate reproduces each later sample, across every block of
    states computed under that control.  Batches 16 and 23 of master seed
    11000 refresh the control on the last sample of a block when blocks start
    at 256 samples, which once recorded that block under the new control."""
    P0 = case2.prior_box(spec)
    for i in (16, 23):
        _, truth, noise = _batch_seeds(11000, i)
        p_true = case2.draw_truth_gamma(np.random.default_rng(truth), 0.10, spec)
        traj = adaptive_strategy(P0, p_true, spec,
                                 NoiseStream(np.random.default_rng(noise), spec.sigma),
                                 record=True).trajectory
        u = traj.u
        cuts = np.flatnonzero(np.diff(u) != 0.0) + 1
        n_segments = 0
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, u.size]):
            if not 0.0 < u[a] < math.inf or b - a < 2:
                continue
            seg = integrate(PlantState(traj.t[a], traj.c1[a], traj.c2[a]), float(u[a]),
                            p_true, StopCondition.at_time(traj.t[b - 1]), spec)
            assert seg.t.size == b - a
            assert np.max(np.abs(seg.t - traj.t[a:b])) <= 1e-9
            for got, rec in ((seg.c1, traj.c1[a:b]), (seg.c2, traj.c2[a:b])):
                assert np.max(np.abs(got / rec - 1.0)) <= 1e-12
            n_segments += 1
        assert n_segments >= 10


def test_corner_plants(spec, case1):
    """Extreme prior-box corners stay honest: batches complete or report
    infeasibility/timeouts; nothing crashes or silently mis-controls."""
    from dfrto.errors import UnsupportedStructureError

    P0 = case1.prior_box(spec)
    lo, hi = P0.lo_arr(), P0.hi_arr()
    # ~5222 g/L effective limiting concentration: wildly fast plant
    stall_high = PlantParams(hi[0], lo[1], 0.0)
    res_a = adaptive_strategy(P0, stall_high, spec, _noise(2, spec))
    assert res_a.feasible and res_a.regret >= -2 * TOL_EVENT
    res_n = nominal_strategy(P0, stall_high, spec)
    assert res_n.feasible or res_n.timed_out
    # ~261 g/L: the singular arc ends below c1_f, so the terminal state is
    # unreachable under this arc structure; the planner refuses it and the
    # executed batch reports infeasibility instead of faking success
    stall_low = PlantParams(lo[0], hi[1], 0.0)
    with pytest.raises(UnsupportedStructureError):
        compute_switch_times(stall_low, spec)
    res_a = adaptive_strategy(P0, stall_low, spec, _noise(2, spec))
    assert not res_a.feasible and not res_a.timed_out
    res_n = nominal_strategy(P0, stall_low, spec)
    assert not res_n.feasible and not res_n.timed_out


def test_noise_stream_indexing():
    ns = NoiseStream(np.random.default_rng(5), 0.1, block=16)
    a = ns.eta(np.arange(40))
    b = NoiseStream(np.random.default_rng(5), 0.1, block=64).eta(np.arange(40))
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 0.1)
    assert np.array_equal(ns.eta(np.array([3, 7])), a[[3, 7]])


def test_decision_validation():
    with pytest.raises(Exception):
        StrategyDecision(-1.0, 0.5)
    with pytest.raises(Exception):
        StrategyDecision(1.0, 0.0)
    with pytest.raises(Exception):
        StrategyDecision(1.0, 1.5)


class _PointwiseArc(Arc):
    """An Arc whose states at several times solves each time on its own, so
    that a sample's exact state does not depend on which other samples share
    its call."""

    def states(self, t, y_hi):
        if np.ndim(t) == 0:
            return super().states(t, y_hi)
        pairs = [super(_PointwiseArc, self).states(float(ti), y_hi) for ti in t]
        return (np.array([p[0] for p in pairs], dtype=float),
                np.array([p[1] for p in pairs], dtype=float))


@settings(max_examples=4)
@given(seed=st.integers(0, 2 ** 31 - 1), case_name=st.sampled_from(["generalized",
                                                                     "limiting_flux"]))
def test_adaptive_screen_changes_no_box(seed, case_name):
    """The samples that the hull screen skips are inert: with every sample's
    exact state fixed, a batch that ingests every row of its blocks goes
    through the same boxes at the same times, stores the same LP columns,
    counts the same measurements, and ends the same."""
    # frozen limiting-flux arcs are explicit, so every one of their samples is
    # cheap to solve alone; a changed box keeps their control and is re-screened
    spec = ProcessSpec(dt_sample=1.0 if case_name == "limiting_flux" else 10.0)
    case = get_case(case_name)
    P0 = case.prior_box(spec)
    p_true = case.draw_truth_gamma(np.random.default_rng(seed), 0.10, spec)
    made = []

    class Recorded(OnlineBoxEstimator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def run():
        return adaptive_strategy(P0, p_true, spec, _noise(seed, spec),
                                 cfg=AdaptiveConfig(record_boxes=True))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "Arc", _PointwiseArc)
        mp.setattr(strategies, "OnlineBoxEstimator", Recorded)
        screened = run()
        mp.setattr(OnlineBoxEstimator, "inert",
                   lambda self, lc1, lc2, q: np.zeros(q[0].shape, dtype=bool))
        every = run()
    assert [t for t, _ in screened.box_history] == [t for t, _ in every.box_history]
    assert [b for _, b in screened.box_history] == [b for _, b in every.box_history]
    assert (screened.t1, screened.tf, screened.reopt_count) == \
        (every.t1, every.tf, every.reopt_count)
    assert len(screened.box_history) > 3
    a, b = made
    assert (a.n_measurements, a.n_lp_rebounds, a._lp.m) == \
        (b.n_measurements, b.n_lp_rebounds, b._lp.m)
    assert np.array_equal(a._lp._cols[:, :a._lp.m], b._lp._cols[:, :b._lp.m])
    assert np.array_equal(a._lp._cost[:a._lp.m], b._lp._cost[:b._lp.m])


def test_adaptive_record_changes_no_ingested_bit(spec, case2):
    """record=True adds a full-block solve for the trajectory only: the rows
    ingested, the re-anchor states and so the boxes and times keep their
    bits."""
    P0 = case2.prior_box(spec)
    for i in (16, 23):
        _, truth, noise = _batch_seeds(11000, i)
        p_true = case2.draw_truth_gamma(np.random.default_rng(truth), 0.10, spec)
        res = [adaptive_strategy(P0, p_true, spec,
                                 NoiseStream(np.random.default_rng(noise), spec.sigma),
                                 cfg=AdaptiveConfig(record_boxes=True), record=record)
               for record in (False, True)]
        assert res[0].box_history == res[1].box_history
        assert (res[0].t1, res[0].tf) == (res[1].t1, res[1].tf)
        assert res[1].trajectory.event_time == res[1].tf
