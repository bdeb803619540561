import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfrto import harness, setmem, strategies
from dfrto.arc import Arc, integrate
from dfrto.cases import get_case
from dfrto.errors import SimulationTimeout
from dfrto.harness import ExperimentConfig, _batch_draw, monte_carlo
from dfrto.policy import plan_vectorized, singular_control
from dfrto.process import (TOL_EVENT, PlantParams, PlantState, ProcessSpec,
                           StopCondition)
from dfrto.reach import project_switch_windows
from dfrto.setmem import OnlineBoxEstimator, ParamBox, scenario_points
from dfrto.strategies import (NoiseStream, RobustConfig, StrategyDecision, adaptive_strategy,
                              nominal_decision, nominal_strategy,
                              optimal_strategy, realized_batch_times,
                              robust_decision, robust_strategy)
from dfrto.strategies import _concentrate_end, _ratio_times
from oracles import certify_bound


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
    res_n = nominal_strategy(p_mid, spec, nominal_decision(P0, spec))
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
    decision = nominal_decision(case2.prior_box(spec), spec)
    rng = np.random.default_rng(8)
    for _ in range(3):
        p_true = case2.draw_truth_gamma(rng, 0.10, spec)
        res = nominal_strategy(p_true, spec, decision, record=True)
        assert res.feasible
        end_c1 = res.trajectory.c1[-1]
        end_c2 = res.trajectory.c2[-1]
        assert end_c1 == pytest.approx(spec.c1_f, rel=1e-6)
        assert end_c2 == pytest.approx(spec.c2_f, rel=1e-6)


def test_all_strategies_tie_on_point_box(spec, p_nom2):
    P0 = _point_box(p_nom2)
    res_o = optimal_strategy(p_nom2, spec)
    res_n = nominal_strategy(p_nom2, spec, nominal_decision(P0, spec))
    res_r = robust_strategy(p_nom2, spec, robust_decision(
        P0, spec, scenarios=p_nom2.as_array()[None, :]))
    res_a = adaptive_strategy(P0, p_nom2, spec, _noise(1, spec))
    for res in (res_n, res_r, res_a):
        assert res.tf == pytest.approx(res_o.tf, abs=2e-3)
        assert res.feasible
    assert res_r.t1 == pytest.approx(res_o.t1, abs=2 * TOL_EVENT)


def test_regret_nonnegative(spec, case1):
    decision = nominal_decision(case1.prior_box(spec), spec)
    rng = np.random.default_rng(4)
    for _ in range(5):
        p_true = case1.draw_truth_gamma(rng, 0.10, spec)
        for res in (optimal_strategy(p_true, spec),
                    nominal_strategy(p_true, spec, decision)):
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


def _robust_decision_reference(P0, spec, scen, max_sweeps=4):
    """robust_decision's search as it ran before it skipped repeated line
    searches: both searches every sweep until a sweep improves neither.
    Returns the decision, its number of u moves and whether the sweep cap
    stopped it."""
    windows = project_switch_windows(P0, spec)
    nom = nominal_decision(P0, spec)
    ref = np.minimum(plan_vectorized(scen, spec)["tf"], spec.t_max)

    def worst(tf):
        dev = np.minimum(tf, spec.t_max) - ref
        return np.max(dev * dev, axis=-1)

    def column(x):
        return x if np.ndim(x) == 0 else np.reshape(x, (-1, 1))

    (t1_lo, t1_hi), (u_lo, u_hi) = windows.t1, windows.u_band
    t1_c = min(max(nom.t1_commit, t1_lo), t1_hi)
    u_c = min(max(nom.u_s_commit, u_lo), u_hi)
    best = worst(realized_batch_times(scen, t1_c, u_c, spec))
    u_moves = 0
    for _ in range(max_sweeps):
        improved = False
        t1_new, val_t = strategies._golden_min(
            lambda x: worst(realized_batch_times(scen, column(x), u_c, spec)),
            t1_lo, t1_hi, spec.dt_h, 33)
        if val_t < best - 1e-15:
            t1_c, best, improved = t1_new, val_t, True
        if u_hi - u_lo > 1e-4:
            end = _concentrate_end(scen, t1_c, spec)
            u_new, val_u = strategies._golden_min(
                lambda x: worst(_ratio_times(scen, t1_c, end, column(x), spec)),
                u_lo, u_hi, 1e-4, 33)
            if val_u < best - 1e-15:
                u_c, best, improved, u_moves = u_new, val_u, True, u_moves + 1
        if not improved:
            break
    return StrategyDecision(t1_c, u_c), u_moves, improved


def test_robust_decision_skips_repeated_searches(spec, monkeypatch):
    """A line search whose other coordinate has not moved since it last ran
    cannot move the decision: at the defaults limiting_flux runs 1 search (u
    is pinned at 1) and generalized 2, and on random scenario sets of 1-5
    prior-box plants, some moving u over several sweeps and some stopped by
    the sweep cap, the decisions keep every bit of the exhaustive loop."""
    calls = []
    golden = strategies._golden_min
    monkeypatch.setattr(strategies, "_golden_min",
                        lambda *a: calls.append(1) or golden(*a))
    for name, want in (("limiting_flux", 1), ("generalized", 2)):
        case = get_case(name)
        calls.clear()
        robust_decision(case.prior_box(spec), spec, scenarios=case.gamma_scenarios(spec))
        assert len(calls) == want
    monkeypatch.setattr(strategies, "_golden_min", golden)
    rng = np.random.default_rng(2024)
    seen = set()
    for name in ("limiting_flux", "generalized"):
        P0 = get_case(name).prior_box(spec)
        for _ in range(12):
            scen = rng.uniform(P0.lo_arr(), P0.hi_arr(), (int(rng.integers(1, 6)), 3))
            want, u_moves, capped = _robust_decision_reference(P0, spec, scen)
            got = robust_decision(P0, spec, scenarios=scen)
            assert (got.t1_commit, got.u_s_commit) == (want.t1_commit, want.u_s_commit)
            seen |= {("no u move", "u move", "u moves")[min(u_moves, 2)], capped}
    assert {"no u move", "u move", "u moves", True} <= seen


# --- adaptive -----------------------------------------------------------------------

def test_adaptive_noise_free_is_optimal(case1):
    # with exact flux measurements t1 is identified exactly before the switch
    spec0 = ProcessSpec(sigma=0.0, dt_sample=10.0)
    P0 = case1.prior_box(spec0)
    rng = np.random.default_rng(12)
    p_true = case1.draw_truth_gamma(rng, 0.10, spec0)
    t1 = plan_vectorized(p_true.as_array(), spec0)["t1"]
    res = adaptive_strategy(P0, p_true, spec0, _noise(0, spec0))
    assert abs(res.t1 - t1) <= 2 * spec0.dt_h
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
    res = adaptive_strategy(P0, p_true, spec0, _noise(0, spec0), record=True)
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


@pytest.mark.parametrize("master_seed", [22, 30, 34])
def test_adaptive_repeated_reoptimization(master_seed, monkeypatch):
    """At one sample a minute, generalized batch 0 of these seeds finds its
    first re-optimization uninformative (its t1 window neither halves nor
    pins the batch time) and re-optimizes again just before the updated
    window's lower edge."""
    spec = ProcessSpec(dt_sample=60.0)
    _, p_true, noise = _batch_draw(
        ExperimentConfig(case="generalized", master_seed=master_seed), 0, spec)
    projected, varied = [], []

    def project(box, spec_, original=strategies.project_switch_windows):
        projected.append((box, original(box, spec_)))
        return projected[-1][1]

    def variation(box, spec_, original=strategies._cost_variation):
        varied.append(box)
        return original(box, spec_)

    monkeypatch.setattr(strategies, "project_switch_windows", project)
    monkeypatch.setattr(strategies, "_cost_variation", variation)
    res = adaptive_strategy(get_case("generalized").prior_box(spec), p_true, spec,
                            NoiseStream(np.random.default_rng(noise), spec.sigma),
                            record=True)
    assert res.reopt_count == 2 and len(projected) == 3 and len(varied) == 1
    for (box, _), (_, before), (t, logged) in zip(projected[1:], projected,
                                                   res.box_history[1:]):
        assert box is logged                 # the box in force at that sample
        k = round(t / spec.dt_h)
        assert k * spec.dt_h == t < before.t1[0]
    assert res.feasible and res.regret >= -1e-6
    assert all(box.contains(p_true) for _, box in res.box_history)


def test_adaptive_box_history_monotone(spec, case2):
    P0 = case2.prior_box(spec)
    rng = np.random.default_rng(9)
    p_true = case2.draw_truth_gamma(rng, 0.10, spec)
    res = adaptive_strategy(P0, p_true, spec, _noise(3, spec), record=True)
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
    cfg = ExperimentConfig(case="generalized", master_seed=11000)
    for i in (16, 23):
        _, p_true, noise = _batch_draw(cfg, i, spec)
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
    """Extreme prior-box corners stay honest: batches complete, report
    infeasibility or raise their timeout; nothing silently mis-controls."""
    P0 = case1.prior_box(spec)
    decision = nominal_decision(P0, spec)
    lo, hi = P0.lo_arr(), P0.hi_arr()
    # ~5222 g/L effective limiting concentration: wildly fast plant
    stall_high = PlantParams(hi[0], lo[1], 0.0)
    res_a = adaptive_strategy(P0, stall_high, spec, _noise(2, spec))
    assert res_a.feasible and res_a.regret >= -2 * TOL_EVENT
    with pytest.raises(SimulationTimeout):      # c1 outruns the nominal t1 commit
        nominal_strategy(stall_high, spec, decision)
    # ~261 g/L: the singular arc ends below c1_f, so the terminal state is
    # unreachable under this arc structure; the plan shows it and the
    # executed batch reports infeasibility instead of faking success
    stall_low = PlantParams(lo[0], hi[1], 0.0)
    assert plan_vectorized(stall_low.as_array(), spec)["c1_end"] < spec.c1_f
    res_a = adaptive_strategy(P0, stall_low, spec, _noise(2, spec))
    assert not res_a.feasible and not res_a.timed_out
    res_n = nominal_strategy(stall_low, spec, decision)
    assert not res_n.feasible and not res_n.timed_out


def test_noise_stream_indexing(monkeypatch):
    monkeypatch.setattr(NoiseStream, "BLOCK", 16)
    ns = NoiseStream(np.random.default_rng(5), 0.1)
    a = ns.eta(np.arange(40))
    monkeypatch.setattr(NoiseStream, "BLOCK", 64)
    b = NoiseStream(np.random.default_rng(5), 0.1).eta(np.arange(40))
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
    through the same boxes at the same times, ends on the same polytope,
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
        return adaptive_strategy(P0, p_true, spec, _noise(seed, spec), record=True)

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
    assert (a.n_measurements, a.n_lp_rebounds) == (b.n_measurements, b.n_lp_rebounds)
    assert (a._poly.verts, a._poly.masks, a._poly.rows) == \
        (b._poly.verts, b._poly.masks, b._poly.rows)


def test_adaptive_record_changes_no_ingested_bit(spec, case2):
    """record=True adds a full-block solve for the trajectory only: the rows
    ingested, the re-anchor states and so the boxes and times keep their
    bits.  The estimator's box after every ingest call is compared, since an
    unrecorded batch keeps no box history."""
    P0 = case2.prior_box(spec)
    cfg = ExperimentConfig(case="generalized", master_seed=11000)

    class Recorded(OnlineBoxEstimator):
        def add_rows(self, *args):
            out = super().add_rows(*args)
            boxes[-1].append(self.box)
            return out

        def add_rows_stop_on_change(self, *args):
            out = super().add_rows_stop_on_change(*args)
            boxes[-1].append(self.box)
            return out

    for i in (16, 23):
        _, p_true, noise = _batch_draw(cfg, i, spec)
        boxes, res = [], []
        for record in (False, True):
            boxes.append([])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(strategies, "OnlineBoxEstimator", Recorded)
                res.append(adaptive_strategy(
                    P0, p_true, spec, NoiseStream(np.random.default_rng(noise), spec.sigma),
                    record=record))
        assert boxes[0] == boxes[1]
        assert res[0].box_history is None
        assert res[1].box_history[-1][1] == boxes[1][-1]
        assert (res[0].t1, res[0].tf) == (res[1].t1, res[1].tf)
        assert res[1].trajectory.event_time == res[1].tf


@pytest.mark.parametrize("master_seed, batches, strategies_", [
    (9, (2, 5, 7, 8, 16, 24, 26, 32, 33, 38), ("nominal", "robust")),
    (2, (0,), ("nominal",)),
    (19, (0,), ("optimal",)),
])
def test_recorded_batch_keeps_the_unrecorded_bits(spec, master_seed, batches,
                                                  strategies_):
    """`simulate` records the trajectory of batch 0; `montecarlo` does not.  A
    recorded time stop used to take its end state from the Halley solve of the
    whole sample grid, and these generalized batches then ended up to 1.6e-14 h
    away from the unrecorded ones."""
    cfg = ExperimentConfig(case="generalized", master_seed=master_seed,
                           strategies=strategies_)
    P0 = get_case("generalized").prior_box(spec)
    decisions = harness.make_decisions(cfg, spec, P0)
    for i in batches:
        _, p_true, noise = _batch_draw(cfg, i, spec)
        for strat in strategies_:
            plain, recorded = (harness._run_strategy(strat, spec, P0, decisions, p_true,
                                                     noise, record=record)
                               for record in (False, True))
            assert (recorded.t1, recorded.tf) == (plain.t1, plain.tf), (i, strat)


# --- the estimator inside a batch ---------------------------------------------------

class _Enough(Exception):
    """Stops a batch once it has consumed enough rows."""


def test_noise_free_batch_keeps_the_truth_in_every_box():
    """Exact measurements (sigma = 0) at the default 1 s sampling: every box
    holds the truth and no row is reported inconsistent.  (With bound LPs
    this batch raised ModelInvalidatedError after 8,905 rows, once a re-solve
    had stopped at its pivot cap.)"""
    spec = ProcessSpec(sigma=0.0)
    cfg = ExperimentConfig(case="generalized", master_seed=0)
    _, p_true, noise = _batch_draw(cfg, 0, spec)
    consumed = []

    class Checked(OnlineBoxEstimator):
        def _ingest(self, A, q, stop):
            out = super()._ingest(A, q, stop)
            assert self.box.contains(p_true), self.n_measurements
            consumed.append(self.n_measurements)
            if self.n_measurements >= 10_000:
                raise _Enough
            return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "OnlineBoxEstimator", Checked)
        try:
            adaptive_strategy(get_case("generalized").prior_box(spec), p_true, spec,
                              NoiseStream(np.random.default_rng(noise), spec.sigma))
        except _Enough:
            pass
    assert consumed[-1] > 8_905


@pytest.mark.parametrize("case_name", ["generalized", "limiting_flux"])
def test_box_bounds_have_exact_certificates(case_name):
    """Each bound of the final box of two adaptive batches (every row
    ingested, dt_sample = 10 s) has an exact-rational certificate
    (`oracles.certify_bound`): the vertex of d of its facets is optimal over
    them, satisfies every ingested padded row, and lies in the box.  Boxes
    rounded outward by one ulp failed this by up to 1e-14 in p1."""
    spec = ProcessSpec(dt_sample=10.0)
    cfg = ExperimentConfig(case=case_name, master_seed=20240801)
    P0 = get_case(case_name).prior_box(spec)
    made = []

    class Recorded(OnlineBoxEstimator):
        def __init__(self, *args):
            super().__init__(*args)
            self.rows = []
            made.append(self)

        def _ingest(self, A, q, stop):
            A, q = self._checked(A, q)
            out = super()._ingest(A, q, stop)
            self.rows += zip(A[:out[0]].tolist(), q[:out[0]].tolist())
            return out

    for i in (0, 1):
        _, p_true, noise = _batch_draw(cfg, i, spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strategies, "OnlineBoxEstimator", Recorded)
            mp.setattr(OnlineBoxEstimator, "inert",
                       lambda self, lc1, lc2, q: np.zeros(q[0].shape, dtype=bool))
            adaptive_strategy(P0, p_true, spec,
                              NoiseStream(np.random.default_rng(noise), spec.sigma))
        est = made[-1]
        assert len(est.rows) == est.n_measurements > 2000
        halfspaces = []
        for a, q in est.rows:       # the padded strips, as `_row` forms them
            bu, bl = q + est.sigma, q - est.sigma
            up = bu + setmem._CLIP_REL * (1.0 + abs(bu))
            lo = bl - setmem._CLIP_REL * (1.0 + abs(bl))
            halfspaces += [(*a, up), (-a[0], -a[1], -a[2], -lo)]
        poly = est._poly
        for d, k in enumerate(poly.extremes()):
            j, side = divmod(d, 2)
            if j in poly.free:
                facets = [row for b, row in enumerate(poly.rows) if poly.masks[k] >> b & 1]
                certify_bound(facets, halfspaces, P0, j, 1 if side else -1, est.box)


@pytest.mark.parametrize("case_name", ["generalized", "limiting_flux"])
@pytest.mark.parametrize("sigma, dt_sample", [(0.1, 1.0), (0.1, 10.0), (0.1, 37.0),
                                              (0.0, 10.0), (0.0, 37.0)])
def test_adaptive_counts_every_sample_once(case_name, sigma, dt_sample):
    """An adaptive batch measures each sampling instant k*dt (k >= 1) strictly
    before its final time exactly once: none is dropped or counted twice at
    the phase boundary, at a re-anchor or at a block end, ingested or screened
    out.  An exact-data batch costs up to about 1 s, so those run one truth."""
    spec = ProcessSpec(sigma=sigma, dt_sample=dt_sample)
    cfg = ExperimentConfig(case=case_name, master_seed=77)
    P0 = get_case(case_name).prior_box(spec)
    made = []

    class Counted(OnlineBoxEstimator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    for i in (0, 1, 2) if sigma else (1,):
        _, p_true, noise = _batch_draw(cfg, i, spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strategies, "OnlineBoxEstimator", Counted)
            res = adaptive_strategy(P0, p_true, spec,
                                    NoiseStream(np.random.default_rng(noise), spec.sigma))
        dt = spec.dt_h
        k = np.arange(1, int(res.tf / dt) + 2)
        assert made[-1].n_measurements == np.count_nonzero(k * dt < res.tf), i
