"""Acceptance gate: every criterion at its stated tolerance.

Each check prints one PASS/FAIL line (run pytest -s to see them live).  The
two 1000-batch sweeps run once per session and feed all ordering checks.
"""

import collections
import math
import time

import numpy as np
import pytest

from dfrto.arc import integrate
from dfrto.cases import get_case
from dfrto.harness import ExperimentConfig, monte_carlo
from dfrto.policy import plan_vectorized, singular_control
from dfrto.process import TOL_EVENT, ProcessSpec, StopCondition
from dfrto.reach import project_switch_windows, project_u_band
from dfrto.setmem import OnlineBoxEstimator, ParamBox
from dfrto.strategies import (NoiseStream, adaptive_strategy, nominal_decision,
                              robust_decision)
from dfrto.cli import main as cli_main
from oracles import draw_truth, grid_feasible_box, rk4_event_time


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {tag}: {desc}{extra}")
    assert ok, f"criterion {num}: {desc}{extra}"


@pytest.fixture(scope="module")
def spec():
    return ProcessSpec()


@pytest.fixture(scope="module")
def sweep1(spec):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(case="limiting_flux", n_batches=1000, master_seed=20240801)
    res = monte_carlo(cfg, spec)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep2(spec):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(case="generalized", n_batches=1000, master_seed=20240801)
    res = monte_carlo(cfg, spec)
    return res, time.perf_counter() - t0


def _col(results, strategy, key):
    return np.array([getattr(r, key) for r in results if r.strategy == strategy])


# -- criterion 1: nominal switching times ----------------------------------------

def test_criterion_1_nominal_switch_times(spec):
    for case_name, t1_ref, tf_ref in (("limiting_flux", 2.625, 8.327),
                                      ("generalized", 2.561, 9.277)):
        p_nom = get_case(case_name).nominal_params(spec)
        t0 = time.perf_counter()
        plan = plan_vectorized(p_nom.as_array(), spec)
        t1, tf = plan["t1"], plan["tf"]
        elapsed = time.perf_counter() - t0
        ok = (abs(t1 / t1_ref - 1.0) <= 0.10
              and abs(tf / tf_ref - 1.0) <= 0.10 and elapsed < 1.0)
        # independent fixed-step oracle on the first switching event
        def s_fn(c1, c2, p=p_nom):
            return (p.p1 - p.p2 * math.log(c1) - p.p3 * math.log(c2)
                    - p.p2 - p.p3)
        t1_oracle = rk4_event_time(spec.initial_state(), 0.0, p_nom, spec,
                                   lambda a, b: -s_fn(a, b), h=1e-4)
        ok = ok and abs(t1 - t1_oracle) <= 1e-3
        _report(1, f"{case_name} nominal t1/tf within 10% and matches RK4 oracle",
                ok, f"t1={t1:.4f} (ref {t1_ref}), tf={tf:.4f} (ref {tf_ref}), "
                    f"|dt_oracle|={abs(t1 - t1_oracle):.2e}, {elapsed * 1e3:.1f} ms")


# -- criterion 2: singular-arc flux pinning ---------------------------------------

def test_criterion_2_singular_arc_pinning(spec):
    rng = np.random.default_rng(42)
    worst = 0.0
    for case_name in ("limiting_flux", "generalized"):
        case = get_case(case_name)
        for _ in range(5):
            p = case.draw_truth_gamma(rng, 0.10, spec)
            t1 = plan_vectorized(p.as_array(), spec)["t1"]
            arc1 = integrate(spec.initial_state(), 0.0, p,
                             StopCondition.at_time(t1), spec, record=False)
            arc2 = integrate(arc1.final_state(), singular_control(p), p,
                             StopCondition.ratio_reached(spec.ratio_f), spec,
                             record=True)
            q_star = p.p2 + p.p3
            worst = max(worst, float(np.max(np.abs(arc2.q - q_star))) / q_star)
    _report(2, "singular arcs pin the flux at p2+p3 within 1e-6 relative",
            worst <= 1e-6, f"worst relative deviation {worst:.2e}")


# -- criterion 3: estimator soundness, nesting, oracle, runtime --------------------

def _measurement_arcs(p_true, spec):
    """Concentrate + singular arcs of a batch; valid even for box corners
    whose terminal state is unreachable (the ratio event still exists)."""
    t1 = float(plan_vectorized(p_true.as_array()[None, :], spec)["t1"][0])
    arc1 = integrate(spec.initial_state(), 0.0, p_true,
                     StopCondition.at_time(t1), spec, record=True)
    arc2 = integrate(arc1.final_state(), singular_control(p_true), p_true,
                     StopCondition.ratio_reached(spec.ratio_f), spec, record=True)
    return arc1, arc2


def test_criterion_3_estimator_soundness_and_runtime():
    spec60 = ProcessSpec(dt_sample=60.0)
    case = get_case("generalized")
    P0 = case.prior_box(spec60)
    sound = True
    nested = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p_true = draw_truth(P0, rng)
        arc1, arc2 = _measurement_arcs(p_true, spec60)
        c1 = np.concatenate([arc1.c1[1:], arc2.c1[1:]])
        c2 = np.concatenate([arc1.c2[1:], arc2.c2[1:]])
        q = np.concatenate([arc1.q[1:], arc2.q[1:]])
        q_m = q + rng.uniform(-spec60.sigma, spec60.sigma, q.size)
        est = OnlineBoxEstimator(P0, spec60.sigma)
        prev = est.box
        for i in range(c1.size):
            rows = np.array([[1.0, -math.log(c1[i]), -math.log(c2[i])]])
            est.add_rows(rows, q_m[i:i + 1])
            sound = sound and est.box.contains(p_true, tol=1e-9)
            nested = nested and est.box.is_subset_of(prev)
            prev = est.box
    _report(3, "truth inside every reported box over 100 batches", sound)
    _report(3, "boxes nested along every measurement stream", nested)

    # grid-feasibility oracle on 5 spot instants of one batch.  The prior-box
    # grid confirms no feasible point escapes the LP box; the grid refined to
    # the LP box confirms the bounds are tight to one cell (the feasible set
    # is a thin slab, so prior-grid cells cannot resolve its tips).
    rng = np.random.default_rng(7)
    p_true = draw_truth(P0, rng)
    arc1, arc2 = _measurement_arcs(p_true, spec60)
    c1 = np.concatenate([arc1.c1[1:], arc2.c1[1:]])
    c2 = np.concatenate([arc1.c2[1:], arc2.c2[1:]])
    q = np.concatenate([arc1.q[1:], arc2.q[1:]])
    q_m = q + rng.uniform(-spec60.sigma, spec60.sigma, q.size)
    A = np.column_stack([np.ones(c1.size), -np.log(c1), -np.log(c2)])
    grid_ok = True
    for k in (90, 160, 250, 400, min(520, c1.size)):
        est = OnlineBoxEstimator(P0, spec60.sigma)
        est.add_rows(A[:k], q_m[:k])
        outer = grid_feasible_box(A[:k], q_m[:k], spec60.sigma, P0, n=101)
        if outer is not None:  # an empty grid slice escapes nothing
            lo_o, hi_o, _ = outer
            grid_ok = grid_ok and (np.all(lo_o >= est.box.lo_arr() - 1e-9)
                                   and np.all(hi_o <= est.box.hi_arr() + 1e-9))
        local = grid_feasible_box(A[:k], q_m[:k], spec60.sigma, est.box, n=101)
        assert local is not None
        lo_g, hi_g, cell = local
        grid_ok = grid_ok and (np.all(lo_g - est.box.lo_arr() <= cell + 1e-9)
                               and np.all(est.box.hi_arr() - hi_g <= cell + 1e-9))
        # the six vertices that achieve the bounds are feasible
        G = np.vstack([A[:k], -A[:k]])
        h = np.concatenate([q_m[:k] + spec60.sigma, -(q_m[:k] - spec60.sigma)])
        x = np.array([est._poly.verts[i] for i in est._poly.extremes()])
        grid_ok = grid_ok and float(np.max(G @ x.T - h[:, None])) <= 1e-9
    _report(3, "LP boxes match the 101^3 grid oracle to one cell on 5 instants",
            grid_ok)

    # full-batch (1 s sampling, ~3e4 measurements) runtime
    spec1 = ProcessSpec()
    p_true = get_case("generalized").nominal_params(spec1)
    arc1, arc2 = _measurement_arcs(p_true, spec1)
    c1 = np.concatenate([arc1.c1[1:], arc2.c1[1:]])
    c2 = np.concatenate([arc1.c2[1:], arc2.c2[1:]])
    q = np.concatenate([arc1.q[1:], arc2.q[1:]])
    rng = np.random.default_rng(3)
    q_m = q + rng.uniform(-spec1.sigma, spec1.sigma, q.size)
    A = np.column_stack([np.ones(c1.size), -np.log(c1), -np.log(c2)])
    est = OnlineBoxEstimator(P0, spec1.sigma)
    t0 = time.perf_counter()
    est.add_rows(A, q_m)
    elapsed = time.perf_counter() - t0
    _report(3, "full-batch estimation under 10 s",
            elapsed < 10.0 and c1.size >= 25_000,
            f"{c1.size} measurements in {elapsed:.2f} s")


# -- criterion 4: identifiability signature ----------------------------------------

def test_criterion_4_identifiability(spec):
    case = get_case("generalized")
    P0 = case.prior_box(spec)
    w0 = P0.widths()
    ok_p3_pre = ok_p3_post = ok_p12 = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        p_true = case.draw_truth_gamma(rng, 0.10, spec)
        res = adaptive_strategy(
            P0, p_true, spec, NoiseStream(np.random.default_rng(seed + 100), spec.sigma),
            record=True)
        hist = res.box_history
        pre = [b for t, b in hist if t <= res.t1 + 1e-9][-1].widths()
        post = [b for t, b in hist if t <= res.t1 + 0.5][-1].widths()
        ok_p3_pre &= (w0[2] - pre[2]) <= 0.01 * w0[2]
        ok_p3_post &= post[2] <= 0.5 * w0[2]
        ok_p12 &= pre[0] <= 0.5 * w0[0] and pre[1] <= 0.5 * w0[1]
    _report(4, "p3 width reduction <= 1% of prior before the singular arc", ok_p3_pre)
    _report(4, "p3 width reduced >= 50% within 0.5 h after the singular arc starts",
            ok_p3_post)
    _report(4, "p1 and p2 widths shrink >= 50% before t1", ok_p12)


# -- criterion 5: reachability containment ------------------------------------------

def test_criterion_5_containment(spec):
    case = get_case("limiting_flux")
    P0 = case.prior_box(spec)
    w = project_switch_windows(P0, spec)
    rng = np.random.default_rng(1)
    draws = rng.uniform(P0.lo_arr(), P0.hi_arr(), size=(1000, 3))
    plan = plan_vectorized(draws, spec)
    band = project_u_band(P0)
    viol = (np.sum(plan["t1"] < w.t1[0]) + np.sum(plan["t1"] > w.t1[1])
            + np.sum(plan["tf"] < w.tf[0]) + np.sum(plan["tf"] > w.tf[1])
            + np.sum(plan["us"] < band[0] - 1e-12)
            + np.sum(plan["us"] > band[1] + 1e-12))
    _report(5, "t1, tf, u_s of 1000 random box members inside the windows",
            viol == 0, f"violations={viol}")
    p_nom = case.nominal_params(spec)
    arr = p_nom.as_array()
    w_pt = project_switch_windows(ParamBox.from_arrays(arr, arr), spec)
    widths = [w_pt.t1[1] - w_pt.t1[0], w_pt.t2[1] - w_pt.t2[0],
              w_pt.tf[1] - w_pt.tf[0]]
    _report(5, "point-box windows collapse to <= 2*tol_event width",
            max(widths) <= 2 * TOL_EVENT, f"max width {max(widths):.2e} h")


# -- criterion 6: strategy orderings at n = 1000 -------------------------------------

def test_criterion_6_case1(sweep1):
    rows, elapsed = sweep1
    med = {s: float(np.median(_col(rows, s, "tf"))) for s in
           ("optimal", "nominal", "robust", "adaptive")}
    spread = max(med.values()) - min(med.values())
    _report(6, "case 1 median tf of all strategies within 0.1 h",
            spread <= 0.1, f"spread {spread:.4f} h")
    mx = {s: float(np.max(_col(rows, s, "regret"))) for s in
          ("nominal", "robust", "adaptive")}
    _report(6, "case 1 max regret: adaptive <= robust <= nominal",
            mx["adaptive"] <= mx["robust"] <= mx["nominal"],
            f"{mx['adaptive']:.4f} <= {mx['robust']:.4f} <= {mx['nominal']:.4f}")
    _report(6, "case 1 long-tail factor: max regret nominal > 5x adaptive",
            mx["nominal"] > 5 * mx["adaptive"],
            f"{mx['nominal']:.4f} vs {mx['adaptive']:.6f}")
    p95_a = float(np.percentile(_col(rows, "adaptive", "regret"), 95))
    p95_n = float(np.percentile(_col(rows, "nominal", "regret"), 95))
    _report(6, "case 1 95th-pct regret adaptive < nominal", p95_a < p95_n,
            f"{p95_a:.5f} < {p95_n:.5f}")
    iqr = lambda s: float(np.percentile(_col(rows, s, "regret"), 75)
                          - np.percentile(_col(rows, s, "regret"), 25))
    _report(6, "case 1 IQR regret adaptive < nominal", iqr("adaptive") < iqr("nominal"))
    counts = collections.Counter(_col(rows, "adaptive", "reopt_count").astype(int))
    frac = counts.get(1, 0) / sum(counts.values())
    _report(6, "case 1 single re-optimization on >= 90% of adaptive batches",
            frac >= 0.90, f"{100 * frac:.1f}%")
    _report(6, "case 1 sweep under 10 min", elapsed < 600.0, f"{elapsed:.0f} s")


def test_criterion_6_case2(sweep2):
    rows, elapsed = sweep2
    med = {s: float(np.median(_col(rows, s, "tf"))) for s in
           ("optimal", "nominal", "robust", "adaptive")}
    spread = max(med.values()) - min(med.values())
    _report(6, "case 2 median tf of all strategies within 0.1 h",
            spread <= 0.1, f"spread {spread:.4f} h")
    p95_a = float(np.percentile(_col(rows, "adaptive", "regret"), 95))
    p95_n = float(np.percentile(_col(rows, "nominal", "regret"), 95))
    _report(6, "case 2 95th-pct regret adaptive < nominal", p95_a < p95_n,
            f"{p95_a:.5f} < {p95_n:.5f}")
    _report(6, "case 2 sweep under 10 min", elapsed < 600.0, f"{elapsed:.0f} s")


# -- criterion 7: robust vs nominal commitments ---------------------------------------

def test_criterion_7_robust_vs_nominal(spec):
    case1 = get_case("limiting_flux")
    P0 = case1.prior_box(spec)
    d_nom = nominal_decision(P0, spec)
    d_rob = robust_decision(P0, spec, scenarios=case1.gamma_scenarios(spec))
    gap = abs(d_rob.t1_commit - d_nom.t1_commit)
    _report(7, "case 1 robust decision within one sampling period of nominal",
            gap <= spec.dt_h,
            f"|t1_rob - t1_nom| = {gap * 3600:.0f} s vs 1 s allowed")
    case2 = get_case("generalized")
    P02 = case2.prior_box(spec)
    d_nom2 = nominal_decision(P02, spec)
    d_rob2 = robust_decision(P02, spec, scenarios=case2.gamma_scenarios(spec))
    _report(7, "case 2 robust commits earlier than nominal",
            d_rob2.t1_commit < d_nom2.t1_commit,
            f"{d_rob2.t1_commit:.4f} < {d_nom2.t1_commit:.4f}")


# -- criterion 8: CLI determinism -------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path, capsys):
    blobs = []
    for name in ("r1", "r2"):
        mc = tmp_path / f"{name}_mc.csv"
        tr = tmp_path / f"{name}_tr.csv"
        wj = tmp_path / f"{name}_w.json"
        assert cli_main(["montecarlo", "--n", "2", "--seed", "77",
                         "--case", "generalized", "--out", str(mc)]) == 0
        assert cli_main(["simulate", "--case", "limiting_flux", "--strategy",
                         "adaptive", "--seed", "9", "--out", str(tr)]) == 0
        assert cli_main(["reach", "--case", "generalized", "--out", str(wj)]) == 0
        capsys.readouterr()
        blobs.append(mc.read_bytes() + tr.read_bytes() + wj.read_bytes())
    _report(8, "repeated CLI invocations produce byte-identical outputs",
            blobs[0] == blobs[1])
