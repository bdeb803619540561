"""Closed-loop operating strategies against a simulated true plant.

All strategies commit a switching time t1 and a singular-arc control u_s; the
second switch (start of dilution) is state feedback on the exactly measured
concentration ratio, so terminal feasibility holds under any mismatch.

 - optimal:  clairvoyant plan at the true parameters.
 - nominal:  plan at the midpoint of the prior box.
 - robust:   min-max commitment over a scenario sample of the prior box.
 - adaptive: concentrate while estimating; one re-optimization scheduled just
   before the guaranteed lower edge of the t1 window, then a certainty-
   equivalence switch; the singular control is refreshed as the box shrinks.

On the adaptive singular arc the plant is propagated in closed form (arc.py),
one Arc per singular control.  Blocks of samples are enclosed without a Halley
pass (Arc.state_bounds) and screened against the estimator's hull box
(OnlineBoxEstimator.inert); only the samples that may cut its polytope get
exact states, so an adaptive generalized batch costs about 23 ms, against 55 ms
with every state exact (in-process, 2-vCPU Xeon, 20 truths, best of 3).
realized_batch_times and arc.integrate, which runs the open-loop decisions, use
the same formulas, with no step size or event tolerance.  Only the adaptive
concentrate phase still solves an ODE; `solve_ivp` imports scipy.integrate
(about 0.2 s) on its first call, so a process with no adaptive batch never does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arc import _U_FROZEN, Arc, integrate
from .errors import ConfigError, SimulationTimeout
from .policy import plan_vectorized, singular_control
from .process import (PlantParams, PlantState, ProcessSpec, StopCondition,
                      Trajectory, dilute, flux)
from .reach import project_switch_windows
from .setmem import OnlineBoxEstimator, ParamBox, scenario_points


def solve_ivp(*args, **kw):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kw)


# --- closed-form evaluation of a committed decision -----------------------------

def realized_batch_times(P, t1_commit, u_commit: float,
                         spec: ProcessSpec) -> np.ndarray:
    """Final batch time when (t1_commit, u_commit) runs on each plant row of P.

    The ratio-feedback second switch and the instantaneous dilution are
    implicit.  Rows whose flux stalls before the ratio target are returned as
    +inf; callers cap at spec.t_max.  Vectorized over parameter rows; a column
    (k, 1) of t1 commits broadcasts against the n rows into (k, n) times.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if not 0.0 < u_commit <= 1.0:
        raise ConfigError(f"committed singular control must be in (0, 1]: {u_commit}")
    return _ratio_times(P, t1_commit, _concentrate_end(P, t1_commit, spec), u_commit, spec)


def _concentrate_end(P: np.ndarray, t1_commit, spec: ProcessSpec):
    """(ln c1, ln c2) of each plant row of P after concentrating until t1_commit."""
    p1, p2, p3 = P[:, 0], P[:, 1], P[:, 2]
    conc = Arc(0.0, math.log(spec.c1_0), math.log(spec.c2_0), 0.0, p1, p2, p3, spec.mass)
    # at u = 0, r = p2/q0 > 0 wherever the plant moves, so the stall
    # asymptote brackets every row
    return conc.states(t1_commit, math.inf)


def _ratio_times(P: np.ndarray, t1_commit, end, u, spec: ProcessSpec) -> np.ndarray:
    """Ratio-event times of the singular arcs under u from the concentrate end
    states `end` at t1_commit; a column of controls gives a row of times per
    control."""
    if np.ndim(u) and np.any(np.asarray(u) >= _U_FROZEN):   # the u = 1 closed form
        return np.vstack([_ratio_times(P, t1_commit, end, float(ui), spec)
                          for ui in np.ravel(u)])
    sing = Arc(t1_commit, end[0], end[1], u, P[:, 0], P[:, 1], P[:, 2], spec.mass)
    return sing.ratio_event(math.log(spec.ratio_f))[0]


# --- batch execution --------------------------------------------------------------

@dataclass
class BatchResult:
    """Outcome of one closed-loop batch."""

    strategy: str
    p_true: PlantParams
    t1: float
    t2: float
    tf: float
    feasible: bool
    regret: float
    reopt_count: int = 0
    timed_out: bool = False     # set by harness.run_batch alone
    trajectory: Trajectory | None = None
    box_history: list | None = None


@dataclass(frozen=True)
class StrategyDecision:
    """Committed degrees of freedom; the rest is state feedback."""

    t1_commit: float
    u_s_commit: float

    def __post_init__(self):
        if self.t1_commit < 0.0:
            raise ConfigError("t1_commit must be nonnegative")
        if not 0.0 < self.u_s_commit <= 1.0:
            raise ConfigError("u_s_commit must be in (0, 1]")


@functools.lru_cache(maxsize=16)
def _plan(p: PlantParams, spec: ProcessSpec) -> tuple[float, float, float]:
    """(t1, u_s, tf) of the clairvoyant plan.  Cached: every strategy of a
    paired batch needs the optimum of the same truth."""
    plan = plan_vectorized(p.as_array(), spec)      # one plant: Python floats
    return plan["t1"], plan["us"], plan["tf"]


def _dilute_to_target(end: PlantState, spec: ProcessSpec) -> tuple[PlantState, bool]:
    """Instantaneous dilution at the ratio event, and whether it lands on target."""
    post = dilute(end, min(spec.c1_f, end.c1))
    feasible = bool(abs(post.c1 - spec.c1_f) <= 1e-6 * spec.c1_f
                    and abs(post.c2 - spec.c2_f) <= 1e-6 * spec.c2_f)
    return post, feasible


def _finish_batch(strategy: str, p_true: PlantParams, spec: ProcessSpec,
                  decision: StrategyDecision, *, record: bool) -> BatchResult:
    """Run the committed decision on the plant with ratio feedback."""
    tf_opt = _plan(p_true, spec)[2]
    arc1 = integrate(spec.initial_state(), 0.0, p_true,
                     StopCondition.at_time(decision.t1_commit), spec, record=record)
    arc2 = integrate(arc1.final_state(), decision.u_s_commit, p_true,
                     StopCondition.ratio_reached(spec.ratio_f), spec, record=record)
    end = arc2.final_state()
    post, feasible = _dilute_to_target(end, spec)
    traj = None
    if record:
        tail = Trajectory(np.array([post.t]), np.array([post.c1]), np.array([post.c2]),
                          np.array([math.inf]), np.array([flux(post.c1, post.c2, p_true)]))
        traj = Trajectory.concat([arc1, arc2, tail])
    tf = end.t
    return BatchResult(strategy, p_true, decision.t1_commit, tf, tf, feasible,
                       regret=tf - tf_opt, trajectory=traj)


def optimal_strategy(p_true: PlantParams, spec: ProcessSpec, *,
                     record: bool = False) -> BatchResult:
    """Clairvoyant baseline: plan and run at the true parameters."""
    t1, us, _ = _plan(p_true, spec)
    return _finish_batch("optimal", p_true, spec, StrategyDecision(t1, us),
                         record=record)


def nominal_decision(P0: ParamBox, spec: ProcessSpec) -> StrategyDecision:
    plan = plan_vectorized(P0.mid().as_array(), spec)
    return StrategyDecision(plan["t1"], plan["us"])


def nominal_strategy(p_true: PlantParams, spec: ProcessSpec, decision: StrategyDecision,
                     *, record: bool = False) -> BatchResult:
    """Certainty-equivalence: the nominal decision (plan at the box midpoint)."""
    return _finish_batch("nominal", p_true, spec, decision, record=record)


# --- robust strategy ---------------------------------------------------------------

@dataclass(frozen=True)
class RobustConfig:
    coarse_grid: int = 33
    u_resolution: float = 1e-4
    max_sweeps: int = 4


def _golden_min(fun, lo: float, hi: float, res: float, n_coarse: int) -> tuple[float, float]:
    """Deterministic 1-D minimization: coarse grid bracket + golden section.

    fun takes one point or a 1-D array of points; the coarse grid is one call.
    """
    if hi - lo <= res:
        x = 0.5 * (lo + hi)
        return x, fun(x)
    grid = np.linspace(lo, hi, max(n_coarse, 5))
    i = int(np.argmin(fun(grid)))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > res:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def robust_decision(P0: ParamBox, spec: ProcessSpec,
                    cfg: RobustConfig = RobustConfig(), *,
                    scenarios: np.ndarray) -> StrategyDecision:
    """Min-max commitment of (t1, u_s) over a scenario set inside the box.

    The objective is the worst squared excess of the realized batch time over
    each scenario plant's own optimum (the rows of `scenarios`, e.g.
    CaseStudy.gamma_scenarios), searched within the switch windows of the box.
    Scenario times are capped at t_max, so stalled corner plants stay in the
    worst case instead of being dropped.
    """
    windows = project_switch_windows(P0, spec)
    scen = np.atleast_2d(scenarios)
    nom = nominal_decision(P0, spec)
    ref = np.minimum(plan_vectorized(scen, spec)["tf"], spec.t_max)

    def worst(tf: np.ndarray):
        """Worst squared excess over the scenarios, per row of times."""
        dev = np.minimum(tf, spec.t_max) - ref
        return np.max(dev * dev, axis=-1)

    def column(x):
        return x if np.ndim(x) == 0 else np.reshape(x, (-1, 1))

    def objective(t1_c, u_c: float):
        return worst(realized_batch_times(scen, column(t1_c), u_c, spec))

    t1_lo, t1_hi = windows.t1
    u_lo, u_hi = windows.u_band
    t1_c = min(max(nom.t1_commit, t1_lo), t1_hi)
    u_c = min(max(nom.u_s_commit, u_lo), u_hi)
    best = objective(t1_c, u_c)
    # each search depends only on the other coordinate, so a search whose
    # input has not moved since it last ran would return its point again
    for sweep in range(cfg.max_sweeps):
        t1_new, val_t = _golden_min(lambda x: objective(x, u_c), t1_lo, t1_hi,
                                    spec.dt_h, cfg.coarse_grid)
        if val_t < best - 1e-15:
            t1_c, best = t1_new, val_t
        elif sweep:
            break               # the u search after it would repeat the last one
        if u_hi - u_lo <= cfg.u_resolution:
            break               # u is fixed: a second t1 search would repeat this one
        end = _concentrate_end(scen, t1_c, spec)     # shared by every u
        u_new, val_u = _golden_min(
            lambda x: worst(_ratio_times(scen, t1_c, end, column(x), spec)),
            u_lo, u_hi, cfg.u_resolution, cfg.coarse_grid)
        if not val_u < best - 1e-15:
            break               # the t1 search after it would repeat the last one
        u_c, best = u_new, val_u
    return StrategyDecision(t1_c, u_c)


def robust_strategy(p_true: PlantParams, spec: ProcessSpec, decision: StrategyDecision,
                    *, record: bool = False) -> BatchResult:
    """Min-max commitment: the robust decision over the scenario set."""
    return _finish_batch("robust", p_true, spec, decision, record=record)


# --- adaptive strategy ----------------------------------------------------------------

class NoiseStream:
    """Measurement noise indexed by absolute sample number (replay-safe):
    values are drawn BLOCK at a time, in index order."""

    BLOCK = 40000

    def __init__(self, rng: np.random.Generator, sigma: float):
        self._rng = rng
        self._sigma = sigma
        self._values = np.empty(0)

    def eta(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=int)
        if self._sigma == 0.0:
            return np.zeros(k.shape)
        need = int(k.max()) + 1 if k.size else 0
        while self._values.size < need:
            self._values = np.concatenate([
                self._values,
                self._rng.uniform(-self._sigma, self._sigma, self.BLOCK)])
        return self._values[k]


# singular-arc samples per block: screening one costs about 60 us plus 60 ns
# per sample, and the samples after a control change are void, so a control's
# blocks start at _BLOCK0 and double while it holds; their candidates get exact
# states _CHUNK at a time, where Arc.states costs about 0.2 ms per call
_BLOCK0 = 2048
_BLOCK_MAX = 16384
_CHUNK = 128


# a re-optimization is informative when the t1 window at least halves, or
# when the batch time varies by less than one second over the box; phase 1
# commits after at most _MAX_REOPTS of them
_SHRINK_RATIO = 0.5
_EPS = (1.0 / 3600.0) ** 2
_MAX_REOPTS = 10


def _cost_variation(box: ParamBox, spec: ProcessSpec) -> float:
    """Worst squared batch-time deviation of box vertices from the mid plant."""
    scen = scenario_points(box.lo_arr(), box.hi_arr(), 0)     # the mid plant last
    plan = plan_vectorized(scen[-1], spec)
    tf = np.minimum(realized_batch_times(scen, plan["t1"], plan["us"], spec), spec.t_max)
    dev = tf - tf[-1]
    return float(np.max(dev * dev))


def _rhs_factory(p: PlantParams, u: float, m: float):
    p1, p2, p3 = p.p1, p.p2, p.p3

    def f(t, y):
        q = p1 - p2 * math.log(y[0]) - p3 * math.log(y[1])
        return (y[0] * y[0] * q * (1.0 - u) / m, -y[0] * y[1] * q * u / m)
    return f


def adaptive_strategy(P0: ParamBox, p_true: PlantParams, spec: ProcessSpec,
                      noise: NoiseStream, *, record: bool = False) -> BatchResult:
    """Set-membership adaptive operation.

    Concentrate (u=0) while streaming flux measurements; at the sampling
    instant one period before the guaranteed lower edge of the t1 window,
    re-estimate the box and re-project the windows.  Commit the mid-box switch
    as soon as a re-optimization either pins the window (width at least halved)
    or the worst-case cost variation over the box vertices drops below _EPS;
    an uninformative re-optimization waits for the updated edge and repeats.
    On the singular arc the control is the mid-box singular control, refreshed
    whenever a new measurement actually shrinks the box; dilution triggers on
    the measured concentration ratio.

    With `record`, the result keeps the trajectory (every sample, from a solve
    for the trajectory alone) and the box history (time, box) of every box
    update; without it, both are None.
    """
    est = OnlineBoxEstimator(P0, spec.sigma)
    tf_opt = _plan(p_true, spec)[2]
    dt = spec.dt_h
    p1t, p2t, p3t = p_true.p1, p_true.p2, p_true.p3
    boxes = [(0.0, est.box)] if record else None

    windows = project_switch_windows(P0, spec)
    state = spec.initial_state()
    reopts = 0
    # (t, c1, c2, u) segments of the trajectory
    rec = [(np.array([0.0]), np.array([state.c1]), np.array([state.c2]), 0.0)] \
        if record else None

    def log_box(t):
        if boxes is not None:
            boxes.append((t, est.box))

    def first_sample(t: float) -> int:
        """Index k of the first sampling instant k*dt after t."""
        return int(math.floor(t / dt + 1e-9)) + 1

    def measured(lc1, lc2, eta):
        """Regressor rows and noisy flux of samples at (ln c1, ln c2)."""
        return (np.column_stack([np.ones(lc1.size), -lc1, -lc2]),
                p1t - p2t * lc1 - p3t * lc2 + eta)

    def run_concentrate(t_from: float, t_to: float, y0) -> np.ndarray:
        """Integrate u=0 over [t_from, t_to], ingesting all samples in between."""
        sol = solve_ivp(_rhs_factory(p_true, 0.0, spec.mass), (t_from, t_to), y0,
                        method="RK45", rtol=1e-8, atol=(1e-10, 1e-12),
                        dense_output=True)
        if not sol.success:
            raise SimulationTimeout(sol.message)
        ks = np.arange(first_sample(t_from), first_sample(t_to))
        if ks.size:
            ts = ks * dt
            ys = sol.sol(ts)
            est.add_rows(*measured(np.log(ys[0]), np.log(ys[1]), noise.eta(ks)))
            log_box(t_to)
            if rec is not None:
                rec.append((ts, ys[0].copy(), ys[1].copy(), 0.0))
        return sol.y[:, -1]

    # phase 1: concentrate with scheduled re-optimization
    y = np.array([state.c1, state.c2])
    t_now = 0.0
    while True:
        t_edge = dt * (math.ceil(windows.t1[0] / dt - 1e-9) - 1)
        if t_edge <= t_now + 0.5 * dt:
            break
        if t_edge > spec.t_max:
            raise SimulationTimeout(f"t1 window edge not reached by t_max={spec.t_max} h")
        y = run_concentrate(t_now, t_edge, y)
        t_now = t_edge
        old = windows.t1
        windows = project_switch_windows(est.box, spec)
        reopts += 1
        if (windows.t1[1] - windows.t1[0] <= _SHRINK_RATIO * (old[1] - old[0])
                or _cost_variation(est.box, spec) < _EPS or reopts >= _MAX_REOPTS):
            break

    t1_commit = max(plan_vectorized(est.box.mid().as_array(), spec)["t1"], t_now)
    if t1_commit > t_now:
        y = run_concentrate(t_now, t1_commit, y)
        t_now = t1_commit

    # phase 2: the singular arc in closed form, screened and ingested block by
    # block (module docstring) up to the block that reaches the ratio event.  A
    # box change that moves the control re-anchors the plant at that sample in
    # a new Arc; one that keeps it re-screens the rest of the block.
    u_now = singular_control(est.box.mid())
    band_degenerate = est.box.widths()[1] + est.box.widths()[2] < 1e-12
    ln_rf = math.log(spec.ratio_f)
    k_next = first_sample(t_now)
    x_now, v_now = math.log(y[0]), math.log(y[1])
    arc = None
    while True:
        if arc is None:
            arc = Arc(t_now, x_now, v_now, u_now, p1t, p2t, p3t, spec.mass)
            y_ev = arc.ratio_y(ln_rf)
            t_ev, x_ev, v_ev = (float(a) for a in arc.ratio_event(ln_rf))
            block = _BLOCK0
        if t_now >= spec.t_max:
            raise SimulationTimeout(f"ratio target not reached by t_max={spec.t_max} h")
        ks = np.arange(k_next, k_next + block)
        ts = ks * dt
        filled = int(np.searchsorted(ts, t_ev))     # samples before the event
        ts, eta = ts[:filled], noise.eta(ks[:filled])
        x_lo, x_hi, v_lo, v_hi = arc.state_bounds(ts, y_ev)
        q_lo = p1t - p2t * x_hi - p3t * v_hi + eta    # q falls in x, v: p2 > 0, p3 >= 0
        q_hi = p1t - p2t * x_lo - p3t * v_lo + eta
        used, n_in, i0, rest, u_next = filled, 0, 0, None, u_now
        while True:
            if rest is None:        # the rest of the block against the current hull
                rest = i0 + np.flatnonzero(~est.inert((x_lo[i0:], x_hi[i0:]), (
                    v_lo[i0:], v_hi[i0:]), (q_lo[i0:], q_hi[i0:])))
            cand, rest = rest[:_CHUNK], rest[_CHUNK:]
            if not cand.size:
                break
            lc1, lc2 = arc.states(ts[cand], y_ev)
            n_used, changed = est.add_rows_stop_on_change(*measured(lc1, lc2, eta[cand]))
            n_in += n_used
            if not changed:
                continue            # the hull stands, and so does the screen
            i0, rest = int(cand[n_used - 1]) + 1, None
            log_box(float(ts[i0 - 1]))
            if not band_degenerate:
                u_ref = singular_control(est.box.mid())
                if abs(u_ref - u_now) > 1e-13:
                    u_next, used = u_ref, i0    # later samples of this block are void
                    x_now, v_now = float(lc1[n_used - 1]), float(lc2[n_used - 1])
                    break
        est.n_measurements += used - n_in       # the screened-out samples
        if rec is not None and used:     # a solve for the trajectory alone
            lc1, lc2 = arc.states(ts[:used], y_ev)
            rec.append((ts[:used], np.exp(lc1), np.exp(lc2), u_now))
        if used:
            t_now, k_next = float(ts[used - 1]), k_next + used
        if u_next != u_now:         # a new Arc from the re-anchored state
            u_now, arc = u_next, None
        elif filled < block:        # the block reached the ratio event
            break
        else:
            block = min(2 * block, _BLOCK_MAX)

    end = PlantState(t_ev, math.exp(x_ev), math.exp(v_ev))
    post, feasible = _dilute_to_target(end, spec)
    traj = None
    if rec is not None:
        rec.append((np.array([t_ev]), np.array([end.c1]), np.array([end.c2]), u_now))
        rec.append((np.array([post.t]), np.array([post.c1]), np.array([post.c2]), math.inf))
        traj = Trajectory.concat([
            Trajectory(t, c1, c2, np.full_like(t, u), p1t - p2t * np.log(c1) - p3t * np.log(c2))
            for t, c1, c2, u in rec if t.size])
        traj.event_time = t_ev
    return BatchResult("adaptive", p_true, t1_commit, t_ev, t_ev, feasible,
                       regret=t_ev - tf_opt, reopt_count=reopts,
                       trajectory=traj, box_history=boxes)
