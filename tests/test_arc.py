"""Closed-form constant-control arcs against the RK4 and ODE oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, target
from hypothesis import strategies as st
from scipy.integrate import quad

from dfrto import arc as arc_mod
from dfrto.arc import Arc, _ArcIntegral
from dfrto.process import TOL_EVENT, PlantParams, PlantState
from dfrto.strategies import NoiseStream, adaptive_strategy
from oracles import ode_integrate, rk4_event_time, rk4_integrate

START = PlantState(2.5, 225.0, 50.0)      # roughly where a singular arc begins


def _arc(state, u, p, spec):
    return Arc(state.t, math.log(state.c1), math.log(state.c2), u,
               p.p1, p.p2, p.p3, spec.mass)


def _states(state, u, p, spec, ts):
    arc = _arc(state, u, p, spec)
    x, v = arc.states(np.asarray(ts), arc.ratio_y(math.log(spec.ratio_f)))
    return np.exp(x), np.exp(v)


def _ratio_event(state, u, p, spec):
    t, x, v = _arc(state, u, p, spec).ratio_event(math.log(spec.ratio_f))
    return float(t), math.exp(float(x)), math.exp(float(v))


def _b(p, u):
    """Slope of the flux in ln c1 along the arc: q = a - b*ln c1."""
    return p.p2 - p.p3 * u / (1.0 - u)


# (u, plant) covering every branch of the closed form
P_GEN = PlantParams(20.7233, 3.0, 0.3)
ARCS = {
    "concentrate": (0.0, P_GEN),
    "b_positive": (0.85, P_GEN),
    "b_negative": (0.95, P_GEN),
    "b_zero": (0.75, PlantParams(23.5, 3.0, 1.0)),     # k = 3 exactly
    "wash_p3_zero": (1.0, PlantParams(20.7233, 3.0, 0.0)),
    "wash_p3_positive": (1.0, P_GEN),
}


def test_arc_table_covers_each_sign_of_b():
    assert _b(ARCS["b_positive"][1], ARCS["b_positive"][0]) > 0.0
    assert _b(ARCS["b_negative"][1], ARCS["b_negative"][0]) < 0.0
    assert _b(ARCS["b_zero"][1], ARCS["b_zero"][0]) == 0.0


@pytest.mark.parametrize("name", sorted(ARCS))
def test_states_match_rk4_oracle(spec, name):
    u, p = ARCS[name]
    t_end = START.t + 0.5
    _, c1o, c2o, _ = rk4_integrate(START, u, p, spec, t_end, h=1e-4)
    c1, c2 = _states(START, u, p, spec, [t_end])
    assert c1[0] == pytest.approx(c1o, rel=1e-9)
    assert c2[0] == pytest.approx(c2o, rel=1e-9)


@pytest.mark.parametrize("name", sorted(ARCS))
def test_states_match_integrate(spec, name):
    u, p = ARCS[name]
    ts = START.t + np.array([1.0 / 3600.0, 0.1, 0.7, 1.3])
    c1, c2 = _states(START, u, p, spec, ts)
    for t, a, b in zip(ts, c1, c2):
        end = ode_integrate(START, u, p, spec, "time", t)
        assert a == pytest.approx(end.c1[-1], rel=1e-8)
        assert b == pytest.approx(end.c2[-1], rel=1e-8)


@pytest.mark.parametrize("name", sorted(n for n in ARCS if n != "concentrate"))
def test_ratio_event_matches_oracles(spec, name):
    u, p = ARCS[name]
    rf = spec.ratio_f
    t_ev, c1, c2 = _ratio_event(START, u, p, spec)
    assert c1 / c2 == pytest.approx(rf, rel=1e-12)
    t_rk4 = rk4_event_time(START, u, p, spec, lambda a, b: a / b - rf, h=1e-4)
    assert abs(t_ev - t_rk4) <= TOL_EVENT
    arc = ode_integrate(START, u, p, spec, "ratio", rf)
    assert abs(t_ev - arc.event_time) <= TOL_EVENT
    assert c1 == pytest.approx(arc.c1[-1], rel=1e-7)
    assert c2 == pytest.approx(arc.c2[-1], rel=1e-7)


def test_concentrate_time_to_matches_oracle(spec):
    u, p = ARCS["concentrate"]
    start = spec.initial_state()
    target = 200.0
    t = float(_arc(start, u, p, spec).time_to(math.log(target)))
    t_rk4 = rk4_event_time(start, u, p, spec, lambda a, b: a - target, h=1e-4)
    assert abs(t - t_rk4) <= TOL_EVENT


def test_near_stall_arc(spec):
    # b > 0 and the flux reaches zero before the ratio target: no event, and
    # the states creep toward the stall concentration without crossing it
    u, p = 0.3, P_GEN
    x0, v0 = math.log(START.c1), math.log(START.c2)
    y_end = (1.0 - u) * (math.log(spec.ratio_f) - (x0 - v0))
    q_end = p.p1 - p.p2 * (x0 + y_end) - p.p3 * (v0 - u / (1.0 - u) * y_end)
    assert _b(p, u) > 0.0 and q_end < 0.0
    t_ev, _, _ = _ratio_event(START, u, p, spec)
    assert t_ev == math.inf
    ts = START.t + np.array([0.05, 0.5, 2.0, 8.0])
    c1, c2 = _states(START, u, p, spec, ts)
    for t, a, b in zip(ts, c1, c2):
        end = ode_integrate(START, u, p, spec, "time", t)
        assert a == pytest.approx(end.c1[-1], rel=1e-8)
        assert b == pytest.approx(end.c2[-1], rel=1e-8)
    q = p.p1 - p.p2 * np.log(c1) - p.p3 * np.log(c2)
    assert np.all(q > 0.0) and np.all(np.diff(q) < 0.0)
    assert q[-1] < 1e-3 * q[0]


def test_stalled_start_stays_put(spec):
    p = PlantParams(P_GEN.p1, P_GEN.p2, P_GEN.p3)
    x_stall = (p.p1 - p.p3 * math.log(50.0)) / p.p2
    start = PlantState(1.0, math.exp(x_stall), 50.0)
    assert _ratio_event(start, 0.85, p, spec)[0] == math.inf
    c1, c2 = _states(start, 0.85, p, spec, [1.5, 3.0])
    assert np.allclose(c1, start.c1, rtol=1e-12) and np.allclose(c2, start.c2, rtol=1e-12)


@pytest.mark.parametrize("r", [0.0, 1e-12, -1e-12, 1e-6, 0.02, -0.3, 0.4, 1.5, -5.0])
def test_arc_integral_matches_quadrature(r):
    Y = np.array([1e-6, 1e-3, 0.1, 0.6, 1.5])
    Y = Y[1.0 - r * Y > 0.05]
    ref = np.array([quad(lambda y: math.exp(-y) / (1.0 - r * y), 0.0, yy,
                         epsabs=0.0, epsrel=1e-13)[0] for yy in Y])
    # r != 0 takes the exponential-integral form, a difference of two O(1)
    # terms whose rounding error is absolute; a scalar r and one r per element
    # take separate r = 0 branches, and so does the Python-float kernel
    F = _ArcIntegral(r)
    with np.errstate(all="ignore"):      # 1/r at r = 0 in the array form
        got = [F(Y), _ArcIntegral(np.full(Y.shape, r))(Y),
               [F._float(y) for y in Y.tolist()]]
    for g in got:
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-15)


def test_arc_integral_inverse_round_trip():
    arc = Arc(0.0, 0.0, 0.0, 0.5, 4.0, 1.0, 0.5, 1.0)     # r = 0.125, T = 0.5
    ts = np.linspace(0.0, 0.2, 9)
    x, _ = arc.states(ts, arc.ratio_y(math.log(1e6)))
    np.testing.assert_allclose(arc.time_to(x), ts, rtol=0.0, atol=1e-13)


def test_adaptive_event_time_matches_rk4(spec, case2):
    rng = np.random.default_rng(21)
    p_true = case2.draw_truth_gamma(rng, 0.10, spec)
    res = adaptive_strategy(case2.prior_box(spec), p_true, spec,
                            NoiseStream(np.random.default_rng(5), spec.sigma),
                            record=True)
    traj = res.trajectory
    assert res.feasible and traj.event_time == res.tf
    # the samples before the event row share the final control; restart the
    # oracle a few minutes back along them
    u_last = traj.u[-2]
    j = len(traj.t) - 2
    while j > 0 and traj.u[j - 1] == u_last and traj.t[-2] - traj.t[j - 1] <= 0.05:
        j -= 1
    start = PlantState(traj.t[j], traj.c1[j], traj.c2[j])
    t_rk4 = rk4_event_time(start, u_last, p_true, spec,
                           lambda a, b: a / b - spec.ratio_f, h=1e-4)
    assert abs(res.tf - t_rk4) <= TOL_EVENT


# r = 0, |1/r| beyond 500 (the asymptotic series, down to |r| ~ 1e-308), |1/r|
# below 500 (Ei itself), each sign
_R = st.one_of(st.just(0.0), st.floats(-2e-3, 2e-3, allow_subnormal=False),
               st.floats(-5.0, 5.0))
# where on [0, y_hi] the points sit: the start, inside, next to the bracket end
_W = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True), st.just(1.0 - 1e-12))


def _bits(a) -> bytes:
    """The bytes of a float array, with every NaN made the same NaN (how a NaN
    came about sets its sign bit, which no comparison or branch reads)."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


@given(r=_R, ws=st.lists(_W, min_size=1, max_size=2))
@example(r=0.4, ws=[0.0, 1.0 - 1e-12])       # the u = 0 concentrate arc
@example(r=-0.3, ws=[0.7, 1.0 - 1e-12])
@example(r=1e-5, ws=[0.5])
@example(r=-1e-4, ws=[0.0, 0.25])
# the two-point examples, one point each under its own bracket
@example(r=0.4, ws=[0.0])
@example(r=0.4, ws=[1.0 - 1e-12])
@example(r=-0.3, ws=[0.7])
@example(r=-0.3, ws=[1.0 - 1e-12])
@example(r=-1e-4, ws=[0.0])
@example(r=-1e-4, ws=[0.25])
def test_float_kernel_is_bitwise_the_array_kernel(r, ws):
    """F at each point, and its inverse at each point (under the bracket of
    all the points), take the Python-float kernel; the array form at that one
    point must give the same bits."""
    F = _ArcIntegral(r)
    w = np.array(ws)
    with np.errstate(all="ignore"):
        if r > 0.0:
            # the flux stalls at Y = 1/r, which brackets states()
            y_hi = 1.0 / r
            tau = F(w * y_hi)
        else:
            # the y_bound bracket: F(inf) - F(Y) <= e^(-Y)
            lim = float(F.limit())
            tau = w * lim
            y_hi = float(-np.log(lim - tau.max()))
        for Y in (w * y_hi, np.asarray(w[0] * y_hi)):
            floats = [F._float(y) for y in np.ravel(Y).tolist()]
            assert _bits(floats) == _bits(np.ravel(F(Y)))
        for t in tau.tolist():
            lo = np.zeros(())
            got = F._inverse_float(t, 0.0 + y_hi)
            assert type(got) is float
            assert _bits(got) == _bits(F._inverse_array(np.asarray(t), lo, lo + y_hi))


def _arc_results(arc, w: float, gap: float) -> list:
    """Everything an Arc computes for one plant at one point: its constants,
    ratio_y and ratio_event for a ratio gap, and (u < 1) time_to and at_y at
    Y = w, y_bound at w arc-time units after t0 and states there."""
    x0, v0, t0 = float(arc.x0), float(arc.v0), float(arc.t0)
    ln_rf = (x0 - v0) + gap
    out = [arc.q0, arc.ratio_y(ln_rf), *arc.ratio_event(ln_rf)]
    if arc.frozen:
        return out + [*arc.states(t0 + w, 0.0)]
    t = t0 + float(arc.T) * w
    # states brackets with the stall asymptote where r > 0, as integrate does
    y_hi = 0.0 if arc.r > 0.0 else arc.y_bound(t)
    out += [arc.k, arc.r, arc.T, arc.time_to(x0 + w), *arc.at_y(w), y_hi]
    if y_hi < math.inf:
        out += [*arc.states(t, y_hi)]
    return out


@given(t0=st.floats(0.0, 5.0), x0=st.floats(-1.0, 6.0), v0=st.floats(-5.0, 4.0),
       u=st.one_of(st.just(0.0), st.floats(0.0, 0.999),
                   st.sampled_from([arc_mod._U_FROZEN, 1.0])),
       p2=st.floats(0.5, 5.0), p3=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       q0=st.one_of(st.floats(-1.0, 10.0), st.sampled_from([0.0, 1e-12, 2e-12])),
       w=st.one_of(st.just(0.0), st.floats(0.0, 3.0)), gap=st.floats(-1.0, 3.0))
@example(t0=0.0, x0=math.log(50.0), v0=math.log(50.0), u=0.0, p2=3.0, p3=0.0,
         q0=11.8, w=0.4, gap=8.0)                      # the concentrate arc, r > 0
@example(t0=2.5, x0=5.4, v0=3.9, u=0.85, p2=3.0, p3=0.3, q0=2.0, w=0.5,
         gap=1.0)                                      # r > 0, below the stall
@example(t0=2.5, x0=5.4, v0=3.9, u=0.95, p2=3.0, p3=0.3, q0=2.0, w=0.3,
         gap=1.0)                                      # r < 0, c1 bounded by t
@example(t0=2.5, x0=5.4, v0=3.9, u=0.95, p2=3.0, p3=0.3, q0=2.0, w=2.5,
         gap=1.0)                                      # r < 0, c1 unbounded by t
@example(t0=1.0, x0=0.0, v0=0.0, u=0.75, p2=3.0, p3=1.0, q0=2.0, w=0.5,
         gap=0.5)                                      # k = 3: r = 0 exactly
@example(t0=1.0, x0=0.0, v0=0.0, u=0.6, p2=3.0, p3=0.3, q0=1e-12, w=0.5,
         gap=0.5)                                      # at the stall floor
@example(t0=1.0, x0=0.0, v0=0.0, u=0.6, p2=3.0, p3=0.3, q0=0.0, w=0.5,
         gap=0.5)                                      # zero flux: r, T infinite
@example(t0=2.5, x0=5.4, v0=3.9, u=1.0, p2=3.0, p3=0.3, q0=2.0, w=0.2,
         gap=1.0)                                      # the u = 1 wash
@example(t0=2.5, x0=5.4, v0=3.9, u=1.0, p2=3.0, p3=0.0, q0=2.0, w=0.2,
         gap=-0.5)                                     # u = 1, p3 = 0, ratio met
def test_float_arc_is_bitwise_the_array_arc(t0, x0, v0, u, p2, p3, q0, w, gap):
    """An Arc of scalar plant inputs runs in Python floats; the same arc of
    0-d arrays runs the array form.  Every constant and every result at one
    point must have the same bits, and the float path returns Python floats."""
    p1 = q0 + p2 * x0 + p3 * v0
    args = (t0, x0, v0, u, p1, p2, p3)
    scalar = Arc(*args, 1000.0)
    array = Arc(*(np.asarray(a) for a in args), 1000.0)
    assert scalar.scalar and not array.scalar
    got = _arc_results(scalar, w, gap)
    want = _arc_results(array, w, gap)
    assert all(type(g) is float for g in got)
    assert len(got) == len(want) and _bits(got) == _bits(want)


# r = 0, |r| small as on a singular arc under the mid-box control, |r| large
_R_ARC = st.one_of(st.just(0.0), st.floats(-2e-3, 2e-3), st.floats(-0.5, 0.5))


@given(r=_R_ARC, u=st.floats(0.05, 0.99), p3=st.floats(0.0, 2.0),
       q0=st.floats(0.5, 10.0), gap=st.floats(0.05, 4.0), reach=st.floats(0.0, 1.0),
       n=st.sampled_from([1, 3, 8, 9, 64, 2048]), seed=st.integers(0, 2 ** 31 - 1))
@example(r=0.0, u=0.9, p3=0.3, q0=2.0, gap=2.0, reach=1.0, n=2048, seed=0)
@example(r=-1e-3, u=0.9, p3=0.3, q0=2.0, gap=2.0, reach=1.0, n=2048, seed=0)
@example(r=0.45, u=0.6, p3=0.3, q0=2.0, gap=4.0, reach=1.0, n=64, seed=0)
def test_state_bounds_enclose_every_halley_result(r, u, p3, q0, gap, reach, n, seed):
    """Arc.state_bounds encloses the states that Arc.states computes at the
    same times, solved as one block, as a random subset or one at a time.
    hypothesis.target pushes towards the smallest margin, in units of the
    pad _Y_PAD (run with --hypothesis-show-statistics to see it)."""
    x0, v0 = math.log(225.0), math.log(50.0)
    k = u / (1.0 - u)
    p2 = r * q0 + p3 * k
    arc = Arc(2.5, x0, v0, u, q0 + p2 * x0 + p3 * v0, p2, p3, 1000.0)
    y_ev = arc.ratio_y((x0 - v0) + gap)
    y_end = min(y_ev, 0.999 / arc.r) if arc.r > 0.0 else y_ev
    t_end = arc.time_to(x0 + reach * y_end)
    ts = 2.5 + (t_end - 2.5) * np.arange(1, n + 1) / n
    x_lo, x_hi, v_lo, v_hi = arc.state_bounds(ts, y_ev)
    pick = np.random.default_rng(seed).random(n) < 0.3
    margin = math.inf
    for sel in (np.ones(n, dtype=bool), pick, np.arange(n) == n - 1):
        x, v = arc.states(ts[sel], y_ev)
        for got, lo_, hi_ in ((x, x_lo[sel], x_hi[sel]), (v, v_lo[sel], v_hi[sel])):
            assert np.all(lo_ <= got) and np.all(got <= hi_)
        if x.size:          # in Y, which x = x0 + Y shifts
            margin = min(margin, float(np.min(np.minimum(x - x_lo[sel], x_hi[sel] - x))))
    target(-margin / arc_mod._Y_PAD, label="smallest margin in Y / _Y_PAD, negated")
