import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfrto.errors import ConfigError, UnsupportedStructureError
from dfrto.arc import integrate
from dfrto.policy import plan_vectorized, singular_control
from dfrto.process import PlantParams, PlantState, ProcessSpec, StopCondition, flux
from oracles import (arcs_from_policy, evaluate_policy, ode_integrate, plan_policy,
                     rk4_event_time, scaled, simulate_policy)


def test_switching_function_values(p_nom1):
    # S = q(c1, c2) - (p2 + p3), zero on the singular surface; plan_vectorized
    # refuses a plant whose S(x0) <= 0
    def s_fn(state, p):
        return flux(state.c1, state.c2, p) - p.p2 - p.p3
    s0 = PlantState(0.0, 50.0, 50.0)
    assert s_fn(s0, p_nom1) == pytest.approx(8.987 - 3.0, abs=5e-4)
    c1_star = math.exp(p_nom1.p1 / p_nom1.p2 - 1.0)
    on_surface = PlantState(0.0, c1_star, 50.0)
    assert s_fn(on_surface, p_nom1) == pytest.approx(0.0, abs=1e-12)


def test_switch_surface_is_gamma2_over_e(p_nom1, case1):
    # with p3 = 0 the surface S = 0 is exactly c1 = gamma2/e
    c1_star = math.exp(p_nom1.p1 / p_nom1.p2 - 1.0)
    assert c1_star == pytest.approx(case1.gamma2 / math.e, rel=1e-12)


def test_singular_control_cases(p_nom1, p_nom2):
    assert singular_control(p_nom1) == 1.0
    assert singular_control(p_nom2) == pytest.approx(1.0 / 1.1, rel=1e-12)
    assert singular_control(PlantParams(5.0, 2.0, 2.0)) == 0.5


def test_switch_times_case1(p_nom1, spec):
    pi = plan_policy(p_nom1, spec)
    assert pi.t1 == pytest.approx(2.625, rel=0.10)
    assert pi.tf == pytest.approx(8.327, rel=0.10)
    assert pi.t2 == pi.tf


def test_switch_times_case2(p_nom2, spec):
    pi = plan_policy(p_nom2, spec)
    assert pi.t1 == pytest.approx(2.561, rel=0.10)
    assert pi.tf == pytest.approx(9.277, rel=0.10)


def test_switch_times_backends_agree(p_nom2, spec):
    # the closed-form t1/tf against the ODE oracle's switch and ratio events
    pa = plan_policy(p_nom2, spec)
    arc1 = ode_integrate(spec.initial_state(), 0.0, p_nom2, spec, "switch")
    start = PlantState(arc1.event_time, arc1.c1[-1], arc1.c2[-1])
    arc2 = ode_integrate(start, singular_control(p_nom2), p_nom2, spec, "ratio",
                         spec.ratio_f)
    assert pa.t1 == pytest.approx(arc1.event_time, abs=1e-6)
    assert pa.tf == pytest.approx(arc2.event_time, abs=1e-6)


def test_switch_times_vs_oracle(p_nom1, spec):
    pi = plan_policy(p_nom1, spec)
    s0 = spec.initial_state()
    t1_oracle = rk4_event_time(
        s0, 0.0, p_nom1, spec,
        lambda a, b: a - math.exp(p_nom1.p1 / p_nom1.p2 - 1.0), h=1e-4)
    assert abs(pi.t1 - t1_oracle) <= 1e-3


def test_replay_reaches_final_concentrations(spec):
    rng = np.random.default_rng(5)
    for _ in range(4):
        p = PlantParams(rng.uniform(19.0, 22.0), rng.uniform(2.7, 3.3),
                        rng.uniform(0.0, 0.4))
        pi = plan_policy(p, spec)
        traj = simulate_policy(pi, spec, record=False)
        end = traj.final_state()
        assert end.c1 == pytest.approx(spec.c1_f, rel=1e-6)
        assert end.c2 == pytest.approx(spec.c2_f, rel=1e-6)


def test_unsupported_structure(spec):
    # initial state already past the singular surface
    p = PlantParams(12.0, 3.0, 0.0)  # q(50,50) = 0.26 < p2
    with pytest.raises(UnsupportedStructureError):
        plan_vectorized(p.as_array(), spec)


def test_evaluate_policy(p_nom1, spec):
    pi = plan_policy(p_nom1, spec)
    s = spec.initial_state()
    assert evaluate_policy(0.0, s, pi) == 0.0
    assert evaluate_policy(pi.t1 - 1e-9, s, pi) == 0.0
    assert evaluate_policy(pi.t1, s, pi) == 1.0
    assert evaluate_policy(pi.t2, s, pi) == math.inf
    with pytest.raises(ConfigError):
        evaluate_policy(pi.tf + 1.0, s, pi)


def test_arcs_partition(p_nom2, spec):
    pi = plan_policy(p_nom2, spec)
    arcs = arcs_from_policy(pi)
    kinds = [a.kind for a in arcs]
    assert kinds == ["concentrate", "singular", "dilute"]
    assert arcs[0].start == 0.0 and arcs[0].end == arcs[1].start == pi.t1
    assert arcs[1].end == arcs[2].start == pi.t2
    assert arcs[2].end == arcs[2].start  # zero duration


def test_singular_arc_pins_flux(p_nom2, spec):
    pi = plan_policy(p_nom2, spec)
    arc1 = integrate(spec.initial_state(), 0.0, pi.p,
                     StopCondition.at_time(pi.t1), spec, record=False)
    us = singular_control(pi.p)
    arc2 = integrate(arc1.final_state(), us, pi.p,
                     StopCondition.ratio_reached(spec.ratio_f), spec, record=True)
    q_star = pi.p.p2 + pi.p.p3
    assert np.all(np.abs(arc2.q - q_star) <= 1e-6 * q_star)


def test_t1_monotonic_in_gamma1(spec):
    # larger gamma1 scales the flux up: everything happens sooner
    t1s = [plan_policy(
        PlantParams.from_gamma(g1, 1000.0, 0.0), spec).t1
        for g1 in (0.027, 0.03, 0.033)]
    assert t1s[0] > t1s[1] > t1s[2]


def test_t1_monotonic_in_gamma2(spec):
    # larger gamma2 raises the flux everywhere, which outruns the higher
    # switching level: t1 decreases over the studied range
    t1s = [plan_policy(
        PlantParams.from_gamma(0.03, g2, 0.0), spec).t1
        for g2 in np.linspace(900.0, 1100.0, 7)]
    assert all(a > b for a, b in zip(t1s, t1s[1:]))


@given(st.floats(0.5, 2.0))
def test_scaling_invariance(alpha):
    spec = ProcessSpec()
    p = PlantParams(20.7233, 3.0, 0.3)
    ps = scaled(p, alpha)
    assert singular_control(ps) == pytest.approx(singular_control(p), rel=1e-12)
    pi = plan_policy(p, spec)
    pis = plan_policy(ps, spec)
    # same switching locus: times scale by 1/alpha
    assert pis.t1 == pytest.approx(pi.t1 / alpha, rel=1e-10)
    assert pis.tf == pytest.approx(pi.tf / alpha, rel=1e-10)
    plan = plan_vectorized(np.vstack([p.as_array(), ps.as_array()]), spec)
    assert plan["c1_switch"][0] == pytest.approx(plan["c1_switch"][1], rel=1e-12)
    assert plan["c1_end"][0] == pytest.approx(plan["c1_end"][1], rel=1e-12)
