import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfrto.arc import integrate
from dfrto.errors import ConfigError, DomainError, SimulationTimeout, StallError
from dfrto.process import (GAMMA1_UNIT_SCALE, MAX_SAMPLES, PlantParams, PlantState,
                           ProcessSpec, StopCondition, Trajectory, dilute, flux)
from dfrto.policy import plan_vectorized, singular_control
from dfrto.strategies import NoiseStream, _rhs_factory
from oracles import ode_integrate, rk4_integrate

P1C = PlantParams(20.7233, 3.0, 0.0)


def test_params_gamma_roundtrip():
    p = PlantParams.from_gamma(3e-2, 1000.0, 0.1)
    g1, g2, g3 = p.p2 / GAMMA1_UNIT_SCALE, math.exp(p.p1 / p.p2), p.p3 / p.p2
    assert g1 == pytest.approx(3e-2, rel=1e-14)
    assert g2 == pytest.approx(1000.0, rel=1e-12)
    assert g3 == pytest.approx(0.1, rel=1e-14)
    assert p.p2 == pytest.approx(3.0)


def test_params_invariants():
    with pytest.raises(DomainError):
        PlantParams(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        PlantParams(1.0, 1.0, -0.1)


def test_flux_unit_concentrations():
    # logarithms vanish at c = 1
    p = PlantParams(7.7, 2.0, 0.5)
    assert flux(1.0, 1.0, p) == pytest.approx(p.p1)


def test_flux_initial_point():
    assert flux(50.0, 50.0, P1C) == pytest.approx(3 * math.log(1000 / 50), rel=1e-4)
    assert flux(50.0, 50.0, P1C) == pytest.approx(8.987, abs=5e-4)


def test_flux_singular_level():
    # at c1 = 1000/e the flux equals p2 + p3 (to the 4 digits p1 carries)
    c1 = 1000.0 / math.e
    assert flux(c1, 123.4, P1C) == pytest.approx(3.000, abs=5e-4)
    exact = PlantParams(3.0 * math.log(1000.0), 3.0, 0.0)
    assert flux(c1, 123.4, exact) == pytest.approx(3.0, rel=1e-12)


def test_flux_domain_error():
    with pytest.raises(DomainError):
        flux(-1.0, 5.0, P1C)
    with pytest.raises(DomainError):
        flux(5.0, 0.0, P1C)


def test_rhs_modes(spec):
    # the derivative the adaptive strategy hands to solve_ivp, y = (c1, c2)
    dc1, dc2 = _rhs_factory(P1C, 1.0, spec.mass)(0.0, (50.0, 50.0))
    assert dc1 == 0.0
    dc1, dc2 = _rhs_factory(P1C, 0.0, spec.mass)(0.0, (50.0, 50.0))
    assert dc2 == 0.0
    assert dc1 == pytest.approx(2500 * 8.9872 / 1000, rel=1e-4)
    assert dc1 == pytest.approx(22.47, abs=5e-3)


def test_integrate_zero_horizon(spec):
    s = PlantState(0.0, 50.0, 50.0)
    traj = integrate(s, 0.0, P1C, StopCondition.at_time(0.0), spec)
    assert traj.t.size == 1
    assert traj.final_state() == s


@pytest.mark.parametrize("u,t_end", [(0.0, 2.0), (0.6, 3.0), (1.0, 4.0)])
def test_integrate_vs_rk4_oracle(spec, u, t_end):
    p = PlantParams(20.7233, 3.0, 0.3)
    s = PlantState(0.0, 50.0, 50.0)
    traj = integrate(s, u, p, StopCondition.at_time(t_end), spec, record=False)
    end = traj.final_state()
    _, c1o, c2o, Vo = rk4_integrate(s, u, p, spec, t_end, h=1e-4)
    assert end.c1 == pytest.approx(c1o, rel=1e-5)
    assert end.c2 == pytest.approx(c2o, rel=1e-5)
    # macro-solute conservation: derived volume tracks the integrated one
    assert spec.mass / c1o == pytest.approx(Vo, rel=1e-8)


def test_constant_arcs(spec):
    s = PlantState(0.0, 80.0, 20.0)
    p = PlantParams(20.7233, 3.0, 0.3)
    tr1 = integrate(s, 1.0, p, StopCondition.at_time(1.5), spec)
    assert np.all(np.abs(tr1.c1 / s.c1 - 1.0) <= 1e-10)
    tr0 = integrate(s, 0.0, p, StopCondition.at_time(0.5), spec)
    assert np.all(tr0.c2 == s.c2)


def test_event_localization_tolerance(spec):
    # the ratio stop lies on c1/c2 = 10 to within 1e-6 h of its rate of change
    traj = integrate(START, 0.6, P_GEN, StopCondition.ratio_reached(10.0), spec,
                     record=False)
    end = traj.final_state()
    dc1, dc2 = _rhs_factory(P_GEN, 0.6, spec.mass)(end.t, (end.c1, end.c2))
    slope = (dc1 * end.c2 - end.c1 * dc2) / end.c2 ** 2
    assert slope > 0.0
    assert abs(end.c1 / end.c2 - 10.0) <= 1e-6 * slope


def test_timeout_error():
    spec = ProcessSpec(t_max=1.0)
    s = PlantState(0.0, 50.0, 50.0)
    # c1/c2 = 25 needs c1 = 1250 g/L, beyond the limiting concentration that
    # c1 only approaches asymptotically: never reached
    with pytest.raises(SimulationTimeout):
        integrate(s, 0.0, P1C, StopCondition.ratio_reached(25.0), spec, record=False)


def test_stall_error(spec):
    s = PlantState(0.0, 1500.0, 50.0)  # above the limiting concentration
    with pytest.raises(StallError):
        integrate(s, 0.0, P1C, StopCondition.at_time(1.0), spec, record=False)


def _chain(state, profile, p, stop, spec, *, record=True):
    """Constant arcs in sequence, as the strategies run a policy: each (t_until,
    u) arc stops at t_until, the last at `stop`, joined by Trajectory.concat."""
    parts = []
    for i, (t_until, u) in enumerate(profile):
        seg = stop if i == len(profile) - 1 else StopCondition.at_time(t_until)
        parts.append(integrate(state, u, p, seg, spec, record=record))
        state = parts[-1].final_state()
    return Trajectory.concat(parts)


def test_piecewise_control(spec):
    s = PlantState(0.0, 50.0, 50.0)
    traj = _chain(s, [(1.0, 0.0), (math.inf, 1.0)], P1C, StopCondition.at_time(2.0),
                  spec, record=False)
    end = traj.final_state()
    t_mid, c1m, c2m, _ = rk4_integrate(s, 0.0, P1C, spec, 1.0, h=1e-4)
    _, c1e, c2e, _ = rk4_integrate(PlantState(t_mid, c1m, c2m), 1.0, P1C, spec, 2.0, h=1e-4)
    assert end.c1 == pytest.approx(c1e, rel=1e-5)
    assert end.c2 == pytest.approx(c2e, rel=1e-5)


# --- closed-form integrate against the independent ODE oracle -----------------

P_GEN = PlantParams(20.7233, 3.0, 0.3)
START = PlantState(0.0, 50.0, 50.0)
# a reachable value of each stop kind for each control
STOPS = {
    0.0: {"time": 2.0, "ratio": 4.0},
    0.6: {"time": 3.0, "ratio": 10.0},
    1.0: {"time": 4.0, "ratio": 10.0},
}
CONDITIONS = {"time": StopCondition.at_time, "ratio": StopCondition.ratio_reached}


def _assert_matches_ode(traj, ref, record):
    assert traj.t.size == ref.t.size
    np.testing.assert_allclose(traj.t, ref.t, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(traj.c1, ref.c1, rtol=1e-8)
    np.testing.assert_allclose(traj.c2, ref.c2, rtol=1e-8)
    np.testing.assert_allclose(traj.q, ref.q, rtol=1e-8, atol=1e-10)
    if ref.event_time is None:
        assert traj.event_time is None
    else:
        assert traj.event_time == pytest.approx(ref.event_time, abs=1e-8)
        assert traj.t[-1] == traj.event_time


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("u,kind", [(u, k) for u in STOPS for k in STOPS[u]])
def test_integrate_matches_ode_oracle(spec, u, kind, record):
    value = STOPS[u][kind]
    traj = integrate(START, u, P_GEN, CONDITIONS[kind](value), spec, record=record)
    ref = ode_integrate(START, u, P_GEN, spec, kind, value, record=record)
    _assert_matches_ode(traj, ref, record)


def _ends(traj):
    """The start and stop rows of a trajectory, as raw bytes."""
    return [a[[0, -1]].tobytes() for a in (traj.t, traj.c1, traj.c2, traj.u, traj.q)]


@pytest.mark.parametrize("u", sorted(STOPS))
@pytest.mark.parametrize("kind", ["ratio", "holds_at_start"])
def test_event_stop_ends_bitwise_equal_with_and_without_record(spec, u, kind):
    # record=False takes the exact start and event states without a states()
    # solve; the recorded grid must end on the very same bits.  The start has
    # c1/c2 = 1, so a ratio stop at 0.5 holds there.
    stop = StopCondition.ratio_reached({"ratio": 4.0, "holds_at_start": 0.5}[kind])
    full = integrate(START, u, P_GEN, stop, spec, record=True)
    short = integrate(START, u, P_GEN, stop, spec, record=False)
    assert short.event_time == full.event_time
    if kind == "holds_at_start":
        assert short.t.tolist() == [START.t] and full.t.size == 1
    else:
        assert short.t.size == 2 and full.t.size > 2
    assert _ends(short) == _ends(full)


def test_recorded_grid_is_samples_plus_event(spec):
    traj = integrate(START, 0.6, P_GEN, StopCondition.ratio_reached(10.0), spec)
    n = traj.t.size - 1
    np.testing.assert_array_equal(traj.t[:-1], START.t + spec.dt_h * np.arange(n))
    assert 0.0 < traj.t[-1] - traj.t[-2] <= spec.dt_h
    assert traj.t[-1] == traj.event_time
    assert traj.c1[-1] / traj.c2[-1] == pytest.approx(10.0, rel=1e-13)
    short = integrate(START, 0.6, P_GEN, StopCondition.ratio_reached(10.0), spec,
                      record=False)
    assert short.t.tolist() == [START.t, traj.event_time]
    assert short.final_state() == traj.final_state()


def test_piecewise_profile_with_event_vs_ode(spec):
    profile = [(1.0, 0.0), (2.0, 0.6), (math.inf, 0.9)]
    traj = _chain(START, profile, P_GEN, StopCondition.ratio_reached(100.0), spec)
    state = START
    for (t_until, u), last in zip(profile, (False, False, True)):
        ref = (ode_integrate(state, u, P_GEN, spec, "ratio", 100.0) if last
               else ode_integrate(state, u, P_GEN, spec, "time", t_until))
        state = PlantState(ref.t[-1], ref.c1[-1], ref.c2[-1])
    assert traj.event_time == pytest.approx(ref.event_time, abs=1e-8)
    assert traj.final_state().c1 == pytest.approx(state.c1, rel=1e-8)
    assert traj.final_state().c2 == pytest.approx(state.c2, rel=1e-8)
    # each segment is sampled from its own start, which repeats the end of the
    # segment before it
    steps = np.diff(traj.t)
    assert np.all(steps <= spec.dt_h + 1e-12) and np.sum(steps == 0.0) == 2
    assert np.all(steps >= 0.0)
    assert set(np.unique(traj.u)) == {0.0, 0.6, 0.9}


def test_integrate_error_types(spec):
    near_stall = PlantState(2.5, 225.0, 50.0)
    with pytest.raises(DomainError):
        integrate(START, -0.1, P_GEN, StopCondition.at_time(1.0), spec)
    with pytest.raises(DomainError):
        integrate(START, 1.5, P_GEN, StopCondition.at_time(1.0), spec)
    with pytest.raises(ConfigError):
        integrate(near_stall, 0.0, P_GEN, StopCondition.at_time(1.0), spec)
    for kind, value in (("time", math.nan), ("time", math.inf),
                        ("ratio", 0.0), ("ratio", -1.0), ("c1_target", 200.0)):
        with pytest.raises(ConfigError):
            StopCondition(kind, value)
    with pytest.raises(SimulationTimeout):        # stop time beyond t_max
        integrate(START, 0.0, P_GEN, StopCondition.at_time(spec.t_max + 1.0), spec)
    with pytest.raises(SimulationTimeout):        # event beyond t_max
        integrate(START, 0.0, P_GEN, StopCondition.ratio_reached(4.0),
                  ProcessSpec(t_max=1.0))
    with pytest.raises(SimulationTimeout):        # ratio behind the stall asymptote
        integrate(near_stall, 0.3, P_GEN, StopCondition.ratio_reached(spec.ratio_f), spec)
    with pytest.raises(SimulationTimeout):        # c1 grows without bound first
        integrate(near_stall, 0.95, P_GEN, StopCondition.at_time(50.0), spec)
    with pytest.raises(StallError):
        integrate(PlantState(0.0, 1500.0, 50.0), 0.6, P_GEN,
                  StopCondition.ratio_reached(100.0), spec)


@pytest.mark.parametrize("case_name", ["limiting_flux", "generalized"])
def test_singular_arc_pins_flux_exactly(spec, case_name, request):
    p = request.getfixturevalue("case1" if case_name == "limiting_flux"
                                else "case2").nominal_params(spec)
    plan = plan_vectorized(p.as_array(), spec)
    arc1 = integrate(spec.initial_state(), 0.0, p, StopCondition.at_time(plan["t1"]), spec)
    arc2 = integrate(arc1.final_state(), singular_control(p), p,
                     StopCondition.ratio_reached(spec.ratio_f), spec)
    q_star = p.p2 + p.p3
    assert np.max(np.abs(arc2.q - q_star)) <= 1e-12 * q_star
    assert arc2.event_time == pytest.approx(plan["tf"], abs=1e-12)


def test_dilute_examples():
    s = PlantState(1.0, 367.879, 0.122626)
    assert dilute(s, s.c1) == s
    post = dilute(s, 150.0)
    assert post.c2 == pytest.approx(0.05, rel=1e-3)
    assert post.c1 / post.c2 == pytest.approx(s.c1 / s.c2, rel=1e-12)
    half = dilute(PlantState(0.0, 100.0, 8.0), 50.0)
    assert half.c2 == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(DomainError):
        dilute(s, 400.0)


@given(st.floats(1e-3, 1e4), st.floats(1e-3, 1e4), st.floats(0.01, 1.0))
def test_dilute_preserves_ratio(c1, c2, frac):
    s = PlantState(0.0, c1, c2)
    post = dilute(s, c1 * frac)
    assert post.c1 / post.c2 == pytest.approx(c1 / c2, rel=1e-12)


# the adaptive strategy measures flux(c1, c2, p_true) + NoiseStream.eta(k)
def test_measure_noise_free():
    eta = NoiseStream(np.random.default_rng(0), 0.0).eta(np.arange(5))
    assert eta.tolist() == [0.0] * 5
    assert flux(50.0, 50.0, P1C) + eta[0] == flux(50.0, 50.0, P1C)


def test_measure_seed_replay():
    q = flux(60.0, 40.0, P1C)
    qs1 = q + NoiseStream(np.random.default_rng(7), 0.1).eta(np.arange(100))
    qs2 = q + NoiseStream(np.random.default_rng(7), 0.1).eta(np.arange(100))
    assert qs1.tolist() == qs2.tolist()
    # a sample depends on its index only, not on which samples came before
    stream = NoiseStream(np.random.default_rng(7), 0.1)
    assert (q + stream.eta(np.array([42]))).tolist() == qs1[[42]].tolist()


def test_measure_noise_law():
    eta = NoiseStream(np.random.default_rng(123), 0.1).eta(np.arange(100_000))
    assert np.max(np.abs(eta)) <= 0.1
    assert abs(np.mean(np.abs(eta)) - 0.05) <= 0.002


def test_process_spec_json_roundtrip(tmp_path):
    spec = ProcessSpec(sigma=0.2, dt_sample=60.0)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dataclasses.asdict(spec)))
    assert ProcessSpec.from_json(str(path)) == spec
    path.write_text(json.dumps({"c1_0": 50, "bogus": 1}))
    with pytest.raises(ConfigError):
        ProcessSpec.from_json(str(path))


@pytest.mark.parametrize("kw", [
    {"c1_f": 10.0}, {"c2_f": 60.0}, {"sigma": -0.1},
    {"dt_sample": 0.0}, {"t_max": -1.0}, {"V0": 0.0},
])
def test_process_spec_validation(kw):
    with pytest.raises(ConfigError):
        ProcessSpec(**kw)


def test_sample_grid_is_bounded():
    """More than MAX_SAMPLES sample times up to t_max is a configuration
    error naming both fields; the spec is only constructed, never run."""
    assert ProcessSpec().t_max / ProcessSpec().dt_h == pytest.approx(360_000)
    spec = ProcessSpec(dt_sample=0.05)
    assert 0.5 * MAX_SAMPLES < spec.t_max / spec.dt_h < MAX_SAMPLES
    for kw in ({"dt_sample": 1e-6}, {"t_max": 1e4}, {"t_max": 3e3, "dt_sample": 1e-3}):
        with pytest.raises(ConfigError, match=r"t_max = .* dt_sample = .*10,000,000"):
            ProcessSpec(**kw)


@pytest.mark.parametrize("text, message", [
    ('{"c1_0": "x"}', "c1_0 must be a finite number"),
    ('{"V0": true}', "V0 must be a finite number"),
    ('{"sigma": NaN}', "sigma must be a finite number"),
    ('{"t_max": Infinity}', "t_max must be a finite number"),
    ("[1, 2]", "must be a JSON object"),
], ids=["string", "bool", "nan", "infinity", "not_object"])
def test_process_spec_bad_json_names_file(tmp_path, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as err:
        ProcessSpec.from_json(str(path))
    assert str(path) in str(err.value)


def test_trajectory_csv(tmp_path, spec):
    s = PlantState(0.0, 50.0, 50.0)
    traj = integrate(s, 0.0, P1C, StopCondition.at_time(0.01), spec)
    path = tmp_path / "traj.csv"
    traj.write_csv(str(path), spec)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,c1,c2,V,u,q"
    first = [float(x) for x in lines[1].split(",")]
    assert first == pytest.approx([0.0, 50.0, 50.0, 20.0, 0.0, flux(50, 50, P1C)])
