import json

import numpy as np
import pytest

from dfrto.errors import UnsupportedStructureError
from dfrto.policy import plan_vectorized, singular_control
from dfrto.process import TOL_EVENT
from dfrto.reach import project_switch_windows, project_u_band
from dfrto.setmem import ParamBox


def _point_box(p):
    arr = p.as_array()
    return ParamBox.from_arrays(arr, arr)


def test_u_band_point_box(p_nom2):
    box = _point_box(p_nom2)
    lo, hi = project_u_band(box)
    assert lo == hi == pytest.approx(singular_control(p_nom2))


def test_u_band_no_micro_solute_term(case1, spec):
    box = case1.prior_box(spec)
    assert project_u_band(box) == (1.0, 1.0)


def test_u_band_formula_vs_sampling():
    # p2 certain, p3 = 3*gamma3 with gamma3 in [0.09, 0.11]
    box = ParamBox((20.0, 3.0, 3 * 0.09), (21.5, 3.0, 3 * 0.11))
    lo, hi = project_u_band(box)
    assert lo == pytest.approx(1 / 1.11, rel=1e-12)
    assert hi == pytest.approx(1 / 1.09, rel=1e-12)
    rng = np.random.default_rng(0)
    samples = rng.uniform(box.lo_arr(), box.hi_arr(), size=(10_000, 3))
    us = samples[:, 1] / (samples[:, 1] + samples[:, 2])
    assert us.min() >= lo - 1e-12 and us.max() <= hi + 1e-12
    assert us.min() == pytest.approx(lo, abs=2e-4)
    assert us.max() == pytest.approx(hi, abs=2e-4)


def test_point_box_windows_collapse(p_nom1, spec):
    w = project_switch_windows(_point_box(p_nom1), spec)
    t1 = plan_vectorized(p_nom1.as_array(), spec)["t1"]
    assert w.t1[1] - w.t1[0] <= 2 * TOL_EVENT
    assert w.t1[0] <= t1 <= w.t1[1]
    assert t1 == pytest.approx(2.625, rel=0.10)
    assert w.tf[1] - w.tf[0] <= 2 * TOL_EVENT


def test_containment_monte_carlo(case1, spec):
    box = case1.prior_box(spec)
    w = project_switch_windows(box, spec)
    rng = np.random.default_rng(1)
    draws = rng.uniform(box.lo_arr(), box.hi_arr(), size=(1000, 3))
    plan = plan_vectorized(draws, spec)
    assert np.all(plan["t1"] >= w.t1[0]) and np.all(plan["t1"] <= w.t1[1])
    assert np.all(plan["tf"] >= w.tf[0]) and np.all(plan["tf"] <= w.tf[1])
    assert np.all(plan["us"] >= w.u_band[0] - 1e-12)
    assert np.all(plan["us"] <= w.u_band[1] + 1e-12)


def test_monotone_shrinkage(case2, spec):
    box = case2.prior_box(spec)
    mid = box.mid().as_array()
    inner = ParamBox.from_arrays(mid + 0.5 * (box.lo_arr() - mid),
                                 mid + 0.5 * (box.hi_arr() - mid))
    w_outer = project_switch_windows(box, spec)
    w_inner = project_switch_windows(inner, spec)
    for name in ("t1", "t2", "tf", "u_band"):
        lo_o, hi_o = getattr(w_outer, name)
        lo_i, hi_i = getattr(w_inner, name)
        assert lo_o <= lo_i and hi_i <= hi_o


def test_unsupported_structure_box(spec):
    # boxes reaching below the singular surface at the initial state; the
    # error names a scenario row of the box that starts there
    box = ParamBox((10.0, 3.0, 0.0), (24.0, 3.6, 0.1))
    with pytest.raises(UnsupportedStructureError, match=r"p=\[10\.0, ") as err:
        project_switch_windows(box, spec)
    assert "singular surface" in str(err.value)


def test_windows_json_roundtrip(tmp_path, case2, spec):
    w = project_switch_windows(case2.prior_box(spec), spec)
    path = tmp_path / "w.json"
    text = w.to_json(str(path))
    assert path.read_text() == text
    back = json.loads(text)
    assert [tuple(back[k]) for k in ("t1", "t2", "tf", "us")] == [w.t1, w.t2, w.tf, w.u_band]


def test_projection_deterministic(case2, spec):
    box = case2.prior_box(spec)
    assert project_switch_windows(box, spec) == project_switch_windows(box, spec)
