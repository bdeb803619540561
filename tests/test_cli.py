import argparse
import json
import math
import os
import warnings

import numpy as np
import pytest

from dfrto.cases import CASES
from dfrto.cli import build_parser, main
from dfrto.errors import ConfigError, ModelInvalidatedError
from dfrto.summary import read_results_csv
from dfrto.process import PlantParams, ProcessSpec, flux
from dfrto.setmem import OnlineBoxEstimator, ParamBox


def run(args):
    return main(args)


def test_simulate_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = run(["simulate", "--case", "limiting_flux", "--strategy", "nominal",
              "--seed", "3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,c1,c2,V,u,q"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[1] == pytest.approx(150.0, rel=1e-6)
    assert last[2] == pytest.approx(0.05, rel=1e-6)


def test_simulate_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = run(["simulate", "--case", "generalized", "--strategy", "adaptive",
                  "--seed", "7", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("strategy", ["nominal", "adaptive"])
def test_simulate_reproduces_montecarlo_batch0(tmp_path, capsys, strategy):
    out = tmp_path / "mc.csv"
    rc = run(["montecarlo", "--n", "1", "--seed", "6", "--case", "generalized",
              "--strategies", strategy, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    row = read_results_csv(str(out))[0]
    rc = run(["simulate", "--case", "generalized", "--strategy", strategy, "--seed", "6"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_true"] == pytest.approx([row["p1"], row["p2"], row["p3"]], rel=1e-11)
    assert payload["tf"] == pytest.approx(row["tf"], rel=1e-9)
    assert payload["t1"] == pytest.approx(row["t1"], rel=1e-9)


def test_estimate_roundtrip(tmp_path, capsys):
    # synthesize a measurement file from a known plant
    p = PlantParams(20.7233, 3.0, 0.3)
    rng = np.random.default_rng(2)
    spec = ProcessSpec()
    lines = ["t,q_m,c1,c2"]
    for i, c1 in enumerate(np.linspace(50.0, 220.0, 300)):
        q = flux(c1, 50.0, p) + rng.uniform(-spec.sigma, spec.sigma)
        lines.append(f"{i / 3600.0},{q},{c1},50.0")
    src = tmp_path / "meas.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "boxes.csv"
    rc = run(["estimate", "--input", str(src), "--out", str(out),
              "--case", "generalized"])
    assert rc == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "t,p1_lo,p1_hi,p2_lo,p2_hi,p3_lo,p3_hi"
    assert len(rows) == 301
    last = [float(x) for x in rows[-1].split(",")]
    assert last[1] <= p.p1 <= last[2]
    assert last[3] <= p.p2 <= last[4]
    assert last[5] <= p.p3 <= last[6]
    # nesting along the stream
    first = [float(x) for x in rows[1].split(",")]
    assert first[1] <= last[1] and last[2] <= first[2]


def test_estimate_model_invalidated(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("t,q_m,c1,c2\n0,5.0,50,50\n1,9.0,50,50\n")
    out = tmp_path / "boxes.csv"
    rc = run(["estimate", "--input", str(src), "--out", str(out),
              "--case", "limiting_flux"])
    assert rc == 3
    assert not out.exists()


def test_estimate_model_invalidated_inside_a_block(tmp_path, capsys, monkeypatch):
    """A contradiction after 400 consistent rows, half of them on a moving
    c2 regressor, is found by a block ingest and still exits 3."""
    raised = []
    block = OnlineBoxEstimator.add_rows_stop_on_change

    def spy(self, A, q):
        try:
            return block(self, A, q)
        except ModelInvalidatedError:
            raised.append(A.shape[0])
            raise

    monkeypatch.setattr(OnlineBoxEstimator, "add_rows_stop_on_change", spy)
    p, spec = PlantParams(20.7233, 3.0, 0.3), ProcessSpec()
    rng = np.random.default_rng(3)
    c1 = np.linspace(50.0, 150.0, 400).tolist()
    c2 = np.concatenate([np.full(200, 50.0), np.geomspace(50.0, 5.0, 200)]).tolist()
    q = [float(flux(x1, x2, p) + rng.uniform(-spec.sigma, spec.sigma))
         for x1, x2 in zip(c1, c2)]
    lines = [f"{i / 3600.0},{qi!r},{x1!r},{x2!r}" for i, (qi, x1, x2) in enumerate(zip(q, c1, c2))]
    lines += [lines[-1]] * 3        # repeats move no box
    lines.append(f"1,{q[-1] + 1.0!r},{c1[-1]!r},{c2[-1]!r}")
    src = tmp_path / "late.csv"
    src.write_text("t,q_m,c1,c2\n" + "\n".join(lines) + "\n")
    out = tmp_path / "boxes.csv"
    assert run(["estimate", "--input", str(src), "--out", str(out),
                "--case", "generalized"]) == 3
    assert "model invalidated" in capsys.readouterr().err
    assert raised and raised[0] >= 2
    assert not out.exists()


@pytest.mark.parametrize("row, rc, message", [
    ("0,abc,50,50", 2, "bad.csv:4:"),
    ("0,4.2,50", 2, "bad.csv:4:"),
    ("0,nan,50,50", 2, "bad.csv:4:"),
    ("0,4.2,0,50", 2, "bad.csv:4:"),
    ("0,4.2,50,-1", 2, "c1, c2 > 0"),
])
def test_estimate_bad_row_is_typed(tmp_path, capsys, row, rc, message):
    src = tmp_path / "bad.csv"
    src.write_text(f"t,q_m,c1,c2\n0,9.0,50,50\n  \n{row}\n")
    out = tmp_path / "boxes.csv"
    assert run(["estimate", "--input", str(src), "--out", str(out)]) == rc
    assert message in capsys.readouterr().err


def test_estimate_header_only(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("t,q_m,c1,c2\n\n   \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["estimate", "--input", str(src), "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert "no measurements" in capsys.readouterr().err


def test_reach_json(tmp_path, capsys):
    out = tmp_path / "w.json"
    rc = run(["reach", "--case", "limiting_flux", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert set(payload) == {"t1", "t2", "tf", "us"}
    assert payload["us"] == [1.0, 1.0]
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"lo": [20.7233, 3.0, 0.0], "hi": [20.7233, 3.0, 0.0]}))
    rc = run(["reach", "--box", str(box), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["t1"][1] - payload["t1"][0] <= 2e-6


def test_montecarlo_and_summarize(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    rc = run(["montecarlo", "--n", "2", "--seed", "4", "--case", "limiting_flux",
              "--strategies", "optimal,nominal", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    stats_out = tmp_path / "stats.csv"
    rc = run(["summarize", "--input", str(out), "--out", str(stats_out)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "optimal" in table and "nominal" in table
    assert stats_out.read_text().startswith("strategy,metric,")


def test_montecarlo_byte_identical(tmp_path):
    blobs = []
    for name in ("m1.csv", "m2.csv"):
        out = tmp_path / name
        rc = run(["montecarlo", "--n", "2", "--seed", "8", "--case", "generalized",
                  "--strategies", "optimal,adaptive", "--out", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps({"c1_f": 10.0}))
    rc = run(["simulate", "--case", "limiting_flux", "--config", str(bad)])
    assert rc == 2


def test_oversized_sample_grid_exits_2(tmp_path, capsys):
    """A dt_sample that would grid ~9e9 samples fails as a configuration
    error before any batch runs."""
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"dt_sample": 1e-6}))
    assert run(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "t_max" in err and "dt_sample" in err


@pytest.mark.parametrize("text", ['{"c1_0": "x"}', '{"sigma": NaN}', "[1, 2]"],
                         ids=["string", "nan", "not_object"])
@pytest.mark.parametrize("argv", [["simulate", "--strategy", "adaptive"], ["reach"]],
                         ids=["simulate", "reach"])
def test_bad_config_file_exits_2_naming_it(tmp_path, capsys, text, argv):
    bad = tmp_path / "spec.json"
    bad.write_text(text)
    assert run(argv + ["--config", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["simulate"], ["montecarlo", "--n", "1"]],
                         ids=["simulate", "montecarlo"])
def test_negative_seed_is_config_error(capsys, argv):
    assert run(argv + ["--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["reach"], ["montecarlo", "--n", "1"]],
                         ids=["reach", "montecarlo"])
def test_unsupported_structure_exits_2_naming_the_plant(capsys, argv):
    """The +-20 % prior box holds plants that start below the singular surface
    (p1 lo 16.04, p2 hi 3.6): a configuration the model cannot run."""
    assert run(argv + ["--uncertainty", "0.2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "singular surface for p=[16.04" in err


def test_adaptive_sweep_over_an_unsupported_prior_exits_2(tmp_path, capsys):
    """The +-15 % generalized prior box holds a plant below the singular
    surface.  An adaptive-only sweep used to record each batch as failed and
    exit 0; it now stops before any batch runs or the results CSV opens, and
    names the plant that `reach` names."""
    args = ["--case", "generalized", "--uncertainty", "0.15"]
    assert run(["reach", *args]) == 2
    named = capsys.readouterr().err
    assert "singular surface for p=[17.2" in named
    out = tmp_path / "mc.csv"
    assert run(["montecarlo", *args, "--n", "1", "--strategies", "adaptive",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == named
    assert not out.exists()


def test_empty_strategies_is_config_error(capsys):
    assert run(["montecarlo", "--n", "1", "--strategies", ""]) == 2
    assert "no strategies" in capsys.readouterr().err


def test_timeout_exit_code(tmp_path, capsys):
    """A batch takes ~8 h, so a 3 h cap forces a timeout; the message names
    the stop that t_max cut off, not the plant."""
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"t_max": 3.0}))
    for strategy in ("nominal", "adaptive"):
        rc = run(["simulate", "--case", "limiting_flux", "--strategy", strategy,
                  "--seed", "1", "--config", str(cfg)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "not reached by t_max=3" in err and "over-concentrated" not in err


def test_ratio_target_before_the_singular_surface_exits_2(tmp_path, capsys):
    """A plant whose switch lies past the ratio target c1_f*c2_0/c2_f would
    never reach the singular arc: a prior box holding one (a raised c2_f, or
    a p2 lower bound of 0.01) is a configuration the model cannot run, named
    before any floating-point warning."""
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"c2_f": 25}))
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"lo": [18.0, 0.01, 0.0], "hi": [22.0, 3.3, 0.0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["montecarlo", "--n", "1", "--config", str(cfg)]) == 2
        assert run(["reach", "--config", str(cfg)]) == 2
        assert run(["reach", "--box", str(box)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all("ratio target reached before the singular surface"
                                 " for p=[" in line for line in err)
    assert err[2].endswith("p=[18.0, 0.01, 0.0]")


@pytest.mark.parametrize("content, message", [
    (None, "cannot read parameter box"),
    ("{\"lo\": [1, 2, 3], ", "cannot read parameter box"),
    (json.dumps({"lo": [20.7, 3.0, 0.0]}), "needs 'lo' and 'hi'"),
    ("{\"lo\": [NaN, 3.0, 0.0], \"hi\": [21.0, 3.0, 0.0]}", "finite"),
    ("{\"lo\": [20.7, 3.0, 0.0], \"hi\": [Infinity, 3.0, 0.0]}", "finite"),
    # outside the flux model's domain: log-flux arcs need p2 > 0 and p3 >= 0
    (json.dumps({"lo": [20.0, 0.0, 0.4], "hi": [21.0, 3.0, 0.4]}), "domain"),
    (json.dumps({"lo": [20.7, 3.0, -1.0], "hi": [21.0, 3.1, 0.5]}), "domain"),
], ids=["missing", "invalid_json", "no_hi", "nan", "infinity", "p2_zero",
        "p3_negative"])
def test_reach_bad_box_file_is_config_error(tmp_path, capsys, content, message):
    box = tmp_path / "box.json"
    if content is not None:
        box.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["reach", "--box", str(box)]) == 2
    err = capsys.readouterr().err
    assert message in err and "box.json" in err


def test_strategy_failed_on_every_batch_is_reported(tmp_path, capsys):
    """A 0.01 h cap fails every optimal batch; the sweep still ran and wrote
    its rows, so montecarlo and summarize report n = 0 and the failures."""
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"t_max": 0.01}))
    out, stats = tmp_path / "mc.csv", tmp_path / "stats.csv"
    assert run(["montecarlo", "--n", "1", "--strategies", "optimal", "--config", str(cfg),
                "--out", str(out)]) == 0
    assert run(["summarize", "--input", str(out), "--out", str(stats)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[2].split() == table[-2].split() == [
        "optimal", "tf", "0", *["nan"] * 5, "0", "1"]
    lines = stats.read_text().splitlines()
    assert lines[1:] == [f"optimal,{m},0,1,nan,nan,nan,nan,nan,0,nan,nan"
                         for m in ("tf", "regret")]
    # a results file without rows is still an error
    out.write_text(out.read_text().splitlines()[0] + "\n")
    assert run(["summarize", "--input", str(out)]) == 2
    assert "no results" in capsys.readouterr().err


def test_param_box_rejects_non_finite_bounds():
    with pytest.raises(ConfigError, match="finite"):
        ParamBox((math.nan, 3.0, 0.0), (21.0, 3.0, 0.0))
    with pytest.raises(ConfigError, match="finite"):
        ParamBox((20.0, 3.0, 0.0), (21.0, math.inf, 0.0))


def test_summarize_missing_input_is_config_error(tmp_path, capsys):
    assert run(["summarize", "--input", str(tmp_path / "none.csv")]) == 2
    assert "none.csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--n", "1", "--strategies", "optimal"],
    ["simulate", "--strategy", "optimal"],
    ["estimate", "--input", "{meas}"],
    ["reach"],
    ["summarize", "--input", "{results}"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_config_error(tmp_path, capsys, argv):
    meas = tmp_path / "m.csv"
    meas.write_text("t,q_m,c1,c2\n0,9.0,50,50\n")
    results = tmp_path / "mc.csv"
    assert run(["montecarlo", "--n", "1", "--strategies", "optimal",
                "--out", str(results)]) == 0
    capsys.readouterr()
    bad = str(tmp_path / "missing" / "out.csv")
    argv = [a.format(meas=meas, results=results) for a in argv]
    assert run(argv + ["--out", bad]) == 2
    assert f"config error: cannot write {bad}: " in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["montecarlo", "--n", "1", "--strategies", "optimal"],
    ["simulate", "--strategy", "optimal"],
    ["estimate", "--input", "{meas}"],
    ["reach"],
    ["summarize", "--input", "{results}"],
], ids=lambda argv: argv[0])
def test_failed_write_is_config_error(tmp_path, capsys, argv):
    """An output that opens but cannot be written (a full disk) exits 2 and
    names it, like one that cannot be opened."""
    meas = tmp_path / "m.csv"
    meas.write_text("t,q_m,c1,c2\n0,9.0,50,50\n")
    results = tmp_path / "mc.csv"
    assert run(["montecarlo", "--n", "1", "--strategies", "optimal",
                "--out", str(results)]) == 0
    capsys.readouterr()
    argv = [a.format(meas=meas, results=results) for a in argv]
    assert run(argv + ["--out", "/dev/full"]) == 2
    assert "config error: cannot write /dev/full: " in capsys.readouterr().err


def test_summarize_short_row_is_config_error(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert run(["montecarlo", "--n", "1", "--seed", "4", "--strategies", "optimal",
                "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, "a") as fh:
        fh.write("1,optimal,7,20.7,3.0\n")
    assert run(["summarize", "--input", str(out)]) == 2
    assert "mc.csv:3:" in capsys.readouterr().err


def test_montecarlo_repeated_strategy_is_config_error(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert run(["montecarlo", "--n", "2", "--strategies", "optimal,optimal,nominal",
                "--out", str(out)]) == 2
    assert "more than once: ['optimal']" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_missing_input_is_config_error(tmp_path, capsys):
    rc = run(["estimate", "--input", str(tmp_path / "none.csv"),
              "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert "none.csv" in capsys.readouterr().err


def test_every_case_option_offers_every_case():
    """Each subcommand that takes --case offers exactly the cases of
    dfrto.cases, and its default is one of them.  No command runs."""
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    offered = {}
    for name, sub in commands.items():
        for action in sub._actions:
            if "--case" in action.option_strings:
                offered[name] = (list(action.choices), action.default in action.choices)
    assert offered == {name: (sorted(CASES), True)
                       for name in ("simulate", "estimate", "reach", "montecarlo")}
