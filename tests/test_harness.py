import math

import numpy as np
import pytest
from scipy import stats as sps

from dfrto import harness
from dfrto.cases import get_case
from dfrto.errors import ConfigError, StallError
from dfrto.harness import ExperimentConfig, monte_carlo
from dfrto.process import ProcessSpec
from dfrto.setmem import ParamBox
from dfrto.summary import read_results_csv, summarize
from oracles import draw_truth


def test_draw_truth_zero_width_box():
    box = ParamBox((20.0, 3.0, 0.3), (20.0, 3.0, 0.3))
    p = draw_truth(box, np.random.default_rng(0))
    assert p.as_array() == pytest.approx([20.0, 3.0, 0.3])


def test_draw_truth_seed_replay():
    box = ParamBox((18.0, 2.7, 0.1), (23.0, 3.3, 0.4))
    a = draw_truth(box, np.random.default_rng(123))
    b = draw_truth(box, np.random.default_rng(123))
    assert a == b


def test_draw_truth_uniformity():
    box = ParamBox((18.0, 2.7, 0.1), (23.0, 3.3, 0.4))
    rng = np.random.default_rng(7)
    draws = np.array([draw_truth(box, rng).as_array() for _ in range(100_000)])
    lo, hi = box.lo_arr(), box.hi_arr()
    assert np.all(draws >= lo) and np.all(draws <= hi)
    for j in range(3):
        u = (draws[:, j] - lo[j]) / (hi[j] - lo[j])
        assert sps.kstest(u, "uniform").pvalue > 0.01


def test_summarize_single_value():
    rows = [{"strategy": "optimal", "tf": 8.0, "regret": 0.0, "feasible": True,
             "reopt_count": 0}]
    stats = summarize(rows)
    r = stats.get("optimal", "tf")
    assert r.median == r.q25 == r.q75 == 8.0
    assert r.n_outliers == 0


def test_summarize_quantile_rule():
    rows = [{"strategy": "s", "tf": float(v), "regret": 0.0, "feasible": True,
             "reopt_count": 0} for v in range(1, 101)]
    r = summarize(rows).get("s", "tf")
    assert r.median == pytest.approx(50.5)
    assert r.q25 == pytest.approx(25.75)
    assert r.q75 == pytest.approx(75.25)


def test_summarize_tukey_outliers():
    vals = [1.0] * 20 + [50.0]
    rows = [{"strategy": "s", "tf": v, "regret": 0.0, "feasible": True,
             "reopt_count": 0} for v in vals]
    r = summarize(rows).get("s", "tf")
    assert r.n_outliers == 1
    assert r.whisker_hi == 1.0


def test_summarize_empty_errors():
    with pytest.raises(ConfigError):
        summarize([])


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n_batches=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(uncertainty_pct=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(strategies=("bogus",))
    with pytest.raises(ConfigError):
        ExperimentConfig(case="nope")


def test_config_rejects_negative_seed_and_no_strategies():
    with pytest.raises(ConfigError, match="master_seed"):
        ExperimentConfig(master_seed=-1)
    with pytest.raises(ConfigError, match="no strategies"):
        ExperimentConfig(strategies=())


def test_config_rejects_repeated_strategy():
    # a repeated strategy would write each of its rows twice and double its n
    with pytest.raises(ConfigError, match=r"more than once: \['optimal'\]"):
        ExperimentConfig(n_batches=2, strategies=("optimal", "optimal", "nominal"))


def test_monte_carlo_near_point_box_ties(spec):
    cfg = ExperimentConfig(case="generalized", n_batches=1, master_seed=3,
                           uncertainty_pct=1e-9)
    res = monte_carlo(cfg)
    tfs = [r.tf for r in res]
    assert max(tfs) - min(tfs) <= 2e-3


def test_monte_carlo_pairing_and_csv(tmp_path):
    out = tmp_path / "r.csv"
    cfg = ExperimentConfig(case="limiting_flux", n_batches=3, master_seed=11,
                           out_path=str(out))
    res = monte_carlo(cfg)
    rows = read_results_csv(str(out))
    assert len(rows) == 12
    for i in range(3):
        batch = [r for r in rows if r["batch_id"] == i]
        assert len({(r["p1"], r["p2"], r["p3"]) for r in batch}) == 1
        assert len({r["seed"] for r in batch}) == 1
    # paired comparison: adaptive and optimal share the same truth
    regs = {r["strategy"]: r["regret"] for r in rows if r["batch_id"] == 0}
    assert regs["optimal"] == pytest.approx(0.0, abs=1e-5)


def test_monte_carlo_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = ExperimentConfig(case="generalized", n_batches=2, master_seed=5,
                               out_path=str(out))
        monte_carlo(cfg)
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("case", ["limiting_flux", "generalized"])
def test_shorter_sweep_is_a_byte_prefix(tmp_path, case):
    """Batch i depends only on (master seed, i), so at one master seed the
    results CSV of 3 batches is a byte prefix of the CSV of 12 batches, for
    all four strategies.  The benchmark's recheck relies on this."""
    blobs = []
    for n in (3, 12):
        out = tmp_path / f"{n}.csv"
        monte_carlo(ExperimentConfig(case=case, n_batches=n, master_seed=31,
                                     out_path=str(out)))
        blobs.append(out.read_bytes())
    short, full = blobs
    assert short.count(b"\n") == 1 + 3 * 4 and full.count(b"\n") == 1 + 12 * 4
    assert full.startswith(short)
    assert {r["strategy"] for r in read_results_csv(str(tmp_path / "3.csv"))} \
        == set(harness.STRATEGIES)


def test_batch_seed_truth_and_noise_come_from_one_seed_sequence():
    """The CSV seed of batch i is the first word of SeedSequence((master seed,
    i)); its truth and noise generators are seeded by that sequence's two
    spawned children."""
    cfg = ExperimentConfig(case="generalized", master_seed=31)
    seed, p_true, noise = harness._batch_draw(cfg, 4, ProcessSpec())
    ss = np.random.SeedSequence((31, 4))
    assert seed == int(ss.generate_state(1)[0])
    truth, want_noise = ss.spawn(2)
    assert p_true == get_case("generalized").draw_truth_gamma(
        np.random.default_rng(truth), cfg.uncertainty_pct, ProcessSpec())
    assert noise.generate_state(4).tolist() == want_noise.generate_state(4).tolist()


def test_summary_pure_function_of_csv(tmp_path):
    out = tmp_path / "r.csv"
    cfg = ExperimentConfig(case="limiting_flux", n_batches=2, master_seed=9,
                           out_path=str(out))
    res = monte_carlo(cfg)
    from_mem = summarize(res)
    from_csv = summarize(read_results_csv(str(out)))
    for r_m, r_c in zip(from_mem.rows, from_csv.rows):
        assert r_m.strategy == r_c.strategy and r_m.metric == r_c.metric
        assert r_m.median == pytest.approx(r_c.median, rel=1e-9)
        assert r_m.q25 == pytest.approx(r_c.q25, rel=1e-9)
        assert r_m.whisker_hi == pytest.approx(r_c.whisker_hi, rel=1e-9)


def test_stats_csv_roundtrip(tmp_path):
    rows = [{"strategy": "s", "tf": float(v), "regret": 0.1, "feasible": True,
             "reopt_count": 0} for v in range(1, 11)]
    stats = summarize(rows)
    path = tmp_path / "stats.csv"
    stats.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("strategy,metric,n,")
    assert len(lines) == 3
    assert stats.to_table().count("\n") >= 3


def test_one_strategy_failure_keeps_paired_rows(monkeypatch):
    cfg = ExperimentConfig(case="limiting_flux", n_batches=2, master_seed=11)
    clean = monte_carlo(cfg)

    def stall(*args, **kwargs):
        raise StallError("flux reached zero")

    monkeypatch.setattr(harness, "adaptive_strategy", stall)
    broken = monte_carlo(cfg)
    assert [r.strategy for r in broken] == [r.strategy for r in clean]
    for a, b in zip(clean, broken):
        assert b.p_true == a.p_true
        if a.strategy == "adaptive":
            assert b.timed_out and not b.feasible and math.isnan(b.tf)
        else:
            assert not b.timed_out
            assert (b.t1, b.tf, b.regret, b.feasible) == (a.t1, a.tf, a.regret, a.feasible)
