"""Monte Carlo experiment runner.

Each batch draws a truth uniformly over the declared gamma-space uncertainty
(always inside the estimator's p-space prior box) and a measurement-noise
stream, both derived from (master_seed, batch index), and runs every requested
strategy against that same truth and stream, so comparisons are paired.
Results stream to CSV ordered by batch index, in the format of dfrto.summary.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .cases import STRATEGIES, UNCERTAINTY_PCT_DEFAULT, get_case
from .errors import ConfigError, DfrtoError, open_output
from .policy import plan_vectorized
from .process import PlantParams, ProcessSpec
from .setmem import ParamBox, scenario_points
from .strategies import (BatchResult, NoiseStream, adaptive_strategy, nominal_decision,
                         nominal_strategy, optimal_strategy, robust_decision,
                         robust_strategy)
from .summary import RESULT_COLUMNS, format_result_row


@dataclass(frozen=True)
class ExperimentConfig:
    case: str = "limiting_flux"
    n_batches: int = 1000
    master_seed: int = 0
    uncertainty_pct: float = UNCERTAINTY_PCT_DEFAULT
    strategies: tuple[str, ...] = STRATEGIES
    out_path: str | None = None

    def __post_init__(self):
        if self.n_batches < 1:
            raise ConfigError("n_batches must be at least 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if not 0.0 < self.uncertainty_pct < 1.0:
            raise ConfigError("uncertainty_pct must lie in (0, 1)")
        if not self.strategies:
            raise ConfigError("no strategies requested")
        bad = set(self.strategies) - set(STRATEGIES)
        if bad:
            raise ConfigError(f"unknown strategies: {sorted(bad)}")
        repeated = sorted({s for s in self.strategies if self.strategies.count(s) > 1})
        if repeated:
            raise ConfigError(f"strategies requested more than once: {repeated}")
        get_case(self.case)


def _batch_draw(cfg: ExperimentConfig, i: int, spec: ProcessSpec) -> tuple[
        int, PlantParams, np.random.SeedSequence]:
    """Batch i's results-CSV seed, true plant and noise seed sequence, all from
    one SeedSequence((master_seed, i)): the seed is its first word, and its two
    spawned children seed the truth and the noise.

    Truths are drawn in gamma space (the declared +-pct uncertainty), which
    always lies inside the enclosing p-space prior box used by the estimator.
    """
    ss = np.random.SeedSequence((cfg.master_seed, i))
    truth, noise = ss.spawn(2)
    p_true = get_case(cfg.case).draw_truth_gamma(np.random.default_rng(truth),
                                                 cfg.uncertainty_pct, spec)
    return int(ss.generate_state(1)[0]), p_true, noise


def make_decisions(cfg: ExperimentConfig, spec: ProcessSpec, P0: ParamBox) -> dict:
    """The commitments of the requested open-loop strategies, shared by every
    batch: nominal at the prior box's midpoint, robust over the case's gamma
    scenarios.  With adaptive requested, a prior box that holds a plant outside
    the concentrate/singular/dilute structure raises UnsupportedStructureError
    here, naming the plant that each adaptive batch would fail on: both bounds
    of that structure (plan_vectorized) are linear in p, so a corner, listed
    first as in project_switch_windows, is outside if any plant is."""
    if "adaptive" in cfg.strategies:
        plan_vectorized(scenario_points(P0.lo_arr(), P0.hi_arr(), 0), spec)
    decisions = {}
    if "nominal" in cfg.strategies:
        decisions["nominal"] = nominal_decision(P0, spec)
    if "robust" in cfg.strategies:
        scen = get_case(cfg.case).gamma_scenarios(spec, cfg.uncertainty_pct)
        decisions["robust"] = robust_decision(P0, spec, scenarios=scen)
    return decisions


def _run_strategy(strat: str, spec: ProcessSpec, P0: ParamBox, decisions: dict,
                  p_true: PlantParams, noise: np.random.SeedSequence, *,
                  record: bool = False) -> BatchResult:
    if strat == "optimal":
        return optimal_strategy(p_true, spec, record=record)
    if strat == "adaptive":     # the only strategy that measures and draws noise
        return adaptive_strategy(P0, p_true, spec, NoiseStream(
            np.random.default_rng(noise), spec.sigma), record=record)
    run = nominal_strategy if strat == "nominal" else robust_strategy
    return run(p_true, spec, decisions[strat], record=record)


def run_batch(cfg: ExperimentConfig, i: int, spec: ProcessSpec, P0: ParamBox,
              decisions: dict) -> tuple[int, list[BatchResult]]:
    """Batch i's results-CSV seed and all requested strategies on its
    truth/noise draw (_batch_draw).

    A strategy that raises is recorded as failed on its own row, here alone:
    timed_out, NaN t1, t2, tf and regret, not feasible and no re-optimization.
    Its paired siblings keep their results.
    """
    seed, p_true, noise = _batch_draw(cfg, i, spec)
    out = []
    for strat in cfg.strategies:
        try:
            out.append(_run_strategy(strat, spec, P0, decisions, p_true, noise))
        except DfrtoError:
            out.append(BatchResult(strat, p_true, math.nan, math.nan, math.nan,
                                   feasible=False, regret=math.nan, timed_out=True))
    return seed, out


def monte_carlo(cfg: ExperimentConfig, spec: ProcessSpec | None = None,
                progress: bool = False) -> list[BatchResult]:
    """Run the paired experiment; stream rows to cfg.out_path when set."""
    spec = spec or ProcessSpec()
    P0 = get_case(cfg.case).prior_box(spec, cfg.uncertainty_pct)
    decisions = make_decisions(cfg, spec, P0)
    results: list[BatchResult] = []
    with open_output(cfg.out_path) if cfg.out_path else contextlib.nullcontext() as sink:
        if sink:
            sink.write(",".join(RESULT_COLUMNS) + "\n")
        for i in range(cfg.n_batches):
            seed_i, batch = run_batch(cfg, i, spec, P0, decisions)
            for res in batch:
                results.append(res)
                if sink:
                    sink.write(format_result_row(i, seed_i, res) + "\n")
            if progress and (i + 1) % 50 == 0:
                print(f"  batch {i + 1}/{cfg.n_batches}", flush=True)
    return results

