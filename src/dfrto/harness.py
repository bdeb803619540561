"""Monte Carlo experiment runner.

Each batch draws a truth uniformly over the declared gamma-space uncertainty
(always inside the estimator's p-space prior box) and a measurement-noise
stream, both derived from (master_seed, batch index), and runs every requested
strategy against that same truth and stream, so comparisons are paired.
Results stream to CSV ordered by batch index; their reader and box-plot
statistics live in dfrto.summary, re-exported here.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .cases import STRATEGIES, UNCERTAINTY_PCT_DEFAULT, get_case
from .errors import ConfigError, DfrtoError, open_output
from .process import PlantParams, ProcessSpec
from .setmem import ParamBox
from .strategies import (BatchResult, NoiseStream, RobustConfig,
                         adaptive_strategy, nominal_decision, nominal_strategy,
                         optimal_strategy, robust_decision, robust_strategy)
from .summary import (RESULT_COLUMNS, MetricStats, SummaryStats,  # noqa: F401
                      read_results_csv, results_to_rows, summarize)


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
        get_case(self.case)


def _batch_seeds(master_seed: int, i: int) -> tuple[int, np.random.SeedSequence,
                                                 np.random.SeedSequence]:
    """Batch i's results-CSV seed and the seed sequences of its truth and of
    its measurement noise, all from one SeedSequence((master_seed, i))."""
    ss = np.random.SeedSequence((master_seed, i))
    truth, noise = ss.spawn(2)
    return int(ss.generate_state(1)[0]), truth, noise


def _run_strategy(strat: str, spec: ProcessSpec, P0: ParamBox, decisions: dict,
                  p_true: PlantParams, noise: np.random.SeedSequence) -> BatchResult:
    if strat == "optimal":
        return optimal_strategy(p_true, spec)
    if strat == "nominal":
        return nominal_strategy(P0, p_true, spec, decision=decisions["nominal"])
    if strat == "robust":
        return robust_strategy(P0, p_true, spec, decision=decisions["robust"])
    # the only strategy that measures, so the only one that draws noise
    return adaptive_strategy(P0, p_true, spec,
                             NoiseStream(np.random.default_rng(noise), spec.sigma))


def run_batch(cfg: ExperimentConfig, i: int, spec: ProcessSpec, P0: ParamBox,
              decisions: dict) -> tuple[int, list[BatchResult]]:
    """Batch i's results-CSV seed and all requested strategies on its
    truth/noise draw.

    Truths are drawn in gamma space (the declared +-pct uncertainty), which
    always lies inside the enclosing p-space prior box used by the estimator.
    A strategy that raises is recorded as failed (timed out, NaN times) on its
    own row; its paired siblings keep their results.
    """
    seed, truth, noise = _batch_seeds(cfg.master_seed, i)
    p_true = get_case(cfg.case).draw_truth_gamma(np.random.default_rng(truth),
                                                 cfg.uncertainty_pct, spec)
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
    case = get_case(cfg.case)
    P0 = case.prior_box(spec, cfg.uncertainty_pct)
    decisions = {}
    if "nominal" in cfg.strategies or "robust" in cfg.strategies:
        decisions["nominal"] = nominal_decision(P0, spec)
    if "robust" in cfg.strategies:
        scen = case.gamma_scenarios(spec, cfg.uncertainty_pct)
        decisions["robust"] = robust_decision(P0, spec, RobustConfig(), scenarios=scen)
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


def format_result_row(batch_id: int, seed: int, r: BatchResult) -> str:
    p = r.p_true
    return (f"{batch_id},{r.strategy},{seed},{p.p1:.12g},{p.p2:.12g},{p.p3:.12g},"
            f"{r.t1:.10g},{r.t2:.10g},{r.tf:.10g},{r.regret:.10g},"
            f"{int(r.feasible)},{r.reopt_count}")
