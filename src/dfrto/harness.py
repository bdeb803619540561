"""Monte Carlo experiment runner and box-plot statistics.

Each batch draws a truth uniformly over the declared gamma-space uncertainty
(always inside the estimator's p-space prior box) and a measurement-noise
stream, both derived from (master_seed, batch index), and runs every requested
strategy against that same truth and stream, so comparisons are paired.
Results stream to CSV ordered by batch index; summaries follow the Tukey
box-plot convention (whiskers at 1.5 IQR, points beyond are outliers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cases import UNCERTAINTY_PCT_DEFAULT, get_case
from .errors import ConfigError, DfrtoError
from .process import PlantParams, ProcessSpec
from .setmem import ParamBox
from .strategies import (BatchResult, NoiseStream, RobustConfig,
                         adaptive_strategy, nominal_decision, nominal_strategy,
                         optimal_strategy, robust_decision, robust_strategy)

STRATEGIES = ("optimal", "nominal", "robust", "adaptive")

RESULT_COLUMNS = ("batch_id", "strategy", "seed", "p1", "p2", "p3",
                  "t1", "t2", "tf", "regret", "feasible", "reopt_count")


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
    sink = open(cfg.out_path, "w") if cfg.out_path else None
    try:
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
    finally:
        if sink:
            sink.close()
    return results


def format_result_row(batch_id: int, seed: int, r: BatchResult) -> str:
    p = r.p_true
    return (f"{batch_id},{r.strategy},{seed},{p.p1:.12g},{p.p2:.12g},{p.p3:.12g},"
            f"{r.t1:.10g},{r.t2:.10g},{r.tf:.10g},{r.regret:.10g},"
            f"{int(r.feasible)},{r.reopt_count}")


def read_results_csv(path: str) -> list[dict]:
    """Rows of a results CSV; a missing file or a malformed row raises
    ConfigError naming the file (and the line)."""
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read results {path!r}: {exc}") from exc
    rows = []
    with fh:
        header = fh.readline().strip().split(",")
        if header != list(RESULT_COLUMNS):
            raise ConfigError(f"unexpected results header in {path!r}: {header}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rows.append(_parse_result_row(line.strip().split(",")))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed results row "
                                  f"{line.rstrip()!r}: {exc}") from exc
    return rows


def _parse_result_row(vals: list[str]) -> dict:
    """One results row with typed values; ValueError if it is malformed."""
    if len(vals) != len(RESULT_COLUMNS):
        raise ValueError(f"{len(vals)} fields, expected {len(RESULT_COLUMNS)}")
    row = dict(zip(RESULT_COLUMNS, vals))
    for key in ("p1", "p2", "p3", "t1", "t2", "tf", "regret"):
        row[key] = float(row[key])
    row["batch_id"] = int(row["batch_id"])
    row["seed"] = int(row["seed"])
    row["feasible"] = bool(int(row["feasible"]))
    row["reopt_count"] = int(row["reopt_count"])
    return row


def results_to_rows(results: list[BatchResult]) -> list[dict]:
    """In-memory results as summary-ready dict rows (batch ids inferred)."""
    if not results:
        return []
    strategies = []
    for r in results:
        if r.strategy in strategies:
            break
        strategies.append(r.strategy)
    per = len(strategies)
    rows = []
    for j, r in enumerate(results):
        rows.append({"batch_id": j // per, "strategy": r.strategy,
                     "tf": r.tf, "regret": r.regret, "feasible": r.feasible,
                     "reopt_count": r.reopt_count})
    return rows


# --- statistics ------------------------------------------------------------------

@dataclass(frozen=True)
class MetricStats:
    strategy: str
    metric: str
    n: int
    n_failed: int
    median: float
    q25: float
    q75: float
    whisker_lo: float
    whisker_hi: float
    n_outliers: int
    lo: float
    hi: float


@dataclass(frozen=True)
class SummaryStats:
    rows: tuple[MetricStats, ...]

    def get(self, strategy: str, metric: str) -> MetricStats:
        for r in self.rows:
            if r.strategy == strategy and r.metric == metric:
                return r
        raise KeyError((strategy, metric))

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("strategy,metric,n,n_failed,median,q25,q75,"
                     "whisker_lo,whisker_hi,n_outliers,min,max\n")
            for r in self.rows:
                fh.write(f"{r.strategy},{r.metric},{r.n},{r.n_failed},"
                         f"{r.median:.10g},{r.q25:.10g},{r.q75:.10g},"
                         f"{r.whisker_lo:.10g},{r.whisker_hi:.10g},"
                         f"{r.n_outliers},{r.lo:.10g},{r.hi:.10g}\n")

    def to_table(self) -> str:
        head = (f"{'strategy':10s} {'metric':7s} {'n':>5s} {'median':>10s} "
                f"{'q25':>10s} {'q75':>10s} {'whisk_lo':>10s} {'whisk_hi':>10s} "
                f"{'outl':>5s} {'fail':>5s}")
        lines = [head, "-" * len(head)]
        for r in self.rows:
            lines.append(f"{r.strategy:10s} {r.metric:7s} {r.n:5d} {r.median:10.4f} "
                         f"{r.q25:10.4f} {r.q75:10.4f} {r.whisker_lo:10.4f} "
                         f"{r.whisker_hi:10.4f} {r.n_outliers:5d} {r.n_failed:5d}")
        return "\n".join(lines)


def _tukey(strategy: str, metric: str, values: np.ndarray, n_failed: int) -> MetricStats:
    q25, med, q75 = (float(np.percentile(values, q)) for q in (25.0, 50.0, 75.0))
    iqr = q75 - q25
    lo_fence, hi_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    whisk_lo = float(inside.min()) if inside.size else q25
    whisk_hi = float(inside.max()) if inside.size else q75
    n_out = int(np.sum((values < whisk_lo) | (values > whisk_hi)))
    return MetricStats(strategy, metric, int(values.size), n_failed, med, q25, q75,
                       whisk_lo, whisk_hi, n_out, float(values.min()), float(values.max()))


def summarize(rows) -> SummaryStats:
    """Per-strategy Tukey statistics of batch time and regret.

    Accepts result dict-rows (from CSV or results_to_rows) or BatchResult
    lists.  Failed batches (NaN times) are excluded from the quantiles and
    counted separately.
    """
    if not rows:
        raise ConfigError("no results to summarize")
    if isinstance(rows[0], BatchResult):
        rows = results_to_rows(rows)
    stats: list[MetricStats] = []
    strategies = []
    for row in rows:
        if row["strategy"] not in strategies:
            strategies.append(row["strategy"])
    for strat in strategies:
        for metric in ("tf", "regret"):
            vals = np.array([row[metric] for row in rows if row["strategy"] == strat])
            good = vals[np.isfinite(vals)]
            n_failed = int(vals.size - good.size)
            if good.size == 0:
                raise ConfigError(f"all batches failed for strategy {strat!r}")
            stats.append(_tukey(strat, metric, good, n_failed))
    return SummaryStats(tuple(stats))
