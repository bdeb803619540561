"""Results CSVs and their Tukey box-plot statistics (whiskers at 1.5 IQR,
points beyond are outliers), with no scipy for `dfrto summarize`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, open_output

RESULT_COLUMNS = ("batch_id", "strategy", "seed", "p1", "p2", "p3",
                  "t1", "t2", "tf", "regret", "feasible", "reopt_count")


def format_result_row(batch_id: int, seed: int, r) -> str:
    """The results-CSV row of one strategies.BatchResult."""
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


def results_to_rows(results) -> list[dict]:
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
        with open_output(path) as fh:
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
    if not values.size:         # every batch failed: no statistics
        return MetricStats(strategy, metric, 0, n_failed, *[np.nan] * 5, 0,
                           np.nan, np.nan)
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

    Accepts result dict-rows (from CSV or results_to_rows) or lists of
    strategies.BatchResult.  Failed batches (NaN times) are excluded from the
    quantiles and counted separately; a strategy whose batches all failed gets
    n = 0 and NaN statistics.  No rows at all is a ConfigError.
    """
    if not rows:
        raise ConfigError("no results to summarize")
    if not isinstance(rows[0], dict):
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
            stats.append(_tukey(strat, metric, good, n_failed))
    return SummaryStats(tuple(stats))
