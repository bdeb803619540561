"""One measurement of a perfbench workload, in a fresh interpreter.

run.py starts this script; it prints one JSON object as its last line.

  worker.py setup  --workload W --root R
      times `import dfrto.cli` plus the one-off work before the first batch.
  worker.py timed  --workload W --root R --seed N --seconds S
      runs chunks of the workload until S seconds have passed; no tracing.
  worker.py traced --workload W --root R --seed N [--recount]
      runs each of the workload's trace chunks untraced and then traced.
      --recount runs chunk 0 traced only and reports only its counters.

A chunk of a sweep is one `monte_carlo` call on `chunk` batches with master
seed 1000*seed + chunk index; a chunk of estimate_replay is one measurement
stream.  Inputs depend only on (seed, chunk index), so a slower or faster
program sees the same sequence and only gets further along it.  Each
`monte_carlo` call makes its own nominal and robust decisions, so a sweep's
batches_per_s includes one decision per chunk of the fixed size below
(about 1% of a chunk's time on open_loop_limiting, 3% on
closed_loop_generalized).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

MIN_CHUNKS = 3
REGRET_FLOOR_H = -1e-6   # no strategy may beat the clairvoyant plan


@dataclass(frozen=True)
class Workload:
    case: str
    strategies: tuple[str, ...] = ()   # empty: estimate_replay
    chunk: int = 1                     # batches per monte_carlo call
    recheck: int = 0                   # batches of chunk 0 run again and compared
    trace_chunks: int = 1
    # per-layer metrics (name prefixes) of layers the workload never reaches;
    # they read 0, and any other metric without spans is an error
    unused: tuple[str, ...] = ()


ALL4 = ("optimal", "nominal", "robust", "adaptive")
NO_ESTIMATE = ("cli.estimate", "setmem.add.calls", "setmem.read_measurements_csv",
               "setmem.write_boxes_csv", "rows_per_s", "box_rel_width")
WORKLOADS = {
    # The paper's headline experiment; the adaptive loop and block ingest
    # into setmem dominate.
    "closed_loop_generalized": Workload("generalized", ALL4, chunk=12, recheck=2,
                                        trace_chunks=2, unused=NO_ESTIMATE),
    # Open-loop strategies only: process.integrate dominates, setmem and the
    # adaptive loop never run.
    "open_loop_limiting": Workload(
        "limiting_flux", ALL4[:3], chunk=120, recheck=20, trace_chunks=3,
        unused=NO_ESTIMATE + ("setmem.", "strategies.adaptive.", "strategies.solve_ivp.",
                              "reach.t1_width_h_p50", "regret_p50_s.adaptive",
                              "regret_p90_s.adaptive")),
    # `dfrto estimate` on generated full-batch streams: one setmem `add` per row.
    "estimate_replay": Workload(
        "generalized", trace_chunks=4,
        unused=("strategies.", "process.", "policy.", "reach.", "harness.", "regret_",
                "setmem.add_rows", "setmem.box_changes")),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_and_remove(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


class Runner:
    """Runs chunks of one workload and checks their outputs."""

    def __init__(self, name: str, seed: int, work: str, tracer=None):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.program_s = 0.0        # time inside dfrto calls
        self.batches = 0            # sweep batches, or streams, completed
        self.rows = 0               # measurements through `dfrto estimate`
        self.digests: dict[int, str] = {}
        self.regret_s: dict[str, list[float]] = {s: [] for s in ALL4}
        self.box_rel_width: list[float] = []

    def _fail(self, n: int, what: str) -> None:
        self.failed += n
        print(f"perfbench: {self.name} seed {self.seed}: {what}", file=sys.stderr)

    def _call(self, span: str, fn, *args):
        """fn(*args) and its duration, inside a span when tracing."""
        i = self.tracer.begin(span) if self.tracer and self.tracer.active else None
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = perf_counter() - t0
            if i is not None:
                self.tracer.finish(i)
        return out, dt

    def _checking(self):
        """Work done only to check outputs is never traced."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def run_chunk(self, c: int, check: bool = True) -> float:
        """Run chunk c and return the time spent in dfrto.

        With check=False the outputs are only compared with an earlier pass.
        """
        if self.tracer is not None:
            self.tracer.chunk_id = c
        n_ops = self.w.chunk * len(self.w.strategies) if self.w.strategies else 1
        self.attempted += n_ops
        before = self.program_s
        try:
            if self.w.strategies:
                self._sweep(c, check)
            else:
                self._replay(c, check)
        except Exception:
            traceback.print_exc()
            self._fail(n_ops, f"chunk {c} raised")
        return self.program_s - before

    # --- sweeps -----------------------------------------------------------------

    def _monte_carlo(self, c: int, n: int):
        from dfrto.harness import ExperimentConfig, monte_carlo
        path = os.path.join(self.work, f"{self.name}-{self.seed}-{c}-{os.getpid()}.csv")
        cfg = ExperimentConfig(case=self.w.case, strategies=self.w.strategies,
                               n_batches=n, master_seed=1000 * self.seed + c,
                               out_path=path)
        results, dt = self._call("harness.monte_carlo", monte_carlo, cfg)
        return results, dt, _read_and_remove(path)

    def _sweep(self, c: int, check: bool) -> None:
        results, dt, csv = self._monte_carlo(c, self.w.chunk)
        self.program_s += dt
        self.batches += self.w.chunk
        bad = [r for r in results
               if r.timed_out or not r.feasible or not r.regret >= REGRET_FLOOR_H]
        if bad:
            self._fail(len(bad), f"chunk {c}: {len(bad)} rows timed out, infeasible "
                                 f"or below the clairvoyant time")
        self._same_output(c, csv)
        if not check:
            return
        for r in results:
            if math.isfinite(r.regret):
                self.regret_s[r.strategy].append(r.regret * 3600.0)
        if c == 0 and self.w.recheck:
            # the same seed must give the same bytes; batch i depends only on
            # (master seed, i), so a shorter run reproduces a prefix
            n_ops = self.w.recheck * len(self.w.strategies)
            self.attempted += n_ops
            with self._checking():
                _, _, again = self._monte_carlo(c, self.w.recheck)
            prefix = b"".join(csv.splitlines(keepends=True)[: 1 + n_ops])
            if again != prefix:
                self._fail(n_ops, "results CSV differs between two runs at one seed")

    def _same_output(self, c: int, data: bytes) -> None:
        d = _digest(data)
        if self.digests.setdefault(c, d) != d:
            self._fail(1, f"chunk {c}: output differs from the earlier pass")

    # --- estimate_replay --------------------------------------------------------------

    def _replay(self, c: int, check: bool) -> None:
        import numpy as np
        import streams
        from dfrto.cli import main

        truth, rows = streams.make_stream(self.seed, c)
        stem = os.path.join(self.work, f"{self.name}-{self.seed}-{c}-{os.getpid()}")
        streams.write_csv(stem + ".meas.csv", rows)
        out = io.StringIO()
        argv = ["estimate", "--input", stem + ".meas.csv", "--out", stem + ".bounds.csv",
                "--case", self.w.case]
        with contextlib.redirect_stdout(out):
            rc, dt = self._call("cli.estimate", main, argv)
        os.remove(stem + ".meas.csv")
        n = rows.shape[0]
        self.program_s += dt
        self.batches += 1
        self.rows += n
        if rc != 0:
            self._fail(1, f"stream {c}: dfrto estimate exited with {rc}")
            return
        bounds = _read_and_remove(stem + ".bounds.csv")
        self._same_output(c, bounds)
        if not check:
            return
        from dfrto.cases import get_case
        from dfrto.process import ProcessSpec
        from dfrto.setmem import OnlineBoxEstimator

        spec = ProcessSpec()
        bulk = OnlineBoxEstimator(get_case(self.w.case).prior_box(spec), spec.sigma)
        with self._checking():
            bulk.add_rows(np.column_stack([np.ones(n), [-math.log(x) for x in rows[:, 2]],
                                           [-math.log(x) for x in rows[:, 3]]]), rows[:, 1])
        lo, hi = bulk.box.lo, bulk.box.hi
        final = ",".join(f"{v:.10g}" for v in (rows[-1, 0], lo[0], hi[0], lo[1], hi[1],
                                                  lo[2], hi[2]))
        lines = bounds.decode().splitlines()
        problems = []
        if not out.getvalue().startswith(f"{n} measurements"):
            problems.append("reported measurement count is wrong")
        if len(lines) != n + 1 or lines[-1] != final:
            problems.append("final box differs from one bulk add_rows")
        if not bulk.box.contains(truth):
            problems.append("final box misses the generating truth")
        if problems:
            self._fail(1, f"stream {c}: " + "; ".join(problems))
        mid = 0.5 * (bulk.box.lo_arr() + bulk.box.hi_arr())
        self.box_rel_width.append(float(np.sum(bulk.box.widths() / mid)))

    def quality(self) -> dict[str, float]:
        """Regret and box metrics; a metric without samples is left out."""
        import numpy as np
        out = {}
        for s in ("nominal", "robust", "adaptive"):
            r = np.array(self.regret_s[s])
            if r.size:
                out[f"regret_p50_s.{s}"] = float(np.percentile(r, 50))
                out[f"regret_p90_s.{s}"] = float(np.percentile(r, 90))
        if self.regret_s["optimal"]:
            out["regret_max_s.optimal"] = float(np.max(np.abs(self.regret_s["optimal"])))
        if self.box_rel_width:
            out["box_rel_width"] = float(np.mean(self.box_rel_width))
        return out


def _import_cli(root: str) -> float:
    t0 = perf_counter()
    import dfrto.cli
    dt = perf_counter() - t0
    src = os.path.realpath(os.path.join(root, "src"))
    if os.path.commonpath([src, os.path.realpath(dfrto.cli.__file__)]) != src:
        raise SystemExit(f"dfrto imported from {dfrto.cli.__file__}, not from {src}")
    return dt


def _environment() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def cmd_setup(args) -> dict:
    w = WORKLOADS[args.workload]
    t0 = perf_counter()
    import_s = _import_cli(args.root)
    from dfrto.cases import get_case
    from dfrto.process import ProcessSpec
    spec = ProcessSpec()
    case = get_case(w.case)
    P0 = case.prior_box(spec)
    if w.strategies:
        from dfrto.strategies import RobustConfig, nominal_decision, robust_decision
        nominal_decision(P0, spec)
        robust_decision(P0, spec, RobustConfig(), scenarios=case.gamma_scenarios(spec))
    return {"setup_s": perf_counter() - t0, "import_s": import_s}


def cmd_timed(args) -> dict:
    _import_cli(args.root)
    run = Runner(args.workload, args.seed, args.work)
    rates = []
    t0 = perf_counter()
    c = 0
    while c < MIN_CHUNKS or perf_counter() - t0 < args.seconds:
        done = run.batches
        dt = run.run_chunk(c)
        rates.append((run.batches - done) / dt if dt > 0 else 0.0)
        c += 1
    return {"attempted": run.attempted, "failed": run.failed,
            "batches_per_s": run.batches / run.program_s if run.program_s > 0 else 0.0,
            "chunk_rates": rates, "env": _environment()}


def cmd_traced(args) -> dict:
    import_s = _import_cli(args.root)
    from tracing import Tracer
    tracer = Tracer()
    run = Runner(args.workload, args.seed, args.work, tracer)
    chunks = 1 if args.recount else run.w.trace_chunks
    tracer.install()
    ratios, reference_s = [], 0.0
    try:
        for c in range(chunks):
            # each chunk runs untraced, then traced, so drift hits both alike
            if not args.recount:
                reference_s += (plain := run.run_chunk(c))
            tracer.active = True
            traced_s = run.run_chunk(c, check=args.recount)
            tracer.active = False
            # chunk 0 of the untraced pass also pays the process's warm-up
            if not args.recount and plain > 0 and (c > 0 or chunks == 1):
                ratios.append(traced_s / plain)
    finally:
        tracer.uninstall()
    result = {"attempted": run.attempted, "failed": run.failed,
              "counters": tracer.counters(chunk=0), "env": _environment()}
    if args.recount:
        return result
    metrics = tracer.layer_metrics()
    metrics.update(run.quality())
    if run.rows:
        # both passes read the same streams, so the untraced pass read half the rows
        metrics["rows_per_s"] = run.rows / 2 / reference_s
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    spans = os.path.join(args.work, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    tracer.write(spans)
    result.update(metrics=metrics, spans=spans)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "timed", "traced"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--root", required=True)
    p.add_argument("--work")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--recount", action="store_true")
    args = p.parse_args(argv)
    result = {"setup": cmd_setup, "timed": cmd_timed, "traced": cmd_traced}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
