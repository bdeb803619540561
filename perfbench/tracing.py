"""Spans around calls into dfrto, installed from outside the package.

Wrappers replace the module attributes that callers look up at call time
(``dfrto.harness.adaptive_strategy``, ``dfrto.strategies.integrate``, the
methods of ``OnlineBoxEstimator``, ...), so the package itself is unchanged.
Each span keeps its name, start, end, parent span, chunk and batch id in
memory; ``write`` puts them on disk after the run and ``layer_metrics`` turns
them into the per-layer numbers.  A layer's self time is its span minus the
spans of its children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from time import perf_counter

import numpy as np

STRATEGIES = ("optimal", "nominal", "robust", "adaptive")
INGEST = ("setmem.add", "setmem.add_rows", "setmem.add_rows_stop_on_change")

# Counters that must repeat exactly between two traced runs at one seed.
COUNTERS = ("process.integrate.calls", "setmem.lp_rebounds", "setmem.box_changes",
            "strategies.adaptive.reopts_per_batch", "reach.project_switch_windows.calls")


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.chunk: list[int] = []
        self.batch: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.active = False
        self.chunk_id = -1
        self.batch_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.chunk.append(self.chunk_id)
        self.batch.append(self.batch_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def note(self, i: int, **values) -> None:
        self.attrs.setdefault(i, {}).update(values)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks outputs."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    # --- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, note=None, pre=None) -> None:
        """Replace owner.attr by a wrapper that records a span named `name`.

        `pre(args)` runs before the span opens; `note(i, args, out, pre_value)`
        runs after it closes, so neither is counted in the span.  A name the
        program no longer has is an error, so that a layer is never reported
        as idle only because it was renamed.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            raise AttributeError(f"{owner.__name__}.{attr} not found, cannot trace it")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not tracer.active:
                return fn(*args, **kw)
            before = pre(args) if pre is not None else None
            i = tracer.begin(name)
            try:
                out = fn(*args, **kw)
            finally:
                tracer.finish(i)
            if note is not None:
                note(i, args, out, before)
            return out

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the names each caller in dfrto resolves at call time."""
        from dfrto import cli, harness, policy, reach, strategies
        from dfrto.setmem import OnlineBoxEstimator

        def rows(i, args, out, _):
            self.note(i, rows=int(np.atleast_2d(args[0]).shape[0]))

        def enter_batch(args):
            self.batch_id = args[1]

        def leave_batch(i, args, out, _):
            self.batch_id = -1

        def reopts(i, args, out, _):
            self.note(i, reopts=out.reopt_count)

        def t1_width(i, args, out, _):
            self.note(i, t1_width=out.t1[1] - out.t1[0])

        def lp_rebounds(args):
            return getattr(args[0], "n_lp_rebounds", 0)

        def ingested(count):
            def note(i, args, out, before):
                self.note(i, rows=count(args, out),
                          rebounds=lp_rebounds(args) - before)
                if isinstance(out, tuple):
                    self.note(i, changed=out[1])
            return note

        self._patch(harness, "run_batch", "harness.run_batch", leave_batch, enter_batch)
        for s in STRATEGIES:
            self._patch(harness, f"{s}_strategy", f"strategies.{s}",
                        reopts if s == "adaptive" else None)
        for owner in (harness, strategies):
            self._patch(owner, "nominal_decision", "strategies.nominal_decision")
        self._patch(harness, "robust_decision", "strategies.robust_decision")
        self._patch(strategies, "realized_batch_times",
                    "strategies.realized_batch_times", rows)
        self._patch(strategies, "solve_ivp", "strategies.solve_ivp")
        for owner in (strategies, policy):
            self._patch(owner, "integrate", "process.integrate")
        for owner in (strategies, reach):
            self._patch(owner, "plan_vectorized", "policy.plan_vectorized", rows)
        self._patch(strategies, "project_switch_windows",
                    "reach.project_switch_windows", t1_width)
        self._patch(OnlineBoxEstimator, "add", "setmem.add",
                    ingested(lambda a, out: 1), lp_rebounds)
        self._patch(OnlineBoxEstimator, "add_rows", "setmem.add_rows",
                    ingested(lambda a, out: int(np.size(a[2]))), lp_rebounds)
        self._patch(OnlineBoxEstimator, "add_rows_stop_on_change",
                    "setmem.add_rows_stop_on_change",
                    ingested(lambda a, out: int(out[0])), lp_rebounds)
        self._patch(cli, "read_measurements_csv", "setmem.read_measurements_csv")
        self._patch(cli, "write_boxes_csv", "setmem.write_boxes_csv")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # --- output -----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzipped CSV; times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,chunk,batch,name,start_s,end_s\n")
            for i, name in enumerate(self.name):
                fh.write(f"{i},{self.parent[i]},{self.chunk[i]},{self.batch[i]},{name},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")

    def counters(self, chunk: int | None = None) -> dict[str, float]:
        m = self.layer_metrics(chunk)
        return {k: m.get(k, 0.0) for k in COUNTERS}

    def layer_metrics(self, chunk: int | None = None) -> dict[str, float]:
        """Per-layer metrics over the spans of all chunks, or of one chunk.

        A metric whose spans never occurred is left out rather than reported
        as 0, so the caller can tell a layer that was never called from one
        that took no time.
        """
        names = np.array(self.name, dtype=object)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=int)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        chunks = np.array(self.chunk, dtype=int)
        keep = np.full(chunks.shape, True) if chunk is None else chunks == chunk

        def sel(*wanted):
            return np.flatnonzero(keep & np.isin(names, wanted))

        def attr(idx, key):
            return np.array([self.attrs.get(int(i), {}).get(key, 0) for i in idx], float)

        def pct(x, q):
            return float(np.percentile(x, q))

        out: dict[str, float] = {}

        def put(idx, values: dict) -> None:
            """Record values computed from the spans idx, if there are any."""
            if len(idx):
                out.update({k: float(v()) for k, v in values.items()})

        for s in STRATEGIES:
            d = dur[sel(f"strategies.{s}")] * 1e3
            put(d, {f"strategies.{s}.batch_ms_p50": lambda d=d: pct(d, 50),
                    f"strategies.{s}.batch_ms_p90": lambda d=d: pct(d, 90)})
        adaptive = sel("strategies.adaptive")
        put(adaptive, {"strategies.adaptive.self_s": lambda: own[adaptive].sum(),
                       "strategies.adaptive.reopts_per_batch":
                           lambda: attr(adaptive, "reopts").mean()})
        ivp = sel("strategies.solve_ivp")
        put(ivp, {"strategies.solve_ivp.calls": lambda: ivp.size,
                  "strategies.solve_ivp.self_s": lambda: own[ivp].sum()})
        # each monte_carlo call decides once; report the cost of one decision
        for d in ("robust_decision", "nominal_decision"):
            idx = sel(f"strategies.{d}")
            put(idx, {f"strategies.{d}.s": lambda idx=idx: pct(dur[idx], 50)})
        rbt = sel("strategies.realized_batch_times")
        put(rbt, {"strategies.realized_batch_times.calls": lambda: rbt.size,
                  "strategies.realized_batch_times.rows_per_s":
                      lambda: attr(rbt, "rows").sum() / dur[rbt].sum()})
        integ = sel("process.integrate")
        put(integ, {"process.integrate.calls": lambda: integ.size,
                    "process.integrate.self_s": lambda: own[integ].sum(),
                    "process.integrate.ms_p50": lambda: pct(dur[integ] * 1e3, 50)})
        plan = sel("policy.plan_vectorized")
        put(plan, {"policy.plan_vectorized.calls": lambda: plan.size,
                   "policy.plan_vectorized.rows": lambda: attr(plan, "rows").sum(),
                   "policy.plan_vectorized.self_s": lambda: own[plan].sum()})
        proj = sel("reach.project_switch_windows")
        put(proj, {"reach.project_switch_windows.calls": lambda: proj.size,
                   "reach.project_switch_windows.ms_p50": lambda: pct(dur[proj] * 1e3, 50),
                   "reach.project_switch_windows.ms_max": lambda: dur[proj].max() * 1e3})
        # the first projection in an adaptive batch is of the prior box; each
        # later one is a re-optimization
        seen, reopt = set(), []
        for i in proj:
            p = parent[i]
            if p < 0 or names[p] != "strategies.adaptive":
                continue
            if p in seen:
                reopt.append(i)
            seen.add(p)
        put(reopt, {"reach.t1_width_h_p50": lambda: pct(attr(reopt, "t1_width"), 50)})

        ingest = sel(*INGEST)
        # a block ingest may call add per row; count the rows once, at the top
        top = ingest[(parent[ingest] < 0) | ~np.isin(names[np.maximum(parent[ingest], 0)], INGEST)]
        rows_in = attr(top, "rows").sum()
        rebounds = attr(top, "rebounds").sum()
        put(top, {"setmem.ingest.rows": lambda: rows_in,
                  "setmem.ingest.self_s": lambda: own[ingest].sum(),
                  "setmem.ingest.rows_per_s": lambda: rows_in / own[ingest].sum(),
                  "setmem.lp_rebounds": lambda: rebounds,
                  "setmem.rebounds_per_krow": lambda: 1e3 * rebounds / rows_in})
        for name in INGEST:
            idx = top[names[top] == name]
            put(idx, {f"{name}.calls": lambda idx=idx: idx.size})
        stop = sel("setmem.add_rows_stop_on_change")
        put(stop, {"setmem.box_changes": lambda: attr(stop, "changed").sum()})
        for io in ("read_measurements_csv", "write_boxes_csv"):
            idx = sel(f"setmem.{io}")
            put(idx, {f"setmem.{io}.s": lambda idx=idx: dur[idx].sum()})
        harness = sel("harness.monte_carlo", "harness.run_batch")
        put(harness, {"harness.monte_carlo.self_s": lambda: own[harness].sum()})
        est = sel("cli.estimate")
        put(est, {"cli.estimate.self_s": lambda: own[est].sum()})
        return out
