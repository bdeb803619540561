#!/usr/bin/env python3
"""dfrto benchmark: one command for every workload, metric and output check.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see worker.py): closed_loop_generalized, open_loop_limiting,
estimate_replay.  Run from the root of a source checkout; the package is
imported from its src/ directory, nothing is installed.

--trace 0 measures the end-to-end metrics with no wrappers installed:
setup_s is the median of several fresh interpreters that import dfrto.cli and
do the one-off work before the first batch (after one discarded warm-up that
fills the bytecode cache); batches_per_s is the batches (streams, for
estimate_replay) completed in a run of S seconds over the time spent in dfrto;
peak_rss_mb is the largest resident set of any process of the run.
--trace 1 runs a fixed number of chunks untraced and then traced, reports the
per-layer metrics, and runs chunk 0 traced again in a second interpreter: its
counters must repeat exactly.  The metrics of a layer the workload never
reaches (declared per workload in worker.py) read 0; any other metric without
a measurement is an error.  Spans are written to .perfbench/.

Every run also checks the program's outputs; a failed check counts as a
failed operation.  Metric names and units come from BENCHMARK.json.  Load
comes from one process at a time, with BLAS/OpenMP pinned to one thread.  The
last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
OVERHEAD_S = 140.0   # time budget of a run beyond its --seconds


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--root", str(ROOT),
           "--work", str(ROOT / ".perfbench")]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {args[0]} printed no result") from None


def environment(worker_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dfrto").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {**worker_env, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "threads": {v: "1" for v in THREAD_VARS}}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def untraced(args, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", args.workload]
    run_worker(["setup", *base], deadline)   # fills the bytecode cache
    setup = [run_worker(["setup", *base], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = run_worker(["timed", *base, "--seed", str(args.seed),
                      "--seconds", str(args.seconds)], deadline)
    metrics = {
        "setup_s": statistics.median(setup),
        "batches_per_s": res["batches_per_s"],
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
    }
    return res, metrics


def traced(args, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    res = run_worker(["traced", *base], deadline)
    again = run_worker(["traced", *base, "--recount"], deadline)
    res["attempted"] += again["attempted"]
    res["failed"] += again["failed"]
    if again["counters"] != res["counters"]:
        print(f"perfbench: counters of chunk 0 differ between two traced runs: "
              f"{res['counters']} vs {again['counters']}", file=sys.stderr)
        res["failed"] += again["attempted"]
    return res, res["metrics"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + OVERHEAD_S + args.seconds
    try:
        if not (ROOT / "src" / "dfrto" / "cli.py").is_file():
            raise BenchError(f"no dfrto source under {ROOT / 'src'}")
        try:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
        declared = spec["per_layer" if args.trace else "end_to_end"]
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        res, metrics = (traced if args.trace else untraced)(args, deadline)
        units = {m["name"]: m["unit"] for m in declared}
        if set(metrics) - set(units):
            raise BenchError(f"metrics missing from BENCHMARK.json: "
                             f"{sorted(set(metrics) - set(units))}")
        unused = WORKLOADS[args.workload].unused if args.trace else ()
        absent = [name for name in units
                  if name not in metrics and not name.startswith(unused)]
        if absent:
            raise BenchError(f"no measurement of {absent}")
        metrics = {name: metrics.get(name, 0.0) for name in units}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": environment(res["env"]), "workload": args.workload,
                      "seed": args.seed, "chunk_rates": res.get("chunk_rates"),
                      "counters": res.get("counters"), "spans": res.get("spans")}))
    for name in units:
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
