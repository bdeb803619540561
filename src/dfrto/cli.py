"""Command-line interface.

Subcommands: simulate, estimate, reach, montecarlo, summarize.
Exit codes: 0 success (a sweep whose strategy failed on every batch too:
its statistics read n = 0), 2 configuration error (including a prior box or
truth that starts outside the concentrate/singular/dilute structure and a
--box outside the flux model's domain), 3 model invalidated, 4 timeout or
flux stall.  Each subcommand imports the layers it runs, so `estimate` loads
no scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .cases import CASES, STRATEGIES, UNCERTAINTY_PCT_DEFAULT, get_case
from .errors import (ConfigError, DfrtoError, ModelInvalidatedError,
                     SimulationTimeout, StallError, UnsupportedStructureError)
from .process import Measurement, ProcessSpec
from .setmem import (OnlineBoxEstimator, ParamBox, read_measurements_csv,
                     write_boxes_csv)


def _load_spec(path: str | None) -> ProcessSpec:
    return ProcessSpec.from_json(path) if path else ProcessSpec()


def _cmd_simulate(args) -> int:
    from .harness import ExperimentConfig, _batch_draw, _run_strategy, make_decisions

    spec = _load_spec(args.config)
    P0 = get_case(args.case).prior_box(spec, args.uncertainty)
    # batch 0 of `montecarlo --seed` with the same case and strategy, recorded
    cfg = ExperimentConfig(case=args.case, n_batches=1, master_seed=args.seed,
                           uncertainty_pct=args.uncertainty, strategies=(args.strategy,))
    _, p_true, noise = _batch_draw(cfg, 0, spec)
    res = _run_strategy(args.strategy, spec, P0, make_decisions(cfg, spec, P0),
                        p_true, noise, record=True)
    if res.timed_out:
        raise SimulationTimeout(
            f"batch did not finish by t_max={spec.t_max} h (over-concentrated plant)")
    if res.trajectory is not None and args.out:
        res.trajectory.write_csv(args.out, spec)
    print(json.dumps({
        "strategy": res.strategy, "case": args.case, "seed": args.seed,
        "p_true": [p_true.p1, p_true.p2, p_true.p3],
        "t1": res.t1, "t2": res.t2, "tf": res.tf,
        "regret": res.regret, "feasible": res.feasible,
        "reopt_count": res.reopt_count,
    }, indent=2))
    return 0


def _cmd_estimate(args) -> int:
    """The box after each row of a measurement CSV, in one pass over its array.

    The regressors (1, -ln c1, -ln c2) are formed once with math.log, as
    `add` forms them.  The first row, and each row after one that moved the
    box, goes through `add`; from any other row `add_rows_stop_on_change`
    takes the stream up to and including the next row that moves the box.
    Both give the boxes of one `add` per row bit for bit, so the rows of a
    block share the box in force before it, and its last row gets the box
    after it.  Noise-free rows move the box almost every time, so they keep
    to one `add` each and pay no block call per row.
    """
    spec = _load_spec(args.config)
    case = get_case(args.case)
    prior = case.prior_box(spec, args.uncertainty)
    data = read_measurements_csv(args.input)
    n = data.shape[0]
    if n == 0:
        raise ConfigError(f"no measurements in {args.input!r}")
    A = np.ones((n, 3))
    A[:, 1] = list(map(math.log, data[:, 2].tolist()))
    A[:, 2] = list(map(math.log, data[:, 3].tolist()))
    np.negative(A[:, 1:], out=A[:, 1:])         # exact, so -math.log as in `add`
    est = OnlineBoxEstimator(prior, spec.sigma)
    boxes, i, moved = [], 0, True
    while i < n:
        before = est.box
        if moved:
            est.add(Measurement(*data[i].tolist()))
            used = 1
        else:
            used, _ = est.add_rows_stop_on_change(A[i:], data[i:, 1])
        boxes += [before] * (used - 1)
        boxes.append(est.box)
        moved = est.box is not before      # only a move replaces the box
        i += used
    write_boxes_csv(args.out, data[:, 0].tolist(), boxes)
    final = est.box
    lo = [round(float(x), 6) for x in final.lo]
    hi = [round(float(x), 6) for x in final.hi]
    print(f"{n} measurements -> box lo={lo} hi={hi}")
    return 0


def _cmd_reach(args) -> int:
    from .reach import project_switch_windows
    spec = _load_spec(args.config)
    if args.box:
        box = ParamBox.from_json(args.box)
    else:
        box = get_case(args.case).prior_box(spec, args.uncertainty)
    windows = project_switch_windows(box, spec)
    text = windows.to_json(args.out)
    print(text, end="")
    return 0


def _cmd_montecarlo(args) -> int:
    from .harness import ExperimentConfig, monte_carlo
    from .summary import summarize
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    cfg = ExperimentConfig(case=args.case, n_batches=args.n, master_seed=args.seed,
                           uncertainty_pct=args.uncertainty, strategies=strategies,
                           out_path=args.out)
    spec = _load_spec(args.config)
    results = monte_carlo(cfg, spec, progress=args.progress)
    print(summarize(results).to_table())
    return 0


def _cmd_summarize(args) -> int:
    from .summary import read_results_csv, summarize
    rows = read_results_csv(args.input)
    stats = summarize(rows)
    if args.out:
        stats.to_csv(args.out)
    print(stats.to_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dfrto",
        description="Time-optimal batch diafiltration under parametric uncertainty")
    sub = p.add_subparsers(dest="command", required=True)
    # the case, spec and uncertainty options of every command that builds a plant
    case = argparse.ArgumentParser(add_help=False)
    case.add_argument("--case", default="limiting_flux", choices=sorted(CASES))
    case.add_argument("--config", help="process spec JSON")
    case.add_argument("--uncertainty", type=float, default=UNCERTAINTY_PCT_DEFAULT)

    sim = sub.add_parser("simulate", parents=[case], help="run one closed-loop batch")
    sim.add_argument("--strategy", default="optimal", choices=STRATEGIES)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", help="trajectory CSV path")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", parents=[case],
                         help="bound parameters from a measurement CSV")
    est.add_argument("--input", required=True, help="CSV with header t,q_m,c1,c2")
    est.add_argument("--out", required=True, help="bounds CSV path")
    est.set_defaults(func=_cmd_estimate)

    rea = sub.add_parser("reach", parents=[case],
                         help="project a parameter box into switch windows")
    rea.add_argument("--box", help="JSON file with lo/hi arrays; default: case prior")
    rea.add_argument("--out", help="windows JSON path")
    rea.set_defaults(func=_cmd_reach)

    mc = sub.add_parser("montecarlo", parents=[case],
                        help="paired Monte Carlo over random truths")
    mc.add_argument("--n", type=int, default=1000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--strategies", default=",".join(STRATEGIES))
    mc.add_argument("--out", help="results CSV path")
    mc.add_argument("--progress", action="store_true")
    mc.set_defaults(func=_cmd_montecarlo)

    summ = sub.add_parser("summarize", help="box-plot statistics of a results CSV")
    summ.add_argument("--input", required=True)
    summ.add_argument("--out", help="stats CSV path")
    summ.set_defaults(func=_cmd_summarize)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedStructureError as exc:
        # e.g. an --uncertainty whose prior box holds plants that start below
        # the singular surface; the message names such a plant
        print(f"config error: unsupported model structure: {exc}", file=sys.stderr)
        return 2
    except ModelInvalidatedError as exc:
        print(f"model invalidated: {exc}", file=sys.stderr)
        return 3
    except (SimulationTimeout, StallError) as exc:
        print(f"simulation stalled: {exc}", file=sys.stderr)
        return 4
    except DfrtoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
