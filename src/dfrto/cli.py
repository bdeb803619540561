"""Command-line interface.

Subcommands: simulate, estimate, reach, montecarlo, summarize.
Exit codes: 0 success, 2 configuration error (including a prior box or
truth that starts outside the concentrate/singular/dilute structure),
3 model invalidated, 4 timeout or flux stall.  Each subcommand imports the
layers it runs, so `estimate` loads no scipy.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cases import STRATEGIES, UNCERTAINTY_PCT_DEFAULT, get_case
from .errors import (ConfigError, DfrtoError, ModelInvalidatedError,
                     SimulationTimeout, StallError, UnsupportedStructureError)
from .process import ProcessSpec
from .setmem import (OnlineBoxEstimator, ParamBox, read_measurements_csv,
                     write_boxes_csv)


def _load_spec(path: str | None) -> ProcessSpec:
    return ProcessSpec.from_json(path) if path else ProcessSpec()


def _cmd_simulate(args) -> int:
    from .harness import _batch_seeds
    from .strategies import (NoiseStream, adaptive_strategy, nominal_strategy,
                             optimal_strategy, robust_strategy)

    spec = _load_spec(args.config)
    case = get_case(args.case)
    P0 = case.prior_box(spec, args.uncertainty)
    # the truth and noise of batch 0 of `montecarlo --seed` with the same case
    _, truth, noise = _batch_seeds(args.seed, 0)
    p_true = case.draw_truth_gamma(np.random.default_rng(truth), args.uncertainty,
                                   spec)
    if args.strategy == "optimal":
        res = optimal_strategy(p_true, spec, record=True)
    elif args.strategy == "nominal":
        res = nominal_strategy(P0, p_true, spec, record=True)
    elif args.strategy == "robust":
        scen = case.gamma_scenarios(spec, args.uncertainty)
        res = robust_strategy(P0, p_true, spec, scenarios=scen, record=True)
    elif args.strategy == "adaptive":
        res = adaptive_strategy(P0, p_true, spec,
                                NoiseStream(np.random.default_rng(noise), spec.sigma),
                                record=True)
    else:
        raise ConfigError(f"unknown strategy {args.strategy!r}")
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
    spec = _load_spec(args.config)
    case = get_case(args.case)
    prior = case.prior_box(spec, args.uncertainty)
    measurements = read_measurements_csv(args.input)
    if not measurements:
        raise ConfigError(f"no measurements in {args.input!r}")
    est = OnlineBoxEstimator(prior, spec.sigma)
    boxes = [est.add(m) for m in measurements]
    write_boxes_csv(args.out, [m.t for m in measurements], boxes)
    final = est.box
    lo = [round(float(x), 6) for x in final.lo]
    hi = [round(float(x), 6) for x in final.hi]
    print(f"{len(measurements)} measurements -> box lo={lo} hi={hi}")
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
    from .harness import ExperimentConfig, monte_carlo, summarize
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

    sim = sub.add_parser("simulate", help="run one closed-loop batch")
    sim.add_argument("--case", default="limiting_flux",
                     choices=("limiting_flux", "generalized"))
    sim.add_argument("--strategy", default="optimal", choices=STRATEGIES)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--config", help="process spec JSON")
    sim.add_argument("--uncertainty", type=float, default=UNCERTAINTY_PCT_DEFAULT)
    sim.add_argument("--out", help="trajectory CSV path")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="bound parameters from a measurement CSV")
    est.add_argument("--input", required=True, help="CSV with header t,q_m,c1,c2")
    est.add_argument("--out", required=True, help="bounds CSV path")
    est.add_argument("--case", default="limiting_flux",
                     choices=("limiting_flux", "generalized"))
    est.add_argument("--config", help="process spec JSON")
    est.add_argument("--uncertainty", type=float, default=UNCERTAINTY_PCT_DEFAULT)
    est.set_defaults(func=_cmd_estimate)

    rea = sub.add_parser("reach", help="project a parameter box into switch windows")
    rea.add_argument("--box", help="JSON file with lo/hi arrays; default: case prior")
    rea.add_argument("--case", default="limiting_flux",
                     choices=("limiting_flux", "generalized"))
    rea.add_argument("--config", help="process spec JSON")
    rea.add_argument("--uncertainty", type=float, default=UNCERTAINTY_PCT_DEFAULT)
    rea.add_argument("--out", help="windows JSON path")
    rea.set_defaults(func=_cmd_reach)

    mc = sub.add_parser("montecarlo", help="paired Monte Carlo over random truths")
    mc.add_argument("--n", type=int, default=1000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--case", default="limiting_flux",
                    choices=("limiting_flux", "generalized"))
    mc.add_argument("--strategies", default=",".join(STRATEGIES))
    mc.add_argument("--uncertainty", type=float, default=UNCERTAINTY_PCT_DEFAULT)
    mc.add_argument("--config", help="process spec JSON")
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
