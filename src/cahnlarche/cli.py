"""Command-line interface.

Subcommands:

* ``run``       - advance one simulation and write outputs.
* ``sweep``     - run a preset parameter sweep and write a summary CSV.
* ``constants`` - print mesh constants and the contraction bound.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import analysis, grid, harness


def _add_common(p):
    p.add_argument("--config", help="path to an INI configuration file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="random seed")
    p.add_argument(
        "--strategy", choices=harness.STRATEGIES, default=None,
        help="nonlinear solve strategy",
    )
    p.add_argument(
        "--scheme", choices=harness.SCHEMES, default=None, help="time scheme"
    )
    p.add_argument(
        "--depth", type=int, default=None, help="Anderson acceleration depth"
    )
    p.add_argument("--n", type=int, default=None, help="mesh resolution")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--init", choices=harness.INITS, default=None)


def _load_config(args):
    """The run's config: the flags given, set over the ``--config`` file's
    fields or the defaults."""
    overrides = {
        "out_dir": args.out,
        "seed": args.seed,
        "strategy": args.strategy,
        "scheme": args.scheme,
        "anderson_depth": args.depth,
        "n": args.n,
        "gamma": args.gamma,
        "xi": args.xi,
        "t_final": args.t_final,
        "init": args.init,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.config:
        return harness.RunConfig.from_file(args.config, **overrides)
    return harness.RunConfig(**overrides)


def cmd_run(args):
    cfg = _load_config(args)
    snapshots = []
    every = cfg.snapshot_every

    def callback(step, state, report):
        if every and step % every == 0:
            snapshots.append((f"{step:06d}", state.copy()))

    summary = harness.run_simulation(cfg, callback=callback, estimate_bound=True)
    mesh = summary.final_state.mesh
    snapshots.insert(0, ("initial", harness.initial_state(mesh, cfg)))
    snapshots.append(("final", summary.final_state))
    harness.write_outputs(summary, cfg.out_dir, mesh=mesh, snapshots=snapshots)
    status = "completed" if summary.completed else (
        f"failed at step {summary.failed_at_step}: {summary.failure_reason}"
    )
    print(f"run {status}; average iterations {summary.average_iterations:.3f}")
    print(f"outputs written to {cfg.out_dir}")
    return 0 if summary.completed else 1


def cmd_sweep(args):
    cfg = _load_config(args)
    values = args.values or None
    if args.preset == "anderson" and values is not None:
        if not all(v.is_integer() for v in values):
            raise harness.ConfigError(f"Anderson depths must be integers, got {values}")
        values = [int(v) for v in values]
    rows = harness.run_sweep(cfg, args.preset, values=values)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "sweep_summary.csv")
    harness.write_sweep_csv(rows, path)
    for row in rows:
        print(row)
    print(f"sweep summary written to {path}")
    return 0


def cmd_constants(args):
    cfg = _load_config(args)
    mesh = grid.build_mesh(cfg.n)
    params = cfg.build_params()
    consts = analysis.estimate_constants(mesh, mobility=cfg.m)
    bound = analysis.rate_bound(params, consts)
    print(json.dumps({"constants": asdict(consts), "rate_bound": bound.as_dict()},
                     indent=2))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cahnlarche",
        description="Finite-element solver laboratory for coupled "
        "phase-field/elasticity evolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("preset", choices=harness.SWEEPS)
    p_sweep.add_argument("--values", nargs="*", type=float, default=None)
    _add_common(p_sweep)

    p_const = sub.add_parser("constants", help="print mesh constants and bounds")
    _add_common(p_const)

    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "constants": cmd_constants}
    try:
        return handlers[args.command](args)
    except harness.ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
