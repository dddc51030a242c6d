"""Command-line interface.

Subcommands::

    mirrorsolve run    --config cfg [--out DIR] [--delta D] [--seed S] [--fast]
    mirrorsolve sweep  --config cfg [--out DIR] [--fast]
    mirrorsolve verify
    mirrorsolve smd    --config cfg [--out DIR] [--seed S]

Exit code 0 on success.  On failure a single machine-readable JSON line is
printed to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import checks, experiments, smd
from .config import parse_config

__all__ = ["main"]


def _check_seed_flag(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")


def _cmd_run(args) -> int:
    _check_seed_flag(args)
    cfg = parse_config(args.config).resolved(fast=args.fast)
    delta = args.delta if args.delta is not None else cfg.deltas[0]
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    setup = experiments.build_setup(cfg.problem, cfg.n)
    rule, stop = experiments.make_cell(setup, cfg.rule, delta, stopping=cfg.stopping)
    cell = experiments.run_cell(setup, rule, stop, delta, seed, out_dir=args.out or None)
    print(f"problem={cfg.problem} rule={cfg.rule} delta={delta:g} seed={seed} "
          f"stop={cell.result.stop_reason} iter={cell.k_stop} err={cell.err:.6e} "
          f"ratio={cell.err / math.sqrt(delta):.6f}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config).resolved(fast=args.fast)
    setup = experiments.build_setup(cfg.problem, cfg.n)
    out_dir = Path(args.out) if args.out else None
    outcome = experiments.run_rate_sweep(
        setup, cfg.rule, cfg.deltas, cfg.seeds, stopping=cfg.stopping,
        out_dir=out_dir, keep_records=False)
    failed = [c for c in outcome.cells if c.failed]
    for row in outcome.table:
        print(f"rule={row.rule} delta={row.delta:g} iter={row.iters:g} "
              f"err={row.err:.6e} ratio={row.ratio:.6f}")
    if out_dir is not None:
        info = experiments.emit_plot_data(outcome.table, out_dir)
        slope = info["slope"]
        print(f"rate files in {out_dir} (lsq slope: "
              f"{'n/a' if slope is None else format(slope, '.4f')})")
    for c in failed:
        print(f"flagged cell delta={c.delta:g} seed={c.seed}: {c.error_message}",
              file=sys.stderr)
    return 0 if not failed else 3


def _cmd_verify(args) -> int:
    results = checks.run_all()
    bad = 0
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        bad += not r.passed
    print(f"{len(results) - bad}/{len(results)} checks passed")
    return 0 if bad == 0 else 2


def _cmd_smd(args) -> int:
    _check_seed_flag(args)
    cfg = parse_config(args.config).resolved()
    if cfg.problem != "smd_synthetic":
        raise ValueError(f"smd needs [problem] kind = smd_synthetic, "
                         f"got {cfg.problem!r}")
    reg, sched = cfg.smd_study()
    inst = smd.build_sourced_instance(cfg.smd_blocks, cfg.n, reg,
                                      cfg.smd_instance_seed)
    seeds = [args.seed] if args.seed is not None else list(cfg.seeds)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    finals = []
    for seed in seeds:
        sr = smd.smd_run(inst.problem, reg, sched, cfg.smd_k_max, seed,
                         x_truth=inst.x_true)
        last = sr.records[-1]
        finals.append(last.s_delta)
        print(f"seed={seed} k={last.k} delta_k={last.delta_k:.6e} "
              f"s_k*delta_k={last.s_delta:.6e}")
        if out_dir is not None:
            smd.write_rate_csv(sr, out_dir / f"smd_rate_{seed}.csv")
    print(f"median s_k*delta_k at k={cfg.smd_k_max}: {np.median(finals):.6e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mirrorsolve",
        description="Mirror-descent Landweber solvers and rate benchmarks "
                    "for ill-posed inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single (delta, seed) cell")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--delta", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--fast", action="store_true", help="coarse grids")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the full (delta, seed) table")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--fast", action="store_true", help="coarse grids")
    p_sweep.set_defaults(fn=_cmd_sweep)

    sub.add_parser("verify", help="run the oracle/property suites").set_defaults(
        fn=_cmd_verify)

    p_smd = sub.add_parser("smd", help="stochastic mirror descent rate study")
    p_smd.add_argument("--config", required=True)
    p_smd.add_argument("--out", default=None)
    p_smd.add_argument("--seed", type=int, default=None)
    p_smd.set_defaults(fn=_cmd_smd)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 -- uniform machine-readable failure
        print(json.dumps({"status": "error", "type": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
