"""Command-line interface.

Subcommands::

    mirrorsolve sweep  --config cfg [--out DIR] [--delta D] [--seed S] [--fast]
    mirrorsolve verify

``sweep`` runs the study of the config's ``[problem] kind``: the
(delta, seed) table of a Landweber kind, or the sample paths of
``smd_synthetic``.  ``--delta D`` and ``--seed S`` cut the config's
``[sweep] deltas`` or ``seeds`` to that one value, so ``--seed`` picks one
path; with both, a Landweber sweep is one (delta, seed) cell.  The
stochastic study has no deltas and no coarse grid, so it refuses
``--delta`` and ``--fast`` by name.

Exit code 0 on success; a sweep that flagged a failed cell exits 3.  On
failure a single machine-readable JSON line is printed to stderr and the
exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checks, experiments, smd
from .config import PROBLEM_DEFAULTS, parse_config

__all__ = ["main"]


def _cmd_sweep(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    cfg = parse_config(args.config)
    seeds = [args.seed] if args.seed is not None else cfg.seeds
    out_dir = Path(args.out) if args.out else None
    if cfg.problem == "smd_synthetic":
        if args.delta is not None or args.fast:
            raise ValueError("kind 'smd_synthetic' has no deltas and no coarse grid: "
                             "--delta and --fast do not apply")
        return _run_paths(cfg, seeds, out_dir)
    setup = experiments.build_setup(cfg.problem, cfg.grid_size(args.fast))
    deltas = [args.delta] if args.delta is not None else cfg.deltas
    outcome = experiments.run_rate_sweep(
        setup, cfg.rule, deltas, seeds, stopping=cfg.stopping,
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


def _run_paths(cfg, seeds, out_dir) -> int:
    """The stochastic study's sample paths, one per seed: a line per path
    with its terminal Delta_k and s_k * Delta_k, their median, and with
    ``out_dir`` the rate log ``smd_rate_<seed>.csv`` of each path."""
    reg, sched = cfg.smd_study()
    study = PROBLEM_DEFAULTS["smd_synthetic"]
    inst = smd.build_sourced_instance(study["blocks"], cfg.grid_size(), reg, study["instance_seed"])
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    finals = []
    for seed in seeds:
        sr = smd.smd_run(inst.problem, reg, sched, study["k_max"], seed,
                         x_truth=inst.x_true)
        last = sr.records[-1]
        finals.append(last.s_delta)
        print(f"seed={seed} k={last.k} delta_k={last.delta_k:.6e} "
              f"s_k*delta_k={last.s_delta:.6e}")
        if out_dir is not None:
            smd.write_rate_csv(sr, out_dir / f"smd_rate_{seed}.csv")
    print(f"median s_k*delta_k at k={study['k_max']}: {np.median(finals):.6e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mirrorsolve",
        description="Mirror-descent Landweber solvers and rate benchmarks "
                    "for ill-posed inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the config's study")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--delta", type=float, default=None, help="run this delta only")
    p_sweep.add_argument("--seed", type=int, default=None, help="run this seed only")
    p_sweep.add_argument("--fast", action="store_true", help="coarse grids")
    p_sweep.set_defaults(fn=_cmd_sweep)

    sub.add_parser("verify", help="run the oracle/property suites").set_defaults(
        fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 -- uniform machine-readable failure
        print(json.dumps({"status": "error", "type": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
