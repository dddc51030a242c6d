#!/usr/bin/env python3
"""mirrorsolve benchmark: one workload, one process, BLAS pinned to 1 thread.

    python3 perfbench/run.py --workload entropy_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, timed by a clock that runs at a
reference host speed (see hostclock.py), ``--trace 1`` the per-layer
metrics of an extra traced repetition; ``--smoke`` runs the workload once at
toy size, untimed.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md beside this
file for the workloads and metrics.

NumPy and everything that imports it are imported inside functions, after
``main`` has pinned the BLAS thread count.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
#: one batch of setups: at least this many, then until this much time is
#: spent or the cap is reached
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 5, 1.0, 100


def median(values):
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{var: os.environ[var] for var in BLAS_THREAD_VARS},
            "loadavg": os.getloadavg()}


def time_setups(wl, times, clock):
    """One batch of setups, timed into ``times``; returns the last setup."""
    batch = 0.0
    t_prev = clock()
    for k in range(SETUP_MAX_REPEATS):
        if k >= SETUP_REPEATS and batch >= SETUP_SECONDS:
            break
        state = wl.setup()
        t = clock()
        times.append(t - t_prev)
        batch += t - t_prev
        t_prev = t
    return state


class Rep:
    """One repetition of a workload's study: untraced and timed by ``clock``
    (a HostClock), or traced and timed by the wall clock."""

    def __init__(self, wl, state, seed, clock=None, tracer=None):
        import workloads
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            if tracer is None:
                state = wl.ticking(state, clock)
                clock()
                raw0 = clock.raw
                self.seconds, raw = wl.study(state, seed, Path(tmp), clock=clock)
                clock()
                #: wall time of the study, probes excluded
                self.wall = clock.raw - raw0
            else:
                self.seconds, raw = wl.study(state, seed, Path(tmp), tracer,
                                             workloads.perf_counter)
                self.wall = self.seconds
            self.cells = wl.check(raw)
            self.csv_bytes = sum(p.stat().st_size for p in Path(tmp).rglob("*.csv"))


def run_reps(wl, seed, seconds, max_reps, clock):
    """Repeat (setup batch, study) while another repetition fits in
    ``seconds``, then time one more setup batch.  Each study uses the setup
    made just before it, as a fresh CLI run would."""
    start = time.perf_counter()
    reps, setup_times = [], []
    while True:
        t0 = time.perf_counter()
        state = time_setups(wl, setup_times, clock)
        reps.append(Rep(wl, state, seed, clock))
        last = time.perf_counter() - t0
        if len(reps) >= max_reps or time.perf_counter() - start + last > seconds:
            time_setups(wl, setup_times, clock)
            return reps, setup_times


def flag_mismatches(reps, reference):
    """Every repetition must reproduce the first bit for bit, and the first
    must match the recorded stopping indices where a reference applies."""
    first = {c.label: c for c in reps[0].cells}
    for rep in reps:
        for c in rep.cells:
            ref = first[c.label]
            if c.error is None and (c.iterates, c.rate) != (ref.iterates, ref.rate):
                c.error = "differs from the first repetition"
    for c in reps[0].cells:
        if c.label in reference and c.error is None and c.iterates != reference[c.label]:
            c.error = f"k_stop {c.iterates} != reference {reference[c.label]}"


def end_to_end(reps, setup_times, peak_rss_mb):
    cells = [c for rep in reps for c in rep.cells]
    wall = median([r.seconds for r in reps])
    iterates = sum(c.iterates for c in reps[0].cells)
    rates = [c.rate for c in reps[0].cells if c.error is None]
    return {
        "setup_s": (median(setup_times), "s", f"median of {len(setup_times)} setups"),
        "wall_s": (wall, "s", f"median of {len(reps)} repetitions"),
        "iters_per_s": (iterates / wall, "1/s", f"{iterates} iterates per repetition"),
        "cell_s_p50": (median([c.seconds for c in cells]), "s", f"{len(cells)} cells"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
        "rate_const_p50": (median(rates), "ratio", f"median of {len(rates)} cells"),
    }


def per_layer(tracer, rep, untraced_wall):
    t = tracer.totals()

    def total(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def excl(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    counts = tracer.counts
    lw_iters = sum(c.iterates for c in rep.cells) if calls("landweber.run") else 0
    iter_us = 1e6 * tracer.gaps("operators.apply", "landweber.run")
    step_us = 1e6 * tracer.gaps("smd.step", "smd.run")
    return {
        "operators.apply_s": (total("operators.apply"), "s"),
        "operators.apply_calls": (calls("operators.apply"), "count"),
        "operators.adjoint_s": (total("operators.adjoint"), "s"),
        "operators.adjoint_calls": (calls("operators.adjoint"), "count"),
        "operators.solves_per_iter": (calls("operators.cg") / lw_iters if lw_iters else 0.0,
                                      "solves/iter"),
        "operators.cg_iters_per_solve": (counts["cg_iters"] / counts["cg_calls"]
                                         if counts["cg_calls"] else 0.0, "iters/solve"),
        "operators.cg_s": (total("operators.cg"), "s"),
        "regularizers.mirror_map_s": (total("regularizers.mirror_map"), "s"),
        "regularizers.mirror_map_calls": (calls("regularizers.mirror_map"), "count"),
        "regularizers.bregman_s": (total("regularizers.bregman"), "s"),
        "regularizers.error_norm_s": (total("regularizers.error_norm"), "s"),
        "landweber.iterates": (lw_iters, "count"),
        "landweber.self_s": (excl("landweber.run"), "s"),
        "landweber.iter_us_p50": (percentile(iter_us, 50), "us"),
        "landweber.iter_us_p99": (percentile(iter_us, 99), "us"),
        "landweber.degenerate_steps": (counts["degenerate_steps"], "count"),
        "smd.steps": (calls("smd.step"), "count"),
        "smd.self_s": (excl("smd.run") + excl("smd.step"), "s"),
        "smd.step_us_p50": (percentile(step_us, 50), "us"),
        "smd.step_us_p99": (percentile(step_us, 99), "us"),
        "grids.add_noise_s": (total("grids.add_noise"), "s"),
        "grids.power_iter_s": (total("grids.power_iter"), "s"),
        "experiments.setup_s": (total("experiments.setup"), "s"),
        "experiments.csv_write_s": (total("experiments.csv_write"), "s"),
        "experiments.csv_bytes": (rep.csv_bytes, "bytes"),
        "experiments.cells": (len(rep.cells), "count"),
        "experiments.cells_failed": (sum(c.error is not None for c in rep.cells), "count"),
        "trace.overhead_frac": (rep.seconds / untraced_wall - 1.0, "frac"),
    }


def traced_rep(wl, seed, name):
    """A fresh setup and one study repetition under a tracer; the spans are
    written to ``.perfbench/trace-<workload>.npz`` afterwards."""
    import tracing
    tracer = tracing.Tracer()
    with tracing.rebound(tracer.bindings()):
        state = wl.setup(tracer)
    rep = Rep(wl, wl.traced(state, tracer), seed, tracer=tracer)
    tracer.save(WORK / f"trace-{name}.npz")
    return tracer, rep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, one repetition, no reference check")
    args = ap.parse_args(argv)

    # NumPy reads the thread pins when it is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "mirrorsolve" / "__init__.py").is_file():
        print(f"error: no mirrorsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(table)})", file=sys.stderr)
        return 2
    wl = table[args.workload]
    reference = {}
    if args.seed == DEFAULT_SEED and not args.smoke:
        reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    WORK.mkdir(exist_ok=True)

    print("# env " + json.dumps(environment()), flush=True)
    import hostclock
    clock = hostclock.HostClock()
    reps, setup_times = run_reps(wl, args.seed, args.seconds, 1 if args.smoke else 10 ** 6,
                                 clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = reps
    if args.trace:
        tracer, trep = traced_rep(wl, args.seed, args.workload)
        checked = reps + [trep]
    flag_mismatches(checked, reference)

    for c in reps[0].cells:
        print(f"# cell {c.label}: iterates={c.iterates} seconds={c.seconds:.6f} "
              f"rate={c.rate:.6g}{'' if c.error is None else ' FAILED: ' + c.error}")
    cells = [c for rep in checked for c in rep.cells]
    failed = sum(c.error is not None for c in cells)
    print(f"# failed_frac = {failed / len(cells):.6g} frac ({failed} of {len(cells)} cells)")

    print(f"# host: probe p10/p50/p90 "
          + "/".join(f"{1e3 * percentile(clock.probes, q):.3g}" for q in (10, 50, 90))
          + f" ms over {len(clock.probes)} probes (reference {1e3 * hostclock.PROBE_REF_S:g} ms);"
          f" median repetition {median([r.wall for r in reps]):.6g} s of wall time")
    if args.trace:
        metrics = per_layer(tracer, trep, median([r.wall for r in reps]))
    else:
        metrics = end_to_end(reps, setup_times, peak_rss_mb)
    for name, (value, unit, *note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}" + "".join(f" ({n})" for n in note))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(cells), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
