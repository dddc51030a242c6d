"""The benchmark's three workloads, driven through the CLI's entry points.

A workload has a ``setup`` (what a user pays before the first cell) and a
``study``: a fixed list of cells derived from the workload seed, run one at
a time and timed by the ``clock`` it is given.  Landweber studies call
``run_rate_sweep`` (``out_dir`` set, ``keep_records=False``) and
``emit_plot_data`` once per rule, as ``mirrorsolve sweep`` does; the
stochastic study calls ``smd_run`` and ``write_rate_csv`` once per path, as
``mirrorsolve smd`` does.  Output checks run outside the timed region:
``check`` turns what a study left behind into per-cell outcomes.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mirrorsolve import experiments, smd
from mirrorsolve.regularizers import ElasticNet, EntropySimplex

import tracing
from tracing import Untraced

perf_counter = tracing.perf_counter
#: the untraced run ticks its HostClock once per iterate or step through this
TICKING = {"mirror_map": "host.tick"}

#: acceptance criterion 6: the dual identity xi_k = xi_0 + A* lambda_k
LAMBDA_DEFECT_TOL = 1e-10
#: acceptance criterion 7: Delta_k is non-increasing up to this slack
DELTA_RISE_TOL = 1e-12


def derive_seeds(seed: int, count: int) -> list:
    """Noise or path seeds for one workload seed (the same seed, the same list)."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class Cell:
    """Outcome of one (rule, delta, seed) cell or one sample path."""

    label: str
    seconds: float
    iterates: int
    rate: float
    error: str = None


# ---------------------------------------------------------------------------
# Landweber sweeps

@dataclass(frozen=True)
class LandweberWorkload:
    """Rate sweeps of one problem: ``sweeps`` lists (rule, deltas, picks)
    where the rule runs every delta for the noise seeds at positions
    ``picks`` of the seed list derived from the workload seed."""

    problem: str
    n: int
    tau: float
    sweeps: tuple

    def setup(self, tracer=Untraced):
        if self.problem == "entropy_integral":
            return tracer.call("experiments.setup",
                               experiments.setup_entropy_experiment, self.n)
        return tracer.call("experiments.setup",
                           experiments.setup_pde_experiment, self.n)

    def traced(self, setup, tracer):
        return dataclasses.replace(
            setup, forward=tracing.traced_operator(setup.forward, tracer),
            reg=tracing.traced_regularizer(setup.reg, tracer))

    def ticking(self, setup, clock):
        """The setup with a regularizer whose ``mirror_map`` ticks ``clock``."""
        return dataclasses.replace(setup, reg=tracing.Traced(setup.reg, clock, TICKING))

    def study(self, setup, seed, out_dir: Path, tracer=Untraced, clock=perf_counter):
        """Run every sweep; returns (seconds, raw results for ``check``)."""
        seeds = derive_seeds(seed, max(max(picks) for _, _, picks in self.sweeps) + 1)
        log = tracing.CellLog(clock)
        bindings = {**tracer.bindings(), **log.bindings(tracer)}
        raw = []
        seconds = 0.0
        with tracing.rebound(bindings):
            for rule, deltas, picks in self.sweeps:
                rule_dir = out_dir / rule
                first = len(log.starts)
                t0 = clock()
                outcome = tracer.call(
                    "experiments.sweep", experiments.run_rate_sweep, setup, rule,
                    deltas, [seeds[i] for i in picks], tau=self.tau, out_dir=rule_dir,
                    keep_records=False)
                t_end = clock()
                tracer.call("experiments.csv_write", experiments.emit_plot_data,
                            outcome.table, rule_dir)
                seconds += clock() - t0
                starts = log.starts[first:] + [t_end]
                raw.append((rule, rule_dir, outcome, np.diff(starts),
                            log.results[first:]))
        return seconds, raw

    def check(self, raw):
        cells = []
        for rule, rule_dir, outcome, times, results in raw:
            if len(times) != len(outcome.cells) or len(results) != len(outcome.cells):
                raise RuntimeError(f"{rule}: cell hooks out of step with the sweep")
            for cell, secs, res in zip(outcome.cells, times, results):
                label = f"{rule} delta={cell.delta:g} seed={cell.seed}"
                rate = (cell.err / math.sqrt(cell.delta)
                        if cell.err is not None else float("nan"))
                out = Cell(label, float(secs), cell.k_stop or 0, rate)
                out.error = cell.error_message or self._check_cell(cell, res, rule_dir)
                cells.append(out)
            if not (rule_dir / "table.csv").is_file() or not (rule_dir / "rate.csv").is_file():
                cells[-1].error = cells[-1].error or "table.csv or rate.csv missing"
        return cells

    def _check_cell(self, cell, res, rule_dir):
        stop_reason, k_stop, x = res
        if stop_reason != "discrepancy":
            return f"stop reason {stop_reason!r}, expected 'discrepancy'"
        if not math.isfinite(cell.err):
            return f"non-finite error {cell.err}"
        if self.problem == "pde_coefficient" and x.values.min() < 0:
            return f"negative coefficient {x.values.min():.3e}"
        tag = f"{cell.delta:g}".replace(".", "p")
        with open(rule_dir / f"iterates_{tag}_{cell.seed}.csv") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != k_stop + 1:
            return f"{len(rows)} logged iterates for k_stop = {k_stop}"
        residual = np.array([float(r["residual"]) for r in rows])
        bound = self.tau * cell.delta
        if not residual[-1] <= bound:
            return f"terminal residual {residual[-1]:.6e} > tau*delta {bound:.6e}"
        if k_stop > 0 and not residual[:-1].min() > bound:
            return f"residual met tau*delta before k_stop = {k_stop}"
        if self.problem == "entropy_integral":
            defect = max(float(r["lambda_defect"]) for r in rows)
            if not defect <= LAMBDA_DEFECT_TOL:
                return f"lambda defect {defect:.3e} > {LAMBDA_DEFECT_TOL:g}"
        return None


# ---------------------------------------------------------------------------
# stochastic sample paths

SMD_REGULARIZERS = (("entropy", EntropySimplex()), ("elastic", ElasticNet(beta=0.3)))


@dataclass(frozen=True)
class SmdWorkload:
    """Sample paths on the sourced block instance, ``paths`` per regularizer."""

    blocks: int
    n: int
    instance_seed: int
    gamma: float
    k_max: int
    paths: int

    def setup(self, tracer=Untraced):
        return [(name, reg, tracer.call("experiments.setup", smd.build_sourced_instance,
                                        self.blocks, self.n, reg, self.instance_seed))
                for name, reg in SMD_REGULARIZERS]

    def traced(self, setup, tracer):
        out = []
        for name, reg, inst in setup:
            prob = smd.SystemProblem(
                tuple(tracing.traced_operator(op, tracer) for op in inst.problem.operators),
                inst.problem.data)
            out.append((name, tracing.traced_regularizer(reg, tracer),
                        dataclasses.replace(inst, problem=prob)))
        return out

    def ticking(self, setup, clock):
        """The setup with regularizers whose ``mirror_map`` ticks ``clock``."""
        return [(name, tracing.Traced(reg, clock, TICKING), inst)
                for name, reg, inst in setup]

    def study(self, setup, seed, out_dir: Path, tracer=Untraced, clock=perf_counter):
        sched = smd.ConstantSchedule(gamma=self.gamma)
        cells = []
        seconds = 0.0
        with tracing.rebound(tracer.bindings()):
            for name, reg, inst in setup:
                path_dir = out_dir / name
                path_dir.mkdir(parents=True, exist_ok=True)
                for s in derive_seeds(seed, self.paths):
                    label = f"{name} path seed={s}"
                    t0 = clock()
                    try:
                        sr = tracer.call("smd.run", smd.smd_run, inst.problem, reg, sched,
                                         self.k_max, s, x_truth=inst.x_true, xi0=inst.xi0)
                        tracer.call("experiments.csv_write", smd.write_rate_csv, sr,
                                    path_dir / f"smd_rate_{s}.csv")
                    except Exception as exc:  # noqa: BLE001 -- flag the path, keep going
                        sr, error = None, f"{type(exc).__name__}: {exc}"
                    secs = clock() - t0
                    seconds += secs
                    cells.append(Cell(label, secs, 0, float("nan"), error) if sr is None
                                 else self._check_path(label, secs, sr))
        return seconds, cells

    def check(self, raw):
        return raw

    def _check_path(self, label, secs, sr):
        last = sr.records[-1]
        cell = Cell(label, secs, self.k_max, last.s_delta)
        deltas = np.array([r.delta_k for r in sr.records])
        if len(sr.records) != self.k_max + 1:
            cell.error = f"{len(sr.records)} records for k_max = {self.k_max}"
        elif not np.isfinite(sr.x.values).all():
            cell.error = "non-finite final iterate"
        elif not np.diff(deltas).max() <= DELTA_RISE_TOL:
            cell.error = f"Delta_k rose by {np.diff(deltas).max():.3e}"
        return cell


# ---------------------------------------------------------------------------

WORKLOADS = {
    # rule 1 runs long (6.8k iterates at 5e-2), rule 2 mid-length (5.3k at
    # 5e-3), rule 3 short (80-220) over all three deltas: per-iterate cost,
    # per-cell overhead and 10^4-row CSV writes all show.  Eight noise seeds
    # for rule 3 keep the median rate constant steady across workload seeds;
    # with 9/9/8 cells per delta that median sits inside the 5e-3 group.
    "entropy_sweep": LandweberWorkload(
        "entropy_integral", 5000, 1.01,
        (("rule1", (5e-2,), range(1)), ("rule2", (5e-3,), range(1)),
         ("rule3", (5e-2, 5e-3, 5e-4), range(8)))),
    # delta = 1e-4 is the only level that iterates: discrepancy fires at
    # k = 0 for 1e-2 and at k = 4 for 1e-3.  It is also the known red row.
    # The two rules take different noise seeds: k_stop and CG cost move
    # together for one seed, so shared noise would double their spread.
    "elliptic_sweep": LandweberWorkload(
        "pde_coefficient", 64, 1.1,
        (("rule2", (1e-4,), range(0, 1)), ("rule3", (1e-4,), range(1, 2)))),
    # 20 paths per regularizer, as in the acceptance study: s_k*Delta_k at
    # k_max varies by a factor of 2-4 between paths, and the median of 40
    # paths keeps rate_const_p50 steady across workload seeds.
    "smd_paths": SmdWorkload(blocks=4, n=50, instance_seed=7, gamma=1.8,
                             k_max=10_000, paths=20),
}

#: the same shapes at toy sizes, for the untimed smoke mode
SMOKE = {
    "entropy_sweep": dataclasses.replace(
        WORKLOADS["entropy_sweep"], n=200,
        sweeps=(("rule1", (5e-2,), range(1)), ("rule2", (5e-3,), range(1)),
                ("rule3", (5e-2, 5e-3, 5e-4), range(2)))),
    "elliptic_sweep": dataclasses.replace(WORKLOADS["elliptic_sweep"], n=16),
    "smd_paths": dataclasses.replace(WORKLOADS["smd_paths"], k_max=200, paths=2),
}
