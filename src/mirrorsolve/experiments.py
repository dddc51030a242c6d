"""Benchmark experiments: problem setups, rate sweeps, and their CSV artifacts.

Two desk-scale studies are provided:

* ``entropy_integral`` -- first-kind integral equation on [0,1] with kernel
  1 + t + s, solved under the entropy regularizer.  The sought density
  x(t) = exp(1.5 a - 1 + a t) with a = 0.4949075935 integrates to one and
  satisfies the dual source condition 1 + log x = A* (a * 1) exactly.

* ``pde_coefficient`` -- recovery of the nonnegative potential c in
  -Lap(u) + c u = f on the unit square from noisy interior measurements of
  u, under the box-constrained quadratic regularizer.  The true coefficient
  (max(1 - 9(x^2+y^2), 0))^2 and source term f = -4 + (1+x^2+y^2) c make
  u(c) = 1 + x^2 + y^2; exact data is the *discrete* solve at the true
  coefficient so measurement noise, not discretization, drives the sweep.
  The bump sits at the corner (0, 0), so this truth lies outside the source
  condition (see the README, "Elliptic truth and the source condition").

One path takes config values to finished (delta, seed) cells:
``build_setup`` builds the problem, ``make_cell`` the step and stopping
rules (the one constructor of either; eta and tau are the setup's), and
``run_rate_sweep`` draws each cell's noise, runs it and writes its
iterate log.  A sweep runs one step-size rule over a grid of noise levels
and seeds, records the stopping index and reconstruction error per cell,
aggregates across seeds by the median into its table, a tuple of
:class:`RateRow`, and emits deterministic CSV artifacts; a single run is a
sweep of one cell, in the library as on the command line
(``mirrorsolve sweep --delta D --seed S``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .grids import Grid, GridFunction, add_noise
from .landweber import (
    AdaptiveStep,
    APrioriStop,
    ConstantStep,
    DiscrepancyStop,
    MinimalErrorStep,
    RunResult,
    run,
    write_csv,
    write_iterates_csv,
)
from .operators import EllipticCoefficient, EllipticSolver, ForwardOperator, LinearIntegral
from .regularizers import EntropySimplex, QuadraticBox, Regularizer

__all__ = [
    "ENTROPY_A",
    "Setup",
    "setup_entropy_experiment",
    "setup_pde_experiment",
    "build_setup",
    "make_cell",
    "RateRow",
    "CellResult",
    "SweepOutcome",
    "run_rate_sweep",
    "fit_loglog_slope",
    "emit_plot_data",
]

#: root of exp(1.5 a - 1) (exp(a) - 1) / a = 1, which makes the benchmark
#: density integrate to one over [0, 1]
ENTROPY_A = 0.4949075935

#: cap of the variable step-size rules
GAMMA_BAR = 600.0

#: base constant for the uncapped factors of rules 1-3; must stay below
#: 4 * sigma = 2 for the 1/2-strongly-convex regularizers used here
GAMMA0 = 1.98


@dataclass(frozen=True)
class Setup:
    """One benchmark problem; ``tau`` is its discrepancy constant, stopping at
    ||F(x_k) - y_delta|| <= tau * delta, and ``lam_true`` its dual source
    element where that is known."""

    forward: ForwardOperator
    reg: Regularizer
    x_true: GridFunction
    y: GridFunction
    eta: float
    tau: float
    lam_true: GridFunction = None


def setup_entropy_experiment(n: int) -> Setup:
    """Integral-equation benchmark on n subintervals (n >= 100).

    The kernel 1 + t + s factors as 1*(1+s) + t*1, so the operator is applied
    through its two moments.  The discretized density is renormalized to
    exact unit quadrature mass so it lies inside the entropy domain on every
    grid; the adjustment is below 1e-9 relative at n = 5000.
    """
    if n < 100:
        raise ValueError("entropy experiment needs n >= 100")
    grid = Grid.interval(n)
    t = grid.coords[0]
    raw = ENTROPY_A * t
    raw += 1.5 * ENTROPY_A - 1.0
    np.exp(raw, out=raw)
    raw /= np.add.reduce(grid.weights * raw)
    x_true = GridFunction(grid, raw)

    forward = LinearIntegral(grid, factors=[(1.0, 1.0 + t), (t, 1.0)],
                             analytic_norm_bound=math.sqrt(19.0 / 3.0))
    reg = EntropySimplex()
    y = GridFunction(grid, forward.apply_values(x_true.values))
    lam_true = GridFunction(grid, np.full(grid.node_count, ENTROPY_A))
    return Setup(forward, reg, x_true, y, eta=0.0, tau=1.01, lam_true=lam_true)


def setup_pde_experiment(n: int, *, solver_tol: float = 1e-10) -> Setup:
    """Coefficient-identification benchmark on an n x n square grid, whose
    corner-bump truth has an error floor (see the README, "Elliptic truth")."""
    if n not in (16, 32, 64, 128):
        raise ValueError("pde experiment supports n in {16, 32, 64, 128}")
    grid = Grid.square(n)
    x, yy = grid.coords
    c_true = GridFunction(grid, np.maximum(1.0 - 9.0 * (x ** 2 + yy ** 2), 0.0) ** 2)
    u_true = GridFunction(grid, 1.0 + x ** 2 + yy ** 2)
    f = GridFunction(grid, -4.0 + u_true.values * c_true.values)
    forward = EllipticCoefficient(f, u_true, grid,
                                  solver=EllipticSolver(grid, tol=solver_tol))
    reg = QuadraticBox(lower=0.0)
    y = GridFunction(grid, forward.linearize_values(c_true.values)[0])
    return Setup(forward, reg, c_true, y, eta=0.04, tau=1.1)


def build_setup(kind: str, n: int) -> Setup:
    """The setup of a Landweber problem kind on grid size ``n``."""
    if kind == "entropy_integral":
        return setup_entropy_experiment(n)
    if kind == "pde_coefficient":
        return setup_pde_experiment(n)
    raise ValueError(f"problem {kind!r} has no deterministic setup")


def make_cell(setup, rule_name: str, delta: float, *, stopping: str = "discrepancy"):
    """The (step rule, stopping rule) pair of one noise level on ``setup``.

    eta and tau are the setup's; eta must lie in [0, 1).  ``stopping`` is
    ``discrepancy`` (tau, delta) or ``apriori`` (floor(1 / delta) steps;
    ``APrioriStop`` refuses a budget past ``run``'s safety cap, so one that
    cannot finish fails before any cell runs).  Each rule and stop checks
    its own parameters.  ``delta`` must be positive and finite, since a cell
    reports err / sqrt(delta).

    rule1: constant gamma / L^2, which needs the analytic norm bound of a
    linear forward map.  Under discrepancy stopping gamma is
    GAMMA0 * (1 - eta - (1+eta)/tau); under a-priori stopping there is no
    tau coupling and gamma is the larger GAMMA0 * (1 - eta), which still
    satisfies the constant-step admissibility bound 4 * sigma * (1 - eta).
    rule2: minimal-error step with the same gamma, capped at GAMMA_BAR.
    rule3: adaptive step with GAMMA0 and the noise level delta, capped at
    GAMMA_BAR.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    eta, tau = setup.eta, setup.tau
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    if rule_name == "rule1" and not setup.forward.linear:
        raise ValueError("rule1 needs a known norm bound; use rule2 or rule3 here")
    if stopping == "discrepancy":
        stop = DiscrepancyStop(tau=tau, delta=delta)
        gamma = GAMMA0 * (1.0 - eta - (1.0 + eta) / tau)
    elif stopping == "apriori":
        stop = APrioriStop(delta=delta)
        gamma = GAMMA0 * (1.0 - eta)
    else:
        raise ValueError(f"unknown stopping {stopping!r}")
    if rule_name == "rule3":
        return AdaptiveStep(gamma0=GAMMA0, gamma_bar=GAMMA_BAR, tau=tau,
                            eta=eta, delta=delta), stop
    if gamma <= 0:
        raise ValueError("tau too small: derived gamma is not positive")
    if rule_name == "rule1":
        return ConstantStep(gamma=gamma), stop
    if rule_name == "rule2":
        return MinimalErrorStep(gamma=gamma, gamma_bar=GAMMA_BAR), stop
    raise ValueError(f"unknown rule {rule_name!r} (expected rule1|rule2|rule3)")


# ---------------------------------------------------------------------------
# rate rows

@dataclass(frozen=True)
class RateRow:
    delta: float
    rule: str
    iters: float
    err: float

    @property
    def ratio(self) -> float:
        # always derived, never stored: err / sqrt(delta)
        return self.err / math.sqrt(self.delta)


@dataclass
class CellResult:
    delta: float
    seed: int
    k_stop: int = None
    err: float = None
    result: RunResult = None
    error_message: str = None

    @property
    def failed(self) -> bool:
        return self.error_message is not None


@dataclass
class SweepOutcome:
    table: tuple
    cells: list


def run_rate_sweep(setup, rule_name: str, deltas, seeds, *, tau: float = None,
                   stopping: str = "discrepancy", out_dir=None,
                   keep_records: bool = True) -> SweepOutcome:
    """Run one rule over a (delta, seed) grid and aggregate medians.

    Every (rule, stop) pair is constructed and validated before the first
    cell runs, and then ``out_dir``, if set, is created, so a directory that
    cannot be made fails before any cell either.  Cells that raise are
    flagged and skipped in the aggregation; the sweep continues.  Each cell
    draws its noise with ``add_noise``, iterates with ``run`` and, with
    ``out_dir`` set, writes ``iterates_<delta>_<seed>.csv`` with
    ``write_iterates_csv``, each called once per cell through this module's
    name.  The outcome's ``table`` holds one median :class:`RateRow` per
    delta, NaN where every seed failed, and with ``out_dir`` set the sweep
    writes it as ``table.csv``.  A single run is the sweep of one delta and
    one seed.  ``tau``, if set, replaces the setup's before any pair is
    built (``perfbench`` passes each setup's own value).
    """
    if tau is not None:
        setup = replace(setup, tau=tau)
    pairs = [(delta, *make_cell(setup, rule_name, delta, stopping=stopping))
             for delta in deltas]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    rows = []
    for delta, rule, stop in pairs:
        good = []
        for seed in seeds:
            try:
                y_delta = add_noise(setup.y, delta, seed)
                res = run(setup.forward, setup.reg, y_delta, rule, stop, x_truth=setup.x_true)
                cell = CellResult(delta=delta, seed=seed, k_stop=res.k_stop,
                                  err=res.records[-1].error_to_truth,
                                  result=res if keep_records else None)
                if out_dir is not None:
                    tag = f"{delta:g}".replace(".", "p")
                    write_iterates_csv(res.records, out_dir / f"iterates_{tag}_{seed}.csv")
                del res  # unkept records must not live on through the next cell
                good.append(cell)
            except Exception as exc:  # noqa: BLE001 -- flag the cell, keep sweeping
                cell = CellResult(delta=delta, seed=seed,
                                  error_message=f"{type(exc).__name__}: {exc}")
            cells.append(cell)
        if good:
            rows.append(RateRow(
                delta=delta, rule=rule_name,
                iters=float(np.median([c.k_stop for c in good])),
                err=float(np.median([c.err for c in good]))))
        else:
            rows.append(RateRow(delta=delta, rule=rule_name,
                                iters=float("nan"), err=float("nan")))
    if out_dir is not None:
        write_csv(out_dir / "table.csv", "delta,rule,iter,err,ratio",
                  (f"{row.delta:.17g},{row.rule},{row.iters:.17g},"
                   f"{row.err:.17g},{row.ratio:.17g}\n" for row in rows))
    return SweepOutcome(table=tuple(rows), cells=cells)


def fit_loglog_slope(deltas, errs):
    """Least-squares slope of log(err) against log(delta); None if fewer than
    two distinct deltas have usable (positive, finite) points."""
    d = np.asarray(deltas, float)
    e = np.asarray(errs, float)
    mask = (d > 0) & (e > 0) & np.isfinite(d) & np.isfinite(e)
    if np.unique(d[mask]).size < 2:
        return None
    return float(np.polyfit(np.log(d[mask]), np.log(e[mask]), 1)[0])


def emit_plot_data(table, out_dir) -> dict:
    """Write ``rate.csv`` (log-log pairs plus a fitted-slope summary line)
    for a sweep's ``table``, its tuple of :class:`RateRow`, into the existing
    directory ``out_dir``.

    Returns {"slope": float | None, "rate_csv": path}; raises ValueError on
    an empty table.
    """
    if not table:
        raise ValueError("cannot emit plot data for an empty table")
    slope = fit_loglog_slope([r.delta for r in table], [r.err for r in table])
    rate_csv = Path(out_dir) / "rate.csv"
    lines = [f"{row.delta:.17g},{row.err:.17g},"
             f"{math.log10(row.delta):.17g},{math.log10(row.err):.17g}\n"
             for row in table if row.err > 0 and np.isfinite(row.err)]
    lines.append(f"# lsq slope of log err vs log delta: "
                 f"{'n/a' if slope is None else format(slope, '.6g')}\n")
    write_csv(rate_csv, "delta,err,log10_delta,log10_err", lines)
    return {"slope": slope, "rate_csv": rate_csv}
