"""Acceptance suite: one test per exit criterion, at the stated tolerances.

The expensive sweeps (entropy n = 5000, elliptic n = 64, the stochastic
20-seed study) run once as session fixtures and are shared by the criteria
that consume them.  Each test prints a single summary line with the measured
quantities next to its bound.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from mirrorsolve.checks import run_all
from mirrorsolve.cli import main as cli_main
from mirrorsolve.experiments import (
    Setup,
    make_cell,
    run_rate_sweep,
    setup_entropy_experiment,
)
from mirrorsolve.grids import Grid, GridFunction, add_noise, norm_l2_values
from mirrorsolve.landweber import ConstantStep, DiscrepancyStop, MaxIterStop, run
from mirrorsolve.operators import EllipticCoefficient, EllipticSolver
from mirrorsolve.regularizers import ElasticNet, EntropySimplex, QuadraticBox
from mirrorsolve.smd import ConstantSchedule, build_sourced_instance, smd_run, write_rate_csv
from test_operators import elliptic_matrix

SEEDS = (1, 2, 3, 4, 5)
ENTROPY_DELTAS = (5e-2, 5e-3, 5e-4)
PDE_DELTAS = (1e-2, 1e-3, 1e-4)
SMD_SEEDS = range(1, 21)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# published single-realization reference ratios err/sqrt(delta) per rule
REFERENCE_ENTROPY_RATIOS = {
    "rule1": {5e-2: 0.2268, 5e-3: 0.0713, 5e-4: 0.0209},
    "rule2": {5e-2: 0.2266, 5e-3: 0.0710, 5e-4: 0.0208},
    "rule3": {5e-2: 0.2248, 5e-3: 0.0704, 5e-4: 0.0208},
}
REFERENCE_PDE_MAX_RATIO = 1.7471


@pytest.fixture(scope="session")
def entropy_sweeps():
    setup = setup_entropy_experiment(5000)
    sweeps = {rule: run_rate_sweep(setup, rule, ENTROPY_DELTAS, SEEDS,
                                   tau=1.01, keep_records=True)
              for rule in ("rule1", "rule2", "rule3")}
    return setup, sweeps


def _interior_bump_pde_setup(n):
    """The elliptic benchmark with its bump centred in the unit square.

    c_true = (max(1 - 9((x-1/2)^2 + (y-1/2)^2), 0))^2 vanishes on the whole
    boundary, where the forward map has no sensitivity, and it meets the
    source condition c_true = F'(c_true)^* lambda_true with
    lambda_true = (-Lap_h + c_true)(-c_true/u_true).  Both premises are
    asserted here.  Everything else is as in ``setup_pde_experiment``:
    u_true = 1 + x^2 + y^2, f = -4 + u_true c_true, data from the discrete
    solve at c_true.
    """
    grid = Grid.square(n)
    x, yy = grid.coords
    c_true = GridFunction(
        grid, np.maximum(1.0 - 9.0 * ((x - 0.5) ** 2 + (yy - 0.5) ** 2), 0.0) ** 2)
    u_true = GridFunction(grid, 1.0 + x ** 2 + yy ** 2)
    f = GridFunction(grid, -4.0 + u_true.values * c_true.values)
    solver = EllipticSolver(grid, tol=1e-10)
    forward = EllipticCoefficient(f, u_true, grid, solver=solver)

    interior = np.zeros((n + 1, n + 1), bool)
    interior[1:-1, 1:-1] = True
    interior = interior.ravel()
    assert np.all(c_true.values[~interior] == 0.0), "c_true is nonzero on the boundary"

    c_in = c_true.values[interior]
    lam = np.zeros(grid.node_count)
    A = elliptic_matrix(n, c_in)
    lam[interior] = A @ (-c_in / u_true.values[interior])
    lam_true = GridFunction(grid, lam)
    value, _, adjoint = forward.linearize_values(c_true.values)
    defect = norm_l2_values(adjoint(lam_true.values) - c_true.values, grid.weights)
    assert defect <= 1e-9, f"source condition defect {defect:.2e} > 1e-9"

    return Setup(forward, QuadraticBox(lower=0.0), c_true, GridFunction(grid, value),
                 eta=0.04, tau_default=1.1)


@pytest.fixture(scope="session")
def pde_sweeps():
    setup = _interior_bump_pde_setup(64)
    sweeps = {rule: run_rate_sweep(setup, rule, PDE_DELTAS, SEEDS,
                                   tau=1.1, keep_records=True)
              for rule in ("rule2", "rule3")}
    return setup, sweeps


@pytest.fixture(scope="session")
def smd_study():
    study = {}
    for name, reg in (("entropy", EntropySimplex()), ("elastic", ElasticNet(beta=0.3))):
        inst = build_sourced_instance(4, 50, reg, seed=7)
        runs = [smd_run(inst.problem, reg, ConstantSchedule(1.8), 10_000, seed=s,
                        x_truth=inst.x_true)
                for s in SMD_SEEDS]
        study[name] = (inst, runs)
    return study


@pytest.fixture(scope="session")
def oracle_results():
    return run_all()


def _median_ratio(sweep, delta):
    row = next(r for r in sweep.table if r.delta == delta)
    return row.ratio


def test_criterion_1_entropy_rate_band(entropy_sweeps):
    """Median err_L1/sqrt(delta) <= 0.5, within 2.2x of the reference per row,
    and non-increasing as delta decreases, for each of the three rules."""
    _, sweeps = entropy_sweeps
    lines = []
    for rule, sweep in sweeps.items():
        ratios = [_median_ratio(sweep, d) for d in ENTROPY_DELTAS]
        for d, ratio in zip(ENTROPY_DELTAS, ratios):
            ref = REFERENCE_ENTROPY_RATIOS[rule][d]
            assert ratio <= 0.5, f"{rule} delta={d:g}: ratio {ratio:.4f} > 0.5"
            assert ratio <= 2.2 * ref, \
                f"{rule} delta={d:g}: ratio {ratio:.4f} > 2.2 x {ref}"
        assert ratios[0] >= ratios[1] >= ratios[2], \
            f"{rule}: ratios not non-increasing: {ratios}"
        lines.append(f"{rule}: ratios {['%.4f' % r for r in ratios]}")
    print("[criterion 1] PASS entropy rate band; " + "; ".join(lines))


def test_criterion_2_entropy_iteration_ordering(entropy_sweeps):
    """Median stopping index: rule3 < rule2 <= rule1 at delta in {5e-3, 5e-4}."""
    _, sweeps = entropy_sweeps
    summary = []
    for delta in (5e-3, 5e-4):
        iters = {rule: next(r.iters for r in sweeps[rule].table if r.delta == delta)
                 for rule in ("rule1", "rule2", "rule3")}
        assert iters["rule3"] < iters["rule2"] <= iters["rule1"], \
            f"delta={delta:g}: ordering violated: {iters}"
        summary.append(f"delta={delta:g}: {iters['rule3']:g} < {iters['rule2']:g} "
                       f"<= {iters['rule1']:g}")
    print("[criterion 2] PASS iteration ordering; " + "; ".join(summary))


@pytest.mark.parametrize("delta", PDE_DELTAS)
def test_criterion_3_pde_rate_band(pde_sweeps, delta):
    """Median err_L2/sqrt(delta) <= 2.5 for rules 2-3 on the elliptic problem.

    The instance is the interior bump of ``_interior_bump_pde_setup``.  The
    sqrt(delta) rate is proved under the source condition
    xi_true = F'(x_true)^* lambda_true, and F'(c)^* lambda = -u w with
    w = 0 on the boundary, so a truth that meets it has a zero boundary
    trace.  The truth of ``setup_pde_experiment`` sits in the corner (0, 0)
    and is nonzero on the edges x = 0 and y = 0; every iterate stays 0
    there, so its L2 error cannot fall below 0.0453 at n = 64 and that
    instance carries no rate to check.  The fixture asserts both premises.
    """
    setup, sweeps = pde_sweeps
    at_zero = setup.forward.linearize_values(setup.forward.grid_in.zeros().values)[0]
    signal = norm_l2_values(setup.y.values - at_zero, setup.y.grid.weights)
    for rule in ("rule2", "rule3"):
        ratio = _median_ratio(sweeps[rule], delta)
        assert ratio <= 2.5, (
            f"{rule} delta={delta:g}: median ratio {ratio:.4f} > 2.5 "
            f"(reference max {REFERENCE_PDE_MAX_RATIO}; data signal "
            f"||F(c_true)-F(0)|| = {signal:.3e} vs noise delta = {delta:g})")
    print(f"[criterion 3] PASS pde rate band at delta={delta:g}: "
          + ", ".join(f"{rule} ratio {_median_ratio(sweeps[rule], delta):.4f}"
                      for rule in ("rule2", "rule3")))


def test_criterion_4_apriori_rate():
    """Iteration budget floor(1/delta) with the constant step: the Bregman
    distance over delta stays bounded (ratio at 1e-3 <= 3x ratio at 1e-2)."""
    setup = setup_entropy_experiment(5000)
    ratios = {}
    for delta in (1e-2, 1e-3):
        rule, stop = make_cell(setup, "rule1", delta, stopping="apriori")
        finals = []
        for seed in SEEDS:
            yd = add_noise(setup.y, delta, seed)
            res = run(setup.forward, setup.reg, yd, rule, stop, x_truth=setup.x_true)
            assert res.k_stop == int(math.floor(1.0 / delta))
            finals.append(res.records[-1].delta_k)
        ratios[delta] = float(np.median(finals)) / delta
    assert ratios[1e-3] <= 3.0 * ratios[1e-2], f"a-priori ratios grew: {ratios}"
    print(f"[criterion 4] PASS a-priori rate: D/delta = {ratios[1e-2]:.4f} at 1e-2, "
          f"{ratios[1e-3]:.4f} at 1e-3")


def test_criterion_5_bregman_monotonicity(entropy_sweeps, pde_sweeps):
    """Along every discrepancy-stopped run logged by criteria 1 and 3, the
    Bregman distance to the truth is non-increasing (absolute slack 1e-10)."""
    checked = 0
    worst = -np.inf
    for _, sweeps in (entropy_sweeps, pde_sweeps):
        for sweep in sweeps.values():
            for cell in sweep.cells:
                assert not cell.failed, cell.error_message
                bregs = [r.delta_k for r in cell.result.records]
                rises = [bregs[i + 1] - bregs[i] for i in range(len(bregs) - 1)]
                if rises:
                    worst = max(worst, max(rises))
                    assert max(rises) <= 1e-10, \
                        f"delta={cell.delta:g} seed={cell.seed}: rise {max(rises):.2e}"
                checked += 1
    print(f"[criterion 5] PASS bregman monotonicity on {checked} runs "
          f"(worst increment {worst:.2e})")


def test_criterion_6_lambda_consistency(entropy_sweeps):
    """Every logged entropy iterate satisfies the dual-space identity
    xi_k = xi_0 + A* lambda_k to 1e-10 (the tolerance 1e-10 (1 + ||xi_k||)
    is implied a fortiori)."""
    _, sweeps = entropy_sweeps
    worst = 0.0
    count = 0
    for sweep in sweeps.values():
        for cell in sweep.cells:
            for rec in cell.result.records:
                assert rec.lambda_defect is not None
                worst = max(worst, rec.lambda_defect)
                count += 1
    assert worst <= 1e-10, f"max lambda defect {worst:.2e}"
    print(f"[criterion 6] PASS lambda consistency over {count} iterates "
          f"(max defect {worst:.2e})")


def test_criterion_7_smd_rate(smd_study):
    """Sourced 4-block instances, constant schedule, 20 seeds, 1e4 steps:
    per-path monotone descent, no growth of the median rate product between
    k = 1e2 and k = 1e4, and a finite reported maximum of s_k * Delta_k."""
    for name, (inst, runs) in smd_study.items():
        max_product = 0.0
        sd100, sd_final = [], []
        for seed, sr in zip(SMD_SEEDS, runs):
            deltas = [r.delta_k for r in sr.records]
            rises = [deltas[i + 1] - deltas[i] for i in range(len(deltas) - 1)]
            assert max(rises) <= 1e-12, f"{name} seed={seed}: rise {max(rises):.2e}"
            products = {r.k: r.s_delta for r in sr.records}
            sd100.append(products[100])
            sd_final.append(products[10_000])
            max_product = max(max_product, max(r.s_delta for r in sr.records))
        med100 = float(np.median(sd100))
        med_final = float(np.median(sd_final))
        assert np.isfinite(max_product)
        assert med_final <= med100, \
            f"{name}: median s*Delta grew {med100:.4e} -> {med_final:.4e}"
        print(f"[criterion 7] PASS smd rate [{name}]: median s*Delta "
              f"{med100:.4e} @1e2 -> {med_final:.4e} @1e4, "
              f"max over paths {max_product:.4e}")


@pytest.mark.parametrize("name", ["entropy", "elastic"])
def test_criterion_7_is_the_cli_study(smd_study, tmp_path, capsys, name):
    """``mirrorsolve sweep`` on the shipped entropy and elastic-net configs runs
    criterion 7's instance, regularizer and horizon: its seed-3 rate log
    holds the bytes of that path, and its printed line is that path's
    terminal record, Delta_k and s_k * Delta_k."""
    _, runs = smd_study[name]
    path = runs[SMD_SEEDS.index(3)]
    write_rate_csv(path, tmp_path / "criterion_7.csv")
    capsys.readouterr()
    assert cli_main(["sweep", "--config", str(CONFIGS / f"smd_{name}.cfg"), "--seed", "3",
                     "--out", str(tmp_path / "cli")]) == 0
    last = path.records[-1]
    assert capsys.readouterr().out.splitlines()[0] == (
        f"seed=3 k={last.k} delta_k={last.delta_k:.6e} s_k*delta_k={last.s_delta:.6e}")
    assert ((tmp_path / "cli" / "smd_rate_3.csv").read_bytes()
            == (tmp_path / "criterion_7.csv").read_bytes())


def test_criterion_8_oracle_suites(oracle_results):
    """Adjoint identities, elliptic Taylor order, mirror-map argmin oracles,
    the convex-identity battery and the entropy Bregman/KL row, at their
    stated tolerances."""
    failed = [r for r in oracle_results if not r.passed]
    for r in oracle_results:
        print(f"[criterion 8] {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


#: the rows of the oracle battery, in the order ``verify`` prints them
ORACLE_ROWS = (
    "adjoint/dense-kernel", "adjoint/integral-operator", "adjoint/elliptic-derivative",
    "derivative/elliptic-taylor-order",
    "mirror-map/separable-argmin", "mirror-map/entropy-simplex-argmin",
    *(f"convex/{row}[{reg}]" for reg in ("QuadraticBox", "ElasticNet", "EntropySimplex")
      for row in ("three-point", "fenchel", "lower-bound", "mirror-lipschitz",
                  "dual-upper-bound")),
    "bregman/entropy-kl",
)


def test_oracle_battery_rows(oracle_results):
    """Criterion 8 passes only on the rows present, so the rows are pinned:
    a row that disappears or moves fails here."""
    assert tuple(r.name for r in oracle_results) == ORACLE_ROWS
    assert len(ORACLE_ROWS) == 22


def test_criterion_9_single_block_reduction():
    """Stochastic descent with N = 1, exact data, and a constant schedule
    reproduces the deterministic trajectory bit-for-bit over 100 steps."""
    reg = EntropySimplex()
    inst = build_sourced_instance(1, 50, reg, seed=7)
    op = inst.problem.operators[0]
    L = op.norm_bound()
    q = 1.0
    sched = ConstantSchedule(gamma=q / (L * L))
    sr = smd_run(inst.problem, reg, sched, 100, seed=3, x_truth=inst.x_true)
    res = run(op, reg, inst.problem.data[0], ConstantStep(gamma=q),
              MaxIterStop(k_max=100), x_truth=inst.x_true)
    assert np.array_equal(sr.x.values, res.x.values)
    assert np.array_equal(sr.xi.values, res.xi.values)
    # every field both methods log, on every state; the stopped path's s_k
    # adds the schedule's gamma_100, where run's adds no step
    last = res.records[-1]
    expected = (*res.records[:-1], last._replace(step_sum=last.step_sum + sched.at(100)))
    assert len(sr.records) == len(expected) == 101

    def tied(rec):
        return (rec.k, rec.residual_norm, rec.step, rec.step_sum, rec.delta_k,
                rec.degenerate, rec.block)

    assert [tied(r) for r in sr.records] == [tied(r) for r in expected]
    print("[criterion 9] PASS single-block reduction: 100 steps bit-identical")
