"""Acceptance suite: one test per exit criterion, at the stated tolerances.

The expensive sweeps (entropy n = 5000, elliptic n = 64, the stochastic
20-seed study) run once as session fixtures and are shared by the criteria
that consume them.  Each test prints a single summary line with the measured
quantities next to its bound.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from mirrorsolve import (
    ConstantSchedule,
    ConstantStep,
    DiscrepancyStop,
    EllipticCoefficient,
    EllipticSolver,
    ElasticNet,
    EntropySimplex,
    Grid,
    GridFunction,
    MaxIterStop,
    QuadraticBox,
    add_noise,
    build_sourced_instance,
    norm_l2,
    run,
    smd_run,
)
from mirrorsolve.checks import run_all
from mirrorsolve.experiments import (
    Setup,
    make_step_rule,
    run_rate_sweep,
    setup_entropy_experiment,
)
from mirrorsolve.landweber import APrioriStop

SEEDS = (1, 2, 3, 4, 5)
ENTROPY_DELTAS = (5e-2, 5e-3, 5e-4)
PDE_DELTAS = (1e-2, 1e-3, 1e-4)
SMD_SEEDS = range(1, 21)

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
    A = sp.csr_matrix((solver.matrix(c_in), solver._lap.indices, solver._lap.indptr))
    lam[interior] = A @ (-c_in / u_true.values[interior])
    lam_true = GridFunction(grid, lam)
    lin = forward.linearize(c_true)
    defect = norm_l2(lin.adjoint(lam_true) - c_true)
    assert defect <= 1e-9, f"source condition defect {defect:.2e} > 1e-9"

    return Setup(forward, QuadraticBox(lower=0.0), c_true, lin.value,
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
    row = next(r for r in sweep.table.rows if r.delta == delta)
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
        iters = {rule: next(r.iters for r in sweeps[rule].table.rows if r.delta == delta)
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
    signal = norm_l2(setup.y - setup.forward.apply(setup.forward.grid_in.zeros()))
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
        rule = make_step_rule("rule1", tau=1.01, eta=0.0, delta=delta, apriori=True)
        finals = []
        for seed in SEEDS:
            yd = add_noise(setup.y, delta, seed)
            res = run(setup.forward, setup.reg, yd, rule,
                      APrioriStop(delta=delta), x_truth=setup.x_true)
            assert res.k_stop == int(math.floor(1.0 / delta))
            finals.append(res.records[-1].bregman_to_truth)
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
                bregs = [r.bregman_to_truth for r in cell.result.records]
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


def test_criterion_8_oracle_suites(oracle_results):
    """Adjoint identities, elliptic Taylor order, mirror-map argmin oracles,
    the convex-identity battery and the entropy Bregman/KL row, at their
    stated tolerances."""
    failed = [r for r in oracle_results if not r.passed]
    for r in oracle_results:
        print(f"[criterion 8] {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


def test_criterion_9_single_block_reduction():
    """Stochastic descent with N = 1, exact data, and a constant schedule
    reproduces the deterministic trajectory bit-for-bit over 100 steps."""
    reg = EntropySimplex()
    inst = build_sourced_instance(1, 50, reg, seed=7)
    op = inst.problem.operators[0]
    L = op.norm_bound()
    q = 1.0
    sr = smd_run(inst.problem, reg, ConstantSchedule(gamma=q / (L * L)), 100,
                 seed=3, x_truth=inst.x_true)
    res = run(op, reg, inst.problem.data[0], ConstantStep(gamma=q),
              MaxIterStop(k_max=100), x_truth=inst.x_true)
    assert np.array_equal(sr.x.values, res.x.values)
    assert np.array_equal(sr.xi.values, res.xi.values)
    for rec_s, rec_d in zip(sr.records, res.records):
        assert rec_s.delta_k == rec_d.bregman_to_truth
        if rec_s.block_residual is not None:
            assert rec_s.block_residual == rec_d.residual_norm
    print("[criterion 9] PASS single-block reduction: 100 steps bit-identical")
