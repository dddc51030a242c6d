from itertools import accumulate

import numpy as np
import pytest

import mirrorsolve.landweber
import mirrorsolve.smd
from mirrorsolve import operators
from mirrorsolve.experiments import setup_pde_experiment
from mirrorsolve.grids import Grid, GridFunction, GridMismatchError, norm_l2_values
from mirrorsolve.landweber import (
    CHUNK,
    ConstantStep,
    MaxIterStop,
    NonFiniteResidualError,
    SystemProblem,
    csv_number,
    run,
)
from mirrorsolve.operators import LinearIntegral
from mirrorsolve.regularizers import ElasticNet, EntropySimplex, QuadraticBox
from mirrorsolve.smd import (
    ConstantSchedule,
    PolynomialSchedule,
    build_sourced_instance,
    smd_run,
    validate_schedule,
    write_rate_csv,
)

#: the one refusal of an operator or a data block off the first operator's grid
ONE_GRID = "operators and data blocks must all live on the first operator's grid"


class TestSchedules:
    def test_constant_values(self):
        # the constant schedule is the polynomial family at alpha = 0
        s = ConstantSchedule(0.7)
        assert s == PolynomialSchedule(gamma=0.7, alpha=0.0)
        assert s.at(0) == s.at(123) == s.gamma == 0.7

    def test_polynomial_values_and_validation(self):
        s = PolynomialSchedule(gamma=2.0, alpha=0.5)
        assert s.at(0) == s.gamma == 2.0
        assert s.at(3) == pytest.approx(1.0)
        for alpha in (1.0, -0.1):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0,1\)"):
                PolynomialSchedule(gamma=1.0, alpha=alpha)

    def test_step_bound_enforced(self):
        # sigma = 1/2: bound is 4 sigma / L^2 = 2 / L^2
        validate_schedule(ConstantSchedule(1.9), L=1.0)
        with pytest.raises(ValueError):
            validate_schedule(ConstantSchedule(2.1), L=1.0)
        # gamma, the first and largest step, is what the bound reads
        validate_schedule(PolynomialSchedule(gamma=1.9, alpha=0.5), L=1.0)
        for gamma in (2.1, float("inf")):
            with pytest.raises(ValueError, match=r"gamma = \S+ violates the step bound 2 for L=1"):
                validate_schedule(PolynomialSchedule(gamma=gamma, alpha=0.5), L=1.0)

    @pytest.mark.parametrize("reg", [EntropySimplex(), ElasticNet(beta=0.3)],
                             ids=["entropy", "elastic"])
    def test_constant_schedule_is_polynomial_at_alpha_zero(self, tmp_path, reg):
        # gamma (k+1)^(-0.0) is gamma bit for bit: on the acceptance instance
        # both schedules give equal records and equal rate-CSV bytes
        inst = build_sourced_instance(4, 50, reg, seed=7)
        scheds = (ConstantSchedule(1.8), PolynomialSchedule(gamma=1.8, alpha=0.0))
        runs = [smd_run(inst.problem, reg, sched, 10_000, seed=3, x_truth=inst.x_true)
                for sched in scheds]
        assert runs[0].records == runs[1].records
        assert {r.step for r in runs[1].records[:-1]} == {1.8}
        # every record holds the schedule's own gamma, not a copy per step
        for run, sched in zip(runs, scheds):
            assert all(r.step is sched.gamma for r in run.records[:-1])
        paths = [tmp_path / "constant.csv", tmp_path / "polynomial.csv"]
        for run, path in zip(runs, paths):
            write_rate_csv(run, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def _tied(rec):
    """The record fields that a one-block path and run share."""
    return (rec.k, rec.residual_norm, rec.step, rec.step_sum, rec.delta_k, rec.degenerate,
            rec.block)


def _source_element(inst):
    """xi0 + sum_i A_i^* lam_true_i, the dual point of the instance's truth."""
    xi = inst.xi0.values
    for op, lam in zip(inst.problem.operators, inst.lam_true):
        xi = xi + op.adjoint_values(lam.values)
    return GridFunction(inst.xi0.grid, xi)


class TestSourcedInstance:
    def test_solution_solves_system_exactly(self):
        inst = build_sourced_instance(4, 50, EntropySimplex(), seed=7)
        for op, y in zip(inst.problem.operators, inst.problem.data):
            assert np.max(np.abs(op.apply_values(inst.x_true.values) - y.values)) == 0.0

    def test_source_condition_holds_by_construction(self):
        reg = EntropySimplex()
        inst = build_sourced_instance(3, 40, reg, seed=5)
        xi_true = _source_element(inst)
        # xi_true is a subgradient at x_true, so the Bregman distance of the
        # pair to its own primal point vanishes
        d = reg.bregman_to(inst.x_true)(xi_true.values)
        assert d == pytest.approx(0.0, abs=1e-12)
        x = reg.mirror_map(xi_true.values, xi_true.grid.weights)
        assert np.array_equal(x, inst.x_true.values)

    def test_zero_source_gives_trivial_instance(self):
        reg = EntropySimplex()
        inst = build_sourced_instance(2, 30, reg, seed=3, lam_scale=0.0)
        x0 = reg.mirror_map(inst.xi0.values, inst.xi0.grid.weights)
        assert np.array_equal(inst.x_true.values, x0)
        sr = smd_run(inst.problem, reg, ConstantSchedule(1.0), 20, seed=1,
                     x_truth=inst.x_true, xi0=inst.xi0)
        assert all(r.delta_k == 0.0 for r in sr.records)

    @pytest.mark.parametrize("N,n,seed,lam_scale", [(1, 400, 10, 4.0), (1, 800, 8, 4.0),
                                                    (2, 30, 3, 0.0)])
    def test_empty_instance_rejected(self, N, n, seed, lam_scale):
        # max |sum_i A_i^* lam_true_i| is at most beta, so x_true = 0 and
        # every block's data vanish
        with pytest.raises(ValueError, match=rf"N = {N}, n = {n}, seed = {seed} is empty"):
            build_sourced_instance(N, n, ElasticNet(0.3), seed=seed, lam_scale=lam_scale)

    @pytest.mark.parametrize("reg", [EntropySimplex(), ElasticNet(0.3)],
                             ids=["entropy", "elastic"])
    def test_shipped_instances_build(self, reg):
        inst = build_sourced_instance(4, 50, reg, seed=7)
        assert all(np.any(y.values != 0.0) for y in inst.problem.data)

    def test_each_block_norm_estimated_once(self, monkeypatch):
        # a rescaled block takes its unit norm as given, so one build and one
        # path run one power iteration per block, not two
        calls = []
        estimate = operators.power_iteration_norm

        def counted(*args, **kwargs):
            calls.append(args)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(operators, "power_iteration_norm", counted)
        reg = EntropySimplex()
        inst = build_sourced_instance(4, 50, reg, seed=7)
        smd_run(inst.problem, reg, ConstantSchedule(1.8), 10, seed=1, x_truth=inst.x_true)
        assert len(calls) == 4
        assert inst.problem.norm_bound() == 1.0

    def test_one_system_record_for_both_methods(self):
        # one record for run and smd_run; the benchmark builds it as
        # smd.SystemProblem
        assert mirrorsolve.smd.SystemProblem is mirrorsolve.landweber.SystemProblem

    def test_blocks_share_input_grid(self):
        g1, g2 = Grid.interval(4), Grid.interval(5)
        op1 = LinearIntegral(g1, kernel=np.eye(5))
        op2 = LinearIntegral(g2, kernel=np.eye(6))
        with pytest.raises(GridMismatchError, match=ONE_GRID):
            SystemProblem((op1, op2), (g1.zeros(), g2.zeros()))


@pytest.mark.parametrize("build, error, fragment", [
    (lambda: SystemProblem((), ()), ValueError, "one data block per operator"),
    (lambda: SystemProblem((LinearIntegral(Grid.interval(4), kernel=np.eye(5)),),
                           (Grid.interval(5).zeros(),)),
     GridMismatchError, ONE_GRID),
    # the second block's operator on a grid of the same node count, with its
    # data block on the first operator's grid
    (lambda: SystemProblem((LinearIntegral(Grid.interval(24), kernel=np.eye(25)),
                            LinearIntegral(Grid.square(4), kernel=np.eye(25))),
                           (Grid.interval(24).zeros(), Grid.interval(24).zeros())),
     GridMismatchError, ONE_GRID),
    (lambda: ConstantSchedule(0.0), ValueError, "gamma must be positive"),
    (lambda: PolynomialSchedule(gamma=0.0, alpha=0.5), ValueError, "gamma must be positive"),
    (lambda: build_sourced_instance(0, 10, EntropySimplex(), seed=1), ValueError,
     r"need N >= 1 and n >= 2"),
    (lambda: smd_run(build_sourced_instance(2, 10, EntropySimplex(), seed=1).problem,
                     EntropySimplex(), ConstantSchedule(1.0), -1, seed=0),
     ValueError, "k_max must be nonnegative"),
    # each range is the condition that must hold, so NaN is refused too
    (lambda: ConstantSchedule(float("nan")), ValueError, "gamma must be positive, got nan"),
    (lambda: PolynomialSchedule(gamma=float("nan"), alpha=0.5), ValueError,
     "gamma must be positive, got nan"),
    (lambda: PolynomialSchedule(gamma=1.0, alpha=float("nan")), ValueError,
     r"alpha must lie in \[0,1\), got nan"),
    (lambda: ElasticNet(beta=float("nan")), ValueError, "beta must be positive"),
], ids=["no-blocks", "data-grid", "operator-grid", "constant-gamma", "polynomial-gamma0",
        "sourced-n-blocks", "negative-k-max", "constant-nan-gamma", "polynomial-nan-gamma0",
        "polynomial-nan-alpha", "elastic-nan-beta"])
def test_input_checks(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()


def _sourced_block():
    """A linear sourced block, run for 100 steps: (op, reg, y, x_true, k_max)."""
    reg = ElasticNet(beta=0.4)
    inst = build_sourced_instance(1, 30, reg, seed=13)
    return inst.problem.operators[0], reg, inst.problem.data[0], inst.x_true, 100


def _elliptic_block():
    """The nonlinear elliptic map with exact data, run for 20 steps."""
    setup = setup_pde_experiment(16)
    return setup.forward, setup.reg, setup.y, setup.x_true, 20


class TestSmdRun:
    def test_fixed_point_at_solution(self):
        reg = EntropySimplex()
        inst = build_sourced_instance(3, 30, reg, seed=11)
        sr = smd_run(inst.problem, reg, ConstantSchedule(1.5), 50, seed=2,
                     x_truth=inst.x_true, xi0=_source_element(inst))
        assert np.array_equal(sr.x.values, inst.x_true.values)
        assert all(r.residual_norm == 0.0 for r in sr.records)
        assert all(abs(r.delta_k) <= 1e-12 for r in sr.records)

    def test_two_block_scalar_reference(self):
        # independent replay with explicit loops on a 3-node grid
        reg = EntropySimplex()
        n = 2
        grid = Grid.interval(n)
        w, t = grid.weights, grid.coords[0]
        rng = np.random.default_rng(21)
        K1 = rng.standard_normal((3, 3))
        K2 = rng.standard_normal((3, 3))
        ops = (LinearIntegral(grid, kernel=K1), LinearIntegral(grid, kernel=K2))
        xT = np.array([0.5, 1.5, 1.0])
        xT = xT / np.sum(w * xT)
        data = tuple(GridFunction(grid, op.apply_values(xT)) for op in ops)
        prob = SystemProblem(ops, data)
        gamma = 0.9 / prob.norm_bound() ** 2
        seed = 5
        sr = smd_run(prob, reg, ConstantSchedule(gamma), 5, seed=seed)

        picks = np.random.default_rng(seed)
        xi = np.zeros(3)
        x = np.ones(3) / np.sum(w * np.ones(3))
        for k in range(5):
            i = int(picks.integers(2))
            assert sr.records[k].block == i
            K = (K1, K2)[i]
            r = np.zeros(3)
            for a in range(3):
                acc = 0.0
                for b in range(3):
                    acc += K[a, b] * w[b] * x[b]
                r[a] = acc - data[i].values[a]
            g = np.zeros(3)
            for b in range(3):
                acc = 0.0
                for a in range(3):
                    acc += K[a, b] * w[a] * r[a]
                g[b] = acc
            xi = xi - gamma * g
            z = np.exp(xi - np.max(xi))
            x = z / np.sum(w * z)
        assert np.max(np.abs(sr.x.values - x)) <= 1e-12

    @pytest.mark.parametrize("block", [_sourced_block, _elliptic_block],
                             ids=["elastic", "elliptic"])
    def test_single_block_matches_deterministic_solver_bitwise(self, block):
        op, reg, y, x_true, k_max = block()
        L = op.norm_bound()
        q = 1.0
        sched = ConstantSchedule(gamma=q / (L * L))
        sr = smd_run(SystemProblem((op,), (y,)), reg, sched, k_max, seed=4, x_truth=x_true)
        res = run(op, reg, y, ConstantStep(gamma=q), MaxIterStop(k_max=k_max),
                  x_truth=x_true)
        assert (sr.k_stop, sr.stop_reason) == (res.k_stop, res.stop_reason) == (k_max, "maxiter")
        assert len(sr.records) == len(res.records) == k_max + 1
        assert np.array_equal(sr.x.values, res.x.values)
        assert np.array_equal(sr.xi.values, res.xi.values)
        # one record type: every state agrees on every field both methods
        # log, the terminal residual included; the stopped path's s_k adds
        # the schedule's gamma_{k_max}, where run's adds no step
        last = res.records[-1]
        expected = (*res.records[:-1],
                    last._replace(step_sum=last.step_sum + sched.at(k_max)))
        assert [_tied(r) for r in sr.records] == [_tied(r) for r in expected]

    def test_monotone_descent_on_sourced_instance(self):
        reg = EntropySimplex()
        inst = build_sourced_instance(4, 50, reg, seed=7)
        for seed in (1, 2, 3):
            sr = smd_run(inst.problem, reg, ConstantSchedule(1.8), 500, seed=seed,
                         x_truth=inst.x_true)
            deltas = [r.delta_k for r in sr.records]
            assert all(deltas[i + 1] <= deltas[i] + 1e-12 for i in range(len(deltas) - 1))

    @pytest.mark.parametrize("field, grid, fragment", [
        ("x_truth", Grid.square(4), "x_truth does not live on the problem's grid"),
        ("x_truth", Grid.interval(30), "x_truth does not live on the problem's grid"),
        ("data", Grid.square(4), ONE_GRID),
        ("data", Grid.interval(30), ONE_GRID),
        ("operator", Grid.square(4), ONE_GRID),
        ("operator", Grid.interval(30), ONE_GRID)],
        ids=["same-node-count", "other-node-count", "data-same-node-count",
             "data-other-node-count", "operator-same-node-count", "operator-other-node-count"])
    def test_truth_off_the_input_grid_raises_before_the_first_step(self, field, grid, fragment,
                                                                   monkeypatch):
        # the truth, a data block and an operator go through the checks of
        # run; Grid.square(4) has the 25 nodes of Grid.interval(24), so only
        # the grid check can tell it apart
        reg = EntropySimplex()
        inst = build_sourced_instance(2, 24, reg, seed=1)

        def no_step(v):
            raise AssertionError("the path linearized before checking its inputs")

        ops, data = inst.problem.operators, inst.problem.data
        if field == "operator":
            n = grid.node_count
            ops = (ops[0], LinearIntegral(grid, kernel=np.eye(n)))
        for op in ops:
            monkeypatch.setattr(op, "linearize_values", no_step)
        off = grid.ones()
        if field == "data":
            data = (data[0], off)
        with pytest.raises(GridMismatchError, match=fragment):
            smd_run(SystemProblem(ops, data), reg, ConstantSchedule(1.0),
                    100, seed=0, **({field: off} if field == "x_truth" else {}))

    @pytest.mark.parametrize("reg, truth", [
        (EntropySimplex(), lambda g: np.full(g.node_count, 1.5)),
        (QuadraticBox(lower=0.0), lambda g: np.linspace(-0.5, 1.0, g.node_count))],
        ids=["entropy-mass-1.5", "box-negative-node"])
    def test_truth_outside_the_domain_raises_before_the_first_step(self, reg, truth,
                                                                   monkeypatch):
        # the system alone; the truth and the regularizer come from the case
        inst = build_sourced_instance(2, 24, EntropySimplex(), seed=1)
        grid = inst.problem.grid_in

        def no_step(*args):
            raise AssertionError("the path stepped before checking the truth")

        monkeypatch.setattr(mirrorsolve.smd, "smd_step", no_step)
        with pytest.raises(ValueError, match=r"R\(xbar\) = inf is not finite"):
            smd_run(inst.problem, reg, ConstantSchedule(1.0), 100, seed=0,
                    x_truth=GridFunction(grid, truth(grid)))

    def test_start_off_the_input_grid_raises_before_the_first_step(self, monkeypatch):
        reg = EntropySimplex()
        inst = build_sourced_instance(2, 24, reg, seed=1)

        def no_step(v):
            raise AssertionError("the path linearized before checking the start")

        for op in inst.problem.operators:
            monkeypatch.setattr(op, "linearize_values", no_step)
        for grid in (Grid.square(4), Grid.interval(30)):
            with pytest.raises(GridMismatchError, match="xi0 does not live on the problem's grid"):
                smd_run(inst.problem, reg, ConstantSchedule(1.0), 100, seed=0,
                        xi0=grid.zeros())

    def test_no_grid_function_per_step(self, grid_function_count):
        # the states stay node arrays through the steps and the Bregman log;
        # grid functions are built only for the result
        reg = ElasticNet(beta=0.3)
        inst = build_sourced_instance(3, 20, reg, seed=4)
        counts = []
        for k_max in (10, 200):
            grid_function_count[0] = 0
            sr = smd_run(inst.problem, reg, ConstantSchedule(1.0), k_max, seed=1,
                         x_truth=inst.x_true, xi0=inst.xi0)
            assert len(sr.records) == k_max + 1
            counts.append(grid_function_count[0])
        assert counts[0] == counts[1] > 0

    def test_schedule_validated_before_running(self):
        reg = EntropySimplex()
        inst = build_sourced_instance(2, 20, reg, seed=1)
        L = inst.problem.norm_bound()
        with pytest.raises(ValueError):
            smd_run(inst.problem, reg, ConstantSchedule(2.5 / (L * L)), 10, seed=0)

    def test_polynomial_partial_sums_and_decay(self):
        reg = EntropySimplex()
        inst = build_sourced_instance(4, 50, reg, seed=7)
        sched = PolynomialSchedule(gamma=1.8, alpha=0.5)
        k_max = 10_000
        sr = smd_run(inst.problem, reg, sched, k_max, seed=3, x_truth=inst.x_true)
        # partial-sum oracle by direct summation
        expected = np.cumsum([sched.gamma * (k + 1) ** (-0.5) for k in range(k_max + 1)])
        got = np.array([r.step_sum for r in sr.records])
        assert np.max(np.abs(got - expected)) <= 1e-10 * expected[-1]
        # the loop's sum, in step order, bit for bit; the stopped state adds
        # the schedule's gamma_{k_max} without stepping
        steps = [r.step for r in sr.records[:-1]]
        assert [r.step_sum for r in sr.records[:-1]] == list(accumulate(steps))
        assert steps == [sched.at(k) for k in range(k_max)]
        assert sr.records[-1].step is None
        assert sr.records[-1].step_sum == sr.records[-2].step_sum + sched.at(k_max)
        # s_k ~ 2 gamma sqrt(k): the ratio approaches 2 gamma from below
        assert got[-1] / np.sqrt(k_max) == pytest.approx(2.0 * sched.gamma, rel=0.02)
        # with s_k ~ sqrt(k) the distance decays roughly like k^(-1/2); fit
        # past the transient (band is generous: the window is finite)
        ks = np.array([r.k for r in sr.records if r.k >= 300])
        ds = np.array([r.delta_k for r in sr.records if r.k >= 300])
        slope = np.polyfit(np.log(ks), np.log(ds), 1)[0]
        assert -0.7 <= slope <= -0.3

    def test_sampling_uniformity(self):
        reg = EntropySimplex()
        inst = build_sourced_instance(4, 4, reg, seed=2)
        sr = smd_run(inst.problem, reg, ConstantSchedule(1.5), 100_000, seed=9)
        picks = np.array([r.block for r in sr.records if r.step is not None])
        counts = np.bincount(picks, minlength=4)
        expect = len(picks) / 4.0
        sigma = np.sqrt(len(picks) * 0.25 * 0.75)
        assert np.all(np.abs(counts - expect) <= 3.0 * sigma)

    @pytest.mark.parametrize("seed", [1, 2, 3, 12345])
    def test_index_stream_matches_one_batched_draw(self, seed):
        # the per-step scalar draws equal one vectorized draw of all
        # k_max + 1 indices from the same seed, the terminal state's last
        reg = EntropySimplex()
        inst = build_sourced_instance(4, 10, reg, seed=7)
        k_max = 2000
        sr = smd_run(inst.problem, reg, ConstantSchedule(1.5), k_max, seed=seed)
        picks = [r.block for r in sr.records]
        assert picks == np.random.default_rng(seed).integers(4, size=k_max + 1).tolist()

    def test_nonfinite_data_fails_at_first_step(self):
        reg = EntropySimplex()
        inst = build_sourced_instance(3, 20, reg, seed=5)
        nan_data = tuple(GridFunction(y.grid, np.full(y.grid.node_count, np.nan))
                         for y in inst.problem.data)
        prob = SystemProblem(inst.problem.operators, nan_data)
        with pytest.raises(NonFiniteResidualError) as exc:
            smd_run(prob, reg, ConstantSchedule(1.0), 10_000, seed=1, x_truth=inst.x_true)
        assert exc.value.k == 0
        assert exc.value.records == ()

    @pytest.mark.parametrize("k_max", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2])
    @pytest.mark.parametrize("reg", [EntropySimplex(), ElasticNet(beta=0.3)],
                             ids=["entropy", "elastic"])
    def test_chunk_boundaries_do_not_move_bits(self, reg, k_max):
        # the index stream of a shorter path is a prefix of a longer one's,
        # so its states are too, wherever the chunks of the Bregman log end
        inst = build_sourced_instance(4, 50, reg, seed=7)

        def path(k):
            return smd_run(inst.problem, reg, ConstantSchedule(1.8), k, seed=5,
                           x_truth=inst.x_true, xi0=inst.xi0)

        assert path(k_max).records[:-1] == path(200).records[:k_max]

    def test_nonfinite_block_mid_chunk_keeps_the_records_before_it(self):
        reg = EntropySimplex()
        inst = build_sourced_instance(1, 20, reg, seed=5)
        (op,), (y,) = inst.problem.operators, inst.problem.data
        n_blocks, seed, k_max = 100, 8, 1000
        picks = np.random.default_rng(seed).integers(n_blocks, size=k_max).tolist()
        # a block first picked past the first chunk and off a chunk boundary,
        # with rows of the second chunk pending
        k_bad, bad = min((picks.index(i), i) for i in set(picks)
                         if picks.index(i) > 3 * CHUNK // 2 and picks.index(i) % CHUNK)
        nan = GridFunction(y.grid, np.full(y.grid.node_count, np.nan))
        clean = SystemProblem((op,) * n_blocks, (y,) * n_blocks)
        broken = SystemProblem((op,) * n_blocks,
                               tuple(nan if i == bad else y for i in range(n_blocks)))
        sched = ConstantSchedule(1.5)
        ref = smd_run(clean, reg, sched, k_max, seed, x_truth=inst.x_true)
        with pytest.raises(NonFiniteResidualError) as exc:
            smd_run(broken, reg, sched, k_max, seed, x_truth=inst.x_true)
        assert exc.value.k == k_bad
        assert exc.value.records == ref.records[:k_bad]
        assert all(r.delta_k is not None for r in exc.value.records)

    @pytest.mark.parametrize("logged", [True, False], ids=["bregman", "no-truth"])
    def test_nonfinite_block_on_a_chunk_boundary_keeps_the_records_before_it(self, logged):
        # the failing step opens a chunk, so no rows are pending when it raises
        reg = ElasticNet(beta=0.3)
        inst = build_sourced_instance(1, 20, reg, seed=5)
        (op,), (y,) = inst.problem.operators, inst.problem.data
        n_blocks, k_max = 100, 500

        def picks(sd):
            return np.random.default_rng(sd).integers(n_blocks, size=k_max).tolist()

        # a seed whose step 2 * CHUNK is the first pick of its block
        seed = next(sd for sd in range(100) if picks(sd)[2 * CHUNK] not in picks(sd)[:2 * CHUNK])
        bad = picks(seed)[2 * CHUNK]
        nan = GridFunction(y.grid, np.full(y.grid.node_count, np.nan))
        clean = SystemProblem((op,) * n_blocks, (y,) * n_blocks)
        broken = SystemProblem((op,) * n_blocks,
                               tuple(nan if i == bad else y for i in range(n_blocks)))
        sched = ConstantSchedule(1.5)
        truth = {"x_truth": inst.x_true} if logged else {}
        ref = smd_run(clean, reg, sched, k_max, seed, **truth)
        with pytest.raises(NonFiniteResidualError) as exc:
            smd_run(broken, reg, sched, k_max, seed, **truth)
        assert exc.value.k == 2 * CHUNK
        assert exc.value.records == ref.records[:2 * CHUNK]

    def test_nonfinite_block_at_the_terminal_state_raises(self):
        # the stopped state k_max is linearized and checked too, on a block
        # of its own draw; its record has no pick, step or block residual
        reg = EntropySimplex()
        inst = build_sourced_instance(1, 20, reg, seed=5)
        (op,), (y,) = inst.problem.operators, inst.problem.data
        n_blocks, k_max = 100, 50

        def picks(sd):
            return np.random.default_rng(sd).integers(n_blocks, size=k_max + 1).tolist()

        # a seed whose NaN block is drawn first at index k_max
        seed = next(sd for sd in range(100) if picks(sd)[k_max] not in picks(sd)[:k_max])
        bad = picks(seed)[k_max]
        nan = GridFunction(y.grid, np.full(y.grid.node_count, np.nan))
        clean = SystemProblem((op,) * n_blocks, (y,) * n_blocks)
        broken = SystemProblem((op,) * n_blocks,
                               tuple(nan if i == bad else y for i in range(n_blocks)))
        sched = ConstantSchedule(1.5)
        ref = smd_run(clean, reg, sched, k_max, seed, x_truth=inst.x_true)
        last = ref.records[-1]
        assert (last.k, last.step, last.block) == (k_max, None, bad)
        assert np.isfinite(last.residual_norm)
        with pytest.raises(NonFiniteResidualError) as exc:
            smd_run(broken, reg, sched, k_max, seed, x_truth=inst.x_true)
        assert exc.value.k == k_max
        assert exc.value.records == ref.records[:k_max]

    def test_k_max_above_the_safety_cap_refused_before_the_first_step(self, monkeypatch):
        reg = EntropySimplex()
        inst = build_sourced_instance(2, 20, reg, seed=1)
        monkeypatch.setattr(mirrorsolve.landweber, "SAFETY_CAP", 5)
        assert smd_run(inst.problem, reg, ConstantSchedule(1.0), 5, seed=0).k_stop == 5

        def no_step(*args):
            raise AssertionError("the path stepped before checking the safety cap")

        monkeypatch.setattr(mirrorsolve.smd, "smd_step", no_step)
        with pytest.raises(ValueError, match="k_max = 6 exceeds the iteration safety cap 5"):
            smd_run(inst.problem, reg, ConstantSchedule(1.0), 6, seed=0)

    @pytest.mark.parametrize("reg", [EntropySimplex(), ElasticNet(beta=0.3)],
                             ids=["entropy", "elastic"])
    def test_matches_reference_arithmetic_bitwise(self, reg):
        # replay of the step, the mirror map and the Fenchel-Young Bregman log
        # with one scalar draw per step and every reduction written as np.sum
        # / np.max
        inst = build_sourced_instance(4, 50, reg, 7)
        prob = inst.problem
        w = prob.grid_in.weights
        gamma, k_max, seed = 1.8, 300, 11
        sr = smd_run(prob, reg, ConstantSchedule(gamma), k_max, seed=seed,
                     x_truth=inst.x_true, xi0=inst.xi0)

        if isinstance(reg, EntropySimplex):
            def R(v):
                assert v.min() > 0 and abs(float(np.sum(w * v)) - 1.0) <= reg.mass_tol
                return float(np.sum(w * v * np.log(v)))

            def Rstar(z):
                m = np.max(z)
                return m + np.log(np.sum(w * np.exp(z - m)))

            def mirror_map(z):
                e = np.exp(z - np.max(z))
                return e / np.sum(w * e)
        else:
            def R(v):
                return 0.5 * float(np.sum(w * v * v)) + reg.beta * float(np.sum(w * np.abs(v)))

            def Rstar(z):
                t = np.maximum(np.abs(z) - reg.beta, 0.0)
                return 0.5 * np.sum(w * t * t)

            def mirror_map(z):
                return np.sign(z) * np.maximum(np.abs(z) - reg.beta, 0.0)

        xbar = inst.x_true.values
        vbar = R(xbar)
        rng = np.random.default_rng(seed)
        xi = inst.xi0.values
        x = mirror_map(xi)
        s = 0.0
        for k in range(k_max + 1):
            rec = sr.records[k]
            assert rec.delta_k == vbar + Rstar(xi) - float(np.sum(w * xi * xbar))
            assert (rec.error_to_truth, rec.lambda_defect, rec.degenerate) == (None, None, False)
            i = int(rng.integers(prob.n_blocks))
            op, y = prob.operators[i], prob.data[i]
            r = op.apply_values(x) - y.values
            assert rec.block == i
            assert rec.residual_norm == float(np.sqrt(np.sum(op.grid_in.weights * r * r)))
            if k == k_max:
                assert rec.step_sum == s + gamma and rec.step is None
                break
            g = op.adjoint_values(r)
            s = s + gamma
            assert rec.step == gamma
            assert rec.step_sum == s
            xi = xi - gamma * g
            x = mirror_map(xi)
        assert np.array_equal(sr.x.values, x)
        assert np.array_equal(sr.xi.values, xi)

    @pytest.mark.parametrize("reg", [EntropySimplex(), ElasticNet(beta=0.3)],
                             ids=["entropy", "elastic"])
    def test_every_step_and_mirror_map_call_is_observable(self, reg, monkeypatch):
        # spans around smd_step and ticks on mirror_map see every step: one
        # step call per step, one mirror-map call per state
        inst = build_sourced_instance(3, 20, reg, seed=5)
        calls = {"step": 0, "mirror_map": 0}
        step, mirror_map = mirrorsolve.smd.smd_step, type(reg).mirror_map

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step(*args, **kwargs)

        def counted_mirror_map(self, v, w):
            calls["mirror_map"] += 1
            return mirror_map(self, v, w)

        monkeypatch.setattr(mirrorsolve.smd, "smd_step", counted_step)
        monkeypatch.setattr(type(reg), "mirror_map", counted_mirror_map)
        k_max = 250
        smd_run(inst.problem, reg, ConstantSchedule(1.0), k_max, seed=3,
                x_truth=inst.x_true, xi0=inst.xi0)
        assert calls == {"step": k_max, "mirror_map": k_max + 1}

    def test_step_leaves_its_inputs_alone(self):
        # two steps from one state on the elliptic block give the same bits,
        # and the state, the gradient and the data keep theirs and their
        # write flags
        setup = setup_pde_experiment(16)
        op, reg, y = setup.forward, setup.reg, setup.y
        prob = SystemProblem((op,), (y,))
        sched = ConstantSchedule(1.0 / op.norm_bound() ** 2)
        w = op.grid_in.weights
        rng = np.random.default_rng(2)
        xi = 0.3 * rng.standard_normal(op.grid_in.node_count)
        x = reg.mirror_map(xi, w)
        value, _, adjoint = op.linearize_values(x)
        r = value - y.values
        g = adjoint(r)
        arrays = (x, xi, g, value, y.values)
        before = [(a.tobytes(), a.flags.writeable) for a in arrays]

        def step():
            return mirrorsolve.smd.smd_step(reg, sched, w, 0, xi, g)

        first = step()
        first_bits = (first[0].tobytes(), first[1].tobytes(), first[2])
        second = step()
        assert [(a.tobytes(), a.flags.writeable) for a in arrays] == before
        for out in (first, second):
            assert (out[0].tobytes(), out[1].tobytes(), out[2]) == first_bits
        assert first[1].tobytes() == (xi - sched.gamma * g).tobytes()
        # the path's step written out: a residual written into the
        # operator's value would reach the adjoint through the state u
        path = smd_run(prob, reg, sched, 1, seed=0, xi0=GridFunction(op.grid_in, xi))
        assert path.xi.values.tobytes() == first[1].tobytes()
        assert path.records[0].residual_norm == norm_l2_values(r, op.grid_in.weights)

    def test_determinism_per_seed(self):
        reg = ElasticNet(beta=0.3)
        inst = build_sourced_instance(3, 25, reg, seed=4)
        a = smd_run(inst.problem, reg, ConstantSchedule(1.0), 200, seed=42,
                    x_truth=inst.x_true)
        b = smd_run(inst.problem, reg, ConstantSchedule(1.0), 200, seed=42,
                    x_truth=inst.x_true)
        assert np.array_equal(a.x.values, b.x.values)
        assert a.records == b.records

    def test_dual_identity_maintained_blockwise(self):
        # replaying the pick stream with per-block multipliers must keep
        # xi_k = xi0 + sum_i A_i^* lam_i within rounding
        reg = EntropySimplex()
        inst = build_sourced_instance(3, 20, reg, seed=6)
        sched = ConstantSchedule(1.2)
        k_max = 200
        sr = smd_run(inst.problem, reg, sched, k_max, seed=12)
        ops = inst.problem.operators
        grid = inst.problem.grid_in
        lams = [np.zeros(grid.node_count) for _ in ops]
        x = GridFunction(grid, reg.mirror_map(inst.xi0.values, grid.weights))
        for k in range(k_max):
            i = sr.records[k].block
            gamma = sr.records[k].step
            r = ops[i].apply_values(x.values) - inst.problem.data[i].values
            lams[i] = lams[i] - gamma * r
            xi = inst.xi0.values
            for op, lam in zip(ops, lams):
                xi = xi + op.adjoint_values(lam)
            x = GridFunction(grid, reg.mirror_map(xi, grid.weights))
        assert np.max(np.abs(xi - sr.xi.values)) <= 1e-10 * (1 + np.max(np.abs(xi)))


class TestRateCsv:
    def test_format(self, tmp_path):
        reg = EntropySimplex()
        inst = build_sourced_instance(2, 20, reg, seed=1)
        sr = smd_run(inst.problem, reg, ConstantSchedule(1.0), 5, seed=3,
                     x_truth=inst.x_true)
        p = tmp_path / "rate.csv"
        write_rate_csv(sr, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "k,i_k,gamma_k,s_k,delta_k,s_k_delta_k"
        assert len(lines) == 7
        assert lines[-1].split(",")[1] == ""  # final record has no pick

    @pytest.mark.parametrize("truth", [True, False], ids=["logged", "unlogged"])
    def test_fields_print_as_csv_number(self, tmp_path, truth):
        # an integer step size still prints as 1.0, and every field reads
        # as csv_number prints the record's value
        reg = EntropySimplex()
        inst = build_sourced_instance(2, 20, reg, seed=1)
        sr = smd_run(inst.problem, reg, ConstantSchedule(1), 130, seed=3,
                     x_truth=inst.x_true if truth else None)
        p = tmp_path / "rate.csv"
        write_rate_csv(sr, p)
        fmt = csv_number
        expected = ["k,i_k,gamma_k,s_k,delta_k,s_k_delta_k"] + [
            f"{r.k},{'' if r.step is None else r.block},{fmt(r.step)},{fmt(r.step_sum)},"
            f"{fmt(r.delta_k)},{fmt(r.s_delta)}" for r in sr.records]
        lines = p.read_text().splitlines()
        assert lines == expected
        assert [line.split(",")[2:4] for line in lines[1:3]] == [["1.0", "1.0"], ["1.0", "2.0"]]
