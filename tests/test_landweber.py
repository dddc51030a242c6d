import math
from itertools import accumulate

import numpy as np
import pytest

from mirrorsolve import landweber
from mirrorsolve.experiments import (
    make_cell,
    run_rate_sweep,
    setup_entropy_experiment,
    setup_pde_experiment,
)
from mirrorsolve.grids import Grid, GridFunction, GridMismatchError, add_noise
from mirrorsolve.landweber import (
    AdaptiveStep,
    APrioriStop,
    ConstantStep,
    DiscrepancyStop,
    IterationLimitError,
    MaxIterStop,
    MinimalErrorStep,
    NonFiniteResidualError,
    run,
    write_iterates_csv,
)
from mirrorsolve.operators import LinearIntegral
from mirrorsolve.regularizers import EntropySimplex, QuadraticBox


class TestStepSize:
    def test_rule1_benchmark_value(self):
        # gamma = 1.98 (1 - 1/1.01), L^2 = 19/3 gives 3.0954e-3
        tau = 1.01
        gamma = 1.98 * (1.0 - 1.0 / tau)
        rule = ConstantStep(gamma=gamma)
        L = math.sqrt(19.0 / 3.0)
        assert rule.step(1.0, 1.0, lambda: L)[0] == pytest.approx(3.0954e-3, abs=1e-7)

    def test_rule2_cap_binds_at_equality(self):
        rule = MinimalErrorStep(gamma=0.02, gamma_bar=7.0)
        rn = 1.0
        gn = math.sqrt(rule.gamma * rn * rn / rule.gamma_bar)
        assert rule.step(rn, gn, lambda: 1.0)[0] == rule.gamma_bar

    def test_rule3_at_discrepancy_boundary(self):
        # residual exactly tau*delta with eta=0 reduces to
        # gamma0 (tau-1) tau delta^2 / grad^2 = 1.98 * 0.1 * 1.1 = 0.2178
        rule = AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=1.1, eta=0.0, delta=1.0)
        assert rule.step(1.1, 1.0, lambda: 1.0)[0] == pytest.approx(0.2178, abs=1e-12)

    def test_rule3_fallback_below_discrepancy(self):
        rule = AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=1.1, eta=0.0, delta=1.0)
        L = 2.0
        assert rule.step(0.5, 1.0, lambda: L)[0] == pytest.approx(1.98 / 4.0)

    def test_degenerate_gradient_returns_cap(self):
        rule = MinimalErrorStep(gamma=0.02, gamma_bar=11.0)
        assert rule.step(1.0, 0.0, lambda: 1.0)[0] == 11.0
        rule3 = AdaptiveStep(gamma0=1.98, gamma_bar=13.0, tau=1.1, eta=0.0, delta=1e-3)
        assert rule3.step(1.0, 0.0, lambda: 1.0)[0] == 13.0

    def test_bounds_per_rule(self):
        L = 2.0
        assert ConstantStep(0.5).bounds(L) == (0.125, 0.125)
        lo, hi = MinimalErrorStep(gamma=0.5, gamma_bar=3.0).bounds(L)
        assert (lo, hi) == (0.125, 3.0)
        rule3 = AdaptiveStep(gamma0=1.98, gamma_bar=3.0, tau=1.1, eta=0.0, delta=1.0)
        lo, hi = rule3.bounds(L)
        assert hi == 3.0
        assert lo == pytest.approx(1.98 * (1.0 - 1.0 / 1.1) / 4.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConstantStep(gamma=0.0)
        with pytest.raises(ValueError):
            AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=1.0, eta=0.0, delta=1.0)
        with pytest.raises(ValueError):
            AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=1.05, eta=0.1, delta=1.0)

    @pytest.mark.parametrize("build, fragment", [
        (lambda: MinimalErrorStep(gamma=0.5, gamma_bar=0.0), "gamma and gamma_bar"),
        (lambda: AdaptiveStep(gamma0=0.0, gamma_bar=600.0, tau=1.1, eta=0.0, delta=1.0),
         "gamma0 and gamma_bar"),
        (lambda: AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=1.1, eta=1.0, delta=1.0),
         r"eta must lie in \[0, 1\)"),
        (lambda: AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=1.1, eta=0.0, delta=-1.0),
         "delta must be nonnegative"),
        (lambda: DiscrepancyStop(tau=1.0, delta=1.0), "tau must exceed 1"),
        (lambda: DiscrepancyStop(tau=1.1, delta=-1.0), "delta must be nonnegative"),
        (lambda: APrioriStop(delta=0.0), "delta must be positive"),
        (lambda: MaxIterStop(k_max=-1), "k_max must be nonnegative"),
        # each range is the condition that must hold, so NaN is refused too
        (lambda: ConstantStep(gamma=math.nan), "gamma must be positive"),
        (lambda: MinimalErrorStep(gamma=math.nan, gamma_bar=600.0), "gamma and gamma_bar"),
        (lambda: AdaptiveStep(gamma0=math.nan, gamma_bar=600.0, tau=1.1, eta=0.0, delta=1.0),
         "gamma0 and gamma_bar"),
        (lambda: AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=math.nan, eta=0.0, delta=1.0),
         r"tau must exceed \(1\+eta\)/\(1-eta\)"),
        (lambda: AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=1.1, eta=0.0, delta=math.nan),
         "delta must be nonnegative"),
        (lambda: DiscrepancyStop(tau=math.nan, delta=1.0), "tau must exceed 1"),
        (lambda: DiscrepancyStop(tau=1.1, delta=math.nan), "delta must be nonnegative"),
        (lambda: APrioriStop(delta=math.nan), "delta must be positive"),
        # the a-priori budget floor(1/delta) must fit under the safety cap
        (lambda: APrioriStop(delta=1e-7),
         r"floor\(1/delta\) = \d+ for delta = 1e-07 exceeds the iteration safety cap 1000000"),
        # 1/delta overflows to inf: still the named budget error, not an OverflowError
        (lambda: APrioriStop(delta=1e-320),
         r"floor\(1/delta\) = inf for delta = \S+ exceeds the iteration safety cap 1000000"),
    ], ids=["minimal-error-gamma-bar", "adaptive-gamma0", "adaptive-eta", "adaptive-delta",
            "discrepancy-tau", "discrepancy-delta", "apriori-delta", "maxiter-k-max",
            "constant-nan-gamma", "minimal-error-nan-gamma", "adaptive-nan-gamma0",
            "adaptive-nan-tau", "adaptive-nan-delta", "discrepancy-nan-tau",
            "discrepancy-nan-delta", "apriori-nan-delta", "apriori-past-the-cap",
            "apriori-tiny-delta"])
    def test_rule_parameter_checks(self, build, fragment):
        with pytest.raises(ValueError, match=fragment):
            build()


def _tiny_linear_problem(n=4, seed=0):
    rng = np.random.default_rng(seed)
    grid = Grid.interval(n)
    op = LinearIntegral(grid, kernel=rng.standard_normal((n + 1, n + 1)))
    return grid, op


class TestRunLoop:
    def test_immediate_stop_for_large_delta(self):
        setup = setup_entropy_experiment(200)
        delta = 10.0
        yd = add_noise(setup.y, delta, seed=1)
        rule, stop = make_cell(setup, "rule1", delta)
        res = run(setup.forward, setup.reg, yd, rule, stop)
        assert res.k_stop == 0
        assert res.stop_reason == "discrepancy"
        assert len(res.records) == 1
        assert res.records[0].step is None

    def test_exact_data_from_start_is_fixed_point(self):
        grid, op = _tiny_linear_problem()
        reg = QuadraticBox(lower=-math.inf)
        x0 = GridFunction(grid, reg.mirror_map(np.zeros(grid.node_count), grid.weights))
        y = GridFunction(grid, op.apply_values(x0.values))
        res = run(op, reg, y, MinimalErrorStep(gamma=0.5, gamma_bar=2.0),
                  MaxIterStop(k_max=3))
        assert res.stop_reason == "maxiter"
        assert np.array_equal(res.x.values, x0.values)
        assert all(r.residual_norm == 0.0 for r in res.records)

    def test_reduces_to_classical_landweber_without_constraints(self):
        # QuadraticBox with no bound has the identity mirror map, so the
        # iteration is x' = x - gamma A*(Ax - y)
        grid, op = _tiny_linear_problem(n=6, seed=3)
        reg = QuadraticBox(lower=-math.inf)
        rng = np.random.default_rng(4)
        y = GridFunction(grid, rng.standard_normal(grid.node_count))
        gamma_over_L2 = 0.37
        L = op.norm_bound()
        rule = ConstantStep(gamma=gamma_over_L2 * L * L)
        res = run(op, reg, y, rule, MaxIterStop(k_max=4))
        x = np.zeros(grid.node_count)
        step = rule.gamma / (L * L)
        for _ in range(4):
            r = op.apply_values(x) - y.values
            x = x - step * op.adjoint_values(r)
        assert np.max(np.abs(res.x.values - x)) <= 1e-12

    def test_single_entropy_step_against_scalar_oracle(self):
        # hand-rolled 5-node computation of one dual step + mirror pull-back
        setup = setup_entropy_experiment(100)
        n = 4
        grid = Grid.interval(n)
        t = grid.coords[0]
        w = grid.weights
        op = LinearIntegral(grid, kernel=1.0 + t[None, :] + t[:, None])
        reg = EntropySimplex()
        rng = np.random.default_rng(9)
        y = GridFunction(grid, rng.standard_normal(n + 1))
        gamma0 = 0.8
        L = op.norm_bound()
        rule = ConstantStep(gamma=gamma0 * L * L)  # step exactly gamma0
        res = run(op, reg, y, rule, MaxIterStop(k_max=1))

        # oracle with explicit loops
        x0 = np.ones(n + 1)
        r = np.zeros(n + 1)
        for i in range(n + 1):
            acc = 0.0
            for j in range(n + 1):
                acc += w[j] * (1.0 + t[j] + t[i]) * x0[j]
            r[i] = acc - y.values[i]
        g = np.zeros(n + 1)
        for j in range(n + 1):
            acc = 0.0
            for i in range(n + 1):
                acc += w[i] * (1.0 + t[j] + t[i]) * r[i]
            g[j] = acc
        step = rule.gamma / (L * L)
        xi1 = -step * g
        z = np.exp(xi1 - np.max(xi1))
        mass = 0.0
        for j in range(n + 1):
            mass += w[j] * z[j]
        x1 = z / mass
        assert np.max(np.abs(res.x.values - x1)) <= 1e-12

    def test_apriori_budget(self):
        setup = setup_entropy_experiment(150)
        delta = 0.05
        yd = add_noise(setup.y, delta, seed=2)
        rule, stop = make_cell(setup, "rule1", delta, stopping="apriori")
        assert stop.k_hat == 20
        res = run(setup.forward, setup.reg, yd, rule, stop)
        assert res.k_stop == 20
        assert res.stop_reason == "apriori"
        assert len(res.records) == 21

    def test_safety_cap_raises_with_partial_records(self, monkeypatch):
        setup = setup_entropy_experiment(120)
        delta = 1e-3
        yd = add_noise(setup.y, delta, seed=3)
        rule, stop = make_cell(setup, "rule1", delta)
        monkeypatch.setattr(landweber, "SAFETY_CAP", 5)
        with pytest.raises(IterationLimitError) as exc:
            run(setup.forward, setup.reg, yd, rule, stop)
        assert len(exc.value.records) == 5

    def test_nonfinite_data_fails_at_first_iterate(self, monkeypatch):
        setup = setup_entropy_experiment(200)
        delta = 1e-3
        values = add_noise(setup.y, delta, seed=3).values.copy()
        values[17] = np.nan
        yd = GridFunction(setup.y.grid, values)
        rule, stop = make_cell(setup, "rule2", delta)
        monkeypatch.setattr(landweber, "SAFETY_CAP", 2000)
        with pytest.raises(NonFiniteResidualError) as exc:
            run(setup.forward, setup.reg, yd, rule, stop)
        assert exc.value.k == 0
        assert exc.value.records == ()

    @pytest.mark.parametrize("field, other, fragment", [
        ("x_truth", Grid.square(4), "x_truth does not live on the problem's grid"),
        ("x_truth", Grid.interval(30), "x_truth does not live on the problem's grid"),
        ("y_delta", Grid.square(4), "data blocks must all live on the first operator's grid"),
        ("y_delta", Grid.interval(30), "data blocks must all live on the first operator's grid")],
        ids=["same-node-count", "other-node-count", "data-same-node-count",
             "data-other-node-count"])
    def test_truth_off_the_input_grid_raises_before_the_first_step(self, field, other, fragment,
                                                                   monkeypatch):
        # the truth and the data go through the checks of every stochastic
        # path; Grid.square(4) has the 25 nodes of Grid.interval(24), so only
        # the grid check can tell it apart
        grid, op = _tiny_linear_problem(n=24)

        def no_step(v):
            raise AssertionError("the run linearized before checking its inputs")

        monkeypatch.setattr(op, "linearize_values", no_step)
        inputs = {"y_delta": grid.zeros(), "x_truth": None, field: other.ones()}
        with pytest.raises(GridMismatchError, match=fragment):
            run(op, QuadraticBox(lower=-math.inf), inputs["y_delta"], ConstantStep(gamma=0.5),
                MaxIterStop(k_max=10), x_truth=inputs["x_truth"])

    @pytest.mark.parametrize("reg, truth", [
        (EntropySimplex(), lambda g: GridFunction(g, np.full(g.node_count, 1.5))),
        (QuadraticBox(lower=0.0), lambda g: GridFunction(g, np.linspace(-0.5, 1.0, g.node_count)))],
        ids=["entropy-mass-1.5", "box-negative-node"])
    def test_truth_outside_the_domain_raises_before_the_first_step(self, reg, truth,
                                                                   monkeypatch):
        # R(x_truth) = inf would log a column of inf Bregman distances
        grid, op = _tiny_linear_problem(n=24)

        def no_step(v):
            raise AssertionError("the run linearized before checking the truth")

        monkeypatch.setattr(op, "linearize_values", no_step)
        with pytest.raises(ValueError, match=r"R\(xbar\) = inf is not finite"):
            run(op, reg, grid.zeros(), ConstantStep(gamma=0.5), MaxIterStop(k_max=10),
                x_truth=truth(grid))

    def test_no_grid_function_per_iterate(self, grid_function_count):
        # the states, the multiplier and the diagnostics stay node arrays;
        # grid functions are built only for the result
        setup = setup_entropy_experiment(150)
        delta = 1e-3
        yd = add_noise(setup.y, delta, seed=1)
        rule, _ = make_cell(setup, "rule2", delta)
        counts = []
        for k_max in (10, 100):
            grid_function_count[0] = 0
            res = run(setup.forward, setup.reg, yd, rule, MaxIterStop(k_max=k_max),
                      x_truth=setup.x_true)
            assert res.k_stop == k_max
            counts.append(grid_function_count[0])
        assert counts[0] == counts[1] > 0

    def test_rule_stop_consistency_enforced(self):
        setup = setup_entropy_experiment(120)
        rule = AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=1.01, eta=0.0, delta=1e-2)
        with pytest.raises(ValueError):
            run(setup.forward, setup.reg, setup.y, rule, DiscrepancyStop(1.05, 1e-2))
        with pytest.raises(ValueError):
            run(setup.forward, setup.reg, setup.y, rule, DiscrepancyStop(1.01, 2e-2))

    @pytest.mark.parametrize("stop, field", [
        (DiscrepancyStop(1.05, 1e-2), "tau"),
        (DiscrepancyStop(1.01, 2e-2), "delta"),
        (APrioriStop(delta=2e-2), "delta"),
    ])
    def test_adaptive_rule_must_match_stop(self, stop, field):
        _, op = _tiny_linear_problem()
        rule = AdaptiveStep(gamma0=1.98, gamma_bar=600.0, tau=1.01, eta=0.0, delta=1e-2)
        y = op.grid_in.zeros()
        with pytest.raises(ValueError, match=f"rule and stopping rule disagree on {field}"):
            run(op, QuadraticBox(lower=-math.inf), y, rule, stop)

    @pytest.mark.parametrize("rule", [ConstantStep(gamma=0.5),
                                      MinimalErrorStep(gamma=0.5, gamma_bar=2.0)])
    @pytest.mark.parametrize("stop", [DiscrepancyStop(1.05, 10.0),
                                      APrioriStop(delta=10.0), MaxIterStop(k_max=0)])
    def test_non_adaptive_rules_accept_any_stop(self, rule, stop):
        _, op = _tiny_linear_problem()
        res = run(op, QuadraticBox(lower=-math.inf), op.grid_in.zeros(), rule, stop)
        assert res.k_stop == 0

    def test_pair_consistency_along_run(self):
        setup = setup_entropy_experiment(300)
        delta = 1e-2
        yd = add_noise(setup.y, delta, seed=5)
        rule, stop = make_cell(setup, "rule3", delta)
        res = run(setup.forward, setup.reg, yd, rule, stop)
        # x = mirror_map(xi) by construction, so the Fenchel defect against
        # the closed-form conjugate (no mirror map on that side) is rounding
        defect = abs(setup.reg.value(res.x.values, res.x.grid.weights)
                     + setup.reg.conjugate(res.xi.values, res.xi.grid.weights)
                     - float(np.sum(res.x.grid.weights * res.x.values * res.xi.values)))
        assert defect <= 1e-12

    @pytest.mark.parametrize("rule_name", ["rule1", "rule2", "rule3"])
    def test_dissipation_budget(self, rule_name):
        # telescoping the per-step descent bounds the weighted residual sum
        # by the initial Bregman distance over the rule's margin constant
        setup = setup_entropy_experiment(500)
        delta = 5e-3
        tau, eta, sigma = 1.01, 0.0, 0.5
        yd = add_noise(setup.y, delta, seed=6)
        rule, stop = make_cell(setup, rule_name, delta)
        assert (stop.tau, setup.eta) == (tau, eta)
        res = run(setup.forward, setup.reg, yd, rule, stop, x_truth=setup.x_true)
        slack = 1.0 - eta - (1.0 + eta) / tau
        if rule_name == "rule3":
            c5 = (1.0 - 1.98 / (4 * sigma)) * slack
        else:
            gamma = 1.98 * slack
            c5 = slack - gamma / (4 * sigma)
        assert c5 > 0
        total = sum(r.step * r.residual_norm ** 2 for r in res.records if r.step is not None)
        d0 = res.records[0].delta_k
        assert total <= d0 / c5 + 1e-9

    def test_step_bounds_hold_along_entropy_run(self):
        setup = setup_entropy_experiment(400)
        delta = 5e-3
        yd = add_noise(setup.y, delta, seed=7)
        for rule_name in ("rule1", "rule2", "rule3"):
            rule, stop = make_cell(setup, rule_name, delta)
            res = run(setup.forward, setup.reg, yd, rule, stop)
            lo, hi = rule.bounds(setup.forward.norm_bound())
            steps = [r.step for r in res.records if r.step is not None]
            assert all(lo * (1 - 1e-12) <= s <= hi * (1 + 1e-12) for s in steps)

    def test_step_bounds_hold_along_elliptic_run(self):
        # L here is a power-iteration estimate at c = 0; the observed margin
        # is wide because gradients never align with the top singular vector
        setup = setup_pde_experiment(32)
        delta = 1e-4
        yd = add_noise(setup.y, delta, seed=1)
        L = setup.forward.norm_bound()
        for rule_name in ("rule2", "rule3"):
            rule, stop = make_cell(setup, rule_name, delta)
            res = run(setup.forward, setup.reg, yd, rule, stop)
            lo, hi = rule.bounds(L)
            steps = [r.step for r in res.records if r.step is not None]
            assert all(lo * (1 - 1e-9) <= s <= hi * (1 + 1e-9) for s in steps)

    @pytest.mark.parametrize("build, rule_name, delta", [
        (lambda: setup_entropy_experiment(400), "rule2", 5e-3),
        (lambda: setup_pde_experiment(32), "rule3", 1e-4),
    ], ids=["entropy-rule2", "elliptic-rule3"])
    def test_records_carry_the_step_sum(self, build, rule_name, delta):
        # s_k = sum_{l<=k} gamma_l, added in step order on every record that
        # steps; the stopped state adds no step, and the one block is block 0
        setup = build()
        sweep = run_rate_sweep(setup, rule_name, [delta], [2], keep_records=True)
        records = sweep.cells[0].result.records
        assert len(records) > 2
        assert ([r.step_sum for r in records[:-1]]
                == list(accumulate(r.step for r in records[:-1])))
        assert records[-1].step is None
        assert records[-1].step_sum == records[-2].step_sum
        assert {r.block for r in records} == {0}

    def test_determinism_bitwise(self):
        setup = setup_entropy_experiment(300)
        delta = 5e-3
        rule, stop = make_cell(setup, "rule2", delta)

        def go():
            yd = add_noise(setup.y, delta, seed=8)
            return run(setup.forward, setup.reg, yd, rule, stop, x_truth=setup.x_true)

        a, b = go(), go()
        assert a.k_stop == b.k_stop
        assert np.array_equal(a.x.values, b.x.values)
        assert all(ra == rb for ra, rb in zip(a.records, b.records))


class TestIterateCsv:
    def test_columns_and_missing_fields(self, tmp_path):
        setup = setup_entropy_experiment(150)
        delta = 2e-2
        yd = add_noise(setup.y, delta, seed=4)
        rule, stop = make_cell(setup, "rule3", delta)
        res = run(setup.forward, setup.reg, yd, rule, stop)
        path = tmp_path / "iter.csv"
        write_iterates_csv(res.records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,residual,step,bregman,error,lambda_defect,degenerate"
        # no truth was given, so its columns are empty; the map is linear,
        # so the lambda defect is tracked
        first = lines[1].split(",")
        assert first[3] == first[4] == ""
        assert float(first[5]) == 0.0
        assert all(line.split(",")[5] != "" for line in lines[1:])
        # terminal record has no step
        assert lines[-1].split(",")[2] == ""
        assert [line.split(",")[6] for line in lines[1:]] == \
            [str(int(r.degenerate)) for r in res.records]

    def test_degenerate_column(self, tmp_path):
        # the zero operator leaves a nonzero residual with a vanishing
        # gradient: every step falls back to gamma_bar and is flagged
        grid = Grid.interval(10)
        op = LinearIntegral(grid, kernel=np.zeros((11, 11)))
        res = run(op, QuadraticBox(lower=-math.inf), grid.ones(),
                  MinimalErrorStep(gamma=0.5, gamma_bar=2.0), MaxIterStop(k_max=2))
        path = tmp_path / "iter.csv"
        write_iterates_csv(res.records, path)
        rows = path.read_text().splitlines()[1:]
        assert [r.degenerate for r in res.records] == [True, True, False]
        assert [row.split(",")[-1] for row in rows] == ["1", "1", "0"]

    def test_rerun_is_byte_identical(self, tmp_path):
        setup = setup_entropy_experiment(150)
        delta = 2e-2
        paths = []
        for tag in ("a", "b"):
            yd = add_noise(setup.y, delta, seed=4)
            rule, stop = make_cell(setup, "rule2", delta)
            res = run(setup.forward, setup.reg, yd, rule, stop, x_truth=setup.x_true)
            p = tmp_path / f"{tag}.csv"
            write_iterates_csv(res.records, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()
