import configparser
import csv
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mirrorsolve
from mirrorsolve import cli, experiments, operators, smd
from mirrorsolve.cli import main as cli_main
from mirrorsolve.config import PROBLEM_DEFAULTS, ExperimentConfig, parse_config
from mirrorsolve.experiments import (
    ENTROPY_A,
    RateRow,
    emit_plot_data,
    fit_loglog_slope,
    make_cell,
    run_rate_sweep,
    setup_entropy_experiment,
    setup_pde_experiment,
)
from mirrorsolve.grids import GridFunction, add_noise, norm_l2_values
from mirrorsolve.landweber import DiscrepancyStop, SystemProblem
from mirrorsolve.operators import EllipticSolveError

# published rule-1 (delta, err) rows used as a fit oracle; the frozen slope
# below was computed independently via the covariance/variance formula
TABLE1_RULE1 = [(5e-2, 5.0723e-2), (5e-3, 5.0405e-3), (5e-4, 4.6703e-4), (5e-5, 8.2451e-5)]
TABLE1_RULE1_SLOPE = 0.9400155854093295

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestEntropySetup:
    def test_growth_constant(self):
        assert ENTROPY_A == 0.4949075935
        # a solves exp(1.5 a - 1) (exp(a) - 1) / a = 1
        resid = np.exp(1.5 * ENTROPY_A - 1.0) * (np.exp(ENTROPY_A) - 1.0) / ENTROPY_A
        assert resid == pytest.approx(1.0, abs=1e-9)

    def test_unit_mass_at_benchmark_grid(self):
        setup = setup_entropy_experiment(5000)
        mass = float(np.sum(setup.x_true.grid.weights * setup.x_true.values))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_dual_source_element_is_constant_a(self):
        setup = setup_entropy_experiment(5000)
        lhs = 1.0 + np.log(setup.x_true.values)
        rhs = setup.forward.adjoint_values(setup.lam_true.values)
        assert norm_l2_values(lhs - rhs, setup.forward.grid_in.weights) <= 1e-8
        assert np.all(setup.lam_true.values == ENTROPY_A)

    def test_minimum_grid_enforced(self):
        with pytest.raises(ValueError):
            setup_entropy_experiment(50)


class TestPdeSetup:
    def test_discrete_data_matches_quadratic_truth(self):
        setup = setup_pde_experiment(32)
        g = setup.forward.grid_in
        x, y = g.coords
        u = 1.0 + x ** 2 + y ** 2
        assert norm_l2_values(setup.y.values - u, g.weights) <= 1e-8

    def test_coefficient_support_and_sign(self):
        setup = setup_pde_experiment(16)
        g = setup.forward.grid_in
        x, y = g.coords
        c = setup.x_true.values
        assert np.all(c >= 0.0)
        outside = 9.0 * (x ** 2 + y ** 2) >= 1.0
        assert np.all(c[outside] == 0.0)

    def test_eta_default(self):
        assert setup_pde_experiment(16).eta == 0.04

    def test_grid_whitelist(self):
        with pytest.raises(ValueError):
            setup_pde_experiment(48)

    def test_unknown_kind_has_no_setup(self):
        with pytest.raises(ValueError, match="'smd_synthetic' has no deterministic setup"):
            experiments.build_setup("smd_synthetic", 16)


class TestRuleFactory:
    def test_rule1_gamma_under_discrepancy(self):
        rule, _ = make_cell(setup_entropy_experiment(100), "rule1", 1e-3)
        assert rule.gamma == pytest.approx(1.98 * (1.0 - 1.0 / 1.01))

    def test_rule1_gamma_under_apriori(self):
        rule, _ = make_cell(setup_entropy_experiment(100), "rule1", 1e-3, stopping="apriori")
        assert rule.gamma == pytest.approx(1.98)

    def test_rule3_carries_delta(self):
        rule, _ = make_cell(setup_pde_experiment(16), "rule3", 2e-3)
        assert rule.delta == 2e-3
        assert rule.gamma0 == 1.98

    def test_too_small_tau_rejected(self):
        with pytest.raises(ValueError, match="tau too small: derived gamma is not positive"):
            make_cell(setup_pde_experiment(16), "rule2", 1e-3, tau=1.001)

    @pytest.mark.parametrize("stopping", ["discrepancy", "apriori"])
    @pytest.mark.parametrize("name", ["rule1", "rule2", "rule3"])
    @pytest.mark.parametrize("eta", [-0.5, 1.0, 1.5])
    def test_eta_outside_unit_interval_rejected(self, eta, name, stopping):
        # a negative eta would push rule 1's a-priori step above 4 sigma; the
        # eta check comes before rule 1's check for a linear map
        setup = dataclasses.replace(setup_pde_experiment(16), eta=eta)
        with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\)"):
            make_cell(setup, name, 1e-3, stopping=stopping)

    def test_unknown_rule_and_stopping_rejected(self):
        setup = setup_entropy_experiment(100)
        with pytest.raises(ValueError,
                           match=r"unknown rule 'rule4' \(expected rule1\|rule2\|rule3\)"):
            make_cell(setup, "rule4", 1e-3)
        with pytest.raises(ValueError, match="unknown stopping 'maxiter'"):
            make_cell(setup, "rule2", 1e-3, stopping="maxiter")


class TestRateRows:
    def test_ratio_recomputed(self):
        row = RateRow(delta=4e-4, rule="rule2", iters=10, err=3e-3)
        assert row.ratio == pytest.approx(3e-3 / np.sqrt(4e-4), rel=1e-12)

    def test_csv_roundtrip(self, tmp_path):
        setup = setup_entropy_experiment(200)
        out = run_rate_sweep(setup, "rule3", deltas=[5e-2, 5e-3], seeds=[1, 2, 3],
                             out_dir=tmp_path, keep_records=False)
        assert type(out.table) is tuple
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert lines[0] == "delta,rule,iter,err,ratio"
        assert len(lines) == 1 + len(out.table)
        for line, row in zip(lines[1:], out.table):
            delta, rule, iters, err, ratio = line.split(",")
            assert (float(delta), rule, float(iters), float(err), float(ratio)) == \
                (row.delta, row.rule, row.iters, row.err, row.ratio)

    def test_slope_fit_matches_frozen_oracle(self):
        slope = fit_loglog_slope([d for d, _ in TABLE1_RULE1], [e for _, e in TABLE1_RULE1])
        assert slope == pytest.approx(TABLE1_RULE1_SLOPE, abs=1e-10)
        assert abs(slope - 0.93) <= 0.02

    def test_slope_undefined_for_single_row(self):
        assert fit_loglog_slope([1e-2], [0.1]) is None

    def test_slope_undefined_for_equal_deltas(self):
        # two rows at one delta give no slope, not a rank-deficient fit
        assert fit_loglog_slope([5e-2, 5e-2], [0.1, 0.2]) is None
        assert fit_loglog_slope([5e-2, 5e-2, 5e-3], [0.1, 0.2, float("nan")]) is None


class TestEmitPlotData:
    def test_files_and_summary(self, tmp_path):
        table = tuple(RateRow(d, "rule1", 1, e) for d, e in TABLE1_RULE1)
        info = emit_plot_data(table, tmp_path)
        assert info["slope"] == pytest.approx(TABLE1_RULE1_SLOPE, abs=1e-10)
        text = (tmp_path / "rate.csv").read_text()
        assert text.splitlines()[0] == "delta,err,log10_delta,log10_err"
        assert "# lsq slope" in text.splitlines()[-1]
        assert set(info) == {"slope", "rate_csv"}
        assert [f.name for f in tmp_path.iterdir()] == ["rate.csv"]

    def test_single_row_summary_is_na(self, tmp_path):
        table = (RateRow(1e-2, "rule1", 3, 0.1),)
        info = emit_plot_data(table, tmp_path)
        assert info["slope"] is None
        assert "n/a" in (tmp_path / "rate.csv").read_text()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data((), tmp_path)


class TestRunRateSweep:
    def test_immediate_stop_rows(self):
        setup = setup_entropy_experiment(200)
        out = run_rate_sweep(setup, "rule2", deltas=[50.0], seeds=[1, 2, 3],
                             keep_records=False)
        row = out.table[0]
        assert row.iters == 0
        w = setup.forward.grid_in.weights
        x0 = setup.reg.mirror_map(np.zeros(w.size), w)
        assert row.err == pytest.approx(setup.reg.error_norm(x0 - setup.x_true.values, w),
                                        rel=1e-12)

    def test_failed_cell_is_flagged_and_sweep_continues(self):
        setup = setup_entropy_experiment(200)

        class Boom:
            linear = True
            grid_in = setup.forward.grid_in

            def linearize_values(self, v):
                raise RuntimeError("injected failure")

        broken = dataclasses.replace(setup, forward=Boom())
        out = run_rate_sweep(broken, "rule2", deltas=[1e-2], seeds=[1, 2],
                             keep_records=False)
        assert all(c.failed for c in out.cells)
        assert [c.error_message for c in out.cells] == ["RuntimeError: injected failure"] * 2
        assert np.isnan(out.table[0].err)

    def test_cg_failure_is_flagged_and_sweep_continues(self, monkeypatch):
        # the setup solves for its data, so it is built before the CG cap drops
        setup = setup_pde_experiment(16)
        monkeypatch.setattr(operators, "CG_ITERS_PER_UNKNOWN", 0)
        with pytest.raises(EllipticSolveError) as exc:
            setup.forward.linearize_values(setup.x_true.values)
        assert exc.value.iterations == 0
        assert exc.value.residual == 1.0
        out = run_rate_sweep(setup, "rule2", deltas=[1e-2, 1e-3], seeds=[1, 2],
                             keep_records=False)
        assert [(c.delta, c.seed) for c in out.cells] == [(1e-2, 1), (1e-2, 2),
                                                          (1e-3, 1), (1e-3, 2)]
        assert [c.error_message for c in out.cells] == [f"EllipticSolveError: {exc.value}"] * 4
        assert all(np.isnan(row.err) for row in out.table)

    def test_nonfinite_data_flags_the_cell(self):
        setup = setup_entropy_experiment(200)
        values = setup.y.values.copy()
        values[0] = np.inf
        bad = dataclasses.replace(setup, y=GridFunction(setup.y.grid, values))
        out = run_rate_sweep(bad, "rule2", deltas=[1e-2], seeds=[1, 2],
                             keep_records=False)
        assert all(c.failed for c in out.cells)
        assert all(c.error_message.startswith("NonFiniteResidualError: ")
                   and "iterate 0" in c.error_message for c in out.cells)

    def test_fast_entropy_sweep_end_to_end(self, tmp_path):
        setup = setup_entropy_experiment(1000)
        out = run_rate_sweep(setup, "rule3", deltas=[5e-2, 5e-3], seeds=[1, 2, 3],
                             out_dir=tmp_path, keep_records=False)
        assert (tmp_path / "table.csv").exists()
        assert (tmp_path / "iterates_0p05_1.csv").exists()
        ratios = [r.ratio for r in out.table]
        assert ratios[1] <= ratios[0]

    def test_rule1_rejected_for_pde(self):
        setup = setup_pde_experiment(16)
        with pytest.raises(ValueError):
            run_rate_sweep(setup, "rule1", deltas=[1e-2], seeds=[1])


class TestConfig:
    def test_defaults_resolution(self):
        # the config fills its deltas from the problem kind when it is built
        cfg = ExperimentConfig(problem="entropy_integral")
        assert PROBLEM_DEFAULTS[cfg.problem]["n"] == 5000
        assert cfg.deltas == (5e-2, 5e-3, 5e-4)
        assert ExperimentConfig(problem="smd_synthetic").deltas == ()
        assert ExperimentConfig(deltas=[1e-2, 1e-3]).deltas == (1e-2, 1e-3)
        # tau defaults to the setup's value
        _, stop = make_cell(setup_entropy_experiment(PROBLEM_DEFAULTS[cfg.problem]["n"]),
                            "rule1", cfg.deltas[0])
        assert isinstance(stop, DiscrepancyStop)
        assert stop.tau == 1.01

    @pytest.mark.parametrize("delta", [np.inf, np.nan])
    def test_make_cell_rejects_a_delta_that_is_not_positive_and_finite(self, delta):
        setup = setup_entropy_experiment(100)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            make_cell(setup, "rule2", delta)

    def test_apriori_budget_past_the_safety_cap_rejected_before_any_cell(self, monkeypatch):
        # floor(1/delta) iterates must fit under run's safety cap of 10^6;
        # delta = 1e-7 asks for 10^7 and fails at construction, naming delta
        setup = setup_entropy_experiment(100)
        make_cell(setup, "rule1", 1e-6, stopping="apriori")
        cells = []

        def no_cell(*args, **kwargs):
            # the sweep flags what a cell raises, so the call is also counted
            cells.append(args)
            raise AssertionError("a cell ran before the budgets were checked")

        monkeypatch.setattr(experiments, "run", no_cell)
        for call in (lambda: make_cell(setup, "rule1", 1e-7, stopping="apriori"),
                     lambda: run_rate_sweep(setup, "rule1", [1e-2, 1e-7], [1],
                                            stopping="apriori")):
            with pytest.raises(ValueError, match=r"delta = 1e-07 exceeds .* safety cap"):
                call()
        assert cells == []

    @pytest.mark.parametrize("rule, stopping, fragment", [
        ("rule2", "discrepancy", "tau must exceed 1"),
        ("rule3", "apriori", r"tau must exceed \(1\+eta\)/\(1-eta\)"),
    ], ids=["rule2-discrepancy", "rule3-apriori"])
    def test_nan_tau_rejected_before_any_cell(self, monkeypatch, rule, stopping, fragment):
        # the stop and the adaptive step state tau's range as the condition
        # that must hold, so NaN fails at construction, not as a flagged cell
        setup = setup_entropy_experiment(100)
        cells = []

        def no_cell(*args, **kwargs):
            # the sweep flags what a cell raises, so the call is also counted
            cells.append(args)
            raise AssertionError("a cell ran before the rules were checked")

        monkeypatch.setattr(experiments, "run", no_cell)
        with pytest.raises(ValueError, match=fragment):
            run_rate_sweep(setup, rule, [1e-3], [1], tau=float("nan"), stopping=stopping)
        assert cells == []

    def test_parse_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("""
[problem]
kind = pde_coefficient

[rule]
name = rule2

[stopping]
kind = discrepancy

[sweep]
deltas = 1e-2, 1e-3
seeds = 1, 2
""")
        cfg = parse_config(p)
        assert cfg.problem == "pde_coefficient"
        assert PROBLEM_DEFAULTS[cfg.problem]["n"] == 64
        assert cfg.rule == "rule2"
        assert cfg.deltas == (1e-2, 1e-3)
        assert cfg.seeds == (1, 2)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(problem="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(rule="rule9")
        with pytest.raises(ValueError, match="unknown smd regularizer 'l2'"):
            ExperimentConfig(problem="smd_synthetic", smd_regularizer="l2")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("problem", ["entropy_integral", "pde_coefficient"])
    def test_setup_builds_the_kinds_one_grid(self, problem):
        # a kind has one grid size and no other; the setup is where it is
        # checked
        assert set(PROBLEM_DEFAULTS[problem]) == {"n", "deltas"}
        n = PROBLEM_DEFAULTS[problem]["n"]
        assert experiments.build_setup(problem, n).x_true.grid.n == n

    @pytest.mark.parametrize("text, name", [
        ("[problem]\nkind = entropy_integral\n[rule]\ngama = 2\n", "gama"),
        ("[problem]\nkind = entropy_integral\n[stoping]\nkind = apriori\n", "stoping"),
        ("[problem]\nkind = entropy_integral\n[rule]\ncap_mode = max\n", "cap_mode"),
        ("[problem]\nkind = entropy_integral\n[rule]\ngamma_bar = 600\n", "gamma_bar"),
        ("[problem]\nkind = entropy_integral\n[stopping]\nk_max = 1000\n", "k_max"),
        ("[problem]\nkind = entropy_integral\n[stopping]\nkind = maxiter\n", "maxiter"),
        # eta, c and beta are fixed per problem (tau: see the next test);
        # lam_scale and smoothing size the stochastic instance
        ("[problem]\nkind = entropy_integral\n[rule]\nname = rule1\neta = -0.5\n"
         "[stopping]\nkind = apriori\n", r"unknown key 'eta' in \[rule\]"),
        ("[problem]\nkind = entropy_integral\n[stopping]\nkind = discrepancy\nc = 2\n",
         r"unknown key 'c' in \[stopping\]"),
        ("[problem]\nkind = smd_synthetic\n[smd]\nregularizer = entropy\nbeta = -3\n",
         r"unknown key 'beta' in \[smd\]"),
        ("[problem]\nkind = smd_synthetic\n[smd]\nlam_scale = nan\n",
         r"unknown key 'lam_scale' in \[smd\]"),
        ("[problem]\nkind = smd_synthetic\n[smd]\nsmoothing = 0\n",
         r"unknown key 'smoothing' in \[smd\]"),
        # the grid size of every kind is the kind's, in no section
        ("[problem]\nkind = smd_synthetic\n[smd]\nn = 50\n",
         r"typo\.cfg: unknown key 'n' in \[smd\]"),
        # configparser would copy [DEFAULT]'s keys into every section
        ("[DEFAULT]\nn = 32\n[problem]\nkind = pde_coefficient\n",
         r"typo\.cfg: unknown section \[DEFAULT\]$"),
        ("[DEFAULT]\nn = 32\n[problem]\nkind = pde_coefficient\n[rule]\nname = rule2\n",
         r"typo\.cfg: unknown section \[DEFAULT\]$"),
        # what configparser itself refuses is a ValueError naming the file too
        ("[problem]\nkind = entropy_integral\nkind = pde_coefficient\n",
         r"typo\.cfg: .*option 'kind' in section 'problem' already exists"),
        ("kind = entropy_integral\n", r"typo\.cfg: File contains no section headers"),
        # a config is read as UTF-8; the text is written as Latin-1, so é is byte 0xe9
        ("[problem]\nkind = entropy_integral ; caf\xe9\n",
         r"typo\.cfg: 'utf-8' codec can't decode byte 0xe9"),
    ], ids=["key", "section", "cap_mode", "gamma_bar", "k_max", "maxiter", "rule-eta",
            "stopping-c", "smd-beta", "smd-lam_scale", "smd-smoothing", "smd-n",
            "default-section", "default-section-and-rule", "repeated-key", "no-section-header",
            "not-utf-8"])
    def test_unknown_key_or_section_rejected(self, tmp_path, text, name):
        p = tmp_path / "typo.cfg"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=name) as exc:
            parse_config(p)
        assert str(exc.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("text, reason", [
        ("[problem]\nkind = entropy_integral\n[sweep]\nseeds =\n", "seeds is empty"),
        ("[problem]\nkind = smd_synthetic\n[sweep]\nseeds =\n", "seeds is empty"),
        ("[problem]\nkind = entropy_integral\n[sweep]\ndeltas =\n", "deltas is empty"),
        ("[problem]\nkind = pde_coefficient\n[rule]\nname = rule2\n[sweep]\n"
         "deltas = 1e-2, 0\n", "deltas must be positive"),
        ("[problem]\nkind = entropy_integral\n[sweep]\nseeds = 1, 1, 2\n",
         "seeds repeat a seed"),
        ("[problem]\nkind = smd_synthetic\n[sweep]\nseeds = 3, 1, 3\n", "seeds repeat a seed"),
        ("[problem]\nkind = entropy_integral\n[sweep]\ndeltas = 5e-2, 5e-2\nseeds = 1, 2\n",
         "deltas repeat an iterate-file tag"),
        # distinct floats, one tag: both cells would write iterates_1e-07_<seed>.csv
        ("[problem]\nkind = entropy_integral\n[sweep]\ndeltas = 1e-7, 1.0000001e-7\n",
         "deltas repeat an iterate-file tag"),
        ("[problem]\nkind = entropy_integral\n[sweep]\nseeds = 1, -1\n",
         r"\[sweep\] seeds must be nonnegative"),
        ("[problem]\nkind = smd_synthetic\n[sweep]\nseeds = -1\n",
         r"\[sweep\] seeds must be nonnegative"),
        ("[problem]\nkind = entropy_integral\n[sweep]\ndeltas = inf, 1e-2\n",
         r"\[sweep\] deltas must be positive and finite"),
        # a value that does not convert names the section and key
        ("[problem]\nkind = entropy_integral\n[sweep]\nseeds = 1, x\n",
         r"bad\.cfg: \[sweep\] seeds: invalid literal for int\(\)"),
        # an empty item is refused, not dropped: the study keeps its size
        ("[problem]\nkind = entropy_integral\n[sweep]\nseeds = 1,,2\n",
         r"bad\.cfg: \[sweep\] seeds: empty item in '1,,2'$"),
        ("[problem]\nkind = entropy_integral\n[sweep]\ndeltas = 5e-2,,5e-4\n",
         r"bad\.cfg: \[sweep\] deltas: empty item in '5e-2,,5e-4'$"),
        ("[problem]\nkind = smd_synthetic\n[sweep]\nseeds = ,1, 2\n",
         r"bad\.cfg: \[sweep\] seeds: empty item in ',1, 2'$"),
        ("[problem]\nkind = entropy_integral\n[sweep]\ndeltas = 5e-2, 5e-3,\n",
         r"bad\.cfg: \[sweep\] deltas: empty item in '5e-2, 5e-3,'$"),
        # the stochastic study's values are checked before any instance is built
        ("[problem]\nkind = smd_synthetic\n[smd]\nalpha = 1.0\n",
         r"bad\.cfg: \[smd\] alpha must lie in \[0,1\), got 1\.0"),
        # the study's blocks, gamma, k_max and instance seed are fixed, so a
        # value of any of them, bad or not, is an unknown key (values are
        # read as written: no %-interpolation error escapes unnamed)
        ("[problem]\nkind = smd_synthetic\n[smd]\nk_max = -3\n",
         r"bad\.cfg: unknown key 'k_max' in \[smd\]$"),
        ("[problem]\nkind = smd_synthetic\n[smd]\nk_max = 1000001\n",
         r"bad\.cfg: unknown key 'k_max' in \[smd\]$"),
        ("[problem]\nkind = smd_synthetic\n[smd]\ninstance_seed = -7\n",
         r"bad\.cfg: unknown key 'instance_seed' in \[smd\]$"),
        ("[problem]\nkind = smd_synthetic\n[smd]\nblocks = 0\n",
         r"bad\.cfg: unknown key 'blocks' in \[smd\]$"),
        ("[problem]\nkind = smd_synthetic\n[smd]\ngamma = fast\n",
         r"bad\.cfg: unknown key 'gamma' in \[smd\]$"),
        ("[problem]\nkind = smd_synthetic\n[smd]\ngamma = 0\n",
         r"bad\.cfg: unknown key 'gamma' in \[smd\]$"),
        ("[problem]\nkind = smd_synthetic\n[smd]\ngamma = nan\n",
         r"bad\.cfg: unknown key 'gamma' in \[smd\]$"),
        ("[problem]\nkind = smd_synthetic\n[smd]\ngamma = 2.5\n",
         r"bad\.cfg: unknown key 'gamma' in \[smd\]$"),
        ("[problem]\nkind = smd_synthetic\n[smd]\nregularizer = elastic\ngamma = inf\n",
         r"bad\.cfg: unknown key 'gamma' in \[smd\]$"),
        ("[problem]\nkind = smd_synthetic\n[smd]\ngamma = 1.5%\n",
         r"bad\.cfg: unknown key 'gamma' in \[smd\]$"),
    ], ids=["seeds", "smd-seeds", "deltas", "zero-delta", "repeated-seed",
            "smd-repeated-seed", "repeated-delta", "repeated-delta-tag", "negative-seed",
            "smd-negative-seed", "inf-delta", "non-integer-seed", "empty-seed-item",
            "empty-delta-item", "leading-comma", "trailing-comma", "smd-alpha-one",
            "smd-negative-k_max", "smd-k_max-past-the-cap",
            "smd-negative-instance_seed", "smd-zero-blocks", "non-float-smd-gamma",
            "smd-zero-gamma", "smd-nan-gamma", "smd-gamma-past-the-bound", "smd-inf-gamma",
            "smd-percent-gamma"])
    def test_bad_sweep_values_rejected(self, tmp_path, text, reason):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ValueError, match=reason):
            parse_config(p)

    def test_rejected_value_names_the_file(self, tmp_path):
        p = tmp_path / "e.cfg"
        p.write_text("[problem]\nkind = entropy_integral\n[sweep]\nseeds = -1\n")
        with pytest.raises(ValueError) as exc:
            parse_config(p)
        assert str(exc.value) == f"{p}: [sweep] seeds must be nonnegative, got (-1,)"

    def test_smd_alpha_zero_is_the_constant_schedule(self, tmp_path, short_smd_study):
        # the default alpha = 0 is the constant schedule: stating it changes
        # neither the config nor a byte of the study's files
        cfgs = [tmp_path / "default.cfg", tmp_path / "zero.cfg"]
        cfgs[0].write_text(SMD_CFG)
        cfgs[1].write_text(SMD_CFG.replace("[smd]", "[smd]\nalpha = 0.0"))
        assert parse_config(cfgs[0]) == parse_config(cfgs[1])
        assert parse_config(cfgs[1]).smd_study()[1] == smd.ConstantSchedule(1.5)
        for cfg in cfgs:
            assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
        for name in ("smd_rate_1.csv", "smd_rate_2.csv"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "zero" / name).read_bytes())

    @pytest.mark.parametrize("text, names", [
        ("[problem]\nkind = smd_synthetic\n[rule]\nname = rule3\n"
         "[stopping]\nkind = apriori\n[sweep]\ndeltas = 1e-3\n",
         ("does not read", "'name' in [rule]", "'kind' in [stopping]",
          "'deltas' in [sweep]")),
        ("[problem]\nkind = pde_coefficient\n[rule]\nname = rule2\n[smd]\nalpha = 0.3\n",
         ("does not read", "'alpha' in [smd]")),
        # no kind reads tau, so it is an unknown key under every rule and stopping
        ("[problem]\nkind = entropy_integral\n[rule]\nname = rule1\ntau = 1.01\n"
         "[stopping]\nkind = apriori\n",
         ("unknown key 'tau' in [rule]",)),
        ("[problem]\nkind = entropy_integral\n[rule]\nname = rule2\ntau = 1.01\n"
         "[stopping]\nkind = apriori\n",
         ("unknown key 'tau' in [rule]",)),
    ], ids=["smd", "pde", "apriori-rule1-tau", "apriori-rule2-tau"])
    def test_keys_the_kind_does_not_read_rejected(self, tmp_path, text, names):
        p = tmp_path / "unused.cfg"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            parse_config(p)
        for name in names:
            assert name in str(exc.value)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_parses_and_resolves(self, path):
        cfg = parse_config(path)
        cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
        cp.read(path)
        written = cp.get("sweep", "deltas", fallback=None)
        assert cfg.deltas == (PROBLEM_DEFAULTS[cfg.problem]["deltas"] if written is None
                              else tuple(map(float, written.split(","))))
        assert PROBLEM_DEFAULTS[cfg.problem]["n"] > 0

    @pytest.mark.parametrize("kind, n, rule", [
        ("entropy_integral", 50, "entropy experiment needs n >= 100"),
        ("pde_coefficient", 48, "pde experiment supports n in {16, 32, 64, 128}"),
    ], ids=["entropy", "pde"])
    def test_grid_size_the_setup_refuses_names_the_file_and_key(self, tmp_path, kind, n, rule):
        # the setup states the rule; a config cannot set a size at all, and
        # is refused naming the file and the key
        with pytest.raises(ValueError) as exc:
            experiments.build_setup(kind, n)
        assert str(exc.value) == rule
        p = tmp_path / "size.cfg"
        p.write_text(f"[problem]\nkind = {kind}\nn = {n}\n[rule]\nname = rule2\n")
        with pytest.raises(ValueError) as exc:
            parse_config(p)
        assert str(exc.value) == f"{p}: unknown key 'n' in [problem]"


ENTROPY_CFG = """
[problem]
kind = entropy_integral

[rule]
name = rule3

[sweep]
deltas = 2e-2, 5e-3
seeds = 1, 2
"""

#: the flags of a single run, the sweep of one (delta, seed) cell
ONE_CELL = ["sweep", "--delta", "1e-3", "--seed", "1"]

SMD_CFG = """
[problem]
kind = smd_synthetic

[smd]
regularizer = entropy

[sweep]
seeds = 1, 2
"""


@pytest.fixture
def short_smd_study(monkeypatch):
    """The stochastic study on 3 blocks of 30 subintervals with largest step
    1.5, cut to 300 steps."""
    for key, value in (("n", 30), ("blocks", 3), ("gamma", 1.5), ("k_max", 300)):
        monkeypatch.setitem(PROBLEM_DEFAULTS["smd_synthetic"], key, value)


@pytest.fixture
def small_entropy_grid(monkeypatch):
    """The integral-equation problem on 300 subintervals."""
    monkeypatch.setitem(PROBLEM_DEFAULTS["entropy_integral"], "n", 300)


class TestCli:
    # a single run is the sweep of one (delta, seed) cell
    def test_run_single_cell(self, tmp_path, capsys, small_entropy_grid):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(ENTROPY_CFG)
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "--delta", "2e-2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "iter=" in out and "ratio=" in out
        assert out.splitlines()[0].startswith("rule=rule3 delta=0.02 iter=")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "iterates_0p02_1.csv", "rate.csv", "table.csv"]

    def test_run_subcommand_is_gone(self, tmp_path, capsys):
        # a single run is a one-cell sweep, and the stochastic study is the
        # sweep of its config
        for command, text in (("run", ENTROPY_CFG), ("smd", SMD_CFG)):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(text)
            with pytest.raises(SystemExit) as exc:
                cli_main([command, "--config", str(cfg)])
            assert exc.value.code == 2
            assert f"invalid choice: '{command}'" in capsys.readouterr().err

    @pytest.mark.parametrize("stopping", ["[stopping]\nkind = discrepancy\n",
                                          "[stopping]\nkind = apriori\n"],
                             ids=["discrepancy", "apriori"])
    def test_run_cell_equals_sweep_cell(self, tmp_path, capsys, small_entropy_grid, stopping):
        # a one-cell sweep runs its cell as the full sweep does: the same
        # iterates, byte for byte
        cfg = tmp_path / "e.cfg"
        cfg.write_text(ENTROPY_CFG + stopping)
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run"),
                       "--delta", "5e-3", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        name = "iterates_0p005_2.csv"
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            name, "rate.csv", "table.csv"]
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "sweep" / name).read_bytes()
        if "apriori" in stopping:
            assert " iter=200 " in out

    def test_run_rejects_nonpositive_delta(self, tmp_path, capsys, small_entropy_grid):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(ENTROPY_CFG)
        rc = cli_main(["sweep", "--config", str(cfg), "--delta", "0",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["type"] == "ValueError"
        assert "delta must be positive" in payload["message"]
        assert not (tmp_path / "out").exists()

    # "run" is a single run, the sweep of one cell
    @pytest.mark.parametrize("command", [ONE_CELL, ["sweep", "--delta", "1e-3"]],
                             ids=["run", "delta"])
    def test_stochastic_config_refused_by_name(self, tmp_path, capsys, command):
        # the stochastic study has no deltas for --delta to cut: the flag
        # fails by name, before the instance is built or the directory made
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SMD_CFG)
        rc = cli_main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["type"] == "ValueError"
        assert payload["message"] == ("kind 'smd_synthetic' has no deltas: "
                                      "--delta does not apply")
        assert not (tmp_path / "out").exists()

    def test_smd_has_no_fast_flag(self, tmp_path, capsys, monkeypatch):
        # the stochastic study has one grid, as every kind has: argparse
        # refuses --fast, and the working directory is left as it was
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SMD_CFG)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", str(cfg), "--fast"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.cfg"]

    @pytest.mark.parametrize("command, text", [(["sweep", "--delta", "5e-3"], ENTROPY_CFG),
                                               (["sweep"], SMD_CFG)],
                             ids=["run", "smd"])
    def test_negative_seed_flag_rejected(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        rc = cli_main([*command, "--config", str(cfg), "--seed", "-1",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["type"] == "ValueError"
        assert payload["message"] == "--seed must be nonnegative, got -1"
        assert not (tmp_path / "out").exists()

    def test_sweep_writes_artifacts_and_is_reproducible(self, tmp_path, small_entropy_grid):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(ENTROPY_CFG)
        outs = []
        for tag in ("o1", "o2"):
            rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / tag)])
            assert rc == 0
            outs.append(tmp_path / tag)
        for name in ("table.csv", "rate.csv", "iterates_0p02_1.csv", "iterates_0p005_2.csv"):
            assert (outs[0] / name).exists()
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_sweep_flags_a_failed_cell_with_exit_code_3(self, tmp_path, capsys, monkeypatch,
                                                         small_entropy_grid):
        # NaN data for one (delta, seed) cell: the sweep flags it on stderr,
        # takes that delta's medians over the other seeds and still writes
        # both tables
        cfg = tmp_path / "e.cfg"
        cfg.write_text(ENTROPY_CFG.replace("seeds = 1, 2", "seeds = 1, 2, 3"))
        add_noise = experiments.add_noise

        def nan_for_one_cell(y, delta, seed):
            if (delta, seed) == (5e-3, 2):
                return GridFunction(y.grid, np.full(y.grid.node_count, np.nan))
            return add_noise(y, delta, seed)

        monkeypatch.setattr(experiments, "add_noise", nan_for_one_cell)
        out_dir = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("flagged cell delta=0.005 seed=2: NonFiniteResidualError: ")
        setup = setup_entropy_experiment(300)
        good = [run_rate_sweep(setup, "rule3", [5e-3], [seed], keep_records=True).cells[0]
                for seed in (1, 3)]
        with open(out_dir / "table.csv") as fh:
            rows = {float(r["delta"]): r for r in csv.DictReader(fh)}
        assert float(rows[5e-3]["iter"]) == np.median([c.k_stop for c in good])
        assert float(rows[5e-3]["err"]) == np.median([c.err for c in good])
        assert np.isfinite(float(rows[2e-2]["err"]))
        assert (out_dir / "rate.csv").is_file()

    def test_sweep_that_cannot_write_fails_before_any_cell(self, tmp_path, capsys,
                                                           monkeypatch, small_entropy_grid):
        # --out names a file: the directory is made before the first cell,
        # so the sweep fails at once instead of running every cell first
        cfg = tmp_path / "e.cfg"
        cfg.write_text(ENTROPY_CFG)
        out = tmp_path / "out"
        out.write_text("not a directory")
        calls = []
        run = experiments.run

        def counted_run(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(experiments, "run", counted_run)
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["type"] == "FileExistsError"
        assert calls == []
        assert out.read_text() == "not a directory"

    def test_verify(self, capsys):
        rc = cli_main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_smd_subcommand(self, tmp_path, capsys, short_smd_study):
        # sweep runs the sample paths of a stochastic config
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SMD_CFG)
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "smd")])
        assert rc == 0
        assert (tmp_path / "smd" / "smd_rate_1.csv").exists()
        assert "median s_k*delta_k" in capsys.readouterr().out

    def test_smd_polynomial_schedule(self, tmp_path, capsys, short_smd_study, monkeypatch):
        monkeypatch.setitem(PROBLEM_DEFAULTS["smd_synthetic"], "gamma", 1.8)
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SMD_CFG.replace("[smd]", "[smd]\nalpha = 0.3"))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "smd"),
                       "--seed", "2"])
        err = capsys.readouterr().err
        assert rc == 0, err
        with open(tmp_path / "smd" / "smd_rate_2.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 301
        assert [r["gamma_k"] for r in rows[:-1]] == [repr(1.8 * (k + 1) ** -0.3)
                                                     for k in range(300)]
        assert rows[-1]["gamma_k"] == ""
        # alpha = 1 makes the step sums converge: rejected before any path runs
        cfg.write_text(SMD_CFG.replace("[smd]", "[smd]\nalpha = 1.0"))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "smd1")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["status"] == "error"
        assert payload["type"] == "ValueError"
        assert "alpha must lie in [0,1)" in payload["message"]

    @pytest.mark.parametrize("key, value", [("blocks", "0"), ("gamma", "2.5"), ("gamma", "inf"),
                                            ("k_max", "1000001"), ("instance_seed", "-7")],
                             ids=["blocks", "gamma-2.5", "gamma-inf", "k_max", "instance_seed"])
    def test_smd_fixed_study_key_fails_before_anything_is_written(self, tmp_path, capsys,
                                                                  key, value):
        # the study's blocks, gamma, k_max and instance seed are not keys
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SMD_CFG.replace("[smd]", f"[smd]\n{key} = {value}"))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["type"] == "ValueError"
        assert payload["message"] == f"{cfg}: unknown key {key!r} in [smd]"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, problem", [
        ("entropy_rule3.cfg", "entropy_integral"),
        ("pde_rule2.cfg", "pde_coefficient"),
        ("smd_entropy.cfg", "smd_synthetic"),
    ], ids=["entropy", "pde", "smd"])
    def test_grid_size_key_fails_before_anything_is_written(self, tmp_path, capsys,
                                                            config, problem):
        # a shipped config with its kind's own grid size stated under [problem]
        text = (SHIPPED_CONFIGS[0].parent / config).read_text()
        assert f"kind = {problem}\n" in text
        cfg = tmp_path / config
        cfg.write_text(text.replace("[problem]\n",
                                    f"[problem]\nn = {PROBLEM_DEFAULTS[problem]['n']}\n"))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["type"] == "ValueError"
        assert payload["message"] == f"{cfg}: unknown key 'n' in [problem]"
        assert not (tmp_path / "out").exists()

    def test_run_refuses_the_apriori_budget_of_a_tiny_delta(self, tmp_path, capsys,
                                                             small_entropy_grid):
        # 1/delta overflows to inf; the budget is still refused by name
        cfg = tmp_path / "e.cfg"
        cfg.write_text(ENTROPY_CFG + "[stopping]\nkind = apriori\n")
        rc = cli_main(["sweep", "--config", str(cfg), "--delta", "1e-320", "--seed", "1",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["type"] == "ValueError"
        assert payload["message"].startswith("a-priori budget floor(1/delta) = inf for delta = ")
        assert payload["message"].endswith(" exceeds the iteration safety cap 1000000")
        assert not (tmp_path / "out").exists()

    def test_sweep_rejects_rule1_on_the_elliptic_problem(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[problem]\nkind = pde_coefficient\n[rule]\nname = rule1\n"
                       "[sweep]\ndeltas = 1e-2\nseeds = 1\n")
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["type"] == "ValueError"
        assert "rule1 needs a known norm bound" in payload["message"]
        assert not (tmp_path / "out" / "table.csv").exists()

    def test_smd_nonfinite_data_fails(self, tmp_path, capsys, monkeypatch, short_smd_study):
        # NaN data blocks beside a finite truth: the first residual is NaN
        build = smd.build_sourced_instance

        def nan_data(*args, **kw):
            inst = build(*args, **kw)
            data = tuple(GridFunction(y.grid, np.full(y.grid.node_count, np.nan))
                         for y in inst.problem.data)
            return dataclasses.replace(
                inst, problem=SystemProblem(inst.problem.operators, data))

        monkeypatch.setattr(smd, "build_sourced_instance", nan_data)
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SMD_CFG)
        rc = cli_main(["sweep", "--config", str(cfg)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["status"] == "error"
        assert payload["type"] == "NonFiniteResidualError"
        assert "iterate 0" in payload["message"]

    def test_smd_nonfinite_instance_fails(self, tmp_path, capsys, monkeypatch,
                                          short_smd_study):
        # a NaN source element makes the truth NaN as well as the data; the
        # truth is refused before the first step
        build = smd.build_sourced_instance
        monkeypatch.setattr(smd, "build_sourced_instance",
                            lambda *args, **kw: build(*args, **kw, lam_scale=float("nan")))
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SMD_CFG)
        rc = cli_main(["sweep", "--config", str(cfg)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["status"] == "error"
        assert payload["type"] == "ValueError"
        assert "R(xbar) = nan is not finite" in payload["message"]

    def test_smd_empty_instance_fails(self, tmp_path, capsys, monkeypatch, short_smd_study):
        monkeypatch.setitem(PROBLEM_DEFAULTS["smd_synthetic"], "n", 400)
        monkeypatch.setitem(PROBLEM_DEFAULTS["smd_synthetic"], "blocks", 1)
        monkeypatch.setitem(PROBLEM_DEFAULTS["smd_synthetic"], "instance_seed", 10)
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SMD_CFG.replace("regularizer = entropy", "regularizer = elastic"))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "smd")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["status"] == "error"
        assert payload["type"] == "ValueError"
        assert "N = 1, n = 400, seed = 10 is empty" in payload["message"]
        assert not list((tmp_path / "smd").glob("*.csv"))

    def test_verify_has_no_fast_flag(self, tmp_path, capsys, monkeypatch):
        # each problem kind has one grid, so neither command has a --fast
        # flag: argparse refuses it, and a Landweber sweep leaves the
        # working directory as it was (the stochastic one is
        # test_smd_has_no_fast_flag)
        cfg = tmp_path / "e.cfg"
        cfg.write_text(ENTROPY_CFG)
        monkeypatch.chdir(tmp_path)
        for argv in (["verify", "--fast"], ["sweep", "--config", "e.cfg", "--fast"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments: --fast" in capsys.readouterr().err, argv
            assert sorted(p.name for p in tmp_path.iterdir()) == ["e.cfg"], argv

    def test_usage_block_names_the_sweep_flags(self, capsys):
        # the module docstring's usage line of sweep names exactly the
        # options that argparse knows, so a deleted flag cannot linger there
        line, = [row for row in cli.__doc__.splitlines()
                 if row.strip().startswith("mirrorsolve sweep")]
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--help"])
        assert exc.value.code == 0
        helped = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", line)) == helped

    def test_error_is_machine_readable(self, tmp_path, capsys):
        rc = cli_main([*ONE_CELL, "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err.splitlines()[-1])
        assert payload["status"] == "error"

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "mirrorsolve.cli", "verify"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


# run in a fresh interpreter in which any import of scipy fails; argv holds
# the config and the output directory of one elliptic cell
_WITHOUT_SCIPY = """
import importlib, importlib.abc, pkgutil, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is unimportable here")

sys.meta_path.insert(0, NoScipy())
import mirrorsolve
for module in pkgutil.iter_modules(mirrorsolve.__path__):
    importlib.import_module(f"mirrorsolve.{module.name}")
from mirrorsolve.cli import main
print(main(["verify"]))
print(main(["sweep", "--config", sys.argv[1], "--delta", "1e-4", "--seed", "2",
            "--out", sys.argv[2]]))
"""


def test_package_runs_with_scipy_unimportable(tmp_path, capsys):
    # SciPy is a test and benchmark dependency only: every module imports,
    # the oracle battery passes and an elliptic cell writes the same bytes
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "pde_rule2.cfg")
    src = str(Path(mirrorsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, cfg, str(tmp_path / "bare")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    *verify_out, verify_rc, cell_out, _, run_rc = proc.stdout.splitlines()
    assert (verify_rc, run_rc) == ("0", "0")
    assert re.fullmatch(r"(\d+)/\1 checks passed", verify_out[-1])
    assert cli_main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines() == verify_out
    assert cli_main(["sweep", "--config", cfg, "--delta", "1e-4", "--seed", "2",
                     "--out", str(tmp_path / "normal")]) == 0
    # the row of the one cell; the next line names the output directory
    assert capsys.readouterr().out.splitlines()[0] == cell_out
    name = "iterates_0p0001_2.csv"
    assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()


def test_benchmark_restates_the_package_constants(monkeypatch):
    # the benchmark builds its studies in code, so it restates the fixed
    # values of the shipped studies; each must be the package's
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    study = PROBLEM_DEFAULTS["smd_synthetic"]
    smd_paths = workloads.WORKLOADS["smd_paths"]
    for key in ("blocks", "n", "instance_seed", "gamma", "k_max"):
        assert getattr(smd_paths, key) == study[key], key
    regs = dict(workloads.SMD_REGULARIZERS)
    assert regs["elastic"].beta == study["beta"]
    for name, reg in regs.items():
        cfg = ExperimentConfig(problem="smd_synthetic", smd_regularizer=name)
        assert reg == cfg.smd_study()[0]
    landweber = [w for w in workloads.WORKLOADS.values()
                 if isinstance(w, workloads.LandweberWorkload)]
    assert sorted(w.problem for w in landweber) == ["entropy_integral", "pde_coefficient"]
    for w in landweber:
        assert w.n == PROBLEM_DEFAULTS[w.problem]["n"]
        assert w.tau == experiments.build_setup(w.problem, w.n).tau_default
