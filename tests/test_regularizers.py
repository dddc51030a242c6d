import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsolve.checks import (
    check_convex_identities,
    check_mirror_argmin_entropy,
    check_mirror_argmin_separable,
    kl_divergence,
)
from mirrorsolve.grids import Grid, GridFunction, norm_l2_values
from mirrorsolve.regularizers import ElasticNet, EntropySimplex, QuadraticBox

GRID = Grid.interval(40)
ALL_REGS = [QuadraticBox(lower=0.0), ElasticNet(beta=0.5), EntropySimplex()]


def random_pair(reg, rng, grid=GRID, spread=2.0):
    """A point x = mirror_map(xi) and the subgradient xi of R at x, as grid
    functions."""
    xi = GridFunction(grid, rng.uniform(-spread, spread, grid.node_count))
    return GridFunction(grid, reg.mirror_map(xi.values, grid.weights)), xi


class TestValues:
    def test_quadratic_box_on_ones(self):
        g = Grid.interval(400)
        assert QuadraticBox(lower=0.0).value(g.ones().values, g.weights) == \
            pytest.approx(0.5, abs=1e-12)

    def test_quadratic_box_negative_node_is_infeasible(self):
        v = np.ones(GRID.node_count)
        v[3] = -1e-3
        assert QuadraticBox(lower=0.0).value(v, GRID.weights) == np.inf

    def test_entropy_of_uniform_density(self):
        # int 1 * log 1 = 0
        g = Grid.interval(500)
        assert EntropySimplex().value(g.ones().values, g.weights) == 0.0

    def test_entropy_outside_simplex(self):
        reg = EntropySimplex()
        assert reg.value(np.full(GRID.node_count, 2.0), GRID.weights) == np.inf
        v = np.ones(GRID.node_count)
        v[0] = -0.1
        assert reg.value(v, GRID.weights) == np.inf

    def test_entropy_allows_zero_nodes(self):
        g = Grid.interval(4)
        v = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
        v = v / np.sum(g.weights * v)
        val = EntropySimplex().value(v, g.weights)
        assert np.isfinite(val)

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_elastic_net_beta_checked(self, beta):
        with pytest.raises(ValueError, match="beta must be positive"):
            ElasticNet(beta=beta)

    def test_quadratic_box_lower_checked(self):
        # -inf is the unconstrained quadratic; a NaN bound would stop a run at
        # iterate 0 as a non-finite residual, +inf as a truth outside dom R
        QuadraticBox(lower=-math.inf)
        for lower in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lower must be below"):
                QuadraticBox(lower=lower)


class TestMirrorMaps:
    def test_entropy_zero_dual_gives_uniform(self):
        g = Grid.interval(250)
        x = EntropySimplex().mirror_map(np.zeros(g.node_count), g.weights)
        assert np.max(np.abs(x - 1.0)) <= 1e-12

    def test_quadratic_box_clips(self):
        g = Grid.interval(2)
        out = QuadraticBox(lower=0.0).mirror_map(np.array([-1.0, 2.0, 0.0]), g.weights)
        assert np.array_equal(out, np.array([0.0, 2.0, 0.0]))

    def test_elastic_net_soft_threshold(self):
        g = Grid.interval(2)
        out = ElasticNet(beta=1.0).mirror_map(np.array([3.0, -0.5, 1.0]), g.weights)
        assert np.array_equal(out, np.array([2.0, 0.0, 0.0]))

    def test_separable_maps_match_lattice_argmin(self):
        res = check_mirror_argmin_separable()
        assert res.passed, res.detail

    def test_entropy_map_matches_simplex_search(self):
        res = check_mirror_argmin_entropy()
        assert res.passed, res.detail

    @given(st.floats(-20, 20))
    @settings(max_examples=30, deadline=None)
    def test_entropy_shift_invariance(self, c):
        # exact in exact arithmetic; the tolerance only absorbs the rounding
        # of xi + c itself
        rng = np.random.default_rng(7)
        xi = rng.uniform(-3, 3, GRID.node_count)
        reg = EntropySimplex()
        a = reg.mirror_map(xi, GRID.weights)
        b = reg.mirror_map(xi + c, GRID.weights)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(a)

    def test_entropy_map_safe_for_huge_duals(self):
        xi = np.linspace(500.0, 900.0, GRID.node_count)
        x = EntropySimplex().mirror_map(xi, GRID.weights)
        assert np.all(np.isfinite(x))
        assert float(np.sum(GRID.weights * x)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_conjugate_safe_for_huge_duals(self, reg):
        xi = np.linspace(500.0, 900.0, GRID.node_count)
        assert np.isfinite(reg.conjugate(xi, GRID.weights))


class TestOwnership:
    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_mirror_map_result_is_fresh_and_frozen(self, reg, check_ownership):
        # a fresh array; the dual values and the weights keep their bits and
        # their write flags
        xi = GridFunction(GRID, np.random.default_rng(6).uniform(-2, 2, GRID.node_count))
        check_ownership(reg.mirror_map, xi.values, GRID.weights)

    def test_unbounded_box_map_is_a_fresh_copy(self, check_ownership):
        # the identity map of the unconstrained quadratic copies its input
        xi = np.random.default_rng(8).uniform(-2, 2, GRID.node_count)
        x = check_ownership(QuadraticBox(lower=-math.inf).mirror_map, xi, GRID.weights)
        assert x is not xi and np.array_equal(x, xi)

    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_bregman_evaluator_leaves_inputs_alone(self, reg, check_ownership):
        rng = np.random.default_rng(7)
        (target, _), (x, xi) = random_pair(reg, rng), random_pair(reg, rng)
        dist = reg.bregman_to(target)
        d = check_ownership(dist, xi.values, inputs=[xi.values, target.values, GRID.weights])
        # the written-out three-point form R(target) - R(x) - <xi, target - x>
        w = GRID.weights
        ref = (float(reg.value(target.values, w)) - float(reg.value(x.values, w))
               - np.sum(w * xi.values * (target.values - x.values)))
        assert d == pytest.approx(ref, abs=1e-12)


#: spreads of the dual rows of a stacked evaluation: states as the solvers
#: make them, wide ones, and huge ones where e^xi overflows unshifted
ROW_SPREADS = ((-2.0, 2.0), (-50.0, 50.0), (500.0, 900.0))


class TestStackedEvaluation:
    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
           spreads=st.lists(st.sampled_from(ROW_SPREADS), min_size=1, max_size=70))
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_per_state(self, reg, n, seed, spreads):
        grid = Grid.interval(n)
        w = grid.weights
        rng = np.random.default_rng(seed)
        dist = reg.bregman_to(random_pair(reg, rng, grid)[0])
        xis = np.array([rng.uniform(lo, hi, grid.node_count) for lo, hi in spreads])
        conj, stacked = reg.conjugate(xis, w), dist(xis)
        assert conj.shape == stacked.shape == (len(spreads),)
        for xi, c, d in zip(xis, conj.tolist(), stacked.tolist()):
            single_c, single_d = reg.conjugate(xi, w), dist(xi)
            assert np.ndim(single_c) == np.ndim(single_d) == 0
            assert c == single_c and d == single_d
            assert np.isfinite(d)


class TestBregman:
    def test_zero_at_same_point(self):
        rng = np.random.default_rng(0)
        for reg in ALL_REGS:
            x, xi = random_pair(reg, rng)
            assert reg.bregman_to(x)(xi.values) == pytest.approx(0.0, abs=1e-12)

    def test_unconstrained_quadratic_is_half_squared_distance(self):
        reg = QuadraticBox(lower=-math.inf)
        rng = np.random.default_rng(1)
        x = GridFunction(GRID, rng.standard_normal(GRID.node_count))
        xbar = GridFunction(GRID, rng.standard_normal(GRID.node_count))
        # the subdifferential of 1/2 ||x||^2 at x is {x}
        d = reg.bregman_to(xbar)(x.values)
        assert d == pytest.approx(0.5 * norm_l2_values(xbar.values - x.values, GRID.weights) ** 2,
                                  rel=1e-12)

    def test_entropy_bregman_equals_kl(self):
        rng = np.random.default_rng(2)
        reg = EntropySimplex()
        xbar = GRID.ones()
        for _ in range(20):
            x, xi = random_pair(reg, rng)
            d = reg.bregman_to(xbar)(xi.values)
            assert d == pytest.approx(kl_divergence(xbar.values, x.values, GRID.weights),
                                      abs=1e-8)

    def test_nonnegative_and_definite(self):
        rng = np.random.default_rng(3)
        for reg in ALL_REGS:
            for _ in range(100):
                x, xi = random_pair(reg, rng)
                q, _ = random_pair(reg, rng)
                d = reg.bregman_to(q)(xi.values)
                assert d >= -1e-12
            x, xi = random_pair(reg, rng)
            assert abs(reg.bregman_to(x)(xi.values)) <= 1e-12


class TestConjugate:
    def test_entropy_at_zero(self):
        zero = np.zeros(GRID.node_count)
        assert EntropySimplex().conjugate(zero, GRID.weights) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_box_nonpositive_dual(self):
        xi = -np.abs(np.random.default_rng(4).standard_normal(GRID.node_count))
        assert QuadraticBox(lower=0.0).conjugate(xi, GRID.weights) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("reg", [QuadraticBox(lower=-math.inf), QuadraticBox(lower=0.0),
                                     QuadraticBox(lower=-0.7), ElasticNet(beta=0.5),
                                     EntropySimplex()], ids=repr)
    def test_closed_forms_match_the_mirror_map_route(self, reg):
        rng = np.random.default_rng(9)
        for _ in range(50):
            xi = rng.uniform(-3.0, 3.0, GRID.node_count)
            # R*(xi) = <xi, z> - R(z) at the maximizer z = grad R*(xi)
            z = reg.mirror_map(xi, GRID.weights)
            assert reg.conjugate(xi, GRID.weights) == pytest.approx(
                np.sum(GRID.weights * xi * z) - reg.value(z, GRID.weights),
                rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("reg", ALL_REGS, ids=repr)
    def test_fenchel_row_fails_for_a_perturbed_mirror_map(self, reg, monkeypatch):
        # the map evaluated at a shifted dual is the argmin of a different
        # problem; the closed-form conjugate sees it
        cls = type(reg)
        mirror_map = cls.mirror_map
        monkeypatch.setattr(cls, "mirror_map", lambda self, v, w: mirror_map(
            self, v + 0.05 * np.linspace(0.0, 1.0, v.size), w))
        rows = {res.name: res for res in check_convex_identities(cases=5)}
        assert not rows[f"convex/fenchel[{cls.__name__}]"].passed

    @pytest.mark.parametrize("reg, check", [
        (QuadraticBox(lower=0.0), check_mirror_argmin_separable),
        (ElasticNet(beta=0.5), check_mirror_argmin_separable),
        (EntropySimplex(), check_mirror_argmin_entropy)],
        ids=["QuadraticBox", "ElasticNet", "EntropySimplex"])
    def test_argmin_row_fails_for_a_perturbed_conjugate(self, reg, check, monkeypatch):
        # the conjugate evaluated at a shifted dual belongs to a different
        # problem; the lattice optimum of the written-out node objectives,
        # a route through neither value nor mirror_map, sees it
        cls = type(reg)
        conjugate = cls.conjugate
        monkeypatch.setattr(cls, "conjugate", lambda self, v, w: conjugate(
            self, v + 0.05 * np.linspace(0.0, 1.0, v.size), w))
        res = check()
        assert not res.passed and "conjugate defect" in res.detail


class TestIdentityBattery:
    """Three-point identity, strong-convexity lower bound, dual upper bound,
    and mirror-map Lipschitz continuity over random instances per variant."""

    def test_full_battery(self):
        for res in check_convex_identities():
            assert res.passed, f"{res.name}: {res.detail}"

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_three_point_identity_random_seeds(self, seed):
        rng = np.random.default_rng(seed)
        for reg in ALL_REGS:
            x1, xi1 = random_pair(reg, rng)
            x2, xi2 = random_pair(reg, rng)
            x, _ = random_pair(reg, rng)
            to_x = reg.bregman_to(x)
            lhs = to_x(xi2.values) - to_x(xi1.values)
            rhs = (reg.bregman_to(x1)(xi2.values)
                   + np.sum(GRID.weights * (xi2.values - xi1.values) * (x1.values - x.values)))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_strong_convexity_lower_bound(self, seed):
        rng = np.random.default_rng(seed)
        for reg in ALL_REGS:
            x, xi = random_pair(reg, rng)
            xbar, _ = random_pair(reg, rng)
            d = reg.bregman_to(xbar)(xi.values)
            assert d + 1e-12 >= reg.sigma * reg.error_norm(xbar.values - x.values, GRID.weights) ** 2
