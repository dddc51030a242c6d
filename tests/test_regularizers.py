import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsolve import (
    ElasticNet,
    EntropySimplex,
    Grid,
    GridFunction,
    GridMismatchError,
    QuadraticBox,
    inner,
    norm_l2,
)
from mirrorsolve.checks import (
    check_convex_identities,
    check_mirror_argmin_entropy,
    check_mirror_argmin_separable,
    conjugate_oracle,
    kl_divergence,
)

GRID = Grid.interval(40)
ALL_REGS = [QuadraticBox(lower=0.0), ElasticNet(beta=0.5), EntropySimplex()]


def random_pair(reg, rng, grid=GRID, spread=2.0):
    """A point x = mirror_map(xi) and the subgradient xi of R at x."""
    xi = GridFunction(grid, rng.uniform(-spread, spread, grid.node_count))
    return reg.mirror_map(xi), xi


class TestValues:
    def test_quadratic_box_on_ones(self):
        g = Grid.interval(400)
        assert QuadraticBox(lower=0.0).value(g.ones()) == pytest.approx(0.5, abs=1e-12)

    def test_quadratic_box_negative_node_is_infeasible(self):
        v = np.ones(GRID.node_count)
        v[3] = -1e-3
        assert QuadraticBox(lower=0.0).value(GridFunction(GRID, v)) == np.inf

    def test_entropy_of_uniform_density(self):
        # int 1 * log 1 = 0
        assert EntropySimplex().value(Grid.interval(500).ones()) == 0.0

    def test_entropy_outside_simplex(self):
        reg = EntropySimplex()
        assert reg.value(2.0 * GRID.ones()) == np.inf
        v = np.ones(GRID.node_count)
        v[0] = -0.1
        assert reg.value(GridFunction(GRID, v)) == np.inf

    def test_entropy_allows_zero_nodes(self):
        g = Grid.interval(4)
        v = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
        v = v / np.sum(g.weights * v)
        val = EntropySimplex().value(GridFunction(g, v))
        assert np.isfinite(val)


class TestMirrorMaps:
    def test_entropy_zero_dual_gives_uniform(self):
        g = Grid.interval(250)
        x = EntropySimplex().mirror_map(g.zeros())
        assert np.max(np.abs(x.values - 1.0)) <= 1e-12

    def test_quadratic_box_clips(self):
        g = Grid.interval(2)
        xi = GridFunction(g, np.array([-1.0, 2.0, 0.0]))
        out = QuadraticBox(lower=0.0).mirror_map(xi)
        assert np.array_equal(out.values, np.array([0.0, 2.0, 0.0]))

    def test_elastic_net_soft_threshold(self):
        g = Grid.interval(2)
        xi = GridFunction(g, np.array([3.0, -0.5, 1.0]))
        out = ElasticNet(beta=1.0).mirror_map(xi)
        assert np.array_equal(out.values, np.array([2.0, 0.0, 0.0]))

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
        xi = GridFunction(GRID, rng.uniform(-3, 3, GRID.node_count))
        reg = EntropySimplex()
        a = reg.mirror_map(xi)
        b = reg.mirror_map(GridFunction(GRID, xi.values + c))
        assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(a.values)

    def test_entropy_map_safe_for_huge_duals(self):
        xi = GridFunction(GRID, np.linspace(500.0, 900.0, GRID.node_count))
        x = EntropySimplex().mirror_map(xi)
        assert np.all(np.isfinite(x.values))
        assert float(np.sum(GRID.weights * x.values)) == pytest.approx(1.0, abs=1e-12)


class TestOwnership:
    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_mirror_map_result_is_fresh_and_frozen(self, reg, check_ownership):
        xi = GridFunction(GRID, np.random.default_rng(6).uniform(-2, 2, GRID.node_count))
        check_ownership(reg.mirror_map, xi, inputs=[GRID.weights])

    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_bregman_evaluator_leaves_inputs_alone(self, reg, check_ownership):
        rng = np.random.default_rng(7)
        (target, _), (x, xi) = random_pair(reg, rng), random_pair(reg, rng)
        dist = reg.bregman_to(target)
        d = check_ownership(dist, x.values, xi.values,
                            inputs=[x.values, xi.values, target.values, GRID.weights])
        assert d == pytest.approx(reg.bregman((x, xi), target), abs=1e-12)


#: rows of a stacked evaluation: a state (x, xi) as the solvers make it, or
#: one moved to the edge of a domain (a zero node: 0 log 0 for the entropy,
#: on the bound for the box) or off it (a negative node; unit mass missed)
ROW_KINDS = ("state", "zero", "negative", "mass")


def stack_row(reg, kind, grid, rng):
    x, xi = random_pair(reg, rng, grid)
    v = x.values.copy()
    if kind == "zero":
        v[rng.integers(v.size)] = 0.0
        if isinstance(reg, EntropySimplex):
            v /= np.sum(grid.weights * v)
    elif kind == "negative":
        v[rng.integers(v.size)] = -rng.uniform(1e-3, 1.0)
    elif kind == "mass":
        v *= 1.5
    return v, xi.values


class TestStackedEvaluation:
    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=70))
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_per_state(self, reg, n, seed, kinds):
        grid = Grid.interval(n)
        rng = np.random.default_rng(seed)
        target = random_pair(reg, rng, grid)[0]
        dist = reg.bregman_to(target)
        rows = [stack_row(reg, kind, grid, rng) for kind in kinds]
        xs = np.array([x for x, _ in rows])
        xis = np.array([xi for _, xi in rows])
        stacked = dist(xs, xis)
        assert stacked.shape == (len(kinds),)
        for kind, (x, xi), d in zip(kinds, rows, stacked.tolist()):
            single = dist(x, xi)
            assert np.ndim(single) == 0
            assert d == single
            # bregman is the evaluator applied to one state, bit for bit
            pair = (GridFunction(grid, x), GridFunction(grid, xi))
            assert reg.bregman(pair, target) == float(single)
            off_domain = (kind in ("negative", "mass") if isinstance(reg, EntropySimplex)
                          else kind == "negative" and isinstance(reg, QuadraticBox))
            assert (d == -np.inf) == off_domain


class TestBregman:
    def test_zero_at_same_point(self):
        rng = np.random.default_rng(0)
        for reg in ALL_REGS:
            x, xi = random_pair(reg, rng)
            assert reg.bregman((x, xi), x) == pytest.approx(0.0, abs=1e-12)

    def test_unconstrained_quadratic_is_half_squared_distance(self):
        reg = QuadraticBox(lower=None)
        rng = np.random.default_rng(1)
        x = GridFunction(GRID, rng.standard_normal(GRID.node_count))
        xbar = GridFunction(GRID, rng.standard_normal(GRID.node_count))
        # the subdifferential of 1/2 ||x||^2 at x is {x}
        d = reg.bregman((x, x), xbar)
        assert d == pytest.approx(0.5 * norm_l2(xbar - x) ** 2, rel=1e-12)

    def test_entropy_bregman_equals_kl(self):
        rng = np.random.default_rng(2)
        reg = EntropySimplex()
        xbar = GRID.ones()
        for _ in range(20):
            x, xi = random_pair(reg, rng)
            d = reg.bregman((x, xi), xbar)
            assert d == pytest.approx(kl_divergence(xbar, x), abs=1e-8)

    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_mismatched_grids_raise(self, reg):
        x, xi = random_pair(reg, np.random.default_rng(4))
        other = random_pair(reg, np.random.default_rng(4), Grid.interval(41))
        for pair, xbar in (((x, xi), other[0]), ((x, other[1]), x), ((other[0], xi), x)):
            with pytest.raises(GridMismatchError):
                reg.bregman(pair, xbar)

    def test_nonnegative_and_definite(self):
        rng = np.random.default_rng(3)
        for reg in ALL_REGS:
            for _ in range(100):
                x, xi = random_pair(reg, rng)
                q, _ = random_pair(reg, rng)
                d = reg.bregman((x, xi), q)
                assert d >= -1e-12
            x, xi = random_pair(reg, rng)
            assert abs(reg.bregman((x, xi), x)) <= 1e-12


class TestConjugate:
    def test_entropy_at_zero(self):
        assert conjugate_oracle(EntropySimplex(), GRID.zeros()) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_box_nonpositive_dual(self):
        xi = GridFunction(GRID, -np.abs(np.random.default_rng(4).standard_normal(GRID.node_count)))
        assert conjugate_oracle(QuadraticBox(lower=0.0), xi) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("reg", [QuadraticBox(lower=None), QuadraticBox(lower=0.0),
                                     QuadraticBox(lower=-0.7), ElasticNet(beta=0.5),
                                     EntropySimplex()], ids=repr)
    def test_closed_forms_match_the_mirror_map_route(self, reg):
        rng = np.random.default_rng(9)
        for _ in range(50):
            xi = GridFunction(GRID, rng.uniform(-3.0, 3.0, GRID.node_count))
            # R*(xi) = <xi, z> - R(z) at the maximizer z = grad R*(xi)
            z = reg.mirror_map(xi)
            assert conjugate_oracle(reg, xi) == pytest.approx(inner(xi, z) - reg.value(z),
                                                              rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("reg", ALL_REGS, ids=repr)
    def test_fenchel_row_fails_for_a_perturbed_mirror_map(self, reg, monkeypatch):
        # the map evaluated at a shifted dual is the argmin of a different
        # problem; the closed-form conjugate sees it
        cls = type(reg)
        mirror_map = cls.mirror_map
        monkeypatch.setattr(cls, "mirror_map", lambda self, xi: mirror_map(
            self, xi + 0.05 * GridFunction(xi.grid, xi.grid.coords[0])))
        rows = {res.name: res for res in check_convex_identities(cases=5)}
        assert not rows[f"convex/fenchel[{cls.__name__}]"].passed


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
            lhs = reg.bregman((x2, xi2), x) - reg.bregman((x1, xi1), x)
            rhs = reg.bregman((x2, xi2), x1) + inner(xi2 - xi1, x1 - x)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_strong_convexity_lower_bound(self, seed):
        rng = np.random.default_rng(seed)
        for reg in ALL_REGS:
            x, xi = random_pair(reg, rng)
            xbar, _ = random_pair(reg, rng)
            d = reg.bregman((x, xi), xbar)
            assert d + 1e-12 >= reg.sigma * reg.error_norm(xbar - x) ** 2
