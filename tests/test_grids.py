import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mirrorsolve import grids
from mirrorsolve.grids import (
    Grid,
    GridFunction,
    GridMismatchError,
    add_noise,
    norm_l1_values,
    norm_l2_values,
    norm_linf_values,
    power_iteration_norm,
)
from mirrorsolve.landweber import ConstantStep, MaxIterStop, run
from mirrorsolve.operators import LinearIntegral
from mirrorsolve.regularizers import EntropySimplex, QuadraticBox


class TestGrid:
    def test_node_counts(self):
        assert Grid.interval(10).node_count == 11
        assert Grid.square(10).node_count == 121

    @pytest.mark.parametrize("grid", [Grid.interval(7), Grid.interval(5000),
                                      Grid.square(3), Grid.square(64)])
    def test_weights_positive_and_sum_to_measure(self, grid):
        assert np.all(grid.weights > 0)
        assert abs(grid.weights.sum() - 1.0) <= 1e-12

    def test_equality_by_kind_and_n(self):
        a, b = Grid("interval", 50), Grid.interval(50)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a == a
        assert a != Grid.interval(51)
        assert a != Grid.square(50)
        assert a != ("interval", 50) and a != "interval" and a != None  # noqa: E711

    def test_rejects_bad_kind_and_n(self):
        with pytest.raises(ValueError):
            Grid("triangle", 4)
        with pytest.raises(ValueError):
            Grid.interval(0)

    @pytest.mark.parametrize("n", [2.5, 4.0, "4"])
    @pytest.mark.parametrize("make", [Grid.interval, Grid.square], ids=["interval", "square"])
    def test_rejects_an_n_that_is_not_an_integer(self, make, n):
        message = f"n must be a positive integer, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make(n)

    def test_accepts_a_numpy_integer_n(self):
        a, b = Grid.interval(np.int64(4)), Grid.interval(4)
        assert a == b and hash(a) == hash(b)
        assert a.zeros().values.shape == (5,)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_trapezoid_exact_on_affine(self, a, b):
        # trapezoidal quadrature integrates affine functions exactly
        grid = Grid.interval(37)
        t = grid.coords[0]
        integral = float(np.sum(grid.weights * (a * t + b)))
        assert abs(integral - (0.5 * a + b)) <= 1e-12 * (1 + abs(a) + abs(b))


class TestInnerAndNorms:
    def test_constant_ones_interval(self):
        g = Grid.interval(50)
        one = g.ones().values
        assert np.sum(g.weights * one * one) == pytest.approx(1.0, abs=1e-12)

    def test_constant_ones_square(self):
        g = Grid.square(12)
        one = g.ones().values
        assert np.sum(g.weights * one * one) == pytest.approx(1.0, abs=1e-12)

    def test_linear_against_exact_integral(self):
        g = Grid.interval(5000)
        assert np.sum(g.weights * g.coords[0] * g.ones().values) == pytest.approx(0.5, abs=1e-8)

    def test_norm_of_zero(self):
        g = Grid.interval(9)
        assert norm_l2_values(g.zeros().values, g.weights) == 0.0
        assert norm_l1_values(g.zeros().values, g.weights) == 0.0

    def test_norms_of_constant_two(self):
        g = Grid.interval(200)
        u = GridFunction(g, np.full(g.node_count, 2.0))
        assert norm_l1_values(u.values, g.weights) == pytest.approx(2.0, abs=1e-12)
        assert norm_l2_values(u.values, g.weights) == pytest.approx(2.0, abs=1e-12)

    def test_l2_norm_of_identity_map(self):
        g = Grid.interval(5000)
        u = GridFunction(g, g.coords[0])
        assert norm_l2_values(u.values, g.weights) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-6)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reductions_equal_np_sum_forms_bitwise(self, data, check_moment_form):
        # the method reductions are np.add.reduce / np.maximum.reduce in the
        # same pairwise order as np.sum / np.max, on short and long vectors
        grid = data.draw(st.sampled_from([Grid.interval(1), Grid.interval(50),
                                          Grid.interval(300), Grid.square(3),
                                          Grid.square(20)]))
        vec = arrays(np.float64, grid.node_count,
                     elements=st.floats(-1e6, 1e6, allow_subnormal=False))
        u = GridFunction(grid, data.draw(vec))
        v = GridFunction(grid, data.draw(vec))
        w = grid.weights
        assert norm_l2_values(u.values, w) == float(np.sqrt(np.sum(w * u.values * u.values)))
        assert norm_l1_values(u.values, w) == float(np.sum(w * np.abs(u.values)))
        assert norm_linf_values(u.values) == float(np.max(np.abs(u.values)))
        # the entropy mirror map's max and mass
        z = np.exp(u.values - np.max(u.values))
        assert np.array_equal(EntropySimplex().mirror_map(u.values, w), z / np.sum(w * z))
        # LinearIntegral's moments, with u and v as the factor pair, are BLAS
        # products: they keep to the np.sum form within its rounding bound
        op = LinearIntegral(grid, factors=[(u.values, v.values)])
        check_moment_form(op.apply_values(u.values), [(u.values, v.values)], w, u.values)
        check_moment_form(op.adjoint_values(u.values), [(v.values, u.values)], w, u.values)
        # add_noise's rescaling by the weighted norm of the draw
        e = np.random.default_rng(3).standard_normal(grid.node_count)
        assert np.array_equal(add_noise(u, 1e-3, 3).values,
                              u.values + (1e-3 / np.sqrt(np.sum(w * e * e))) * e)

    def test_values_are_frozen(self):
        u = Grid.interval(4).ones()
        with pytest.raises(ValueError):
            u.values[0] = 2.0

    def test_attributes_are_frozen(self):
        grid = Grid.interval(4)
        for u in (grid.ones(), GridFunction(grid, np.zeros(5))):
            assert not u.values.flags.writeable
            with pytest.raises(FrozenInstanceError):
                u.values = np.ones(5)
            with pytest.raises(FrozenInstanceError):
                u.grid = Grid.interval(4)

    @pytest.mark.parametrize("shape", [(4,), (5, 1)], ids=["short", "2d"])
    def test_values_of_another_shape_rejected(self, shape):
        with pytest.raises(GridMismatchError, match="expected 5 values"):
            GridFunction(Grid.interval(4), np.zeros(shape))

    def test_record_without_arithmetic_compares_by_identity(self):
        # arithmetic happens on node arrays; a grid function only holds them
        for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            assert not hasattr(GridFunction, op)
        # equal values, distinct objects: no elementwise comparison is made
        a, b = Grid.interval(4).zeros(), Grid.interval(4).zeros()
        assert a == a and a != b and not (a == b)
        assert a in [a] and a not in [b]
        assert hash(a) == hash(a)
        assert len({a, b}) == 2 and len({a, a}) == 1

    @pytest.mark.parametrize("grid", [Grid.interval(50), Grid.square(7)])
    def test_pairings_and_norms_own_their_temporaries(self, grid, check_ownership):
        rng = np.random.default_rng(2)
        u = GridFunction(grid, rng.standard_normal(grid.node_count))
        w = grid.weights
        assert check_ownership(norm_l1_values, u.values, w) == float(np.sum(w * np.abs(u.values)))
        assert check_ownership(norm_linf_values, u.values) == float(np.max(np.abs(u.values)))
        assert check_ownership(norm_l2_values, u.values, w) == \
            float(np.sqrt(np.sum(w * u.values * u.values)))


class TestAddNoise:
    def test_zero_delta_is_identity(self):
        g = Grid.interval(64)
        y = GridFunction(g, np.sin(g.coords[0]))
        yd = add_noise(y, 0.0, seed=5)
        assert np.array_equal(yd.values, y.values)

    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_exact_noise_norm(self, delta):
        g = Grid.interval(300)
        y = GridFunction(g, 1.0 + g.coords[0])
        yd = add_noise(y, delta, seed=11)
        assert norm_l2_values(yd.values - y.values, g.weights) == pytest.approx(delta, rel=1e-12)

    def test_deterministic_per_seed(self):
        g = Grid.square(9)
        x, yy = g.coords
        y = GridFunction(g, x * yy)
        a = add_noise(y, 5e-3, seed=123)
        b = add_noise(y, 5e-3, seed=123)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        g = Grid.interval(30)
        y = g.ones()
        assert not np.array_equal(add_noise(y, 1e-2, 1).values,
                                  add_noise(y, 1e-2, 2).values)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            add_noise(Grid.interval(4).ones(), -1.0, 0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="finite"):
            add_noise(Grid.interval(4).ones(), delta, 1)


class TestDenseOperator:
    """A ``LinearIntegral`` with a dense kernel: sampling, application, the
    exact weighted adjoint, and the shape and grid checks."""

    def test_affine_kernel_on_constant(self):
        # (A 1)(s) = int_0^1 (1+t+s) dt = 1.5 + s, exact for trapezoid
        g = Grid.interval(1000)
        t = g.coords[0]
        op = LinearIntegral(g, kernel=1.0 + t[None, :] + t[:, None])
        out = op.apply_values(g.ones().values)
        expected = 1.5 + g.coords[0]
        assert np.max(np.abs(out - expected)) <= 1e-8

    def test_zero_kernel(self):
        g = Grid.interval(20)
        op = LinearIntegral(g, kernel=np.zeros((21, 21)))
        assert np.all(op.apply_values(g.ones().values) == 0.0)
        assert op.norm_bound() == 0.0

    def test_adjoint_identity_random_pairs(self):
        rng = np.random.default_rng(0)
        g = Grid.interval(40)
        op = LinearIntegral(g, kernel=rng.standard_normal((41, 41)))
        na = op.norm_bound()
        q = g.weights
        for _ in range(100):
            x = GridFunction(g, rng.standard_normal(41))
            w = GridFunction(g, rng.standard_normal(41))
            lhs = np.sum(q * op.apply_values(x.values) * w.values)
            rhs = np.sum(q * x.values * op.adjoint_values(w.values))
            assert abs(lhs - rhs) <= (1e-10 * norm_l2_values(x.values, q)
                                      * norm_l2_values(w.values, q) * na)

    def test_adjoint_matches_direct_summation(self):
        # independent oracle: explicit double loops over nodes
        rng = np.random.default_rng(1)
        g = Grid.interval(6)
        K = rng.standard_normal((7, 7))
        op = LinearIntegral(g, kernel=K)
        w = rng.standard_normal(7)
        expected = np.zeros(7)
        for j in range(7):
            acc = 0.0
            for i in range(7):
                acc += K[i, j] * g.weights[i] * w[i]
            expected[j] = acc
        got = op.adjoint_values(w)
        assert np.max(np.abs(got - expected)) <= 1e-13

    def test_kernel_shape_checked(self):
        # the kernel is n x n on the operator's one grid of n nodes
        for shape in [(3, 3), (5, 4), (4, 5), (5,)]:
            with pytest.raises(GridMismatchError, match=r"does not match the grid \(5 x 5\)"):
                LinearIntegral(Grid.interval(4), kernel=np.zeros(shape))

    def test_second_grid_refused(self):
        # an operator has one grid: a second positional grid is no parameter
        g = Grid.interval(4)
        with pytest.raises(TypeError):
            LinearIntegral(g, g, kernel=np.zeros((5, 5)))

    def test_grid_checked_by_kind_and_n_not_identity(self):
        # interval(15) and square(3) both have 16 nodes; the solver checks
        # the data's grid, and an equal grid built apart passes
        op = LinearIntegral(Grid.interval(15), kernel=np.eye(16))
        rule, stop = ConstantStep(gamma=1.0), MaxIterStop(k_max=0)
        with pytest.raises(GridMismatchError, match="data"):
            run(op, QuadraticBox(), Grid.square(3).ones(), rule, stop)
        assert run(op, QuadraticBox(), Grid("interval", 15).ones(), rule, stop).k_stop == 0


class TestPowerIteration:
    def test_benchmark_kernel_norm_below_analytic_bound(self):
        g = Grid.interval(400)
        t = g.coords[0]
        op = LinearIntegral(g, kernel=1.0 + t[None, :] + t[:, None])
        est = op.norm_bound()
        assert est <= np.sqrt(19.0 / 3.0) + 1e-6
        # the L2->L2 norm of this rank-2 kernel solves a 2x2 eigenproblem:
        # largest eigenvalue of [[37/12, 2], [5/3, 13/12]]
        M = np.array([[37.0 / 12.0, 2.0], [5.0 / 3.0, 13.0 / 12.0]])
        lam = np.max(np.linalg.eigvals(M).real)
        assert est == pytest.approx(np.sqrt(lam), rel=1e-4)

    def test_round_cap_returns_the_last_estimate(self, monkeypatch):
        rng = np.random.default_rng(3)
        g = Grid.interval(60)
        op = LinearIntegral(g, kernel=rng.standard_normal((61, 61)))
        converged = power_iteration_norm(op.apply_values, op.adjoint_values, g)
        monkeypatch.setattr(grids, "POWER_ITERS", 2)
        capped = power_iteration_norm(op.apply_values, op.adjoint_values, g)
        assert capped != converged
        # the second round's estimate, from the normalized seed-0 draw
        v = np.random.default_rng(0).standard_normal(61)
        v = v * (1.0 / norm_l2_values(v, g.weights))
        z = op.adjoint_values(op.apply_values(v))
        v = z * (1.0 / norm_l2_values(z, g.weights))
        assert capped == norm_l2_values(op.apply_values(v), g.weights)

    def test_restart_stability(self):
        rng = np.random.default_rng(3)
        g = Grid.interval(60)
        op = LinearIntegral(g, kernel=rng.standard_normal((61, 61)))
        e1 = power_iteration_norm(op.apply_values, op.adjoint_values, g, seed=0)
        e2 = power_iteration_norm(op.apply_values, op.adjoint_values, g, seed=99)
        assert abs(e1 - e2) <= 1e-6 * max(e1, 1.0)
