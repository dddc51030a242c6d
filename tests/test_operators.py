import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mirrorsolve import operators
from mirrorsolve.checks import (
    check_adjoint_elliptic,
    check_adjoint_entropy_operator,
    check_taylor_elliptic,
    taylor_order,
)
from mirrorsolve.experiments import (
    make_cell,
    setup_entropy_experiment,
    setup_pde_experiment,
)
from mirrorsolve.grids import (
    POWER_ITERS,
    POWER_TOL,
    Grid,
    GridFunction,
    GridMismatchError,
    norm_l2_values,
    power_iteration_norm,
)
from mirrorsolve.landweber import ConstantStep, MaxIterStop, SystemProblem, run
from mirrorsolve.operators import (
    EllipticCoefficient,
    EllipticSolveError,
    EllipticSolver,
    ForwardOperator,
    LinearIntegral,
)
from mirrorsolve.regularizers import EntropySimplex, QuadraticBox
from mirrorsolve.smd import (
    ConstantSchedule,
    build_sourced_instance,
    smd_run,
)


class TestLinearIntegral:
    def test_affine_kernel_analytic_image(self):
        g = Grid.interval(5000)
        t = g.coords[0]
        op = LinearIntegral(g, factors=[(np.ones_like(t), 1.0 + t), (t, np.ones_like(t))])
        out = op.apply_values(g.ones().values)
        assert np.max(np.abs(out - (1.5 + g.coords[0]))) <= 1e-8

    def test_dense_and_separable_paths_agree(self):
        g = Grid.interval(300)
        t = g.coords[0]
        dense = LinearIntegral(g, kernel=1.0 + t[None, :] + t[:, None])
        sep = LinearIntegral(g, factors=[(1.0, 1.0 + t), (t, 1.0)])
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = GridFunction(g, rng.standard_normal(g.node_count))
            a = dense.apply_values(x.values)
            b = sep.apply_values(x.values)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
            w = GridFunction(g, rng.standard_normal(g.node_count))
            a = dense.adjoint_values(w.values)
            b = sep.adjoint_values(w.values)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_derivative_is_operator_itself(self):
        g = Grid.interval(50)
        rng = np.random.default_rng(1)
        op = LinearIntegral(g, kernel=rng.standard_normal((51, 51)))
        x = GridFunction(g, rng.standard_normal(51))
        h = GridFunction(g, rng.standard_normal(51))
        value, tangent, adjoint = op.linearize_values(x.values)
        assert np.array_equal(value, op.apply_values(x.values))
        assert np.array_equal(tangent(h.values), op.apply_values(h.values))
        assert np.array_equal(adjoint(h.values), op.adjoint_values(h.values))

    def test_zero_direction(self):
        g = Grid.interval(30)
        t = g.coords[0]
        op = LinearIntegral(g, kernel=np.cos(t[None, :] * t[:, None]))
        out = op.linearize_values(g.ones().values)[1](np.zeros(g.node_count))
        assert np.all(out == 0.0)

    def test_analytic_norm_bound_passthrough(self):
        g = Grid.interval(200)
        L = np.sqrt(19.0 / 3.0)
        t = g.coords[0]
        op = LinearIntegral(g, kernel=1.0 + t[None, :] + t[:, None], analytic_norm_bound=L)
        assert op.norm_bound() == L

    @pytest.mark.parametrize("bound", [0.0, -2.0, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_analytic_norm_bound_must_be_positive_and_finite(self, bound):
        # the bound is the norm cache: 0 divided rule 1's first step by
        # zero, -2 ran on L^2 = 4 and NaN blamed the data at iterate 1
        g = Grid.interval(10)
        t = g.coords[0]
        with pytest.raises(ValueError, match="analytic_norm_bound must be positive and finite"):
            LinearIntegral(g, kernel=1.0 + t[None, :] + t[:, None], analytic_norm_bound=bound)

    def test_power_iteration_fallback(self):
        g = Grid.interval(200)
        t = g.coords[0]
        op = LinearIntegral(g, kernel=1.0 + t[None, :] + t[:, None])
        assert op.norm_bound() <= np.sqrt(19.0 / 3.0) + 1e-6
        zero = LinearIntegral(g, kernel=np.zeros((201, 201)))
        assert zero.norm_bound() == 0.0

    def test_adjoint_identity_suite(self):
        res = check_adjoint_entropy_operator(n=800)
        assert res.passed, res.detail

    def test_needs_kernel_or_factors(self):
        with pytest.raises(ValueError, match="exactly one of kernel and factors"):
            LinearIntegral(Grid.interval(5))

    def test_kernel_and_factors_together_rejected(self):
        # neither form may be dropped without a word for the other
        with pytest.raises(ValueError, match="exactly one of kernel and factors"):
            LinearIntegral(Grid.interval(4), kernel=np.eye(5), factors=[(1.0, 1.0)])

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError, match=r"at least one \(a, b\) pair"):
            LinearIntegral(Grid.interval(4), factors=[])

    @pytest.mark.parametrize("factor", [(np.ones(7), np.ones(6)), (np.ones(6), np.ones(5)),
                                        (1.0, np.ones((1, 6))), (np.ones(1), 1.0)],
                             ids=["long-a", "short-b", "2d-b", "length-1-a"])
    def test_factor_of_the_wrong_length_rejected(self, factor):
        # a factor is a node array of the operator's grid or a scalar; no
        # other shape broadcasts, as a kernel of the wrong shape does not
        with pytest.raises(GridMismatchError, match="on a grid of 6 nodes"):
            LinearIntegral(Grid.interval(5), factors=[factor])


_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _factor_problem(draw):
    n = draw(st.integers(1, 40))
    factors = [(draw(arrays(float, n + 1, elements=_values)),
                draw(arrays(float, n + 1, elements=_values)))
               for _ in range(draw(st.integers(1, 3)))]
    x = draw(arrays(float, n + 1, elements=_values))
    y = draw(arrays(float, n + 1, elements=_values))
    return Grid.interval(n), factors, x, y


class TestFactorFormBits:
    """The stacked moment form (two BLAS products) agrees with the sum over
    factors written out within the forward-error bound of a summation in
    any order, the Higham form gamma_k sum_p |b_p| sum_j w_j |a_p(t_j) v_j|
    (see ``check_moment_form``)."""

    @staticmethod
    def _check(op, factors, x, y, check):
        check(op.apply_values(x), factors, op.grid_in.weights, x)
        check(op.adjoint_values(y), [(b, a) for a, b in factors], op.grid_in.weights, y)

    @settings(max_examples=60, deadline=None)
    @given(problem=_factor_problem())
    def test_matches_written_out_moment_form(self, problem, check_moment_form):
        g, factors, x, y = problem
        self._check(LinearIntegral(g, factors=factors), factors, x, y, check_moment_form)

    def test_shipped_entropy_operator_matches_written_out_moment_form(self, check_moment_form):
        op = setup_entropy_experiment(5000).forward
        t = op.grid_in.coords[0]
        one = np.ones_like(t)
        factors = [(one, 1.0 + t), (t, one)]  # the kernel 1 + t + s
        rng = np.random.default_rng(8)
        vectors = [rng.standard_normal(t.size) for _ in range(20)]
        vectors += [np.zeros(t.size), np.full(t.size, -0.0)]
        for x, y in zip(vectors, vectors[1:] + vectors[:1]):
            self._check(op, factors, x, y, check_moment_form)


class TestLinearIntegralOwnership:
    @pytest.mark.parametrize("form", ["factors", "dense"])
    def test_results_are_fresh_and_frozen(self, form, check_ownership):
        rng = np.random.default_rng(4)
        g = Grid.interval(30)
        if form == "factors":
            arrays = [rng.standard_normal(31) for _ in range(4)]
            op = LinearIntegral(g, factors=[tuple(arrays[:2]), tuple(arrays[2:])])
        else:
            op = LinearIntegral(g, kernel=rng.standard_normal((31, 31)))
            arrays = [op.kernel]
        inputs = [g.weights, *arrays]
        x = GridFunction(g, rng.standard_normal(31))
        y = GridFunction(g, rng.standard_normal(31))
        check_ownership(op.apply_values, x.values, inputs=inputs)
        check_ownership(op.adjoint_values, y.values, inputs=inputs)
        check_ownership(lambda v: op.linearize_values(v)[0], x.values, inputs=inputs)


class TestDenseProductBits:
    """The dense products use ``ndarray.dot``; they keep the bits of the
    matmul ufunc for any grid size and kernel memory layout, over ``draws``
    random pairs of vectors."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n,draws", [(30, 20), (20, 30), (50, 50)])
    def test_dot_matches_matmul(self, n, draws, order):
        rng = np.random.default_rng(n + 7 * draws)
        g = Grid.interval(n)
        K = np.asarray(rng.standard_normal((n + 1, n + 1)), order=order)
        op = LinearIntegral(g, kernel=K)
        assert op.kernel.flags[f"{order}_CONTIGUOUS"]
        for _ in range(draws):
            v = rng.standard_normal(n + 1)
            w = rng.standard_normal(n + 1)
            assert (op.apply_values(v).tobytes()
                    == (op.kernel @ (g.weights * v)).tobytes())
            assert (op.adjoint_values(w).tobytes()
                    == (op.kernel.T @ (g.weights * w)).tobytes())


def _dense_case():
    rng = np.random.default_rng(5)
    g = Grid.interval(30)
    op = LinearIntegral(g, kernel=rng.standard_normal((31, 31)))
    return op, GridFunction(g, rng.standard_normal(31)), [op.kernel]


def _factored_entropy_case():
    setup = setup_entropy_experiment(200)
    op = setup.forward
    return op, setup.x_true, [op._a, op._b, op._wa, op._wb]


def _elliptic_case():
    setup = setup_pde_experiment(16)
    op = setup.forward
    return op, setup.x_true, [op.f.values, op.g.values, op._state_rhs]


class TestRawLinearization:
    """``linearize_values`` is each operator's one map; a linear operator's
    is built from its two kernels, ``apply_values`` for the value and the
    tangent and ``adjoint_values`` for the adjoint."""

    @staticmethod
    def _directions(op):
        rng = np.random.default_rng(6)
        return (rng.standard_normal(op.grid_in.node_count),
                rng.standard_normal(op.grid_in.node_count))

    @pytest.mark.parametrize("case", [_dense_case, _factored_entropy_case],
                             ids=["dense", "factored-entropy"])
    def test_raw_and_wrapped_agree_bit_for_bit(self, case):
        op, x, _ = case()
        h, w = self._directions(op)
        value, tangent, adjoint = op.linearize_values(x.values)
        for raw, kernel in [(value, op.apply_values(x.values)),
                            (tangent(h), op.apply_values(h)),
                            (adjoint(w), op.adjoint_values(w))]:
            assert raw.tobytes() == kernel.tobytes()

    @pytest.mark.parametrize("case", [_dense_case, _factored_entropy_case, _elliptic_case],
                             ids=["dense", "factored-entropy", "elliptic"])
    def test_raw_results_are_fresh(self, case, check_ownership):
        op, x, arrays = case()
        h, w = self._directions(op)
        inputs = [op.grid_in.weights, *arrays]
        check_ownership(lambda v: op.linearize_values(v)[0], x.values, inputs=inputs)
        # the maps may close over the value (the elliptic adjoint multiplies
        # by the state), so they must neither write into it nor return it
        value, tangent, adjoint = op.linearize_values(x.values)
        check_ownership(tangent, h, inputs=[*inputs, value])
        check_ownership(adjoint, w, inputs=[*inputs, value])


def _manufactured_setup(n, u_fn, c_fn, f_fn, tol=1e-12):
    grid = Grid.square(n)
    x, y = grid.coords
    u = GridFunction(grid, u_fn(x, y))
    c = GridFunction(grid, c_fn(x, y))
    f = GridFunction(grid, f_fn(x, y))
    op = EllipticCoefficient(f, u, grid, solver=EllipticSolver(grid, tol=tol))
    return op, u, c


class TestEllipticForward:
    def test_benchmark_coefficient_reproduces_quadratic_solution(self):
        # the truth 1 + x^2 + y^2 is quadratic, so the five-point stencil is
        # exact and the discrete solve matches to solver tolerance
        for n in (16, 32):
            setup = setup_pde_experiment(n)
            grid = setup.forward.grid_in
            x, y = grid.coords
            u = 1.0 + x ** 2 + y ** 2
            assert norm_l2_values(setup.y.values - u, grid.weights) <= 1e-8

    def test_zero_coefficient_manufactured_solution(self):
        op, u, c = _manufactured_setup(
            24,
            u_fn=lambda x, y: 1.0 + x ** 2 + y ** 2,
            c_fn=lambda x, y: np.zeros_like(x),
            f_fn=lambda x, y: np.full_like(x, -4.0))
        assert norm_l2_values(op.linearize_values(c.values)[0] - u.values,
                              op.grid_in.weights) <= 1e-8

    def test_second_order_convergence_on_curved_solution(self):
        # non-polynomial truth: u = 1 + sin(pi x) sin(pi y), c = 1 + x,
        # f = 2 pi^2 sin sin + c u; the discretization error must shrink at
        # second order under 16 -> 32 -> 64 refinement
        errs = []
        for n in (16, 32, 64):
            op, u, c = _manufactured_setup(
                n,
                u_fn=lambda x, y: 1.0 + np.sin(np.pi * x) * np.sin(np.pi * y),
                c_fn=lambda x, y: 1.0 + x,
                f_fn=lambda x, y: (2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
                                   + (1.0 + x) * (1.0 + np.sin(np.pi * x) * np.sin(np.pi * y))))
            errs.append(norm_l2_values(op.linearize_values(c.values)[0] - u.values,
                                       op.grid_in.weights))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9)
        assert np.all(orders <= 2.1)

    def test_boundary_values_follow_dirichlet_data(self):
        setup = setup_pde_experiment(16)
        grid = setup.forward.grid_in
        u = setup.forward.linearize_values(grid.zeros().values)[0]
        interior = np.zeros((grid.n + 1, grid.n + 1), bool)
        interior[1:-1, 1:-1] = True
        bd = ~interior.ravel()
        assert np.array_equal(u[bd], setup.forward.g.values[bd])

    def test_zero_direction_and_zero_dual(self):
        setup = setup_pde_experiment(16)
        grid = setup.forward.grid_in
        _, tangent, adjoint = setup.forward.linearize_values(setup.x_true.values)
        assert np.all(tangent(np.zeros(grid.node_count)) == 0.0)
        out = adjoint(np.zeros(grid.node_count))
        assert np.all(out == 0.0)

    def test_grid_mismatch_rejected(self):
        # the raw maps trust their callers; the solver checks the data
        setup = setup_pde_experiment(16)
        rule, _ = make_cell(setup, "rule2", 1e-4)
        with pytest.raises(GridMismatchError, match="first operator's grid"):
            run(setup.forward, setup.reg, Grid.square(32).zeros(), rule, MaxIterStop(k_max=1))

    def test_cg_failure_carries_iterations_and_residual(self, monkeypatch):
        grid = Grid.square(16)
        c = GridFunction(grid, np.ones(grid.node_count))
        f = GridFunction(grid, np.ones(grid.node_count))
        op = EllipticCoefficient(f, grid.zeros(), grid, solver=EllipticSolver(grid))
        monkeypatch.setattr(operators, "CG_ITERS_PER_UNKNOWN", 0)
        with pytest.raises(EllipticSolveError) as exc:
            op.linearize_values(c.values)
        # no iteration ran, so the residual is the right-hand side's
        assert exc.value.iterations == 0
        assert exc.value.residual == 1.0


@pytest.mark.parametrize("build, error, fragment", [
    (lambda: EllipticSolver(Grid.interval(16)), ValueError, "requires a square grid"),
    (lambda: EllipticSolver(Grid.square(1)), ValueError, "n >= 2"),
    (lambda: EllipticCoefficient(Grid.square(8).zeros(), Grid.square(16).zeros(),
                                 Grid.square(16), solver=EllipticSolver(Grid.square(16))),
     GridMismatchError, "f and g"),
    # a 32-grid solver under a 16-grid operator failed at the first solve,
    # in a NumPy reshape
    (lambda: EllipticCoefficient(Grid.square(16).zeros(), Grid.square(16).zeros(),
                                 Grid.square(16), solver=EllipticSolver(Grid.square(32))),
     GridMismatchError, "solver must be built on the operator grid"),
], ids=["solver-interval", "solver-n1", "coefficient-data-grid", "solver-other-grid"])
def test_elliptic_input_checks(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()


@pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -1e-10, np.nan],
                         ids=["zero", "one", "two", "negative", "nan"])
def test_solver_tol_must_lie_in_the_unit_interval(tol):
    # tol = 2 passed the residual test at iteration 0 and returned zeros;
    # tol = 0 or NaN ran CG into a 0/0 breakdown
    with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
        EllipticSolver(Grid.square(16), tol=tol)
    with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
        setup_pde_experiment(16, solver_tol=tol)


def _coefficients(n):
    rng = np.random.default_rng(n)
    m = (n - 1) ** 2
    return {"zero": np.zeros(m),
            "random": rng.random(m),
            "some_zeros": np.where(rng.random(m) < 0.5, 0.0, rng.random(m))}


def elliptic_matrix(n, c):
    """SciPy's A(c) = (kron(I, T) + kron(T, I)) / h^2 + diags(c) on the
    (n-1)^2 interior nodes of ``Grid.square(n)``, T = tridiag(-1, 2, -1):
    the oracle of the solver's stencil product."""
    ni, h = n - 1, Grid.square(n).h
    I = sp.eye(ni, format="csr")
    T = sp.diags([-np.ones(ni - 1), 2.0 * np.ones(ni), -np.ones(ni - 1)],
                 [-1, 0, 1], format="csr")
    return ((sp.kron(I, T) + sp.kron(T, I)) / (h * h)).tocsr() + sp.diags(c)


def _product(solver, c, p):
    """The product ``solve`` forms with A(c)."""
    return solver._product(solver._centre + c, p)


class TestEllipticAssembly:
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_matrix_equals_laplacian_plus_diagonal_bit_for_bit(self, n):
        # each probe has ones at the nodes j = k mod 2n - 1, so a row meets at
        # most one of them among its five columns: the product reads A(c)
        # entry by entry, and 2n - 1 probes read all of it
        solver = EllipticSolver(Grid.square(n))
        m = (n - 1) ** 2
        for name, c in _coefficients(n).items():
            A = elliptic_matrix(n, c)
            for k in range(2 * n - 1):
                e = (np.arange(m) % (2 * n - 1) == k).astype(float)
                assert _product(solver, c, e).tobytes() == (A @ e).tobytes(), (name, k)

    def test_product_owns_its_memory(self, check_ownership):
        solver = EllipticSolver(Grid.square(16))
        d = solver._centre + _coefficients(16)["random"]
        p = np.random.default_rng(4).standard_normal(15 ** 2)
        check_ownership(solver._product, d, p)

    def test_solvers_compare_by_identity(self):
        # the dataclass fields are only grid and tol, so a field-wise __eq__
        # would equate two solvers that hold distinct closures and make the
        # solver unhashable
        g = Grid.square(8)
        a, b = EllipticSolver(g), EllipticSolver(g)
        assert a == a and a != b
        assert len({a, b}) == 2
        assert repr(a) == f"EllipticSolver(grid={g!r}, tol=1e-10)"

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_direct_product_matches_csr_matmul_bit_for_bit(self, n):
        # the stencil sums each row in the CSR kernel's order, from zeros, so
        # its bits are SciPy's, signed zeros included
        solver = EllipticSolver(Grid.square(n))
        m = (n - 1) ** 2
        rng = np.random.default_rng(n + 2)
        ps = [rng.standard_normal(m), rng.random(m), np.zeros(m), np.full(m, -0.0),
              np.where(rng.random(m) < 0.5, 0.0, -0.0)]
        for name, c in _coefficients(n).items():
            A = elliptic_matrix(n, c)
            for p in ps:
                assert _product(solver, c, p).tobytes() == (A @ p).tobytes(), name

    def test_earlier_linearization_unchanged_by_a_later_one(self):
        setup = setup_pde_experiment(16)
        F, grid = setup.forward, setup.forward.grid_in
        rng = np.random.default_rng(3)
        c1 = setup.x_true.values
        c2 = rng.random(grid.node_count)
        h = rng.standard_normal(grid.node_count)
        w = rng.standard_normal(grid.node_count)
        _, tangent1, adjoint1 = F.linearize_values(c1)
        adj, tan = adjoint1(w), tangent1(h)
        F.linearize_values(c2)
        assert np.array_equal(adjoint1(w), adj)
        assert np.array_equal(tangent1(h), tan)


class TestEllipticSolve:
    """``EllipticSolver.solve`` is SciPy's ``cg`` on raw arrays, bit for bit;
    SciPy is the oracle here only."""

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_matches_scipy_cg_bit_for_bit(self, n):
        solver = EllipticSolver(Grid.square(n))
        m = (n - 1) ** 2
        M = spla.LinearOperator((m, m), matvec=solver._precond, dtype=float)
        rng = np.random.default_rng(n + 1)
        rhss = [rng.standard_normal(m), rng.random(m), 1e-6 * rng.standard_normal(m)]
        for name, c in _coefficients(n).items():
            A = elliptic_matrix(n, c)
            for rhs in rhss:
                ref, info = spla.cg(A, rhs, rtol=solver.tol, atol=0.0, M=M)
                assert info == 0, name
                assert solver.solve(c, rhs).tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_rhs_gives_fresh_zeros(self, zero):
        solver = EllipticSolver(Grid.square(16))
        rhs = np.full(15 ** 2, zero)
        u = solver.solve(_coefficients(16)["random"], rhs)
        assert not np.shares_memory(u, rhs)
        assert u.tobytes() == rhs.tobytes()

    @pytest.mark.parametrize("where, iterations", [("coefficient", 1), ("direction", 0)])
    def test_nan_input_fails_at_once(self, where, iterations):
        # a NaN residual never meets the tolerance, so without the finiteness
        # test CG would spin to its cap of 10 (n-1)^2 iterations
        setup = setup_pde_experiment(16)
        F = setup.forward
        c, h = setup.x_true.values.copy(), np.ones(F.grid_in.node_count)
        middle = F.grid_in.node_count // 2  # an interior node
        (c if where == "coefficient" else h)[middle] = np.nan
        with pytest.raises(EllipticSolveError) as exc:
            _, tangent, _ = F.linearize_values(c)
            tangent(h)
        assert exc.value.iterations == iterations
        assert np.isnan(exc.value.residual)

    def test_result_owns_its_memory(self, check_ownership):
        op = setup_pde_experiment(16).forward
        c = op._interior(op.grid_in.ones().values)
        rhs = np.random.default_rng(2).standard_normal(15 ** 2)
        for b in (op._state_rhs, rhs):
            check_ownership(lambda r: op.solver.solve(c, r), b,
                            inputs=[op._state_rhs, c])


class TestEllipticPreconditioner:
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_inverts_zero_coefficient_laplacian(self, n):
        solver = EllipticSolver(Grid.square(n))
        lap = elliptic_matrix(n, np.zeros((n - 1) ** 2))
        rng = np.random.default_rng(n)
        for _ in range(3):
            r = rng.standard_normal((n - 1) ** 2)
            bound = 1e-12 * np.linalg.norm(r)
            assert np.linalg.norm(lap @ solver._precond(r) - r) <= bound
            assert np.linalg.norm(solver._precond(lap @ r) - r) <= bound

    @pytest.mark.parametrize("n", [16, 64])
    def test_result_owns_its_memory(self, n, check_ownership):
        solver = EllipticSolver(Grid.square(n))
        # the eigenvector matrix and the eigenvalue sums it closes over
        cached = [cell.cell_contents for cell in solver._precond.__closure__
                  if isinstance(cell.cell_contents, np.ndarray)]
        assert len(cached) == 2
        r = np.random.default_rng(n).standard_normal((n - 1) ** 2)
        check_ownership(solver._precond, r, inputs=cached)
        r.setflags(write=False)
        check_ownership(solver._precond, r, inputs=cached)

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_cg_iterations_per_solve_do_not_grow_with_n(self, n, monkeypatch):
        # the preconditioned spectrum lies in [1, 1 + max c / lambda_min(-Lap_h)]
        # with max c = 1 and lambda_min ~ 2 pi^2, whatever the grid size
        counts = {"calls": 0, "iters": 0}
        solve = EllipticSolver.solve

        def counted_solve(self, c, rhs):
            counts["calls"] += 1
            return solve(self, c, rhs)

        setup = setup_pde_experiment(n)
        F, c = setup.forward, setup.x_true
        precond = F.solver._precond

        def counted_precond(r):
            # applied once per CG iteration
            counts["iters"] += 1
            return precond(r)

        monkeypatch.setattr(EllipticSolver, "solve", counted_solve)
        monkeypatch.setattr(F.solver, "_precond", counted_precond)
        _, tangent, adjoint = F.linearize_values(c.values)
        adjoint(np.ones(F.grid_in.node_count))
        tangent(np.ones(F.grid_in.node_count))
        assert counts["calls"] == 3
        assert counts["iters"] <= 10 * counts["calls"]


class TestEllipticDerivative:
    def test_adjoint_identity(self):
        res = check_adjoint_elliptic(n=16)
        assert res.passed, res.detail

    def test_taylor_order_window(self):
        res = check_taylor_elliptic()
        assert res.passed, res.detail

    def test_taylor_remainders_decay_monotonically(self):
        _, pts = taylor_order(n=16)
        rems = [r for _, r in pts]
        assert all(rems[i + 1] < rems[i] for i in range(len(rems) - 1))

    def test_tangential_cone_surrogate(self):
        # linearization error within a 0.1-ball of the true coefficient stays
        # below a tenth of the data difference
        rng = np.random.default_rng(8)
        setup = setup_pde_experiment(16, solver_tol=1e-12)
        F = setup.forward
        grid = F.grid_in
        for _ in range(5):
            p1 = rng.standard_normal(grid.node_count)
            p2 = rng.standard_normal(grid.node_count)
            c1 = setup.x_true.values + 0.1 * p1 / norm_l2_values(p1, grid.weights)
            c2 = setup.x_true.values + 0.1 * p2 / norm_l2_values(p2, grid.weights)
            F2, tangent, _ = F.linearize_values(c2)
            F1 = F.linearize_values(c1)[0]
            lhs = norm_l2_values(F1 - F2 - tangent(c1 - c2), grid.weights)
            rhs = norm_l2_values(F1 - F2, grid.weights)
            assert lhs <= 0.1 * rhs

    def test_norm_bound_positive_and_restart_stable(self):
        setup = setup_pde_experiment(16)
        F = setup.forward
        _, tangent, adjoint = F.linearize_values(F.grid_in.zeros().values)
        e1 = power_iteration_norm(tangent, adjoint, F.grid_in, seed=0)
        e2 = power_iteration_norm(tangent, adjoint, F.grid_in, seed=17)
        assert e1 > 0
        assert abs(e1 - e2) <= 1e-6 * e1
        assert F.norm_bound() == pytest.approx(e1, rel=1e-8)

    def test_one_state_solve_per_iterate(self, monkeypatch):
        # each iterate linearizes once: one state solve plus one adjoint
        # solve per step, and one state solve at the terminal iterate
        setup = setup_pde_experiment(16)
        F = setup.forward
        c = setup.x_true
        u1 = F.linearize_values(c.values)[0]
        u2 = F.linearize_values(c.values)[0]
        assert np.array_equal(u1, u2)
        u3 = F.linearize_values(F.grid_in.zeros().values)[0]
        assert not np.array_equal(u1, u3)

        calls = [0]
        solve = EllipticSolver.solve

        def counted_solve(self, c, rhs):
            calls[0] += 1
            return solve(self, c, rhs)

        monkeypatch.setattr(EllipticSolver, "solve", counted_solve)
        rule, _ = make_cell(setup, "rule2", 1e-4)
        res = run(F, setup.reg, setup.y, rule, MaxIterStop(k_max=5))
        assert res.k_stop == 5
        assert calls[0] == 2 * res.k_stop + 1


def _grid_function_power_norm(apply_fn, adjoint_fn, grid, seed=0):
    """``power_iteration_norm`` written on grid functions, through a linear
    operator's kernels or a linearization's maps, each wrapped to take and
    return grid functions."""
    v = GridFunction(grid, np.random.default_rng(seed).standard_normal(grid.node_count))
    nv = norm_l2_values(v.values, v.grid.weights)
    if nv == 0.0:
        return 0.0
    v = GridFunction(grid, (1.0 / nv) * v.values)
    est = 0.0
    for _ in range(POWER_ITERS):
        av = apply_fn(v)
        z = adjoint_fn(av)
        new_est = norm_l2_values(av.values, av.grid.weights)
        zn = norm_l2_values(z.values, z.grid.weights)
        if zn == 0.0:
            return new_est
        if abs(new_est - est) <= POWER_TOL * max(new_est, 1e-300):
            return new_est
        est = new_est
        v = GridFunction(grid, (1.0 / zn) * z.values)
    return est


def _factored_without_bound():
    g = Grid.interval(200)
    t = g.coords[0]
    return LinearIntegral(g, factors=[(1.0, 1.0 + t), (t, 1.0)])


def _zero_kernel():
    return LinearIntegral(Grid.interval(10), kernel=np.zeros((11, 11)))


@pytest.mark.parametrize("make", [
    lambda: _dense_case()[0],
    _factored_without_bound,
    _zero_kernel,
    # a sourced block takes its unit norm as given; its kernel alone is estimated
    lambda: LinearIntegral(Grid.interval(50), kernel=build_sourced_instance(
        4, 50, EntropySimplex(), 7).problem.operators[0].kernel),
    lambda: _elliptic_case()[0],
], ids=["dense", "factored", "zero", "smd-block", "elliptic"])
def test_norm_bound_matches_the_grid_function_route_bit_for_bit(make):
    op = make()
    if op.linear:
        tangent, adjoint = op.apply_values, op.adjoint_values
    else:
        _, tangent, adjoint = op.linearize_values(np.zeros(op.grid_in.node_count))
    maps = (lambda h: GridFunction(op.grid_in, tangent(h.values)),
            lambda u: GridFunction(op.grid_in, adjoint(u.values)))
    assert op.norm_bound() == _grid_function_power_norm(*maps, op.grid_in)


class _Diagonal(ForwardOperator):
    """The smallest forward map: x -> d x on one interval grid, self-adjoint
    under its quadrature weights, with nothing but ``linearize_values``."""

    linear = True

    def __init__(self, d):
        self.grid_in = Grid.interval(d.size - 1)
        self.d = d

    def linearize_values(self, v):
        def scale(h):
            return self.d * h

        return self.d * v, scale, scale


class TestMinimalForwardMap:
    """A forward map reaches the solvers through ``linearize_values`` alone."""

    def _op(self):
        return _Diagonal(np.linspace(0.5, 1.0, 21))

    def test_norm_bound_is_the_power_iteration_on_its_maps_computed_once(self, monkeypatch):
        op = self._op()
        _, tangent, adjoint = op.linearize_values(np.zeros(op.grid_in.node_count))
        expected = power_iteration_norm(tangent, adjoint, op.grid_in)
        calls = [0]
        estimate = operators.power_iteration_norm

        def counted(*args, **kwargs):
            calls[0] += 1
            return estimate(*args, **kwargs)

        monkeypatch.setattr(operators, "power_iteration_norm", counted)
        assert op.norm_bound() == expected == pytest.approx(1.0, rel=1e-6)
        assert op.norm_bound() == expected
        assert calls[0] == 1

    def test_run_tracks_lambda_and_smd_runs(self):
        op = self._op()
        reg = QuadraticBox(lower=-math.inf)
        x_true = GridFunction(op.grid_in, np.cos(op.grid_in.coords[0]))
        y = GridFunction(op.grid_in, op.linearize_values(x_true.values)[0])
        rule = ConstantStep(gamma=0.9)
        res = run(op, reg, y, rule, MaxIterStop(k_max=20), x_truth=x_true)
        defects = [r.lambda_defect for r in res.records]
        assert None not in defects
        assert max(defects) <= 1e-12
        # one block on a constant schedule is the Landweber path, bit for bit
        gamma = rule.bounds(op.norm_bound())[0]
        sr = smd_run(SystemProblem((op,), (y,)), reg, ConstantSchedule(gamma), 20, seed=1,
                     x_truth=x_true)
        assert sr.k_stop == 20
        assert np.array_equal(sr.x.values, res.x.values)
