"""Forward operators: dense integral operators and an elliptic coefficient map.

Two families are provided:

* :class:`LinearIntegral` -- first-kind integral operator on the interval,
  (Ax)(s) = int_0^1 phi(t, s) x(t) dt, discretized with trapezoidal weights.
  The kernel is a dense matrix of node samples; a kernel with a known
  separable expansion phi(t, s) = sum_p a_p(t) b_p(s) can instead be given
  by its factors' node values and applied in O(n) through their moments,
  which is numerically equivalent and keeps long runs on fine grids cheap.

* :class:`EllipticCoefficient` -- the nonlinear map c -> u(c) where u solves
  -Lap(u) + c u = f on the unit square with Dirichlet data g, discretized by
  the five-point stencil and solved with CG preconditioned by the exact
  inverse of the c = 0 Laplacian (applied by fast diagonalization) in a CG
  loop on raw arrays that performs SciPy's ``cg`` operations in SciPy's
  order, so it gives SciPy's bits without that wrapper's overhead.  A(c) is
  a bare value array on the Laplacian's one cached CSR pattern, and each
  product calls SciPy's compiled CSR kernel on it directly; no sparse-matrix
  object is built per iterate.  The derivative and its adjoint follow the
  usual sensitivity formulas F'(c) h = -A(c)^{-1} (h u(c)) and
  F'(c)* w = -u(c) A(c)^{-1} w, with homogeneous Dirichlet conditions on
  the auxiliary solves; on the interior of the tensor-trapezoidal grid these
  are exact discrete adjoints.

Each operator implements one raw-array linearization,
``linearize_values(v) -> (value, tangent, adjoint)``: the node values of F(x)
for the node values ``v`` of x, with the maps h -> F'(x) h and
w -> F'(x)^* w on node arrays at that same x.  The solvers call it directly,
so an iterate that needs both the residual and the gradient linearizes once
(the elliptic map solves for its state once per iterate) and pays no
grid-function wrapper.  :class:`GridFunction` appears only at the edges:
the base class's ``linearize`` (which returns a :class:`Linearization`),
``apply`` and ``adjoint_apply`` check the grid of their argument and wrap
their result, and nothing else in this module does.

Every array the raw maps return is fresh, and the tangent and adjoint may
close over the value (the elliptic adjoint multiplies by the state u), so a
caller passes none of them as ``out=``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .grids import (
    Grid,
    GridFunction,
    GridMismatchError,
    power_iteration_norm,
)

__all__ = [
    "ForwardOperator",
    "Linearization",
    "LinearIntegral",
    "EllipticCoefficient",
    "EllipticSolver",
    "EllipticSolveError",
]


class Linearization(NamedTuple):
    """F(x) with the derivative F'(x) and its adjoint F'(x)^* at the same x."""

    value: GridFunction
    tangent: Callable[[GridFunction], GridFunction]
    adjoint: Callable[[GridFunction], GridFunction]


class ForwardOperator:
    """Common surface: a subclass implements ``linearize_values`` (and, if
    linear, the raw kernels ``apply_values`` and ``adjoint_values``) and
    ``norm_bound``; the grid-function methods here are built on them."""

    linear: bool = False
    grid_in: Grid
    grid_out: Grid

    def linearize_values(self, v: np.ndarray):
        """(F(x), h -> F'(x) h, w -> F'(x)^* w) on node arrays, where ``v``
        holds the node values of x on ``grid_in``; the caller has checked
        the grids.  Each returned array is fresh (see the module docstring)."""
        raise NotImplementedError

    def linearize(self, x: GridFunction) -> Linearization:
        value, tangent, adjoint = self.linearize_values(_values_on(x, self.grid_in))
        return Linearization(GridFunction.wrap(self.grid_out, value),
                             _on_grids(tangent, self.grid_in, self.grid_out),
                             _on_grids(adjoint, self.grid_out, self.grid_in))

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        """F(x) on node arrays: the value of ``linearize_values``, which a
        linear operator computes without building the maps."""
        return self.linearize_values(v)[0]

    def apply(self, x: GridFunction) -> GridFunction:
        return GridFunction.wrap(self.grid_out, self.apply_values(_values_on(x, self.grid_in)))

    def adjoint_apply(self, w: GridFunction) -> GridFunction:
        """A^* w for a linear operator, whose adjoint is the same at every x."""
        return GridFunction.wrap(self.grid_in, self.adjoint_values(_values_on(w, self.grid_out)))

    def norm_bound(self) -> float:
        """Upper bound (or estimate) for sup ||F'(x)||, computed once."""
        raise NotImplementedError


def _values_on(u: GridFunction, grid: Grid) -> np.ndarray:
    """The node values of ``u``, after checking that it lives on ``grid``."""
    if u.grid != grid:
        raise GridMismatchError(f"expected a function on {grid}, got one on {u.grid}")
    return u.values


def _node_array(a, shape) -> np.ndarray:
    """A factor as a float array of ``shape``; a scalar is filled in, since a
    stride-0 broadcast view would slow every product it enters."""
    a = np.asarray(a, dtype=float)
    if a.ndim and a.shape != shape:
        raise GridMismatchError(f"factor of shape {a.shape} on a grid of {shape[0]} nodes")
    return a if a.ndim else np.full(shape, a)


def _on_grids(fn, grid_in: Grid, grid_out: Grid):
    """The raw map ``fn`` as a map of grid functions from grid_in to grid_out."""
    def on_grids(u: GridFunction) -> GridFunction:
        return GridFunction.wrap(grid_out, fn(_values_on(u, grid_in)))

    return on_grids


class LinearIntegral(ForwardOperator):
    """Linear integral operator with trapezoidal quadrature.

    Parameters
    ----------
    grid_in, grid_out : Grid
        Interval grids for argument and image (``grid_out`` defaults to
        ``grid_in``).
    kernel : array, optional
        Samples K[i, j] = phi(t_j, s_i) of the kernel phi(t, s), an
        (n_out, n_in) array kept as the read-only ``kernel`` attribute and
        applied as (Ax)(s_i) = sum_j w_j K[i, j] x_j with the exact adjoint
        K^T (w_out * .) for the weighted inner products on both grids.
    factors : sequence of (a, b) pairs, optional
        Separable expansion phi(t, s) = sum_p a_p(t) b_p(s); a_p holds node
        values on the input grid and b_p on the output grid, each an array
        or a scalar that NumPy broadcasts to one.  When given, application
        uses the O(n) moment form and no dense matrix is stored; the factors
        are kept with and without the quadrature weights.  A kernel or
        factor of another shape raises :class:`GridMismatchError`.
    analytic_norm_bound : float, optional
        Known bound L with ||A|| <= L; when absent, ``norm_bound`` falls back
        to a power-iteration estimate.
    """

    linear = True

    def __init__(self, grid_in: Grid, grid_out: Grid = None, *, kernel=None,
                 factors=None, analytic_norm_bound: float = None):
        self.grid_in = grid_in
        self.grid_out = grid_out if grid_out is not None else grid_in
        self._analytic_bound = analytic_norm_bound
        self._norm_cache = None
        self.kernel = None
        self._factors = None
        if factors is not None:
            w_in, w_out = self.grid_in.weights, self.grid_out.weights
            self._factors = []
            for a, b in factors:
                a, b = _node_array(a, w_in.shape), _node_array(b, w_out.shape)
                # (w * a) * x is the order the moment form evaluates, so the
                # weighted factors are formed once here
                self._factors.append((a, b, w_in * a, w_out * b))
        elif kernel is not None:
            shape = (self.grid_out.node_count, self.grid_in.node_count)
            K = np.array(kernel, dtype=float)
            if K.shape != shape:
                raise GridMismatchError(
                    f"kernel shape {K.shape} does not match grids "
                    f"({shape[0]} x {shape[1]})")
            K.setflags(write=False)
            self.kernel = K
        else:
            raise ValueError("provide either kernel or factors")

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        """A v on node arrays: the value and the tangent of ``linearize_values``."""
        if self._factors is not None:
            out = np.zeros(self.grid_out.node_count)
            tmp_in = np.empty(self.grid_in.node_count)
            tmp_out = np.empty(self.grid_out.node_count)
            for _, b, wa, _ in self._factors:
                moment = np.add.reduce(np.multiply(wa, v, out=tmp_in))
                out += np.multiply(b, moment, out=tmp_out)
            return out
        return self.kernel.dot(self.grid_in.weights * v)

    def adjoint_values(self, w: np.ndarray) -> np.ndarray:
        """A^* w on node arrays: the adjoint of ``linearize_values``."""
        if self._factors is not None:
            out = np.zeros(self.grid_in.node_count)
            tmp_in = np.empty(self.grid_in.node_count)
            tmp_out = np.empty(self.grid_out.node_count)
            for a, _, _, wb in self._factors:
                moment = np.add.reduce(np.multiply(wb, w, out=tmp_out))
                out += np.multiply(a, moment, out=tmp_in)
            return out
        return self.kernel.T.dot(self.grid_out.weights * w)

    def linearize_values(self, v: np.ndarray):
        return self.apply_values(v), self.apply_values, self.adjoint_values

    def norm_bound(self) -> float:
        if self._analytic_bound is not None:
            return self._analytic_bound
        if self._norm_cache is None:
            self._norm_cache = power_iteration_norm(
                self.apply_values, self.adjoint_values, self.grid_in, self.grid_out)
        return self._norm_cache


class EllipticSolveError(RuntimeError):
    """Conjugate-gradient failure; carries the iteration count and residual."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"CG did not converge after {iterations} iterations "
            f"(relative residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


@dataclass(eq=False)
class EllipticSolver:
    """Five-point Dirichlet solver on the unit square via preconditioned CG.

    Assembles the interior-node Laplacian once and keeps its CSR pattern;
    A(c) is never a sparse-matrix object but a value array on that one
    pattern: ``matrix(c)`` returns the Laplacian's values with its diagonal
    plus c written into the diagonal slots, and ``solve(a, rhs)`` multiplies
    by it with SciPy's compiled CSR kernel, the one ``csr_matrix @ vector``
    calls.  Each solve runs CG until the algebraic residual drops below
    ``tol * ||rhs||`` (atol 0).  ``max_iter`` None means SciPy's default
    cap, 10 times the system size (n-1)^2.  ``solve`` is SciPy's ``cg`` on
    raw arrays, operation for operation and bit for bit: x0 = 0, norms as
    sqrt(r.dot(r)), the residual test before each iteration, p = z on the
    first spin and p = (rho / rho_prev) p + z in place after it.

    The preconditioner is the exact inverse of the c = 0 Laplacian, applied
    by fast diagonalization (Concus & Golub, SIAM J. Numer. Anal. 10, 1973):
    with Q[j, k] = sqrt(2/n) sin(pi j k / n), the orthonormal and symmetric
    eigenvector matrix of the 1-D stencil, and eigenvalues
    lam_k = 4 sin^2(k pi / 2n) / h^2, the inverse maps R to
    Q ((Q R Q) / (lam_j + lam_k)) Q.  For c >= 0 the preconditioned spectrum
    lies in [1, 1 + max c / lam_min] with lam_min ~ 2 pi^2, so the CG
    iteration count does not grow with n.
    """

    grid: Grid
    tol: float = 1e-10
    max_iter: int = None

    def __post_init__(self):
        if self.grid.kind != "square":
            raise ValueError("elliptic solver requires a square grid")
        n = self.grid.n
        if n < 2:
            raise ValueError("square grid must have n >= 2 for interior nodes")
        h = self.grid.h
        ni = n - 1
        I = sp.eye(ni, format="csr")
        T = sp.diags([-np.ones(ni - 1), 2.0 * np.ones(ni), -np.ones(ni - 1)],
                     [-1, 0, 1], format="csr")
        lap = ((sp.kron(I, T) + sp.kron(T, I)) / (h * h)).tocsr()
        lap.indices.setflags(write=False)
        lap.indptr.setflags(write=False)
        self._lap = lap
        rows = np.repeat(np.arange(ni * ni), np.diff(lap.indptr))
        self._diag_pos = np.flatnonzero(lap.indices == rows)
        self._lap_diag = lap.data[self._diag_pos]

        k = np.arange(1, n)
        Q = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
        lam = 4.0 * np.sin(k * np.pi / (2 * n)) ** 2 / (h * h)
        E = lam[:, None] + lam[None, :]

        def inverse_laplacian(r):
            # Q @ ((Q @ R @ Q) / E) @ Q, the last three steps written into
            # the two products the first two allocate
            S = Q @ r.reshape(ni, ni)
            T = S @ Q
            np.divide(T, E, out=T)
            np.matmul(Q, T, out=S)
            np.matmul(S, Q, out=T)
            return T.ravel()

        self._precond = inverse_laplacian

    def matrix(self, c_interior: np.ndarray) -> np.ndarray:
        """The values of ``_lap + sp.diags(c)`` on the Laplacian's cached
        (read-only) CSR pattern, in a fresh array.  The sum would drop a
        diagonal entry that cancels to exactly 0, which no positive definite
        A(c) has."""
        data = self._lap.data.copy()
        data[self._diag_pos] = self._lap_diag + c_interior
        return data

    def solve(self, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs for the values ``a`` of ``matrix(c)``, a fresh array (a
        copy of a zero rhs); after ``max_iter`` iterations,
        :class:`EllipticSolveError` with ||r|| / ||rhs||."""
        lap = self._lap
        if a.shape != lap.data.shape or a.dtype != lap.data.dtype:
            # the CSR kernel reads a by the pattern's offsets, unchecked
            raise ValueError(f"expected {lap.nnz} float values of A(c), got "
                             f"shape {a.shape} of {a.dtype}")
        indptr, indices = lap.indptr, lap.indices
        r = rhs.copy()
        rhs_norm = math.sqrt(r.dot(r))
        if rhs_norm == 0.0:
            return r
        m = r.size
        atol = self.tol * rhs_norm
        max_iter = 10 * m if self.max_iter is None else self.max_iter
        x = np.zeros_like(r)
        tmp = np.empty_like(r)
        for it in range(max_iter):
            if math.sqrt(r.dot(r)) < atol:
                return x
            z = self._precond(r)
            rho = r.dot(z)
            if it:
                p *= rho / rho_prev
                p += z
            else:
                p = z  # fresh, so SciPy's copy of it is not needed
            q = np.zeros(m)
            _csr_matvec(m, m, indptr, indices, a, p, q)
            alpha = rho / p.dot(q)
            x += np.multiply(alpha, p, out=tmp)
            r -= np.multiply(alpha, q, out=tmp)
            rho_prev = rho
        raise EllipticSolveError(max_iter, math.sqrt(r.dot(r)) / rhs_norm)


class EllipticCoefficient(ForwardOperator):
    """Coefficient-to-solution map for -Lap(u) + c u = f, u = g on the boundary.

    ``f`` and ``g`` are grid functions on the (square) grid; only the
    boundary values of ``g`` enter.  ``apply(c)`` returns the full-grid
    solution (boundary nodes carry g); the derivative solves use homogeneous
    Dirichlet conditions and vanish on the boundary, so the map has no
    sensitivity to boundary values of c.  Iterates are expected to satisfy
    c >= 0 node-wise (the solver module guarantees this by applying the
    mirror map before every call); mildly negative values are tolerated as
    long as the shifted operator stays positive definite.

    ``linearize_values(c)`` assembles the values of A(c) and solves for the
    state u(c) once; its tangent and adjoint close over those values and u,
    with u the array it returns as the value, so each costs one more solve
    and nothing is kept on the operator between calls.
    """

    linear = False

    def __init__(self, f: GridFunction, g: GridFunction, grid: Grid,
                 solver: EllipticSolver = None):
        if f.grid != grid or g.grid != grid:
            raise GridMismatchError("f and g must live on the operator grid")
        self.grid_in = grid
        self.grid_out = grid
        self.f = f
        self.g = g
        self.solver = solver if solver is not None else EllipticSolver(grid)
        m = grid.n + 1
        self._shape = (m, m)
        gv = g.values.reshape(self._shape)
        lift = np.zeros((m - 2, m - 2))
        lift[:, 0] += gv[1:-1, 0]
        lift[:, -1] += gv[1:-1, -1]
        lift[0, :] += gv[0, 1:-1]
        lift[-1, :] += gv[-1, 1:-1]
        self._state_rhs = self._interior(f.values) + lift.ravel() / grid.h ** 2
        self._norm_cache = None

    def _interior(self, v: np.ndarray) -> np.ndarray:
        return v.reshape(self._shape)[1:-1, 1:-1].ravel()

    def _embed(self, interior: np.ndarray, boundary: np.ndarray = None) -> np.ndarray:
        m = self._shape[0]
        full = np.zeros(self._shape) if boundary is None else boundary.reshape(self._shape).copy()
        full[1:-1, 1:-1] = interior.reshape(m - 2, m - 2)
        return full.ravel()

    def linearize_values(self, c: np.ndarray):
        a = self.solver.matrix(self._interior(c))
        u_full = self._embed(self.solver.solve(a, self._state_rhs), boundary=self.g.values)

        def tangent(h: np.ndarray) -> np.ndarray:
            return self._embed(self.solver.solve(a, -self._interior(h * u_full)))

        def adjoint(w: np.ndarray) -> np.ndarray:
            return -u_full * self._embed(self.solver.solve(a, self._interior(w)))

        return u_full, tangent, adjoint

    def norm_bound(self) -> float:
        """Power-iteration estimate of ||F'(0)||, computed once."""
        if self._norm_cache is None:
            _, tangent, adjoint = self.linearize_values(np.zeros(self.grid_in.node_count))
            self._norm_cache = power_iteration_norm(tangent, adjoint,
                                                    self.grid_in, self.grid_out)
        return self._norm_cache
