"""Forward operators: dense integral operators and an elliptic coefficient map.

Two families are provided:

* :class:`LinearIntegral` -- first-kind integral operator on the interval,
  (Ax)(s) = int_0^1 phi(t, s) x(t) dt, discretized with trapezoidal weights.
  The kernel is a dense matrix of node samples; a kernel with a known
  separable expansion phi(t, s) = sum_p a_p(t) b_p(s) can instead be given
  by its factors' node values and applied in O(n) through their moments,
  two BLAS matrix-vector products that keep long runs on fine grids cheap;
  they sum in BLAS's order, so they agree with the sum written out within
  its rounding bound, not bit for bit.

* :class:`EllipticCoefficient` -- the nonlinear map c -> u(c) where u solves
  -Lap(u) + c u = f on the unit square with Dirichlet data g, discretized by
  the five-point stencil and solved with CG preconditioned by the exact
  inverse of the c = 0 Laplacian (applied by fast diagonalization) in a CG
  loop on raw arrays that performs SciPy's ``cg`` operations in SciPy's
  order, so it gives SciPy's bits without that wrapper's overhead.  No
  matrix is assembled: each product A(c) p is the stencil applied to p by
  flat shifted NumPy products, summed row by row in the order in which a
  CSR matrix of A(c) sums them, so it has that product's bits.  The
  derivative and its adjoint follow the usual sensitivity formulas
  F'(c) h = -A(c)^{-1} (h u(c)) and F'(c)* w = -u(c) A(c)^{-1} w, with
  homogeneous Dirichlet conditions on the auxiliary solves; on the interior
  of the tensor-trapezoidal grid these are exact discrete adjoints.

Each operator implements one raw-array linearization,
``linearize_values(v) -> (value, tangent, adjoint)``: the node values of F(x)
for the node values ``v`` of x, with the maps h -> F'(x) h and
w -> F'(x)^* w on node arrays at that same x.  The solvers call it directly,
so an iterate that needs both the residual and the gradient linearizes once
(the elliptic map solves for its state once per iterate) and pays no
grid-function wrapper.  Every operator lives on one grid, which holds both
its argument and its image; the Banach space of the argument and the
Hilbert space of the data differ in the regularizer's norms, not in a
second grid.  The maps are raw: the caller has checked the grid (the
solvers check data, truth and start at their entry points), and the only
:class:`GridFunction` arguments are the elliptic map's source and boundary
data.  The solvers use no kernel: the norm bound of the step rules is the
base class's ``norm_bound``, derived from ``linearize_values``, and a
linear operator's ``apply_values`` and ``adjoint_values`` serve the
exact-data builders and the adjoint oracles.

Every array the raw maps return is fresh, and the tangent and adjoint may
close over the value (the elliptic adjoint multiplies by the state u), so a
caller passes none of them as ``out=``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    Grid,
    GridFunction,
    GridMismatchError,
    power_iteration_norm,
)

__all__ = [
    "ForwardOperator",
    "LinearIntegral",
    "EllipticCoefficient",
    "EllipticSolver",
    "EllipticSolveError",
]


class ForwardOperator:
    """Common surface: ``linearize_values`` and ``norm_bound``, on node arrays
    of the one grid ``grid_in``, which holds both the argument and the image;
    ``linear`` marks a linear map.  A subclass sets those and implements
    ``linearize_values``; the base derives ``norm_bound`` from it (a known
    bound is stored as ``_norm_cache``).  The name ``grid_in`` stays,
    although the grid is the operator's only one, because the benchmark's
    tracer reads it when it rebuilds an elliptic operator."""

    linear: bool = False
    grid_in: Grid
    _norm_cache: float = None

    def linearize_values(self, v: np.ndarray):
        """(F(x), h -> F'(x) h, w -> F'(x)^* w) on node arrays of
        ``grid_in``, where ``v`` holds the node values of x; the caller has
        checked the grid.  Each returned array is fresh (see the module
        docstring)."""
        raise NotImplementedError

    def norm_bound(self) -> float:
        """The known bound, else the power-iteration estimate of ||F'(0)|| on
        the maps of ``linearize_values`` at 0, computed once."""
        if self._norm_cache is None:
            _, tangent, adjoint = self.linearize_values(np.zeros(self.grid_in.node_count))
            self._norm_cache = power_iteration_norm(tangent, adjoint, self.grid_in)
        return self._norm_cache


def _stacked(factors, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors as the rows of a fresh (p, n) float array, and those rows
    times the quadrature weights ``w``.  A scalar fills its row, since a
    stride-0 broadcast view would slow every product it enters."""
    n = w.size
    rows, weighted = np.empty((len(factors), n)), np.empty((len(factors), n))
    for i, f in enumerate(factors):
        f = np.asarray(f, dtype=float)
        if f.ndim and f.shape != (n,):
            raise GridMismatchError(f"factor of shape {f.shape} on a grid of {n} nodes")
        rows[i] = f
        np.multiply(w, f, out=weighted[i])
    return rows, weighted


class LinearIntegral(ForwardOperator):
    """Linear integral operator with trapezoidal quadrature.

    Parameters
    ----------
    grid_in : Grid
        The interval grid of both the argument and the image.
    kernel : array, optional
        Samples K[i, j] = phi(t_j, s_i) of the kernel phi(t, s), an n x n
        array for the n nodes of the grid, kept as the read-only ``kernel``
        attribute and applied as (Ax)(s_i) = sum_j w_j K[i, j] x_j with the
        exact adjoint K^T (w * .) for the grid's weighted inner product.
    factors : sequence of (a, b) pairs, optional
        Separable expansion phi(t, s) = sum_p a_p(t) b_p(s); a_p and b_p hold
        node values on the grid, each an array or a scalar that fills its
        node array.  When given, application uses the O(n) moment form and
        no dense matrix is stored: the factors are stacked once into (p, n)
        arrays, with and without the quadrature weights, and each product is
        two ``dot`` calls on them, the p moments and then the sum of the p
        scaled factors.  Their bits depend on BLAS; at p = 2 they were the
        same at 1 and 2 OpenBLAS threads up to n = 10^6 (see the README).
        Exactly one of ``kernel`` and a nonempty ``factors`` must be given,
        else :class:`ValueError`; a kernel or factor of another shape raises
        :class:`GridMismatchError`.
    analytic_norm_bound : float, optional
        Known bound L with ||A|| <= L; when absent, ``norm_bound`` falls back
        to a power-iteration estimate.
    """

    linear = True

    def __init__(self, grid_in: Grid, *, kernel=None, factors=None,
                 analytic_norm_bound: float = None):
        self.grid_in = grid_in
        if analytic_norm_bound is not None and not 0 < analytic_norm_bound < math.inf:
            raise ValueError(f"analytic_norm_bound must be positive and finite, "
                             f"got {analytic_norm_bound}")
        self._norm_cache = analytic_norm_bound
        self.kernel = None
        if (kernel is None) == (factors is None):
            raise ValueError("provide exactly one of kernel and factors")
        if factors is not None:
            if len(factors) == 0:
                raise ValueError("factors must hold at least one (a, b) pair")
            # (w * a) * x is the order the moment form evaluates, so the
            # weighted factors are formed once here
            a, b = zip(*factors)
            self._a, self._wa = _stacked(a, grid_in.weights)
            self._b, self._wb = _stacked(b, grid_in.weights)
        else:
            n = grid_in.node_count
            K = np.array(kernel, dtype=float)
            if K.shape != (n, n):
                raise GridMismatchError(
                    f"kernel shape {K.shape} does not match the grid ({n} x {n})")
            K.setflags(write=False)
            self.kernel = K

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        """A v on node arrays, the caller having checked the grid: the value
        and the tangent of ``linearize_values``."""
        if self.kernel is None:
            return self._wa.dot(v).dot(self._b)
        return self.kernel.dot(self.grid_in.weights * v)

    def adjoint_values(self, w: np.ndarray) -> np.ndarray:
        """A^* w on node arrays: the adjoint of ``linearize_values``."""
        if self.kernel is None:
            return self._wb.dot(w).dot(self._a)
        return self.kernel.T.dot(self.grid_in.weights * w)

    def linearize_values(self, v: np.ndarray):
        return self.apply_values(v), self.apply_values, self.adjoint_values


#: CG iterations per unknown before :meth:`EllipticSolver.solve` gives up,
#: SciPy's default cap for ``cg``
CG_ITERS_PER_UNKNOWN = 10


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

    A(c) = -Lap_h + diag(c) on the (n-1)^2 interior nodes, numbered row by
    row, is never assembled.  ``solve(c, rhs)`` forms its diagonal
    4/h^2 + c and applies the stencil by flat shifts: row i adds the terms
    of columns i - (n-1), i - 1, i, i + 1 and i + (n-1), in that order, to
    zeros, which is the order and the start of a CSR product's sum, so each
    product has the bits of ``(lap + sp.diags(c)) @ p`` for the SciPy
    Laplacian.  Where a grid row ends, the +-1 weight is 0, so the shift
    adds a signed zero there and the sum is unchanged.  Each solve runs CG
    until the algebraic residual drops below ``tol * ||rhs||`` (atol 0), for
    at most :data:`CG_ITERS_PER_UNKNOWN` times the system size (n-1)^2
    iterations, SciPy's default cap; the constant is read at each solve.
    ``solve`` is SciPy's ``cg`` on raw arrays, operation for operation and
    bit for bit: x0 = 0, norms as sqrt(r.dot(r)), the residual test before
    each iteration, p = z on the first spin and p = (rho / rho_prev) p + z
    in place after it.

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

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.grid.kind != "square":
            raise ValueError("elliptic solver requires a square grid")
        n = self.grid.n
        if n < 2:
            raise ValueError("square grid must have n >= 2 for interior nodes")
        h = self.grid.h
        ni = n - 1
        self._centre = 4.0 / (h * h)
        off = -1.0 / (h * h)
        # link[k] couples nodes k and k + 1: -1/h^2 inside a grid row, 0
        # across a row end
        link = np.where(np.arange(1, ni * ni) % ni == 0, 0.0, off)

        def stencil_product(d, p):
            # A p for the diagonal d: the terms added to q in the CSR column
            # order, the two at +-(n-1) both read from u = (-1/h^2) p
            q, u, t = np.zeros(p.size), np.multiply(off, p), np.empty(p.size)
            q[ni:] += u[:-ni]
            q[1:] += np.multiply(link, p[:-1], out=t[1:])
            q += np.multiply(d, p, out=t)
            q[:-1] += np.multiply(link, p[1:], out=t[:-1])
            q[:-ni] += u[ni:]
            return q

        self._product = stencil_product

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

    def solve(self, c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """A(c)^{-1} rhs for the interior coefficient values ``c``, a fresh
        array (a copy of a zero rhs); after the iteration cap, or at once
        when the residual is not finite, :class:`EllipticSolveError` with
        ||r|| / ||rhs||."""
        r = rhs.copy()
        rhs_norm = math.sqrt(r.dot(r))
        if rhs_norm == 0.0:
            return r
        d = self._centre + c
        atol = self.tol * rhs_norm
        max_iter = CG_ITERS_PER_UNKNOWN * r.size
        x = np.zeros_like(r)
        tmp = np.empty_like(r)
        for it in range(max_iter):
            rn = math.sqrt(r.dot(r))
            if rn < atol:
                return x
            if not math.isfinite(rn):
                # a NaN residual never meets the tolerance; stop before the cap
                raise EllipticSolveError(it, rn / rhs_norm)
            z = self._precond(r)
            rho = r.dot(z)
            if it:
                p *= rho / rho_prev
                p += z
            else:
                p = z  # fresh, so SciPy's copy of it is not needed
            q = self._product(d, p)
            alpha = rho / p.dot(q)
            x += np.multiply(alpha, p, out=tmp)
            r -= np.multiply(alpha, q, out=tmp)
            rho_prev = rho
        raise EllipticSolveError(max_iter, math.sqrt(r.dot(r)) / rhs_norm)


class EllipticCoefficient(ForwardOperator):
    """Coefficient-to-solution map for -Lap(u) + c u = f, u = g on the boundary.

    ``f`` and ``g`` are grid functions on the (square) grid, and the solver
    is built on it too, each refused otherwise; only the boundary values of
    ``g`` enter.  The value of ``linearize_values(c)`` is the node array of
    the full-grid solution (boundary nodes carry g); the derivative solves
    use homogeneous Dirichlet conditions and vanish on the boundary, so the
    map has no sensitivity to boundary values of c.
    Iterates are expected to satisfy c >= 0 node-wise (the solver module
    guarantees this by applying the mirror map before every call); mildly
    negative values are tolerated as long as the shifted operator stays
    positive definite.

    ``linearize_values(c)`` takes the interior values of c and solves for
    the state u(c) once; its tangent and adjoint close over those values
    and u, with u the array it returns as the value, so each costs one more
    solve and nothing is kept on the operator between calls.
    """

    def __init__(self, f: GridFunction, g: GridFunction, grid: Grid,
                 solver: EllipticSolver):
        if f.grid != grid or g.grid != grid:
            raise GridMismatchError("f and g must live on the operator grid")
        if solver.grid != grid:
            raise GridMismatchError("the solver must be built on the operator grid")
        self.grid_in = grid
        self.f = f
        self.g = g
        self.solver = solver
        m = grid.n + 1
        self._shape = (m, m)
        gv = g.values.reshape(self._shape)
        lift = np.zeros((m - 2, m - 2))
        lift[:, 0] += gv[1:-1, 0]
        lift[:, -1] += gv[1:-1, -1]
        lift[0, :] += gv[0, 1:-1]
        lift[-1, :] += gv[-1, 1:-1]
        self._state_rhs = self._interior(f.values) + lift.ravel() / grid.h ** 2

    def _interior(self, v: np.ndarray) -> np.ndarray:
        return v.reshape(self._shape)[1:-1, 1:-1].ravel()

    def _embed(self, interior: np.ndarray, boundary: np.ndarray = None) -> np.ndarray:
        m = self._shape[0]
        full = np.zeros(self._shape) if boundary is None else boundary.reshape(self._shape).copy()
        full[1:-1, 1:-1] = interior.reshape(m - 2, m - 2)
        return full.ravel()

    def linearize_values(self, c: np.ndarray):
        c = self._interior(c)
        u_full = self._embed(self.solver.solve(c, self._state_rhs), boundary=self.g.values)

        def tangent(h: np.ndarray) -> np.ndarray:
            return self._embed(self.solver.solve(c, -self._interior(h * u_full)))

        def adjoint(w: np.ndarray) -> np.ndarray:
            return -u_full * self._embed(self.solver.solve(c, self._interior(w)))

        return u_full, tangent, adjoint
