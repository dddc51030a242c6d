"""Uniform grids and quadrature-weighted grid functions.

Everything downstream (regularizers, forward maps, solvers) lives on the two
grid kinds provided here: the unit interval split into ``n`` subintervals and
the unit square split into ``n x n`` cells.  Inner products and norms are
discretized with the (tensor) trapezoidal rule, and adjoints of discrete
operators are exact adjoints with respect to those weighted inner products,
so adjoint-consistency checks hold to rounding rather than to O(h).

Reductions: outside the oracles in ``checks``, every reduction over node
values is a ufunc reduce (``np.add.reduce``, ``np.maximum.reduce``,
``np.logical_and.reduce``, ...).  It gives the bits of ``np.sum`` /
``np.max`` (the same pairwise order) and skips the Python frame that the
ndarray methods (``a.sum()``, ``a.all()``) enter on every call.

Temporaries: a kernel may pass ``out=`` only to an array it allocated itself
in the same call, never to an input, a cached array or a buffer kept between
calls.  Each result is then a fresh array that nothing else references,
which ``GridFunction.wrap`` freezes without a copy, and reusing the
temporary of ``w * u`` for ``(w * u) * v`` keeps the operand order, so the
bits are those of the written-out expression.  The raw kernels follow the
same rule on node arrays: each forward operator's ``linearize_values`` and
the maps it returns (``LinearIntegral.apply_values`` / ``adjoint_values``,
the elliptic tangent and adjoint), :func:`norm_l2_values`,
``landweber.dual_step`` and the regularizers' value kernels.  The solvers
run on these and meet grid functions only at the edges; an array a raw
kernel returns is never written in place either, since the maps of one
linearization may share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "GridMismatchError",
    "inner",
    "norm_l2",
    "norm_l2_values",
    "norm_l1",
    "norm_linf",
    "add_noise",
    "power_iteration_norm",
]


class GridMismatchError(ValueError):
    """Raised when two grid functions (or an operator and its argument)
    do not live on compatible grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0,1] (interval) or [0,1]^2 (square).

    Parameters
    ----------
    kind : str
        Either ``"interval"`` (n subintervals, n+1 nodes) or ``"square"``
        (n x n cells, (n+1)^2 nodes).
    n : int
        Number of subintervals per dimension; must be positive.

    Square-grid node values are stored flat in row-major order with the
    x index fastest: node (i, j) at (i*h, j*h) sits at flat index
    ``j*(n+1) + i``.
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("interval", "square"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @classmethod
    def interval(cls, n: int) -> "Grid":
        return cls("interval", n)

    @classmethod
    def square(cls, n: int) -> "Grid":
        return cls("square", n)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def node_count(self) -> int:
        m = self.n + 1
        return m if self.kind == "interval" else m * m

    @cached_property
    def nodes_1d(self) -> np.ndarray:
        """Coordinates along one axis (shared by both axes for squares)."""
        x = np.linspace(0.0, 1.0, self.n + 1)
        x.setflags(write=False)
        return x

    @cached_property
    def weights_1d(self) -> np.ndarray:
        w = np.full(self.n + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        w.setflags(write=False)
        return w

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights aligned with the flat node layout."""
        if self.kind == "interval":
            return self.weights_1d
        w = np.outer(self.weights_1d, self.weights_1d).ravel()
        w.setflags(write=False)
        return w

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Flat coordinate arrays: (t,) for intervals, (x, y) for squares."""
        if self.kind == "interval":
            return (self.nodes_1d,)
        x1 = self.nodes_1d
        X, Y = np.meshgrid(x1, x1, indexing="xy")
        x = X.ravel()
        y = Y.ravel()
        x.setflags(write=False)
        y.setflags(write=False)
        return (x, y)

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.node_count))

    def ones(self) -> "GridFunction":
        return GridFunction(self, np.ones(self.node_count))


@dataclass(frozen=True, slots=True)
class GridFunction:
    """Real-valued function sampled at the nodes of a :class:`Grid`.

    Values are frozen at construction; all operations return new instances,
    so grid functions can be shared freely across concurrent runs.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.node_count,):
            raise GridMismatchError(
                f"expected {self.grid.node_count} values, got shape {v.shape}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def wrap(cls, grid: Grid, values: np.ndarray) -> "GridFunction":
        """Take ownership of a freshly computed float array without copying.

        Internal fast path for arithmetic and operator results; callers must
        not hold another writable reference to ``values``.
        """
        gf = object.__new__(cls)
        values.setflags(write=False)
        _set_grid(gf, grid)
        _set_values(gf, values)
        return gf

    def same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise GridMismatchError("grid functions live on different grids")

    def __add__(self, other):
        self.same_grid(other)
        return GridFunction.wrap(self.grid, self.values + other.values)

    def __sub__(self, other):
        self.same_grid(other)
        return GridFunction.wrap(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction.wrap(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction.wrap(self.grid, -self.values)


# the slot descriptors: ``wrap`` writes through them, past the frozen
# ``__setattr__``
_set_grid = GridFunction.grid.__set__
_set_values = GridFunction.values.__set__


def inner(u: GridFunction, v: GridFunction) -> float:
    """Quadrature-weighted L2 pairing sum(w_i u_i v_i)."""
    u.same_grid(v)
    t = u.grid.weights * u.values
    return float(np.add.reduce(np.multiply(t, v.values, out=t)))


def norm_l2(u: GridFunction) -> float:
    return norm_l2_values(u.values, u.grid.weights)


def norm_l2_values(v: np.ndarray, w: np.ndarray) -> float:
    """``norm_l2`` of the node values ``v`` under the quadrature weights ``w``."""
    t = w * v
    return math.sqrt(np.add.reduce(np.multiply(t, v, out=t)))


def norm_l1(u: GridFunction) -> float:
    t = np.abs(u.values)
    return float(np.add.reduce(np.multiply(u.grid.weights, t, out=t)))


def norm_linf(u: GridFunction) -> float:
    return float(np.maximum.reduce(np.abs(u.values)))


def add_noise(y: GridFunction, delta: float, seed: int) -> GridFunction:
    """Perturb ``y`` by a Gaussian node vector rescaled to exact L2 norm delta.

    The draw comes from ``numpy.random.default_rng(seed)`` (PCG64), so the
    output is bit-for-bit reproducible for a given ``(delta, seed)``.  A zero
    draw (probability ~0) is retried with the seed incremented.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0:
        return y
    s = int(seed)
    while True:
        e = np.random.default_rng(s).standard_normal(y.grid.node_count)
        nrm = norm_l2(GridFunction.wrap(y.grid, e))
        if nrm > 0:
            break
        s += 1
    return GridFunction.wrap(y.grid, y.values + (delta / nrm) * e)


#: round cap and relative-change tolerance of :func:`power_iteration_norm`
POWER_ITERS, POWER_TOL = 200, 1e-10


def power_iteration_norm(apply_fn, adjoint_fn, grid_in: Grid, grid_out: Grid, *,
                         seed: int = 0) -> float:
    """Estimate the L2->L2 operator norm by power iteration on A*A.

    ``apply_fn`` maps node arrays on ``grid_in`` to node arrays on
    ``grid_out`` and ``adjoint_fn`` maps back; norms are taken with each
    grid's quadrature weights.  Returns 0.0 for the zero operator.  The
    iteration stops once the norm estimate changes by less than
    ``POWER_TOL`` relatively, or after ``POWER_ITERS`` rounds.
    """
    w_in, w_out = grid_in.weights, grid_out.weights
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid_in.node_count)
    nv = norm_l2_values(v, w_in)
    if nv == 0.0:
        return 0.0
    v = v * (1.0 / nv)
    est = 0.0
    for _ in range(POWER_ITERS):
        av = apply_fn(v)
        z = adjoint_fn(av)
        new_est = norm_l2_values(av, w_out)
        zn = norm_l2_values(z, w_in)
        if zn == 0.0:
            return new_est
        if abs(new_est - est) <= POWER_TOL * max(new_est, 1e-300):
            return new_est
        est = new_est
        v = z * (1.0 / zn)
    return est
