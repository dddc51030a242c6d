"""Strongly convex regularizers with closed-form mirror maps.

Each regularizer R is 1/2-strongly convex (modulus ``sigma = 0.5``) in the
norm of its ``error_norm`` (L2, or L1 for the entropy) and exposes:

* ``value(x)``             -- R(x), possibly +inf outside the effective domain
* ``mirror_map(xi)``       -- grad R*(xi) = argmin_x { R(x) - <xi, x> }
* ``conjugate_value(xi)``  -- R*(xi), evaluated through the mirror map
* ``bregman(pair, xbar)``  -- D_R(xbar, x) for a pair (x, xi) with
                              x = mirror_map(xi), as the solvers make them
* ``bregman_to(xbar)``     -- the same distance to one fixed xbar, for logging
                              one state or a stack of states per call
* ``error_norm(u)``        -- the norm the rates are read in; ``dual_norm``
                              is its dual

All inner products and norms are quadrature-weighted, so the same formulas
work on any grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, inner, norm_l1, norm_l2, norm_linf

__all__ = [
    "Regularizer",
    "QuadraticBox",
    "ElasticNet",
    "EntropySimplex",
]


class Regularizer:
    """Base class; subclasses provide the value kernel ``_value`` and
    mirror_map, and override error_norm / dual_norm where the rates are not
    read in L2."""

    #: strong-convexity modulus in the norm of ``error_norm``
    sigma: float = 0.5

    def value(self, x: GridFunction) -> float:
        return float(self._value(x.values, x.grid.weights))

    def _value(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """R of each row of the node values ``v`` (shape (..., n)) under the
        quadrature weights ``w``.

        Every reduction is a ufunc ``reduce`` along the last axis: on each row
        it runs the pairwise order of the 1-D ``a.sum()`` / ``a.min()``, so a
        row of a stack gets the bits it gets alone, and it skips the Python
        frame the ndarray methods enter on every single-state call.
        """
        raise NotImplementedError

    def mirror_map(self, xi: GridFunction) -> GridFunction:
        raise NotImplementedError

    def conjugate_value(self, xi: GridFunction) -> float:
        """R*(xi) = <xi, grad R*(xi)> - R(grad R*(xi)); exact because the
        mirror map is the argmax of the conjugate's defining supremum."""
        z = self.mirror_map(xi)
        return inner(xi, z) - self.value(z)

    def bregman(self, pair, xbar: GridFunction) -> float:
        """D_R(xbar, x) = R(xbar) - R(x) - <xi, xbar - x> for (x, xi) in pair,
        through the ``bregman_to`` evaluator the solvers log with."""
        x, xi = pair
        xbar.same_grid(x)
        xbar.same_grid(xi)
        return float(self.bregman_to(xbar)(x.values, xi.values))

    def bregman_to(self, xbar: GridFunction):
        """Distance evaluator with R(xbar) precomputed, for logging against one
        fixed target.

        The evaluator takes the node values of x and xi, either one state
        (shape (n,)) or a stack of states (shape (m, n), one per row), and
        returns D_R(xbar, x) per row (a NumPy float, or shape (m,)).  Every
        reduction runs along the last axis, so a row of a stack gives the
        bits that the same state gives alone: the solvers log one state per
        call (``run``) or a chunk of states per call (``smd_run``).
        """
        vbar = self.value(xbar)
        w, xbv = xbar.grid.weights, xbar.values

        def dist(x: np.ndarray, xi: np.ndarray):
            # inner(xi, xbar - x) on the raw arrays, operand for operand
            t = w * xi
            t *= np.subtract(xbv, x)
            return vbar - self._value(x, w) - np.add.reduce(t, axis=-1)

        return dist

    # norms in which the rates are read (primal) and the dual-side
    # inequalities hold; L2 on both sides unless a subclass says otherwise
    def error_norm(self, u: GridFunction) -> float:
        return norm_l2(u)

    def dual_norm(self, u: GridFunction) -> float:
        return norm_l2(u)


@dataclass(frozen=True)
class QuadraticBox(Regularizer):
    """R(x) = 1/2 ||x||_L2^2 plus the indicator of {x >= lower} (node-wise).

    ``lower`` is a scalar, or None for the unconstrained quadratic.  The
    mirror map is node-wise clipping: max(xi, lower).
    """

    lower: float = 0.0

    def _value(self, v, w):
        t = w * v
        val = 0.5 * np.add.reduce(np.multiply(t, v, out=t), axis=-1)
        if self.lower is not None:
            below = np.logical_or.reduce(v < self.lower, axis=-1)
            if np.logical_or.reduce(below, axis=None):
                val = np.where(below, np.inf, val)
        return val

    def mirror_map(self, xi: GridFunction) -> GridFunction:
        if self.lower is None:
            return xi
        return GridFunction.wrap(xi.grid, np.maximum(xi.values, self.lower))


@dataclass(frozen=True)
class ElasticNet(Regularizer):
    """R(x) = 1/2 ||x||_L2^2 + beta ||x||_L1; mirror map is soft thresholding."""

    beta: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def _value(self, v, w):
        t = w * v
        sq = np.add.reduce(np.multiply(t, v, out=t), axis=-1)
        t = np.abs(v)
        return 0.5 * sq + self.beta * np.add.reduce(np.multiply(w, t, out=t), axis=-1)

    def mirror_map(self, xi: GridFunction) -> GridFunction:
        v = xi.values
        t = np.abs(v)
        t -= self.beta
        np.maximum(t, 0.0, out=t)
        return GridFunction.wrap(xi.grid, np.multiply(np.sign(v), t, out=t))


@dataclass(frozen=True)
class EntropySimplex(Regularizer):
    """Negative Boltzmann-Shannon entropy restricted to probability densities.

    R(x) = int x log x on {x >= 0, int x = 1} and +inf elsewhere; the mass
    constraint is checked to ``mass_tol`` to absorb quadrature round-off.
    The mirror map is the max-shifted exponential normalized to unit mass,
    which is exactly shift-invariant: adding a constant to xi cancels in the
    normalization.  Strong convexity (sigma = 1/2) holds in the L1 norm by
    Pinsker's inequality, so rates for this regularizer are read in L1 and
    the dual inequalities in the sup norm.
    """

    mass_tol: float = 1e-9

    def _value(self, v, w):
        mn = np.minimum.reduce(v, axis=-1)
        wv = w * v
        mass = np.add.reduce(wv, axis=-1)
        if np.logical_and.reduce((mn > 0) & (abs(mass - 1.0) <= self.mass_tol), axis=None):
            t = np.log(v)
            return np.add.reduce(np.multiply(wv, t, out=t), axis=-1)
        # rows with a zero node take 0 log 0 = 0, summed as w (x log x);
        # the others keep (w x) log x
        with np.errstate(divide="ignore", invalid="ignore"):
            xlogx = np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)
            t = np.where((mn > 0)[..., None], wv * np.log(v), w * xlogx)
        val = np.add.reduce(t, axis=-1)
        return np.where((mn < 0) | (abs(mass - 1.0) > self.mass_tol), np.inf, val)

    def mirror_map(self, xi: GridFunction) -> GridFunction:
        # subtracting the max is exact by shift invariance and avoids overflow
        z = np.subtract(xi.values, np.maximum.reduce(xi.values))
        np.exp(z, out=z)
        mass = np.add.reduce(xi.grid.weights * z)
        return GridFunction.wrap(xi.grid, np.divide(z, mass, out=z))

    def error_norm(self, u: GridFunction) -> float:
        return norm_l1(u)

    def dual_norm(self, u: GridFunction) -> float:
        return norm_linf(u)

