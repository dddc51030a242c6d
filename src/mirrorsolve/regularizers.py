"""Strongly convex regularizers with closed-form mirror maps.

Each regularizer R is 1/2-strongly convex (modulus ``sigma = 0.5``) in the
norm of its ``error_norm`` (L2, or L1 for the entropy) and exposes:

* ``value(x)``             -- R(x), possibly +inf outside the effective domain
* ``mirror_map(xi)``       -- grad R*(xi) = argmin_x { R(x) - <xi, x> }
* ``conjugate_value(xi)``  -- R*(xi), evaluated through the mirror map
* ``bregman(pair, xbar)``  -- D_R(xbar, x) for a pair (x, xi) with
                              x = mirror_map(xi), as the solvers make them
* ``bregman_to(xbar)``     -- the same distance to one fixed xbar, for logging
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
    """Base class; subclasses provide value and mirror_map, and override
    error_norm / dual_norm where the rates are not read in L2."""

    #: strong-convexity modulus in the norm of ``error_norm``
    sigma: float = 0.5

    def value(self, x: GridFunction) -> float:
        raise NotImplementedError

    def mirror_map(self, xi: GridFunction) -> GridFunction:
        raise NotImplementedError

    def conjugate_value(self, xi: GridFunction) -> float:
        """R*(xi) = <xi, grad R*(xi)> - R(grad R*(xi)); exact because the
        mirror map is the argmax of the conjugate's defining supremum."""
        z = self.mirror_map(xi)
        return inner(xi, z) - self.value(z)

    def bregman(self, pair, xbar: GridFunction) -> float:
        """D_R(xbar, x) = R(xbar) - R(x) - <xi, xbar - x> for (x, xi) in pair."""
        x, xi = pair
        return self.value(xbar) - self.value(x) - inner(xi, xbar - x)

    def bregman_to(self, xbar: GridFunction):
        """Distance evaluator with R(xbar) precomputed, for per-iterate logging
        against one fixed target."""
        vbar = self.value(xbar)
        w, xbv = xbar.grid.weights, xbar.values

        def dist(x: GridFunction, xi: GridFunction) -> float:
            # inner(xi, xbar - x) on the raw arrays, operand for operand
            t = w * xi.values
            t *= np.subtract(xbv, x.values)
            return vbar - self.value(x) - float(t.sum())

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

    def value(self, x: GridFunction) -> float:
        if self.lower is not None and np.any(x.values < self.lower):
            return np.inf
        return 0.5 * inner(x, x)

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

    def value(self, x: GridFunction) -> float:
        return 0.5 * inner(x, x) + self.beta * norm_l1(x)

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

    def value(self, x: GridFunction) -> float:
        v = x.values
        mn = v.min()
        if mn < 0:
            return np.inf
        wv = x.grid.weights * v
        mass = float(wv.sum())
        if abs(mass - 1.0) > self.mass_tol:
            return np.inf
        if mn > 0:
            t = np.log(v)
            return float(np.multiply(wv, t, out=t).sum())
        # 0 log 0 = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            xlogx = np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)
        return float((x.grid.weights * xlogx).sum())

    def mirror_map(self, xi: GridFunction) -> GridFunction:
        # subtracting the max is exact by shift invariance and avoids overflow
        z = np.subtract(xi.values, xi.values.max())
        np.exp(z, out=z)
        mass = (xi.grid.weights * z).sum()
        return GridFunction.wrap(xi.grid, np.divide(z, mass, out=z))

    def error_norm(self, u: GridFunction) -> float:
        return norm_l1(u)

    def dual_norm(self, u: GridFunction) -> float:
        return norm_linf(u)


def kl_divergence(p: GridFunction, q: GridFunction) -> float:
    """Quadrature-weighted Kullback-Leibler divergence int p log(p/q).

    Independent oracle for the entropy Bregman distance; requires q > 0
    wherever p > 0.
    """
    p.same_grid(q)
    w = p.grid.weights
    pv, qv = p.values, q.values
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pv > 0, pv * np.log(np.where(pv > 0, pv / qv, 1.0)), 0.0)
    return float(np.sum(w * terms))
