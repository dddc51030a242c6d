"""Strongly convex regularizers with closed-form mirror maps and conjugates.

Each regularizer R is 1/2-strongly convex (modulus ``sigma = 0.5``) in the
norm of its ``error_norm`` (L2, or L1 for the entropy).  It works on node
values ``v`` and the quadrature weights ``w`` of their grid, as the solvers
keep their states, and exposes:

* ``value(v, w)``          -- R of one state, +inf outside the effective
                              domain
* ``conjugate(v, w)``      -- R*(xi) = sup_x { <xi, x> - R(x) } of each row
                              of the node values ``v`` of xi, one state or a
                              stack of states
* ``mirror_map(v, w)``     -- grad R*(xi) = argmin_x { R(x) - <xi, x> } for
                              the node values ``v`` of xi, in a fresh array
* ``bregman_to(xbar)``     -- the distance D_R(xbar, x) to one fixed grid
                              function xbar, for x = mirror_map(xi) as the
                              solvers make it: an evaluator of the dual state
                              xi alone, one state or a stack of states
* ``error_norm(v, w)``     -- the norm the rates are read in; ``dual_norm``
                              is its dual

All inner products and norms are quadrature-weighted, so the same formulas
work on any grid.  R* lives with the regularizers, beside the mirror map
that is its gradient; ``checks`` tests it against lattice optima of the
written-out node objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, norm_l1_values, norm_l2_values, norm_linf_values

__all__ = [
    "Regularizer",
    "QuadraticBox",
    "ElasticNet",
    "EntropySimplex",
]


class Regularizer:
    """Base class; subclasses provide ``value``, ``conjugate`` and
    ``mirror_map``, and override error_norm / dual_norm where the rates are
    not read in L2."""

    #: strong-convexity modulus in the norm of ``error_norm``
    sigma: float = 0.5

    def value(self, v: np.ndarray, w: np.ndarray) -> float:
        """R of the node values ``v`` of one state (shape (n,)) under the
        quadrature weights ``w``; +inf outside the effective domain."""
        raise NotImplementedError

    def conjugate(self, v: np.ndarray, w: np.ndarray):
        """R*(xi) of each row of the node values ``v`` of xi (shape (..., n))
        under the quadrature weights ``w``: a scalar for one state (shape
        (n,)), shape (m,) for a stack of m states.

        Every reduction is a ufunc ``reduce`` along the last axis: on each row
        it runs the pairwise order of the 1-D ``a.sum()`` / ``a.max()``, so a
        row of a stack gets the bits it gets alone, and it skips the Python
        frame the ndarray methods enter on every single-state call.
        """
        raise NotImplementedError

    def mirror_map(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bregman_to(self, xbar: GridFunction):
        """Distance evaluator with R(xbar) precomputed, for logging against one
        fixed target.  For x = mirror_map(xi), the Fenchel-Young form
        D_R(xbar, x) = R(xbar) + R*(xi) - <xi, xbar> is that distance written
        as a dual gap, so the evaluator reads the dual state alone.

        It takes the node values of xi on the grid of ``xbar``, either one
        state (shape (n,)) or a stack of states (shape (m, n), one per row),
        and returns D_R(xbar, x) per row (a NumPy float, or shape (m,)).
        Every reduction runs along the last axis, so a row of a stack gives
        the bits that the same state gives alone: the solvers log one state
        per call (``run``) or a chunk of states per call (``smd_run``).  A
        target with R(xbar) not finite, outside the domain of R, raises
        ValueError.
        """
        w, xb = xbar.grid.weights, xbar.values
        vbar = float(self.value(xb, w))
        if not np.isfinite(vbar):
            raise ValueError(f"R(xbar) = {vbar} is not finite: xbar lies outside dom R")

        def dist(v: np.ndarray):
            # the pairing <xi, xbar> = sum(w xi xbar) of the node values v of
            # xi, formed as (w * v) * xbar
            t = w * v
            return vbar + self.conjugate(v, w) - np.add.reduce(np.multiply(t, xb, out=t), axis=-1)

        return dist

    # norms in which the rates are read (primal) and the dual-side
    # inequalities hold; L2 on both sides unless a subclass says otherwise
    def error_norm(self, v: np.ndarray, w: np.ndarray) -> float:
        return norm_l2_values(v, w)

    def dual_norm(self, v: np.ndarray, w: np.ndarray) -> float:
        return norm_l2_values(v, w)


@dataclass(frozen=True)
class QuadraticBox(Regularizer):
    """R(x) = 1/2 ||x||_L2^2 plus the indicator of {x >= lower} (node-wise).

    ``lower`` is a scalar below +inf, or -inf for the unconstrained
    quadratic.  The mirror map is node-wise clipping: max(xi, lower).
    """

    lower: float = 0.0

    def __post_init__(self):
        if not self.lower < np.inf:
            raise ValueError("lower must be below +inf (-inf for no bound)")

    def value(self, v, w):
        if np.minimum.reduce(v) < self.lower:
            return np.inf
        t = w * v
        return 0.5 * np.add.reduce(np.multiply(t, v, out=t))

    def conjugate(self, v, w):
        # sum w x (xi - x/2) at the maximizer x = max(xi, lower): xi^2/2 where
        # xi >= lower, lower xi - lower^2/2 below it
        x = np.maximum(v, self.lower)
        t = np.subtract(v, 0.5 * x)
        t *= w
        return np.add.reduce(np.multiply(t, x, out=t), axis=-1)

    def mirror_map(self, v, w):
        return np.maximum(v, self.lower)


@dataclass(frozen=True)
class ElasticNet(Regularizer):
    """R(x) = 1/2 ||x||_L2^2 + beta ||x||_L1; mirror map is soft thresholding."""

    beta: float = 1.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    def value(self, v, w):
        t = w * v
        sq = np.add.reduce(np.multiply(t, v, out=t))
        t = np.abs(v)
        return 0.5 * sq + self.beta * np.add.reduce(np.multiply(w, t, out=t))

    def conjugate(self, v, w):
        # 1/2 sum w max(|xi| - beta, 0)^2
        t = np.abs(v)
        t -= self.beta
        np.maximum(t, 0.0, out=t)
        u = w * t
        return 0.5 * np.add.reduce(np.multiply(u, t, out=u), axis=-1)

    def mirror_map(self, v, w):
        t = np.abs(v)
        t -= self.beta
        np.maximum(t, 0.0, out=t)
        return np.multiply(np.sign(v), t, out=t)


@dataclass(frozen=True)
class EntropySimplex(Regularizer):
    """Negative Boltzmann-Shannon entropy restricted to probability densities.

    R(x) = int x log x on {x >= 0, int x = 1} and +inf elsewhere; the mass
    constraint is checked to the class constant ``mass_tol`` to absorb
    quadrature round-off.
    The mirror map is the max-shifted exponential normalized to unit mass,
    which is exactly shift-invariant: adding a constant to xi cancels in the
    normalization.  Strong convexity (sigma = 1/2) holds in the L1 norm by
    Pinsker's inequality, so rates for this regularizer are read in L1 and
    the dual inequalities in the sup norm.
    """

    mass_tol = 1e-9

    def value(self, v, w):
        wv = w * v
        if np.minimum.reduce(v) < 0 or abs(np.add.reduce(wv) - 1.0) > self.mass_tol:
            return np.inf
        # a zero node takes log 1, so 0 log 0 = 0
        t = np.log(np.where(v > 0, v, 1.0))
        return np.add.reduce(np.multiply(wv, t, out=t))

    def conjugate(self, v, w):
        # max xi + log sum w e^(xi - max xi); the shift avoids overflow
        m = np.maximum.reduce(v, axis=-1, keepdims=True)
        z = np.subtract(v, m)
        np.exp(z, out=z)
        z *= w
        return m[..., 0] + np.log(np.add.reduce(z, axis=-1))

    def mirror_map(self, v, w):
        # subtracting the max is exact by shift invariance and avoids overflow
        z = np.subtract(v, np.maximum.reduce(v))
        np.exp(z, out=z)
        mass = np.add.reduce(w * z)
        return np.divide(z, mass, out=z)

    def error_norm(self, v, w):
        return norm_l1_values(v, w)

    def dual_norm(self, v, w):
        return norm_linf_values(v)

