"""Strongly convex regularizers with closed-form mirror maps.

Each regularizer R is 1/2-strongly convex (modulus ``sigma = 0.5``) in the
norm of its ``error_norm`` (L2, or L1 for the entropy).  It works on node
values ``v`` and the quadrature weights ``w`` of their grid, as the solvers
keep their states, and exposes:

* ``value(v, w)``          -- R of each row of ``v``, possibly +inf outside
                              the effective domain
* ``mirror_map(v, w)``     -- grad R*(xi) = argmin_x { R(x) - <xi, x> } for
                              the node values ``v`` of xi, in a fresh array
* ``bregman_to(xbar)``     -- the distance D_R(xbar, x) to one fixed grid
                              function xbar, for pairs (x, xi) with
                              x = mirror_map(xi) as the solvers make them: an
                              evaluator of one state or a stack of states
* ``error_norm(v, w)``     -- the norm the rates are read in; ``dual_norm``
                              is its dual

All inner products and norms are quadrature-weighted, so the same formulas
work on any grid.  The conjugate R* lives with the oracles, in
``checks.conjugate_oracle``.
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
    """Base class; subclasses provide ``value`` and ``mirror_map``, and
    override error_norm / dual_norm where the rates are not read in L2."""

    #: strong-convexity modulus in the norm of ``error_norm``
    sigma: float = 0.5

    def value(self, v: np.ndarray, w: np.ndarray):
        """R of each row of the node values ``v`` (shape (..., n)) under the
        quadrature weights ``w``: a scalar for one state (shape (n,)), shape
        (m,) for a stack of m states.

        Every reduction is a ufunc ``reduce`` along the last axis: on each row
        it runs the pairwise order of the 1-D ``a.sum()`` / ``a.min()``, so a
        row of a stack gets the bits it gets alone, and it skips the Python
        frame the ndarray methods enter on every single-state call.
        """
        raise NotImplementedError

    def mirror_map(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bregman_to(self, xbar: GridFunction):
        """Distance evaluator with R(xbar) precomputed, for logging against one
        fixed target: D_R(xbar, x) = R(xbar) - R(x) - <xi, xbar - x>.

        The evaluator takes the node values of x and xi on the grid of
        ``xbar``, either one state (shape (n,)) or a stack of states (shape
        (m, n), one per row), and returns D_R(xbar, x) per row (a NumPy
        float, or shape (m,)).  Every reduction runs along the last axis, so
        a row of a stack gives the bits that the same state gives alone: the
        solvers log one state per call (``run``) or a chunk of states per
        call (``smd_run``).
        """
        w, xbv = xbar.grid.weights, xbar.values
        vbar = float(self.value(xbv, w))

        def dist(x: np.ndarray, xi: np.ndarray):
            # the pairing <xi, xbar - x> = sum(w xi (xbar - x)), formed as
            # (w * xi) * (xbar - x)
            t = w * xi
            t *= np.subtract(xbv, x)
            return vbar - self.value(x, w) - np.add.reduce(t, axis=-1)

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

    ``lower`` is a scalar, or None for the unconstrained quadratic.  The
    mirror map is node-wise clipping: max(xi, lower).
    """

    lower: float = 0.0

    def value(self, v, w):
        t = w * v
        val = 0.5 * np.add.reduce(np.multiply(t, v, out=t), axis=-1)
        if self.lower is not None:
            below = np.logical_or.reduce(v < self.lower, axis=-1)
            if np.logical_or.reduce(below, axis=None):
                val = np.where(below, np.inf, val)
        return val

    def mirror_map(self, v, w):
        if self.lower is None:
            return v.copy()
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
        sq = np.add.reduce(np.multiply(t, v, out=t), axis=-1)
        t = np.abs(v)
        return 0.5 * sq + self.beta * np.add.reduce(np.multiply(w, t, out=t), axis=-1)

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

