"""Self-contained oracle and property suites behind the ``verify`` command.

Each check recomputes a contract through an independent route (explicit
summation, lattice search, finite differences) and compares against the
library implementation at the tolerance the contract states.  The pytest
suite asserts on the same functions; the CLI prints one PASS/FAIL line per
check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    Grid,
    GridFunction,
    inner,
    norm_l2,
)
from .operators import LinearIntegral
from .regularizers import ElasticNet, EntropySimplex, QuadraticBox
from . import experiments

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


def _rel_defect(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# adjoint identities

def check_adjoint_dense(n=120, pairs=100, seed=0):
    """|<Ax,w> - <x,A*w>| <= 1e-10 ||x|| ||w|| ||A|| for a random dense kernel."""
    rng = np.random.default_rng(seed)
    grid = Grid.interval(n)
    op = LinearIntegral.from_matrix(rng.standard_normal((n + 1, n + 1)), grid)
    na = op.norm_bound()
    worst = 0.0
    for _ in range(pairs):
        x = GridFunction(grid, rng.standard_normal(n + 1))
        w = GridFunction(grid, rng.standard_normal(n + 1))
        lhs = inner(op.apply(x), w)
        rhs = inner(x, op.adjoint_apply(w))
        worst = max(worst, abs(lhs - rhs) / (norm_l2(x) * norm_l2(w) * na))
    return _result("adjoint/dense-kernel", worst <= 1e-10, f"max defect {worst:.2e}")


def check_adjoint_entropy_operator(n=2000, pairs=100, seed=1):
    """Adjoint identity for the benchmark integral operator, 1e-9 relative."""
    rng = np.random.default_rng(seed)
    setup = experiments.setup_entropy_experiment(n)
    op = setup.forward
    grid = op.grid_in
    worst = 0.0
    for _ in range(pairs):
        x = GridFunction(grid, rng.standard_normal(grid.node_count))
        w = GridFunction(grid, rng.standard_normal(grid.node_count))
        lhs = inner(op.apply(x), w)
        rhs = inner(x, op.adjoint_apply(w))
        worst = max(worst, abs(lhs - rhs) / max(1e-300, norm_l2(op.apply(x)) * norm_l2(w)))
    return _result("adjoint/integral-operator", worst <= 1e-9, f"max defect {worst:.2e}")


def check_adjoint_elliptic(n=16, pairs=100, seed=2):
    """<F'(c)h, w> = <h, F'(c)*w> to 1e-9 relative at a random c >= 0."""
    rng = np.random.default_rng(seed)
    setup = experiments.setup_pde_experiment(n, solver_tol=1e-12)
    grid = setup.forward.grid_in
    c = GridFunction(grid, np.abs(rng.standard_normal(grid.node_count)) * 0.3)
    lin = setup.forward.linearize(c)
    worst = 0.0
    for _ in range(pairs):
        h = GridFunction(grid, rng.standard_normal(grid.node_count))
        w = GridFunction(grid, rng.standard_normal(grid.node_count))
        fh = lin.tangent(h)
        lhs = inner(fh, w)
        rhs = inner(h, lin.adjoint(w))
        worst = max(worst, abs(lhs - rhs) / max(1e-300, norm_l2(fh) * norm_l2(w)))
    return _result("adjoint/elliptic-derivative", worst <= 1e-9, f"max defect {worst:.2e}")


# ---------------------------------------------------------------------------
# derivative quality

def taylor_order(n=16, eps_grid=None, seed=3, h_scale=60.0):
    """Least-squares slope of log remainder vs log eps for the elliptic map.

    The direction is scaled so the quadratic remainder stays well above the
    CG solve floor across the whole eps range (the map is so mildly nonlinear
    near the benchmark coefficient that unscaled directions drown in solver
    noise below eps ~ 1e-4).
    """
    if eps_grid is None:
        eps_grid = np.logspace(-2, -5, 7)
    rng = np.random.default_rng(seed)
    setup = experiments.setup_pde_experiment(n, solver_tol=1e-14)
    F = setup.forward
    grid = F.grid_in
    c = setup.x_true
    h = rng.standard_normal(grid.node_count)
    h *= h_scale / np.max(np.abs(h))
    h = GridFunction(grid, h)
    base, tangent, _ = F.linearize(c)
    dF = tangent(h)
    rems = []
    for eps in eps_grid:
        pert = F.apply(GridFunction(grid, c.values + eps * h.values))
        rems.append(norm_l2(pert - base - eps * dF))
    slope = np.polyfit(np.log(eps_grid), np.log(rems), 1)[0]
    return float(slope), list(zip(eps_grid, rems))


def check_taylor_elliptic():
    slope, _ = taylor_order()
    return _result("derivative/elliptic-taylor-order", 1.9 <= slope <= 2.1,
                   f"observed order {slope:.3f}")


# ---------------------------------------------------------------------------
# mirror-map argmin oracles

def _lattice_argmin(fun, lo, hi, rounds=4, points=400):
    """Iteratively refined 1-d lattice minimization."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, points)
        vals = fun(xs)
        i = int(np.argmin(vals))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]
    return 0.5 * (lo + hi)


def check_mirror_argmin_separable(seed=4, nodes=24):
    """Node-wise lattice argmin of R(x) - <xi, x> vs the closed-form maps.

    The weighted objective separates across nodes, so each node solves
    min_x w (psi(x) - xi x) and the weight cancels.
    """
    rng = np.random.default_rng(seed)
    grid = Grid.interval(nodes - 1)
    worst = 0.0
    for reg in (QuadraticBox(lower=0.0), QuadraticBox(lower=-0.7), ElasticNet(beta=1.0)):
        xi = GridFunction(grid, rng.uniform(-3, 3, grid.node_count))
        xmap = reg.mirror_map(xi).values
        for j, xij in enumerate(xi.values):
            if isinstance(reg, QuadraticBox):
                lo = reg.lower
                f = lambda xs: 0.5 * xs ** 2 - xij * xs
                xstar = _lattice_argmin(f, lo, abs(xij) + lo + 2.0)
                xstar = max(xstar, lo)
            else:
                f = lambda xs: 0.5 * xs ** 2 + reg.beta * np.abs(xs) - xij * xs
                xstar = _lattice_argmin(f, -abs(xij) - 2.0, abs(xij) + 2.0)
            worst = max(worst, abs(xstar - xmap[j]))
    return _result("mirror-map/separable-argmin", worst <= 1e-6, f"max diff {worst:.2e}")


def check_mirror_argmin_entropy(seed=5):
    """Fine-lattice simplex search on a 3-node grid vs the entropy map."""
    rng = np.random.default_rng(seed)
    grid = Grid.interval(2)
    w = grid.weights  # (0.25, 0.5, 0.25)
    reg = EntropySimplex()
    worst = 0.0
    for _ in range(3):
        xi = rng.uniform(-1.5, 1.5, 3)
        xmap = reg.mirror_map(GridFunction(grid, xi)).values

        def objective(x0, x1):
            x2 = (1.0 - w[0] * x0 - w[1] * x1) / w[2]
            if x2 <= 0:
                return np.inf
            x = np.array([x0, x1, x2])
            return float(np.sum(w * x * np.log(x)) - np.sum(w * xi * x))

        lo0, hi0, lo1, hi1 = 1e-9, 4.0, 1e-9, 2.0
        best = None
        for _round in range(6):
            g0 = np.linspace(lo0, hi0, 80)
            g1 = np.linspace(lo1, hi1, 80)
            vals = np.full((80, 80), np.inf)
            for i, a in enumerate(g0):
                for j, b in enumerate(g1):
                    if a > 0 and b > 0:
                        vals[i, j] = objective(a, b)
            i, j = np.unravel_index(np.argmin(vals), vals.shape)
            best = (g0[i], g1[j])
            d0 = g0[1] - g0[0]
            d1 = g1[1] - g1[0]
            lo0, hi0 = max(1e-12, g0[i] - d0), g0[i] + d0
            lo1, hi1 = max(1e-12, g1[j] - d1), g1[j] + d1
        x0, x1 = best
        x2 = (1.0 - w[0] * x0 - w[1] * x1) / w[2]
        worst = max(worst, float(np.max(np.abs(np.array([x0, x1, x2]) - xmap))))
    return _result("mirror-map/entropy-simplex-argmin", worst <= 1e-6,
                   f"max diff {worst:.2e}")


# ---------------------------------------------------------------------------
# convex-analysis identity battery

def _regularizers():
    return [QuadraticBox(lower=0.0), ElasticNet(beta=0.5), EntropySimplex()]


def _random_dual(reg, grid, rng):
    return GridFunction(grid, rng.uniform(-2.0, 2.0, grid.node_count))


def check_convex_identities(n=40, cases=100, seed=6):
    """Three-point identity, Fenchel equality, strong-convexity lower bound,
    mirror-map Lipschitz bound, and the dual quadratic upper bound, each over
    ``cases`` random instances per regularizer."""
    rng = np.random.default_rng(seed)
    grid = Grid.interval(n)
    results = []
    for reg in _regularizers():
        name = type(reg).__name__
        w3p = wfen = w24 = w26 = w27 = 0.0
        for _ in range(cases):
            xi1 = _random_dual(reg, grid, rng)
            xi2 = _random_dual(reg, grid, rng)
            xi3 = _random_dual(reg, grid, rng)
            x1 = reg.mirror_map(xi1)
            x2 = reg.mirror_map(xi2)
            x = reg.mirror_map(xi3)

            # three-point identity
            lhs = reg.bregman((x2, xi2), x) - reg.bregman((x1, xi1), x)
            rhs = reg.bregman((x2, xi2), x1) + inner(xi2 - xi1, x1 - x)
            w3p = max(w3p, _rel_defect(lhs, rhs))

            # Fenchel equality through the conjugate
            wfen = max(wfen, abs(reg.value(x1) + reg.conjugate_value(xi1)
                                 - inner(xi1, x1)))

            # strong-convexity lower bound in the rate norm
            d = reg.bregman((x1, xi1), x)
            w24 = max(w24, reg.sigma * reg.error_norm(x - x1) ** 2 - d)

            # mirror-map Lipschitz bound in the dual norm
            lip = reg.error_norm(x1 - x2) - reg.dual_norm(xi1 - xi2) / (2 * reg.sigma)
            w26 = max(w26, lip)

            # dual upper bound for pairs on the subdifferential graph
            w27 = max(w27, d - reg.dual_norm(xi3 - xi1) ** 2 / (4 * reg.sigma))
        results.append(_result(f"convex/three-point[{name}]", w3p <= 1e-8,
                               f"max rel defect {w3p:.2e}"))
        results.append(_result(f"convex/fenchel[{name}]", wfen <= 1e-9,
                               f"max defect {wfen:.2e}"))
        results.append(_result(f"convex/lower-bound[{name}]", w24 <= 1e-12,
                               f"max violation {w24:.2e}"))
        results.append(_result(f"convex/mirror-lipschitz[{name}]", w26 <= 1e-12,
                               f"max violation {w26:.2e}"))
        results.append(_result(f"convex/dual-upper-bound[{name}]", w27 <= 1e-12,
                               f"max violation {w27:.2e}"))
    return results


def run_all(fast: bool = False) -> list:
    """Full verification battery; ``fast`` shrinks the grids."""
    out = [
        check_adjoint_dense(n=60 if fast else 120),
        check_adjoint_entropy_operator(n=500 if fast else 2000),
        check_adjoint_elliptic(n=16),
        check_taylor_elliptic(),
        check_mirror_argmin_separable(),
        check_mirror_argmin_entropy(),
    ]
    out.extend(check_convex_identities(cases=30 if fast else 100))
    return out
