"""Self-contained oracle and property suites behind the ``verify`` command.

Each check runs the code the solvers run (the raw linearization, the raw
mirror maps and conjugates, the ``bregman_to`` evaluator the solvers log
with) and compares it against an independent route (explicit summation,
lattice search over the written-out node objectives, finite differences, a
KL oracle) at the tolerance the contract states.  The pytest
suite asserts on the same functions; the CLI prints one PASS/FAIL line per
check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction, norm_l2_values
from .operators import LinearIntegral
from .regularizers import ElasticNet, EntropySimplex, QuadraticBox
from . import experiments

__all__ = ["CheckResult", "kl_divergence", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


def _rel_defect(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _pair(w, u, v):
    """The quadrature pairing sum(w_i u_i v_i) of the node arrays ``u`` and
    ``v``, formed as (w * u) * v."""
    t = w * u
    return float(np.add.reduce(np.multiply(t, v, out=t)))


# ---------------------------------------------------------------------------
# adjoint identities

def _adjoint_row(name, rng, grid, fwd, adj, scale, pairs, tol):
    """max |<fwd x, y> - <x, adj y>| / scale(q, x, fwd x, y) over random
    pairs of node arrays on ``grid``, drawing x, then y, per pair; q are the
    grid's quadrature weights."""
    q = grid.weights
    worst = 0.0
    for _ in range(pairs):
        x = rng.standard_normal(grid.node_count)
        y = rng.standard_normal(grid.node_count)
        fx = fwd(x)
        worst = max(worst, abs(_pair(q, fx, y) - _pair(q, x, adj(y))) / scale(q, x, fx, y))
    return _result(name, worst <= tol, f"max defect {worst:.2e}")


def _output_scale(q, x, fx, y):
    return max(1e-300, norm_l2_values(fx, q) * norm_l2_values(y, q))


def check_adjoint_dense(n=120, pairs=100, seed=0):
    """|<Ax,w> - <x,A*w>| <= 1e-10 ||x|| ||w|| ||A|| for a random dense kernel."""
    rng = np.random.default_rng(seed)
    grid = Grid.interval(n)
    op = LinearIntegral(grid, kernel=rng.standard_normal((n + 1, n + 1)))
    na = op.norm_bound()
    return _adjoint_row("adjoint/dense-kernel", rng, grid, op.apply_values, op.adjoint_values,
                        lambda q, x, fx, y: norm_l2_values(x, q) * norm_l2_values(y, q) * na,
                        pairs, 1e-10)


def check_adjoint_entropy_operator(n=2000, pairs=100, seed=1):
    """Adjoint identity for the benchmark integral operator, 1e-9 relative."""
    rng = np.random.default_rng(seed)
    op = experiments.setup_entropy_experiment(n).forward
    return _adjoint_row("adjoint/integral-operator", rng, op.grid_in, op.apply_values,
                        op.adjoint_values, _output_scale, pairs, 1e-9)


def check_adjoint_elliptic(n=16, pairs=100, seed=2):
    """<F'(c)h, w> = <h, F'(c)*w> to 1e-9 relative at a random c >= 0."""
    rng = np.random.default_rng(seed)
    setup = experiments.setup_pde_experiment(n, solver_tol=1e-12)
    grid = setup.forward.grid_in
    c = np.abs(rng.standard_normal(grid.node_count)) * 0.3
    _, tangent, adjoint = setup.forward.linearize_values(c)
    return _adjoint_row("adjoint/elliptic-derivative", rng, grid, tangent, adjoint,
                        _output_scale, pairs, 1e-9)


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
    value, tangent, _ = F.linearize_values(c.values)
    dF = tangent(h)
    rems = []
    for eps in eps_grid:
        pert = F.linearize_values(c.values + eps * h)[0]
        rems.append(norm_l2_values(pert - value - eps * dF, grid.weights))
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
    """Node-wise lattice argmin of R(x) - <xi, x> vs the closed-form maps,
    and its minimum vs the closed-form conjugate.

    The weighted objective separates across nodes, so each node solves
    min_x w (psi(x) - xi x) and the weight cancels in the argmin; the minima,
    weighted and summed, are -R*(xi).  Each regularizer comes with its node
    objective and a bracket containing the minimizer.
    """
    rng = np.random.default_rng(seed)
    grid = Grid.interval(nodes - 1)
    w = grid.weights
    box = lambda xs, z: 0.5 * xs ** 2 - z * xs
    worst = worst_conj = 0.0
    for reg, objective, bracket in (
            (QuadraticBox(lower=0.0), box, lambda z: (0.0, abs(z) + 2.0)),
            (QuadraticBox(lower=-0.7), box, lambda z: (-0.7, abs(z) - 0.7 + 2.0)),
            (ElasticNet(beta=1.0), lambda xs, z: 0.5 * xs ** 2 + np.abs(xs) - z * xs,
             lambda z: (-abs(z) - 2.0, abs(z) + 2.0))):
        xi = rng.uniform(-3, 3, grid.node_count)
        xstar = np.array([_lattice_argmin(lambda xs: objective(xs, z), *bracket(z)) for z in xi])
        worst = max(worst, float(np.max(np.abs(xstar - reg.mirror_map(xi, w)))))
        worst_conj = max(worst_conj, abs(float(reg.conjugate(xi, w))
                                         + np.sum(w * objective(xstar, xi))))
    return _result("mirror-map/separable-argmin", worst <= 1e-6 and worst_conj <= 1e-9,
                   f"max diff {worst:.2e}, conjugate defect {worst_conj:.2e}")


def check_mirror_argmin_entropy(seed=5):
    """Fine-lattice simplex search on a 3-node grid vs the entropy map, and
    the minimum found vs the entropy conjugate, -R*(xi).

    Each of six rounds evaluates the objective on an 80 x 80 lattice of
    (x0, x1), with x2 fixed by unit mass, and refines around the minimum.
    """
    rng = np.random.default_rng(seed)
    grid = Grid.interval(2)
    w = grid.weights  # (0.25, 0.5, 0.25)
    reg = EntropySimplex()
    worst = worst_conj = 0.0
    for _ in range(3):
        xi = rng.uniform(-1.5, 1.5, 3)
        xmap = reg.mirror_map(xi, w)
        lo0, hi0, lo1, hi1 = 1e-9, 4.0, 1e-9, 2.0
        for _round in range(6):
            g0 = np.linspace(lo0, hi0, 80)
            g1 = np.linspace(lo1, hi1, 80)
            x0, x1 = np.meshgrid(g0, g1, indexing="ij")
            x = np.stack([x0, x1, (1.0 - w[0] * x0 - w[1] * x1) / w[2]], axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = (np.add.reduce(w * x * np.log(x), axis=-1)
                        - np.add.reduce(w * xi * x, axis=-1))
            vals[~(x > 0).all(axis=-1)] = np.inf
            i, j = np.unravel_index(np.argmin(vals), vals.shape)
            best = x[i, j]
            d0, d1 = g0[1] - g0[0], g1[1] - g1[0]
            lo0, hi0 = max(1e-12, g0[i] - d0), g0[i] + d0
            lo1, hi1 = max(1e-12, g1[j] - d1), g1[j] + d1
        worst = max(worst, float(np.max(np.abs(best - xmap))))
        worst_conj = max(worst_conj, abs(float(reg.conjugate(xi, w)) + vals[i, j]))
    return _result("mirror-map/entropy-simplex-argmin", worst <= 1e-6 and worst_conj <= 1e-9,
                   f"max diff {worst:.2e}, conjugate defect {worst_conj:.2e}")


# ---------------------------------------------------------------------------
# convex-analysis identity battery

def _random_dual(grid, rng):
    return rng.uniform(-2.0, 2.0, grid.node_count)


def check_convex_identities(n=40, cases=100, seed=6):
    """Three-point identity, Fenchel equality, strong-convexity lower bound,
    mirror-map Lipschitz bound, and the dual quadratic upper bound, each over
    ``cases`` random instances per regularizer."""
    rng = np.random.default_rng(seed)
    grid = Grid.interval(n)
    w = grid.weights
    results = []
    for reg in (QuadraticBox(lower=0.0), ElasticNet(beta=0.5), EntropySimplex()):
        w3p = wfen = w24 = w26 = w27 = 0.0
        for _ in range(cases):
            xi1, xi2, xi3 = (_random_dual(grid, rng) for _ in range(3))
            x1, x2, x = (reg.mirror_map(xi, w) for xi in (xi1, xi2, xi3))
            # D(xbar, x_j) for x_j = mirror_map(xi_j), from xi_j alone
            to_x, to_x1 = (reg.bregman_to(GridFunction(grid, v)) for v in (x, x1))
            d1, d2 = float(to_x(xi1)), float(to_x(xi2))

            # three-point identity
            lhs = d2 - d1
            rhs = float(to_x1(xi2)) + _pair(w, xi2 - xi1, x1 - x)
            w3p = max(w3p, _rel_defect(lhs, rhs))

            # Fenchel equality R(x) + R*(xi) = <xi, x> holds exactly when
            # x = grad R*(xi), so a wrong mirror map breaks it
            wfen = max(wfen, abs(float(reg.value(x1, w)) + float(reg.conjugate(xi1, w))
                                 - _pair(w, xi1, x1)))

            # strong-convexity lower bound in the rate norm
            w24 = max(w24, reg.sigma * reg.error_norm(x - x1, w) ** 2 - d1)

            # mirror-map Lipschitz bound in the dual norm
            lip = (reg.error_norm(x1 - x2, w)
                   - reg.dual_norm(xi1 - xi2, w) / (2 * reg.sigma))
            w26 = max(w26, lip)

            # dual upper bound for pairs on the subdifferential graph
            w27 = max(w27, d1 - reg.dual_norm(xi3 - xi1, w) ** 2 / (4 * reg.sigma))
        for row, worst, tol, what in (("three-point", w3p, 1e-8, "max rel defect"),
                                      ("fenchel", wfen, 1e-9, "max defect"),
                                      ("lower-bound", w24, 1e-12, "max violation"),
                                      ("mirror-lipschitz", w26, 1e-12, "max violation"),
                                      ("dual-upper-bound", w27, 1e-12, "max violation")):
            results.append(_result(f"convex/{row}[{type(reg).__name__}]", worst <= tol,
                                   f"{what} {worst:.2e}"))
    return results


def kl_divergence(pv: np.ndarray, qv: np.ndarray, w: np.ndarray) -> float:
    """Quadrature-weighted Kullback-Leibler divergence int p log(p/q), for the
    node values ``pv`` and ``qv`` of p and q under the quadrature weights ``w``.

    Independent oracle for the entropy Bregman distance; requires q > 0
    wherever p > 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pv > 0, pv * np.log(np.where(pv > 0, pv / qv, 1.0)), 0.0)
    return float(np.sum(w * terms))


def check_bregman_entropy_kl(n=40, cases=100, seed=7):
    """The solvers' entropy Bregman evaluator equals KL(xbar, x) to 1e-8 on
    random pairs of unit-mass densities."""
    rng = np.random.default_rng(seed)
    grid = Grid.interval(n)
    reg = EntropySimplex()
    worst = 0.0
    for _ in range(cases):
        xbar = GridFunction(grid, reg.mirror_map(_random_dual(grid, rng), grid.weights))
        xi = _random_dual(grid, rng)
        x = reg.mirror_map(xi, grid.weights)
        d = float(reg.bregman_to(xbar)(xi))
        worst = max(worst, abs(d - kl_divergence(xbar.values, x, grid.weights)))
    return _result("bregman/entropy-kl", worst <= 1e-8, f"max defect {worst:.2e}")


def run_all() -> list:
    """The full verification battery, one result per check row."""
    return [
        check_adjoint_dense(),
        check_adjoint_entropy_operator(),
        check_adjoint_elliptic(),
        check_taylor_elliptic(),
        check_mirror_argmin_separable(),
        check_mirror_argmin_entropy(),
        *check_convex_identities(),
        check_bregman_entropy_kl(),
    ]
