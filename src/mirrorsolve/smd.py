"""Stochastic mirror descent for systems F_i(x) = y_i with exact data.

Each step samples one block uniformly at random and applies the
deterministic iteration's :func:`~mirrorsolve.landweber.dual_step` to that
block alone:

    xi_{k+1} = xi_k - gamma_k F'_{i_k}(x_k)^* (F_{i_k}(x_k) - y_{i_k})
    x_{k+1}  = mirror_map(xi_{k+1})

:func:`smd_run` runs the Landweber loop with a drawn block per state,
:func:`smd_step` as the transition and a max-iter stop, so with one block
and a constant schedule a path is the Landweber iteration, bit for bit, with
the same :class:`~mirrorsolve.landweber.RunResult` (stop reason ``maxiter``).

Under the step condition sup_k gamma_k < 4 sigma (1 - eta) / L^2 (with
sum gamma_k = inf) the Bregman distance to a solution satisfying the
range-type source condition decays like 1/s_k along the partial sums
s_k = sum_{l<=k} gamma_l; :func:`smd_run` logs s_k * Delta_k so that claim
is directly checkable.  The block indices of a path come from one batched
draw, ``default_rng(seed).integers(N, size=k_max + 1)``, which yields the
same stream as k_max + 1 scalar draws, so every trajectory is a
reproducible artifact of its seed; the last index is the terminal state's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

import numpy as np

from .experiments import check_grid_size
from .grids import Grid, GridFunction, GridMismatchError
from .landweber import MaxIterStop, RunResult, _descend, csv_number, dual_step, write_csv
from .operators import LinearIntegral
from .regularizers import Regularizer

__all__ = [
    "SystemProblem",
    "ConstantSchedule",
    "PolynomialSchedule",
    "SmdRecord",
    "SourcedInstance",
    "smd_step",
    "smd_run",
    "build_sourced_instance",
    "write_rate_csv",
]


@dataclass(frozen=True)
class SystemProblem:
    """N forward operators with a shared input grid and exact data blocks."""

    operators: tuple
    data: tuple

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "data", tuple(self.data))
        if len(self.operators) == 0 or len(self.operators) != len(self.data):
            raise ValueError("need one data block per operator")
        g = self.operators[0].grid_in
        for op, y in zip(self.operators, self.data):
            if op.grid_in != g:
                raise GridMismatchError("operators must share one input grid")
            if y.grid != op.grid_out:
                raise GridMismatchError("data block does not match operator output grid")

    @property
    def n_blocks(self) -> int:
        return len(self.operators)

    @property
    def grid_in(self) -> Grid:
        return self.operators[0].grid_in

    def norm_bound(self) -> float:
        return max(op.norm_bound() for op in self.operators)


@dataclass(frozen=True)
class ConstantSchedule:
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def at(self, k: int) -> float:
        return self.gamma

    @property
    def sup(self) -> float:
        return self.gamma


@dataclass(frozen=True)
class PolynomialSchedule:
    """gamma_k = gamma0 (k+1)^(-alpha) with alpha in (0,1), so the partial
    sums still diverge."""

    gamma0: float
    alpha: float

    def __post_init__(self):
        if not self.gamma0 > 0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")

    def at(self, k: int) -> float:
        return self.gamma0 * (k + 1) ** (-self.alpha)

    @property
    def sup(self) -> float:
        return self.gamma0


def validate_schedule(sched, L: float, sigma: float = 0.5, eta: float = 0.0) -> None:
    """Reject schedules violating sup gamma_k < 4 sigma (1-eta) / L^2."""
    if L > 0 and not sched.sup < 4.0 * sigma * (1.0 - eta) / (L * L):
        raise ValueError(
            f"schedule sup {sched.sup:g} violates the step bound "
            f"{4.0 * sigma * (1.0 - eta) / (L * L):g} for L={L:g}")


class SmdRecord(NamedTuple):
    """Per-index diagnostics; ``i_k``/``gamma_k``/``block_residual`` describe
    the transition taken from state k and are None on the final record."""

    k: int
    i_k: int = None
    gamma_k: float = None
    s_k: float = None
    delta_k: float = None
    block_residual: float = None

    @property
    def s_delta(self) -> float:
        if self.delta_k is None:
            return None
        return self.s_k * self.delta_k


def smd_step(reg: Regularizer, sched, w: np.ndarray, k: int, xi: np.ndarray,
             g: np.ndarray):
    """Step k from the dual state ``xi`` along the node values ``g`` of the
    picked block's gradient, under the quadrature weights ``w``; returns
    (x', xi', gamma_k), the states as fresh arrays."""
    gamma = sched.at(k)
    x, xi = dual_step(reg, xi, g, gamma, w)
    return x, xi, gamma


def smd_run(prob: SystemProblem, reg: Regularizer, sched, k_max: int, seed: int,
            *, x_truth: GridFunction = None, xi0: GridFunction = None) -> RunResult:
    """Run ``k_max`` stochastic steps; records cover states k = 0 .. k_max,
    and the result stops at k_max for reason ``maxiter``.

    A truth or start off the problem's input grid, a schedule over the step
    bound, or a ``k_max`` below 0 or above
    :data:`~mirrorsolve.landweber.SAFETY_CAP` is refused before the first
    step.  With ``x_truth``, each record carries the Bregman distance
    Delta_k and, through ``s_delta``, s_k * Delta_k for the inclusive partial
    sum s_k of the schedule.  A NaN or infinite block residual norm, the
    terminal state's included, raises ``NonFiniteResidualError`` at once.
    Each step is one :func:`smd_step` call, read as a module global per path.
    """
    grid = prob.grid_in
    if xi0 is not None and xi0.grid != grid:
        raise GridMismatchError("xi0 does not live on the problem's input grid")
    validate_schedule(sched, prob.norm_bound(), sigma=reg.sigma)
    stop = MaxIterStop(k_max)
    picks = np.random.default_rng(seed).integers(prob.n_blocks, size=k_max + 1).tolist()
    w, step = grid.weights, smd_step
    s = 0.0

    def transition(k, xi, g, r, rn):
        nonlocal s
        x, xi, gamma = step(reg, sched, w, k, xi, g)
        s += gamma
        return x, xi, (picks[k], gamma, s)

    def build(k0, rns, moves, deltas, seen):
        # the stopped state takes no step, but its s_k adds gamma_{k_max}
        return [SmdRecord(k, *move, delta, rn) if move else
                SmdRecord(k, s_k=s + sched.at(k), delta_k=delta)
                for k, move, delta, rn in zip(count(k0), moves, deltas, rns)]

    xi = np.zeros(grid.node_count) if xi0 is None else xi0.values
    return _descend(reg, grid, xi, prob.operators, prob.data, picks, transition, stop, build,
                    x_truth)


@dataclass(frozen=True)
class SourcedInstance:
    """Linear system whose solution satisfies the dual source condition by
    construction: x_true = mirror_map(xi0 + sum_i A_i^* lam_true_i), with
    data y_i = A_i x_true, not all of them zero."""

    problem: SystemProblem
    x_true: GridFunction
    lam_true: tuple
    xi0: GridFunction


#: width of the Gaussian kernel that smooths the random blocks
SMOOTHING = 0.12


def build_sourced_instance(N: int, n: int, reg: Regularizer, seed: int, *,
                           lam_scale: float = 4.0) -> SourcedInstance:
    """Random ill-conditioned linear blocks with a built-in source element.

    Kernels are white noise smoothed on both sides by a Gaussian kernel of
    width ``SMOOTHING`` and rescaled to unit operator norm; the smoothing
    gives the blocks a decaying spectrum, so convergence is genuinely slow
    and rate products stay far above the floating-point floor over desk-scale
    horizons.  A rescaled block takes its unit norm as given, so each block's
    norm is estimated once, by one power iteration.  ``lam_scale`` sizes the
    dual source element; 0 gives the trivial instance
    x_true = mirror_map(xi0).  An instance whose data blocks are all
    identically zero has no rate to show and raises ValueError.  With the
    elastic net that happens when max |sum_i A_i^* lam_true_i| is at most
    beta, so x_true = 0 is the zero start itself; ``lam_scale = 0`` is
    refused for it.
    """
    check_grid_size("smd_synthetic", n, N)
    rng = np.random.default_rng(seed)
    grid = Grid.interval(n)
    t = grid.coords[0]
    S = np.exp(-0.5 * ((t[:, None] - t[None, :]) / SMOOTHING) ** 2)
    S /= np.add.reduce(S, axis=1, keepdims=True)

    ops = []
    for _ in range(N):
        K = S @ rng.standard_normal((grid.node_count, grid.node_count)) @ S
        nrm = LinearIntegral(grid, kernel=K).norm_bound()
        ops.append(LinearIntegral(grid, kernel=K / nrm, analytic_norm_bound=1.0))

    lam_true = tuple(GridFunction(grid, lam_scale * rng.standard_normal(grid.node_count))
                     for _ in range(N))
    xi0 = grid.zeros()
    xi_true = xi0.values
    for op, lam in zip(ops, lam_true):
        xi_true = xi_true + op.adjoint_values(lam.values)
    x_true = GridFunction(grid, reg.mirror_map(xi_true, grid.weights))
    data = tuple(GridFunction(grid, op.apply_values(x_true.values)) for op in ops)
    if not any(np.logical_or.reduce(y.values) for y in data):
        raise ValueError(f"sourced instance N = {N}, n = {n}, seed = {seed} is empty: "
                         f"every data block is identically zero")
    return SourcedInstance(SystemProblem(tuple(ops), data), x_true, lam_true, xi0)


class _FormatOnce(dict):
    """csv_number of each distinct key, computed on first lookup."""

    def __missing__(self, v):
        text = self[v] = csv_number(v)
        return text


def write_rate_csv(run: RunResult, path) -> None:
    """CSV log: columns k,i_k,gamma_k,s_k,delta_k,s_k_delta_k.

    Each field reads as ``csv_number`` prints it, formatted inline.  Each
    distinct step size is formatted once per file (a constant schedule has
    one); step sizes are positive, so keys that compare equal print alike.
    """
    gammas = _FormatOnce()
    write_csv(path, "k,i_k,gamma_k,s_k,delta_k,s_k_delta_k",
              (f"{k},{'' if i is None else i},{gammas[g]},{float(s)!r},,\n" if d is None else
               f"{k},{'' if i is None else i},{gammas[g]},{float(s)!r},{float(d)!r},"
               f"{float(s * d)!r}\n"
               for k, i, g, s, d, _ in run.records))
