"""Stochastic mirror descent for systems F_i(x) = y_i with exact data.

Each step samples one block uniformly at random and applies the
deterministic iteration's :func:`~mirrorsolve.landweber.dual_step` to that
block alone:

    xi_{k+1} = xi_k - gamma_k F'_{i_k}(x_k)^* (F_{i_k}(x_k) - y_{i_k})
    x_{k+1}  = mirror_map(xi_{k+1})

:func:`smd_run` runs the Landweber loop on a
:class:`~mirrorsolve.landweber.SystemProblem` with a drawn block per state,
:func:`smd_step` as the transition and a max-iter stop, so with one block
and a constant schedule a path is the Landweber iteration, bit for bit, with
the same :class:`~mirrorsolve.landweber.RunResult` (stop reason ``maxiter``)
and the same :class:`~mirrorsolve.landweber.IterateRecord` per state; the
stochastic study has no record type of its own.

The step sizes follow one schedule family, :class:`PolynomialSchedule`
gamma_k = gamma (k+1)^(-alpha) with alpha in [0, 1); alpha = 0 is the
constant schedule (:func:`ConstantSchedule`), and gamma is the largest step.
Under the step condition sup_k gamma_k = gamma < 4 sigma (1 - eta) / L^2
(with sum gamma_k = inf) the Bregman distance to a solution satisfying the
range-type source condition decays like 1/s_k along the partial sums
s_k = sum_{l<=k} gamma_l; :func:`smd_run` logs s_k * Delta_k so that claim
is directly checkable.  The block indices of a path come from one batched
draw, ``default_rng(seed).integers(N, size=k_max + 1)``, which yields the
same stream as k_max + 1 scalar draws, so every trajectory is a
reproducible artifact of its seed; the last index is the terminal state's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction
from .landweber import (MaxIterStop, RunResult, SystemProblem, _descend, csv_number, dual_step,
                        write_csv)
from .operators import LinearIntegral
from .regularizers import Regularizer

__all__ = [
    "ConstantSchedule",
    "PolynomialSchedule",
    "SourcedInstance",
    "smd_step",
    "smd_run",
    "build_sourced_instance",
    "write_rate_csv",
]


@dataclass(frozen=True)
class PolynomialSchedule:
    """gamma_k = gamma (k+1)^(-alpha) with alpha in [0, 1), so the partial
    sums diverge; alpha = 0 is the constant schedule, and gamma = gamma_0 is
    the largest step of every schedule in the family."""

    gamma: float
    alpha: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0,1), got {self.alpha}")

    def at(self, k: int) -> float:
        # gamma * 1.0 is gamma: at alpha = 0 every step is the one float
        # object, so a constant-schedule path does not keep k_max copies
        if self.alpha == 0:
            return self.gamma
        return self.gamma * (k + 1) ** (-self.alpha)


def ConstantSchedule(gamma: float) -> PolynomialSchedule:
    """The constant schedule gamma_k = gamma, the family's alpha = 0."""
    return PolynomialSchedule(gamma, 0.0)


def validate_schedule(sched, L: float, sigma: float = 0.5) -> None:
    """Reject schedules whose largest step violates gamma < 4 sigma / L^2
    (exact data: eta = 0)."""
    if L > 0 and not sched.gamma < 4.0 * sigma / (L * L):
        raise ValueError(
            f"gamma = {sched.gamma:g} violates the step bound "
            f"{4.0 * sigma / (L * L):g} for L={L:g}")


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

    A schedule over the step bound or a ``k_max`` below 0 or above
    :data:`~mirrorsolve.landweber.SAFETY_CAP` is refused here, and a truth
    or start off the problem's grid or a truth outside the domain of
    ``reg`` by the loop, all before the first step.  The records are the
    loop's :class:`~mirrorsolve.landweber.IterateRecord`, ``block`` the drawn
    index i_k and ``step_sum`` the inclusive partial sum s_k of the schedule;
    with ``x_truth``, each carries the Bregman distance Delta_k and, through
    ``s_delta``, s_k * Delta_k.  A NaN or infinite block residual norm, the
    terminal state's included, raises ``NonFiniteResidualError`` at once.
    Each step is one :func:`smd_step` call, read as a module global per path.
    """
    validate_schedule(sched, prob.norm_bound(), sigma=reg.sigma)
    stop = MaxIterStop(k_max)
    picks = np.random.default_rng(seed).integers(prob.n_blocks, size=k_max + 1).tolist()
    w, step = prob.grid_in.weights, smd_step

    def transition(k, xi, g, r, rn):
        x, xi, gamma = step(reg, sched, w, k, xi, g)
        return x, xi, gamma, False

    # the stopped state takes no step, but its s_k adds gamma_{k_max}
    return _descend(reg, prob, picks, transition, stop, xi0=xi0, x_truth=x_truth,
                    end_step=sched.at(k_max))


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
    if N < 1 or n < 2:
        raise ValueError("need N >= 1 and n >= 2")
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
    """CSV log: columns k,i_k,gamma_k,s_k,delta_k,s_k_delta_k, the record
    fields ``block``, ``step``, ``step_sum``, ``delta_k`` and ``s_delta``;
    ``i_k`` and ``gamma_k`` are empty where no step was taken.

    Each field reads as ``csv_number`` prints it, formatted inline.  Each
    distinct step size is formatted once per file (a constant schedule has
    one); step sizes are positive, so keys that compare equal print alike.
    """
    gammas = _FormatOnce()
    write_csv(path, "k,i_k,gamma_k,s_k,delta_k,s_k_delta_k",
              (f"{k},{'' if g is None else i},{gammas[g]},{float(s)!r},,\n" if d is None else
               f"{k},{'' if g is None else i},{gammas[g]},{float(s)!r},{float(d)!r},"
               f"{float(s * d)!r}\n"
               for k, _, g, s, d, _, _, _, i in run.records))
