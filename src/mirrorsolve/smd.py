"""Stochastic mirror descent for systems F_i(x) = y_i with exact data.

Each step samples one block uniformly at random and applies the
deterministic iteration's :func:`~mirrorsolve.landweber.dual_step` to that
block alone:

    xi_{k+1} = xi_k - gamma_k F'_{i_k}(x_k)^* (F_{i_k}(x_k) - y_{i_k})
    x_{k+1}  = mirror_map(xi_{k+1})

so with one block and a constant schedule a path is the Landweber iteration,
bit for bit, and :func:`smd_run` returns the same
:class:`~mirrorsolve.landweber.RunResult` (stop reason ``maxiter``).

Under the step condition sup_k gamma_k < 4 sigma (1 - eta) / L^2 (with
sum gamma_k = inf) the Bregman distance to a solution satisfying the
range-type source condition decays like 1/s_k along the partial sums
s_k = sum_{l<=k} gamma_l; :func:`smd_run` logs s_k * Delta_k so that claim
is directly checkable.  The block indices of a path come from one batched
draw, ``default_rng(seed).integers(N, size=k_max)``, which yields the same
stream as k_max scalar draws, so every trajectory is a reproducible artifact
of its seed.

The Bregman log is bookkeeping, not part of the iteration, so
:func:`smd_run` evaluates it a chunk of :data:`CHUNK` states at a time: it
copies each state (x_k, xi_k) into a row of two preallocated buffers and
calls the ``reg.bregman_to(x_truth)`` evaluator once on the stacked rows.
The evaluator reduces along the last axis, which gives each row the bits of
a one-state call, so the records do not depend on where a chunk ends.  The
record fields of the current chunk are kept as one list per column, and a
chunk's records are built when it is logged, so the columns never hold more
than :data:`CHUNK` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import Grid, GridFunction, GridMismatchError, norm_l2_values
from .landweber import NonFiniteResidualError, RunResult, csv_number, dual_step, write_csv
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
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

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
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")

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


#: states per Bregman-log evaluation in :func:`smd_run`
CHUNK = 64


def smd_step(state, prob: SystemProblem, reg: Regularizer, sched, k: int, i: int):
    """Step k from ``state = (x, xi)`` on block ``i``; returns
    (x', xi', gamma_k, block residual norm).

    The problem checked every block's grids once, so the step runs on node
    arrays: the residual is a fresh array, never an operator's value
    written in place (the adjoint map may close over that value)."""
    x, xi = state
    gamma = sched.at(k)
    y = prob.data[i]
    value, _, adjoint = prob.operators[i].linearize_values(x.values)
    r = np.subtract(value, y.values)
    x, xi = dual_step(reg, xi, adjoint(r), gamma)
    return x, xi, gamma, norm_l2_values(r, y.grid.weights)


def smd_run(prob: SystemProblem, reg: Regularizer, sched, k_max: int, seed: int,
            *, x_truth: GridFunction = None, xi0: GridFunction = None) -> RunResult:
    """Run ``k_max`` stochastic steps; records cover states k = 0 .. k_max,
    and the result stops at k_max for reason ``maxiter``.

    The step schedule is validated against the problem's norm bound before
    the first step.  With ``x_truth`` supplied, each record carries the
    Bregman distance Delta_k and (through ``s_delta``) the rate product
    s_k * Delta_k, where s_k is the inclusive partial sum of the schedule.
    The distances are evaluated :data:`CHUNK` states per evaluator call,
    with the bits that one call per state would give.  A NaN or infinite
    block residual norm raises
    :class:`~mirrorsolve.landweber.NonFiniteResidualError` at once, with the
    records of every state before it.
    """
    validate_schedule(sched, prob.norm_bound(), sigma=reg.sigma)
    picks = np.random.default_rng(seed).integers(prob.n_blocks, size=k_max).tolist()
    if xi0 is None:
        xi0 = prob.grid_in.zeros()
    elif xi0.grid != prob.grid_in:
        raise GridMismatchError("xi0 does not live on the problem's input grid")
    xi = xi0
    x = reg.mirror_map(xi)

    dist = reg.bregman_to(x_truth) if x_truth is not None else None
    n = prob.grid_in.node_count
    xs, xis = np.empty((CHUNK, n)), np.empty((CHUNK, n))
    records = []
    # one list per record column, for the states not yet logged
    gammas, sums, residuals = [], [], []

    def log(m):
        """Log the states in the first ``m`` buffer rows: the next ``m`` records."""
        k0 = len(records)
        deltas = dist(xs[:m], xis[:m]).tolist() if dist is not None else [None] * m
        records.extend(map(SmdRecord._make, zip(range(k0, k0 + m), picks[k0:k0 + m],
                                                gammas, sums, deltas, residuals)))
        for column in (gammas, sums, residuals):
            column.clear()

    s = 0.0
    row = 0
    for k, i in enumerate(picks):
        if dist is not None:
            xs[row] = x.values
            xis[row] = xi.values
        x, xi, gamma, rn = smd_step((x, xi), prob, reg, sched, k, i)
        if not math.isfinite(rn):
            log(row)
            raise NonFiniteResidualError(k, rn, tuple(records))
        s += gamma
        gammas.append(gamma)
        sums.append(s)
        residuals.append(rn)
        row += 1
        if row == CHUNK:
            log(row)
            row = 0
    if dist is not None:
        xs[row] = x.values
        xis[row] = xi.values
    picks.append(None)
    gammas.append(None)
    sums.append(s + sched.at(k_max))
    residuals.append(None)
    log(row + 1)
    return RunResult(x, xi, k_max, "maxiter", tuple(records))


@dataclass(frozen=True)
class SourcedInstance:
    """Linear system whose solution satisfies the dual source condition by
    construction: xi_true = xi0 + sum_i A_i^* lam_true_i and
    x_true = mirror_map(xi_true), with data y_i = A_i x_true."""

    problem: SystemProblem
    x_true: GridFunction
    xi_true: GridFunction
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
    horizons.  ``lam_scale`` sizes the dual source element; 0 gives the
    trivial instance x_true = mirror_map(xi0).
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
        ops.append(LinearIntegral(grid, kernel=K / nrm))

    lam_true = tuple(GridFunction(grid, lam_scale * rng.standard_normal(grid.node_count))
                     for _ in range(N))
    xi0 = grid.zeros()
    xi_true = xi0
    for op, lam in zip(ops, lam_true):
        xi_true = xi_true + op.adjoint_apply(lam)
    x_true = reg.mirror_map(xi_true)
    data = tuple(op.apply(x_true) for op in ops)
    return SourcedInstance(SystemProblem(tuple(ops), data), x_true, xi_true,
                           lam_true, xi0)


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
