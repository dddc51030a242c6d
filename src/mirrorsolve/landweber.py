"""Landweber-type mirror-descent iteration with variable step sizes.

One iteration maps the dual variable xi by a gradient step in data space and
pulls it back through the regularizer's mirror map:

    xi_{k+1} = xi_k - gamma_k F'(x_k)^* (F(x_k) - y_delta)
    x_{k+1}  = mirror_map(xi_{k+1})

:func:`dual_step` is that update, and one loop runs it on a
:class:`SystemProblem`, N forward maps F_i with a data block y_i each, all
on one grid: :func:`run` on the one-block system (F, y_delta),
:func:`mirrorsolve.smd.smd_run` on one sampled block per step, each
returning a :class:`RunResult` with one record stream: an
:class:`IterateRecord` per state, carrying the step sum
s_k = sum_{l<=k} gamma_l that the rates are read against.  Three step-size
rules are provided (a constant step gamma/L^2, a capped minimal-error step,
and a capped adaptive step that discounts the noise level), together with
discrepancy-principle, iteration-budget, and max-iter stopping.

The loop keeps states, residuals and diagnostics on node arrays under the
grid's one quadrature weight vector; grid functions appear only where data
enter and in the result.  The system checks its operators and data blocks
when it is built, and the loop checks the start and the truth against the
grid, all before the first step.  The Bregman log is bookkeeping,
evaluated a chunk of states per call on the stacked dual states (fresh
arrays that nothing writes to), since the Fenchel-Young evaluator reads xi
alone; it reduces along the last axis, which gives each row the bits of a
one-state call wherever a chunk ends.  A chunk has 64 states on the 51-node
stochastic grids and one, in place, at n = 5000 or on the 65 x 65 grid
(:data:`CHUNK`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from .grids import Grid, GridFunction, GridMismatchError, norm_l2_values
from .operators import ForwardOperator
from .regularizers import Regularizer

__all__ = [
    "ConstantStep",
    "MinimalErrorStep",
    "AdaptiveStep",
    "DiscrepancyStop",
    "APrioriStop",
    "MaxIterStop",
    "IterateRecord",
    "RunResult",
    "SystemProblem",
    "IterationLimitError",
    "NonFiniteResidualError",
    "dual_step",
    "run",
    "write_iterates_csv",
]


# ---------------------------------------------------------------------------
# step-size rules
#
# A rule's ``step(rn, gn, L)`` returns (gamma, degenerate) from the residual
# norm, the gradient norm and a zero-argument callable for the norm bound L
# (the operator's ``norm_bound``), called only where the formula needs L.
# A vanishing gradient with nonzero residual leaves the capped rules
# undefined on a branch whose formula divides by it; they return the cap
# gamma_bar with ``degenerate`` set, and the run loop flags the iterate.
# ``bounds(L)`` is an interval [gamma_lo, gamma_hi] containing every step the
# rule can emit, derived from L and the rule parameters.
#
# Each rule and stop states its parameter ranges once, in its constructor, as
# the condition that must hold, so NaN is refused with the other bad values:
# gamma, gamma0, gamma_bar > 0; eta in [0, 1); tau > (1+eta)/(1-eta) for the
# adaptive step and tau > 1 for the discrepancy stop; delta >= 0 (> 0 for the
# a-priori stop); budgets floor(1/delta) and k_max at most SAFETY_CAP.


@dataclass(frozen=True)
class ConstantStep:
    """gamma_k = gamma / L^2."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    def step(self, rn: float, gn: float, L) -> tuple[float, bool]:
        L = L()
        return self.gamma / (L * L), False

    def bounds(self, L: float) -> tuple[float, float]:
        g = self.gamma / (L * L)
        return (g, g)


@dataclass(frozen=True)
class MinimalErrorStep:
    """gamma_k = min{ gamma ||r||^2 / ||F'* r||^2, gamma_bar }."""

    gamma: float
    gamma_bar: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.gamma_bar > 0):
            raise ValueError("gamma and gamma_bar must be positive")

    def step(self, rn: float, gn: float, L) -> tuple[float, bool]:
        if gn == 0.0:
            return self.gamma_bar, rn > 0.0
        raw = self.gamma * rn * rn / (gn * gn)
        return min(raw, self.gamma_bar), False

    def bounds(self, L: float) -> tuple[float, float]:
        return (min(self.gamma / (L * L), self.gamma_bar), self.gamma_bar)


@dataclass(frozen=True)
class AdaptiveStep:
    """Noise-aware capped step.

    While ||r|| >= tau * delta:
        gamma_k = min{ gamma0 ((1-eta)||r|| - (1+eta) delta) ||r|| / ||F'* r||^2,
                       gamma_bar }
    otherwise the safe fallback min{ gamma0 (1-eta) / L^2, gamma_bar }.
    """

    gamma0: float
    gamma_bar: float
    tau: float
    eta: float
    delta: float

    def __post_init__(self):
        if not (self.gamma0 > 0 and self.gamma_bar > 0):
            raise ValueError("gamma0 and gamma_bar must be positive")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        if not self.tau > (1.0 + self.eta) / (1.0 - self.eta):
            raise ValueError("tau must exceed (1+eta)/(1-eta)")
        if not self.delta >= 0:
            raise ValueError("delta must be nonnegative")

    def step(self, rn: float, gn: float, L) -> tuple[float, bool]:
        if rn >= self.tau * self.delta and rn > 0.0:
            if gn == 0.0:
                return self.gamma_bar, True
            raw = (self.gamma0
                   * ((1.0 - self.eta) * rn - (1.0 + self.eta) * self.delta)
                   * rn / (gn * gn))
            return min(raw, self.gamma_bar), False
        L = L()
        return min(self.gamma0 * (1.0 - self.eta) / (L * L), self.gamma_bar), False

    def bounds(self, L: float) -> tuple[float, float]:
        slack = 1.0 - self.eta - (1.0 + self.eta) / self.tau
        return (min(self.gamma0 * slack / (L * L), self.gamma_bar), self.gamma_bar)


# ---------------------------------------------------------------------------
# stopping rules
#
# A stop's ``reason(k, rn)`` names why iterate k with residual norm rn ends
# the run, or returns None to go on.

@dataclass(frozen=True)
class DiscrepancyStop:
    """Stop at the first k with ||F(x_k) - y_delta|| <= tau * delta."""

    tau: float
    delta: float

    def __post_init__(self):
        if not self.tau > 1.0:
            raise ValueError("tau must exceed 1")
        if not self.delta >= 0:
            raise ValueError("delta must be nonnegative")

    def reason(self, k: int, rn: float):
        return "discrepancy" if rn <= self.tau * self.delta else None


@dataclass(frozen=True)
class APrioriStop:
    """Stop after k_hat = floor(1 / delta) iterations (the constant c = 1 of
    k_hat = floor(c / delta) is fixed), a budget of at most
    :data:`SAFETY_CAP`, so that one that cannot finish is refused here."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        # floor(1/delta) > SAFETY_CAP exactly when 1/delta >= SAFETY_CAP + 1, and
        # 1/delta itself can be compared even where it overflows to inf
        if not 1.0 / self.delta < SAFETY_CAP + 1:
            raise ValueError(f"a-priori budget floor(1/delta) = {np.floor(1.0 / self.delta):.0f} "
                             f"for delta = {self.delta:g} exceeds the iteration safety cap "
                             f"{SAFETY_CAP}")

    @property
    def k_hat(self) -> int:
        return int(math.floor(1.0 / self.delta))

    def reason(self, k: int, rn: float):
        return "apriori" if k >= self.k_hat else None


@dataclass(frozen=True)
class MaxIterStop:
    k_max: int

    def __post_init__(self):
        if not self.k_max >= 0:
            raise ValueError(f"k_max must be nonnegative, got {self.k_max}")
        if self.k_max > SAFETY_CAP:
            raise ValueError(f"k_max = {self.k_max} exceeds the iteration safety cap "
                             f"{SAFETY_CAP}")

    def reason(self, k: int, rn: float):
        return "maxiter" if k >= self.k_max else None


def _check_consistency(rule, stop) -> None:
    """delta / tau carried by both the rule and the stop must agree."""
    for field in ("tau", "delta"):
        mine, theirs = getattr(rule, field, None), getattr(stop, field, None)
        if mine is not None and theirs is not None and mine != theirs:
            raise ValueError(f"rule and stopping rule disagree on {field}")


# ---------------------------------------------------------------------------
# run records

class IterateRecord(NamedTuple):
    """Diagnostics for one state of either method; a diagnostic is None
    where it is not tracked.

    ``block`` is the block the state linearized (0 throughout :func:`run`)
    and ``residual_norm`` its residual norm.  ``step`` is the step size used
    to move *from* this state and is None on the terminal record.
    ``step_sum`` is the partial sum s_k = sum_{l<=k} gamma_l, so the previous
    record's is the sum before state k; :func:`run`'s terminal record adds no
    step, :func:`~mirrorsolve.smd.smd_run`'s adds the schedule's
    gamma_{k_max}.  ``delta_k`` is the Bregman distance to the truth.
    ``degenerate`` marks a vanishing-gradient step where the capped rules fell
    back to gamma_bar.
    """

    k: int
    residual_norm: float
    step: float
    step_sum: float
    delta_k: float
    error_to_truth: float
    lambda_defect: float
    degenerate: bool
    block: int

    @property
    def s_delta(self) -> float:
        """s_k * Delta_k, the product the 1/s_k rate bounds; None unlogged."""
        if self.delta_k is None:
            return None
        return self.step_sum * self.delta_k


@dataclass(frozen=True)
class RunResult:
    """Final state and per-state :class:`IterateRecord` of a run, from
    :func:`run` or :func:`~mirrorsolve.smd.smd_run`."""

    x: GridFunction
    xi: GridFunction
    k_stop: int
    stop_reason: str
    records: tuple


class IterationLimitError(RuntimeError):
    """Safety cap exceeded; partial records are attached."""

    def __init__(self, cap: int, records):
        super().__init__(f"iteration safety cap {cap} exceeded")
        self.records = tuple(records)


class NonFiniteResidualError(ArithmeticError):
    """The residual norm is NaN or infinite (bad data or a diverged iterate);
    carries the iterate index k and the partial records."""

    def __init__(self, k: int, residual_norm: float, records):
        super().__init__(f"non-finite residual norm {residual_norm} at iterate {k}")
        self.k = k
        self.records = tuple(records)


#: iteration safety cap of :func:`run`, read as it iterates, and of the
#: budgets of APrioriStop and MaxIterStop
SAFETY_CAP = 10 ** 6

#: the most states per Bregman-log evaluation: a path on n nodes logs
#: min(CHUNK, CHUNK * CHUNK // n) states per call, and at least one
CHUNK = 64


def dual_step(reg: Regularizer, xi: np.ndarray, g: np.ndarray, gamma: float,
              w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One mirror-descent update from the dual state ``xi`` along the node
    values ``g`` of the data gradient, under the quadrature weights ``w``:
    returns (mirror_map(xi'), xi') with xi' = xi - gamma g, both fresh."""
    t = np.multiply(gamma, g)
    xi = np.subtract(xi, t, out=t)
    return reg.mirror_map(xi, w), xi


@dataclass(frozen=True)
class SystemProblem:
    """N forward operators and their exact data blocks, all on one grid: the
    system F_i(x) = y_i, of which a single equation F(x) = y_delta is the
    one-block case.  An operator or a data block off the first operator's
    grid is refused with one :class:`GridMismatchError`."""

    operators: tuple
    data: tuple

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "data", tuple(self.data))
        if len(self.operators) == 0 or len(self.operators) != len(self.data):
            raise ValueError("need one data block per operator")
        g = self.operators[0].grid_in
        if any(op.grid_in != g or y.grid != g for op, y in zip(self.operators, self.data)):
            raise GridMismatchError("operators and data blocks must all live on the "
                                    "first operator's grid")

    @property
    def n_blocks(self) -> int:
        return len(self.operators)

    @property
    def grid_in(self) -> Grid:
        return self.operators[0].grid_in

    def norm_bound(self) -> float:
        return max(op.norm_bound() for op in self.operators)


def _descend(reg: Regularizer, prob: SystemProblem, picks, transition, stop,
             xi0: GridFunction = None, x_truth: GridFunction = None,
             observe=None, *, end_step: float = 0.0) -> RunResult:
    """The loop on ``prob`` from the dual state ``xi0``, zero if not given.
    State k linearizes block i = ``picks[k]`` (``prob.operators[i]``,
    ``prob.data[i]``), checks its residual norm rn, is logged
    (``observe(x, xi, adjoint)``, which returns the error and lambda defect,
    and the Bregman distance to ``x_truth`` from xi, each if given), asks
    ``stop.reason(k, rn)`` and :data:`SAFETY_CAP`, and moves on by
    ``transition(k, xi, g, r, rn)``, which returns (x', xi', gamma,
    degenerate).  The loop adds gamma to the step sum and makes one
    :class:`IterateRecord` per state; the stopped state takes no step, and
    its step sum adds ``end_step``.  A start or a truth off the problem's
    grid, or a truth outside the domain of ``reg``, is refused before the
    first step.  States and residuals are weighted alike, by that grid's
    weights."""
    grid = prob.grid_in
    for name, v in (("xi0", xi0), ("x_truth", x_truth)):
        if v is not None and v.grid != grid:
            raise GridMismatchError(f"{name} does not live on the problem's grid")
    dist = None if x_truth is None else reg.bregman_to(x_truth)
    blocks = [(op.linearize_values, y.values) for op, y in zip(prob.operators, prob.data)]
    n, w = grid.node_count, grid.weights
    xi = np.zeros(n) if xi0 is None else xi0.values
    chunk = min(CHUNK, max(1, CHUNK * CHUNK // n))
    x = reg.mirror_map(xi, w)
    records = []
    s = 0.0
    # one list per column, for the states not yet logged; a move is
    # (gamma, s_k, degenerate, block)
    xis, rns, moves, seen = [], [], [], []

    def stacked(states):
        # one state in place (faster than a (1, n) view), more stacked in a copy
        m = len(states)
        return states[0] if m == 1 else np.concatenate(states).reshape(m, n)

    def log():
        deltas = (repeat(None) if dist is None or not xis else
                  dist(stacked(xis)).reshape(-1).tolist())
        records.extend(IterateRecord(k, rn, gamma, s_k, delta, err, ldef, degen, i)
                       for k, rn, (gamma, s_k, degen, i), delta, (err, ldef)
                       in zip(count(len(records)), rns, moves, deltas,
                              seen or repeat((None, None))))
        del xis[:], rns[:], moves[:], seen[:]

    for k, i in enumerate(picks):
        linearize, y = blocks[i]
        value, _, adjoint = linearize(x)
        # a fresh residual: the adjoint map may close over the value
        r = np.subtract(value, y)
        rn = norm_l2_values(r, w)
        if not math.isfinite(rn):
            log()
            raise NonFiniteResidualError(k, rn, records)
        xis.append(xi)
        rns.append(rn)
        if observe is not None:
            seen.append(observe(x, xi, adjoint))
        reason = stop.reason(k, rn)
        if reason is not None:
            moves.append((None, s + end_step, False, i))
            log()
            return RunResult(GridFunction(grid, x), GridFunction(grid, xi), k, reason,
                             tuple(records))
        if k >= SAFETY_CAP:
            log()
            raise IterationLimitError(SAFETY_CAP, records)
        x, xi, gamma, degen = transition(k, xi, adjoint(r), r, rn)
        s += gamma
        moves.append((gamma, s, degen, i))
        if len(moves) == chunk:
            log()


def run(forward: ForwardOperator, reg: Regularizer, y_delta: GridFunction,
        rule, stop, *, x_truth: GridFunction = None) -> RunResult:
    """Iterate on the one-block system (``forward``, ``y_delta``) from
    xi_0 = 0 until the stopping rule fires.

    ``x_truth`` enables the Bregman-distance and error columns of the record
    stream.  A linear forward map also maintains the auxiliary sequence
    lambda_{k+1} = lambda_k - gamma_k (F x_k - y_delta) and logs the defect
    ||xi_k - A* lambda_k||_L2 of the dual-space identity, recomputing
    A* lambda_k afresh each iteration with the adjoint map of the iterate's
    ``linearize_values``, so the check stays independent of the xi update.
    Data or a truth off the operator's grid raise :class:`GridMismatchError`
    (the data from :class:`SystemProblem`, the truth from the loop, as for
    every block of a stochastic path) and a truth outside the domain of
    ``reg`` raises ValueError, all before the first step; a NaN or infinite
    residual norm raises :class:`NonFiniteResidualError` at once, and a run
    still going after :data:`SAFETY_CAP` iterations raises
    :class:`IterationLimitError`.
    """
    _check_consistency(rule, stop)
    prob = SystemProblem((forward,), (y_delta,))
    w = prob.grid_in.weights
    lam = np.zeros(w.size) if forward.linear else None

    def observe(x, xi, adjoint):
        err = None if x_truth is None else reg.error_norm(np.subtract(x, x_truth.values), w)
        ldef = None if lam is None else norm_l2_values(np.subtract(xi, adjoint(lam)), w)
        return err, ldef

    def transition(k, xi, g, r, rn):
        nonlocal lam
        gamma, degen = rule.step(rn, norm_l2_values(g, w), forward.norm_bound)
        x, xi = dual_step(reg, xi, g, gamma, w)
        if lam is not None:
            t = np.multiply(gamma, r)
            lam = np.subtract(lam, t, out=t)
        return x, xi, gamma, degen

    return _descend(reg, prob, repeat(0), transition, stop, x_truth=x_truth, observe=observe)


def csv_number(v) -> str:
    """A CSV field of the run logs: empty for None, else the shortest
    round-tripping repr of the float."""
    return "" if v is None else repr(float(v))


def write_csv(path, header: str, lines) -> None:
    """Write ``header`` and the newline-terminated ``lines`` to ``path``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def write_iterates_csv(records, path) -> None:
    """CSV log of :func:`run`'s records: columns
    k,residual,step,bregman,error,lambda_defect,degenerate (``bregman`` is
    ``delta_k``, missing diagnostics are empty fields, ``degenerate`` is 0
    or 1)."""
    fmt = csv_number
    write_csv(path, "k,residual,step,bregman,error,lambda_defect,degenerate",
              (f"{r.k},{fmt(r.residual_norm)},{fmt(r.step)},{fmt(r.delta_k)},"
               f"{fmt(r.error_to_truth)},{fmt(r.lambda_defect)},{1 if r.degenerate else 0}\n"
               for r in records))
