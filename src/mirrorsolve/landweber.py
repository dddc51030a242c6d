"""Landweber-type mirror-descent iteration with variable step sizes.

One iteration maps the dual variable xi by a gradient step in data space and
pulls it back through the regularizer's mirror map:

    xi_{k+1} = xi_k - gamma_k F'(x_k)^* (F(x_k) - y_delta)
    x_{k+1}  = mirror_map(xi_{k+1})

:func:`dual_step` is that update, written once: :func:`run` applies it to
the whole system and :func:`mirrorsolve.smd.smd_step` to one sampled block,
and both return a :class:`RunResult`.  Three step-size rules are provided (a
constant step gamma/L^2, a capped minimal-error step, and a capped adaptive
step that discounts the noise level), together with discrepancy-principle,
iteration-budget, and max-iter stopping.  Runs are instrumented: per-iterate
residuals, step sizes, Bregman distance and error to a supplied ground
truth, and -- for linear forward operators -- the defect of the dual-space
identity xi_k = A* lambda_k maintained by the auxiliary sequence
lambda_{k+1} = lambda_k - gamma_k (F x_k - y_delta).  Every run starts from
xi_0 = 0.

Both loops keep the states (x, xi), lambda, the residual, the gradient and
the diagnostics on node arrays under the input grid's quadrature weights,
with the value and adjoint map of the operator's ``linearize_values``.  Grid
functions appear only where data enter, checked against the operator's grids
before the first step, and where they leave: each run builds the grid
functions of its :class:`RunResult` once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import GridFunction, GridMismatchError, norm_l2_values
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


@dataclass(frozen=True)
class ConstantStep:
    """gamma_k = gamma / L^2."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
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
        if self.gamma <= 0 or self.gamma_bar <= 0:
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
        if self.gamma0 <= 0 or self.gamma_bar <= 0:
            raise ValueError("gamma0 and gamma_bar must be positive")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        if self.tau <= (1.0 + self.eta) / (1.0 - self.eta):
            raise ValueError("tau must exceed (1+eta)/(1-eta)")
        if self.delta < 0:
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
        if self.tau <= 1.0:
            raise ValueError("tau must exceed 1")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    def reason(self, k: int, rn: float):
        return "discrepancy" if rn <= self.tau * self.delta else None


@dataclass(frozen=True)
class APrioriStop:
    """Stop after k_hat = floor(1 / delta) iterations (the constant c = 1 of
    k_hat = floor(c / delta) is fixed)."""

    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def k_hat(self) -> int:
        return int(math.floor(1.0 / self.delta))

    def reason(self, k: int, rn: float):
        return "apriori" if k >= self.k_hat else None


@dataclass(frozen=True)
class MaxIterStop:
    k_max: int

    def __post_init__(self):
        if self.k_max < 0:
            raise ValueError("k_max must be nonnegative")

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
    """Diagnostics for one iterate; optional fields are None when untracked.

    ``step`` is the step size used to move *from* this iterate and is None on
    the terminal record.  ``degenerate`` marks a vanishing-gradient step where
    the capped rules fell back to gamma_bar.
    """

    k: int
    residual_norm: float
    step: float = None
    bregman_to_truth: float = None
    error_to_truth: float = None
    lambda_defect: float = None
    degenerate: bool = False


@dataclass(frozen=True)
class RunResult:
    """Final state and per-state records of a run: :class:`IterateRecord`
    from :func:`run`, :class:`~mirrorsolve.smd.SmdRecord` from
    :func:`~mirrorsolve.smd.smd_run`."""

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


#: iteration safety cap of :func:`run`, read as it iterates
SAFETY_CAP = 10 ** 6


def dual_step(reg: Regularizer, xi: np.ndarray, g: np.ndarray, gamma: float,
              w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One mirror-descent update from the dual state ``xi`` along the node
    values ``g`` of the data gradient, under the quadrature weights ``w``:
    returns (mirror_map(xi'), xi') with xi' = xi - gamma g, both fresh."""
    t = np.multiply(gamma, g)
    xi = np.subtract(xi, t, out=t)
    return reg.mirror_map(xi, w), xi


def run(forward: ForwardOperator, reg: Regularizer, y_delta: GridFunction,
        rule, stop, *, x_truth: GridFunction = None) -> RunResult:
    """Iterate from xi_0 = 0 until the stopping rule fires.

    ``x_truth`` enables the Bregman-distance and error columns of the record
    stream.  A linear forward map also maintains the auxiliary sequence
    lambda_k and logs the defect ||xi_k - A* lambda_k||_L2, recomputing
    A* lambda_k afresh each iteration with the adjoint map of the iterate's
    ``linearize_values``, so the check stays independent of the xi update.
    Data or a truth off the operator's grids raise :class:`GridMismatchError`
    before the first step; a NaN or infinite residual norm raises
    :class:`NonFiniteResidualError` at once, and a run still going after
    :data:`SAFETY_CAP` iterations raises :class:`IterationLimitError`.
    """
    _check_consistency(rule, stop)
    grid_in = forward.grid_in
    if y_delta.grid != forward.grid_out:
        raise GridMismatchError("data do not live on the operator's output grid")
    if x_truth is not None and x_truth.grid != grid_in:
        raise GridMismatchError("truth does not live on the operator's input grid")
    lambda_tracking = forward.linear
    w_in, w_out, y = grid_in.weights, forward.grid_out.weights, y_delta.values

    xi = np.zeros(grid_in.node_count)
    x = reg.mirror_map(xi, w_in)
    lam = np.zeros(forward.grid_out.node_count) if lambda_tracking else None

    if x_truth is not None:
        breg_to_truth, x_true = reg.bregman_to(x_truth), x_truth.values
    records = []
    k = 0
    while True:
        value, _, adjoint = forward.linearize_values(x)
        r = np.subtract(value, y)
        rn = norm_l2_values(r, w_out)
        if not math.isfinite(rn):
            raise NonFiniteResidualError(k, rn, records)
        breg = err = ldef = None
        if x_truth is not None:
            breg = float(breg_to_truth(x, xi))
            err = reg.error_norm(np.subtract(x, x_true), w_in)
        if lambda_tracking:
            ldef = norm_l2_values(np.subtract(xi, adjoint(lam)), w_in)

        reason = stop.reason(k, rn)
        if reason is not None:
            records.append(IterateRecord(k, rn, None, breg, err, ldef))
            return RunResult(GridFunction(grid_in, x), GridFunction(grid_in, xi), k,
                             reason, tuple(records))
        if k >= SAFETY_CAP:
            raise IterationLimitError(SAFETY_CAP, records)

        g = adjoint(r)
        gn = norm_l2_values(g, w_in)
        gamma, degen = rule.step(rn, gn, forward.norm_bound)
        records.append(IterateRecord(k, rn, gamma, breg, err, ldef, degen))

        x, xi = dual_step(reg, xi, g, gamma, w_in)
        if lambda_tracking:
            t = np.multiply(gamma, r)
            lam = np.subtract(lam, t, out=t)
        k += 1


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
    """CSV log: columns k,residual,step,bregman,error,lambda_defect,degenerate
    (missing diagnostics as empty fields, ``degenerate`` as 0 or 1)."""
    fmt = csv_number
    write_csv(path, "k,residual,step,bregman,error,lambda_defect,degenerate",
              (f"{r.k},{fmt(r.residual_norm)},{fmt(r.step)},{fmt(r.bregman_to_truth)},"
               f"{fmt(r.error_to_truth)},{fmt(r.lambda_defect)},{1 if r.degenerate else 0}\n"
               for r in records))
