"""Landweber-type mirror-descent iteration with variable step sizes.

One iteration maps the dual variable xi by a gradient step in data space and
pulls it back through the regularizer's mirror map:

    xi_{k+1} = xi_k - gamma_k F'(x_k)^* (F(x_k) - y_delta)
    x_{k+1}  = mirror_map(xi_{k+1})

Three step-size rules are provided (a constant step gamma/L^2, a capped
minimal-error step, and a capped adaptive step that discounts the noise
level), together with discrepancy-principle, iteration-budget, and max-iter
stopping.  Runs are instrumented: per-iterate residuals, step sizes, Bregman
distance and error to a supplied ground truth, and -- for linear forward
operators -- the defect of the dual-space identity xi_k = xi_0 + A* lambda_k
maintained by the auxiliary sequence lambda_{k+1} = lambda_k - gamma_k
(F x_k - y_delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, norm_l2
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
    "step_size",
    "step_bounds",
    "run",
    "write_iterates_csv",
]


# ---------------------------------------------------------------------------
# step-size rules

@dataclass(frozen=True)
class ConstantStep:
    """gamma_k = gamma / L^2."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class MinimalErrorStep:
    """gamma_k = min{ gamma ||r||^2 / ||F'* r||^2, gamma_bar }.

    ``cap_mode="max"`` replaces min by max; it exists only to replicate runs
    with an uncapped-from-below step and is not covered by the step-bound
    guarantees.
    """

    gamma: float
    gamma_bar: float = 600.0
    cap_mode: str = "min"

    def __post_init__(self):
        if self.gamma <= 0 or self.gamma_bar <= 0:
            raise ValueError("gamma and gamma_bar must be positive")
        if self.cap_mode not in ("min", "max"):
            raise ValueError("cap_mode must be 'min' or 'max'")


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
    cap_mode: str = "min"

    def __post_init__(self):
        if self.gamma0 <= 0 or self.gamma_bar <= 0:
            raise ValueError("gamma0 and gamma_bar must be positive")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        if self.tau <= (1.0 + self.eta) / (1.0 - self.eta):
            raise ValueError("tau must exceed (1+eta)/(1-eta)")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.cap_mode not in ("min", "max"):
            raise ValueError("cap_mode must be 'min' or 'max'")


def _cap(value: float, bar: float, mode: str) -> float:
    return min(value, bar) if mode == "min" else max(value, bar)


def step_size(rule, residual_norm: float, grad_norm: float, L: float) -> float:
    """Evaluate a step-size rule at the current residual/gradient norms.

    A vanishing gradient with nonzero residual leaves the capped rules
    undefined; they return the cap ``gamma_bar`` (the run loop flags the
    iterate).
    """
    gamma, _ = _step_size_impl(rule, residual_norm, grad_norm, lambda: L)
    return gamma


def _step_size_impl(rule, rn: float, gn: float, L_fn):
    """Shared rule evaluation; L_fn is called only by branches that need L.

    Returns (gamma, degenerate) where degenerate marks a vanishing gradient
    on a branch whose formula divides by it.
    """
    if isinstance(rule, ConstantStep):
        L = L_fn()
        return rule.gamma / (L * L), False
    if isinstance(rule, MinimalErrorStep):
        if gn == 0.0:
            return rule.gamma_bar, rn > 0.0
        raw = rule.gamma * rn * rn / (gn * gn)
        return _cap(raw, rule.gamma_bar, rule.cap_mode), False
    if isinstance(rule, AdaptiveStep):
        adaptive_branch = (rn >= rule.tau * rule.delta) and rn > 0.0
        if adaptive_branch:
            if gn == 0.0:
                return rule.gamma_bar, True
            raw = (rule.gamma0
                   * ((1.0 - rule.eta) * rn - (1.0 + rule.eta) * rule.delta)
                   * rn / (gn * gn))
            return _cap(raw, rule.gamma_bar, rule.cap_mode), False
        L = L_fn()
        return _cap(rule.gamma0 * (1.0 - rule.eta) / (L * L),
                    rule.gamma_bar, rule.cap_mode), False
    raise TypeError(f"unknown step rule {type(rule).__name__}")


def step_bounds(rule, L: float) -> tuple[float, float]:
    """Interval [gamma_lo, gamma_hi] containing every step the rule can emit
    (for ``cap_mode='min'``), derived from L and the rule parameters."""
    L2 = L * L
    if isinstance(rule, ConstantStep):
        g = rule.gamma / L2
        return (g, g)
    if isinstance(rule, MinimalErrorStep):
        return (min(rule.gamma / L2, rule.gamma_bar), rule.gamma_bar)
    if isinstance(rule, AdaptiveStep):
        slack = 1.0 - rule.eta - (1.0 + rule.eta) / rule.tau
        return (min(rule.gamma0 * slack / L2, rule.gamma_bar), rule.gamma_bar)
    raise TypeError(f"unknown step rule {type(rule).__name__}")


# ---------------------------------------------------------------------------
# stopping rules

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


@dataclass(frozen=True)
class APrioriStop:
    """Stop after k_hat = floor(c / delta) iterations."""

    delta: float
    c: float = 1.0

    def __post_init__(self):
        if self.delta <= 0 or self.c <= 0:
            raise ValueError("c and delta must be positive")

    @property
    def k_hat(self) -> int:
        return int(math.floor(self.c / self.delta))


@dataclass(frozen=True)
class MaxIterStop:
    k_max: int

    def __post_init__(self):
        if self.k_max < 0:
            raise ValueError("k_max must be nonnegative")


def _should_stop(stop, k: int, residual_norm: float):
    if isinstance(stop, DiscrepancyStop):
        if residual_norm <= stop.tau * stop.delta:
            return "discrepancy"
    elif isinstance(stop, APrioriStop):
        if k >= stop.k_hat:
            return "apriori"
    elif isinstance(stop, MaxIterStop):
        if k >= stop.k_max:
            return "maxiter"
    else:
        raise TypeError(f"unknown stopping rule {type(stop).__name__}")
    return None


def _check_consistency(rule, stop) -> None:
    """delta / tau carried by both the rule and the stop must agree."""
    if isinstance(rule, AdaptiveStep):
        if isinstance(stop, DiscrepancyStop):
            if rule.tau != stop.tau:
                raise ValueError("rule and stopping rule disagree on tau")
            if rule.delta != stop.delta:
                raise ValueError("rule and stopping rule disagree on delta")
        elif isinstance(stop, APrioriStop):
            if rule.delta != stop.delta:
                raise ValueError("rule and stopping rule disagree on delta")


# ---------------------------------------------------------------------------
# run records

@dataclass(frozen=True)
class IterateRecord:
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
    x: GridFunction
    xi: GridFunction
    k_stop: int
    stop_reason: str
    records: tuple[IterateRecord, ...]
    lam: GridFunction = None

    @property
    def residuals(self) -> np.ndarray:
        return np.array([r.residual_norm for r in self.records])


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


def run(forward: ForwardOperator, reg: Regularizer, y_delta: GridFunction,
        rule, stop, *, xi0: GridFunction = None, x_truth: GridFunction = None,
        lambda_tracking: bool = False, safety_cap: int = 10 ** 6) -> RunResult:
    """Iterate until the stopping rule fires.

    ``x_truth`` enables the Bregman-distance and error columns of the record
    stream; ``lambda_tracking`` (linear forward operators only) maintains the
    auxiliary sequence lambda_k and logs the defect
    ||xi_k - xi_0 - A* lambda_k||_L2, recomputing A* lambda_k afresh each
    iteration so the check stays independent of the xi update.  A NaN or
    infinite residual norm raises :class:`NonFiniteResidualError` at once.
    """
    _check_consistency(rule, stop)
    if lambda_tracking and not forward.linear:
        raise ValueError("lambda tracking is only defined for linear operators")

    if xi0 is None:
        xi0 = forward.grid_in.zeros()
    xi = xi0
    x = reg.mirror_map(xi)
    lam = forward.grid_out.zeros() if lambda_tracking else None

    # L is needed by the constant rule every step and by the adaptive
    # fallback branch; resolve it lazily so rule-2 runs skip the estimate.
    L_val = None

    def L():
        nonlocal L_val
        if L_val is None:
            L_val = forward.norm_bound()
        return L_val

    breg_to_truth = reg.bregman_to(x_truth) if x_truth is not None else None
    records = []
    k = 0
    while True:
        r = forward.apply(x) - y_delta
        rn = norm_l2(r)
        if not math.isfinite(rn):
            raise NonFiniteResidualError(k, rn, records)
        breg = breg_to_truth(x, xi) if x_truth is not None else None
        err = reg.error_norm(x - x_truth) if x_truth is not None else None
        ldef = None
        if lambda_tracking:
            ldef = norm_l2(xi - xi0 - forward.adjoint_apply(lam))

        reason = _should_stop(stop, k, rn)
        if reason is not None:
            records.append(IterateRecord(k, rn, None, breg, err, ldef))
            return RunResult(x, xi, k, reason, tuple(records), lam)
        if k >= safety_cap:
            raise IterationLimitError(safety_cap, records)

        g = forward.deriv_adjoint_apply(x, r)
        gn = norm_l2(g)
        gamma, degen = _step_size_impl(rule, rn, gn, L)
        records.append(IterateRecord(k, rn, gamma, breg, err, ldef, degen))

        xi = GridFunction.wrap(xi.grid, xi.values - gamma * g.values)
        x = reg.mirror_map(xi)
        if lambda_tracking:
            lam = GridFunction.wrap(lam.grid, lam.values - gamma * r.values)
        k += 1


def write_iterates_csv(records, path) -> None:
    """CSV log: columns k,residual,step,bregman,error,lambda_defect
    (missing diagnostics as empty fields)."""

    def fmt(v):
        return "" if v is None else repr(float(v))

    with open(path, "w") as fh:
        fh.write("k,residual,step,bregman,error,lambda_defect\n")
        for rec in records:
            fh.write(",".join([
                str(rec.k), fmt(rec.residual_norm), fmt(rec.step),
                fmt(rec.bregman_to_truth), fmt(rec.error_to_truth),
                fmt(rec.lambda_defect),
            ]) + "\n")
