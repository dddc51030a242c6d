"""Mirror-descent Landweber solvers for ill-posed inverse problems.

The package is organized around five layers:

* :mod:`mirrorsolve.grids` -- uniform grids and quadrature-weighted grid
  functions, inner products and norms;
* :mod:`mirrorsolve.regularizers` -- strongly convex regularizers with
  closed-form mirror maps and Bregman distances;
* :mod:`mirrorsolve.operators` -- forward maps (integral operator, elliptic
  coefficient-to-solution map) with a per-iterate linearization (value,
  derivative, adjoint);
* :mod:`mirrorsolve.landweber` -- the dual-space gradient iteration with
  pluggable step-size and stopping rules plus diagnostics, built on one
  mirror-descent update, :func:`dual_step`;
* :mod:`mirrorsolve.smd` -- the stochastic block variant for systems with
  exact data, which applies the same :func:`dual_step` to one sampled block
  and returns the same :class:`RunResult`.

:mod:`mirrorsolve.experiments` and :mod:`mirrorsolve.cli` wrap everything in
reproducible rate benchmarks.
"""

from .grids import (
    Grid,
    GridFunction,
    GridMismatchError,
    add_noise,
    inner,
    norm_l1,
    norm_l2,
    norm_linf,
    power_iteration_norm,
)
from .landweber import (
    AdaptiveStep,
    APrioriStop,
    ConstantStep,
    DiscrepancyStop,
    IterateRecord,
    IterationLimitError,
    MaxIterStop,
    MinimalErrorStep,
    NonFiniteResidualError,
    RunResult,
    dual_step,
    run,
    write_iterates_csv,
)
from .operators import (
    EllipticCoefficient,
    EllipticSolveError,
    EllipticSolver,
    ForwardOperator,
    LinearIntegral,
    Linearization,
)
from .regularizers import (
    ElasticNet,
    EntropySimplex,
    QuadraticBox,
    Regularizer,
)
from .smd import (
    ConstantSchedule,
    PolynomialSchedule,
    SmdRecord,
    SourcedInstance,
    SystemProblem,
    build_sourced_instance,
    smd_run,
    smd_step,
)

__version__ = "0.1.0"
