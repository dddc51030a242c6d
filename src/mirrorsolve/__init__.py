"""Mirror-descent Landweber solvers for ill-posed inverse problems.

The package is organized around five layers:

* :mod:`mirrorsolve.grids` -- uniform grids, grid functions as checked
  records of node values (they do no arithmetic), and quadrature-weighted
  norms on node arrays;
* :mod:`mirrorsolve.regularizers` -- strongly convex regularizers with
  closed-form mirror maps and Bregman distances, on node values and
  quadrature weights;
* :mod:`mirrorsolve.operators` -- forward maps (integral operator, elliptic
  coefficient-to-solution map) with a per-iterate linearization (value,
  derivative, adjoint) on node arrays;
* :mod:`mirrorsolve.landweber` -- the dual-space gradient iteration with
  pluggable step-size and stopping rules plus diagnostics: one
  mirror-descent update, :func:`dual_step`, and one loop that runs it;
* :mod:`mirrorsolve.smd` -- the stochastic block variant for systems with
  exact data: the same loop, one sampled block and :func:`smd_step` per
  step, and the same :class:`RunResult`.

:mod:`mirrorsolve.experiments` and :mod:`mirrorsolve.cli` wrap everything in
reproducible rate benchmarks.
"""

from .grids import (
    Grid,
    GridFunction,
    GridMismatchError,
    add_noise,
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
