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
  mirror-descent update, :func:`dual_step`, and one loop that runs it on a
  block system :class:`SystemProblem`, of which :func:`run`'s single
  equation is the one-block case;
* :mod:`mirrorsolve.smd` -- the stochastic block variant for systems with
  exact data: the same loop, one sampled block and :func:`smd_step` per
  step, and the same :class:`RunResult`.

:mod:`mirrorsolve.experiments` and :mod:`mirrorsolve.cli` wrap everything in
reproducible rate benchmarks.

The modules are the import paths: each public name is imported from the one
module whose ``__all__`` lists it (``from mirrorsolve.landweber import run``),
and the package root re-exports nothing.
"""

__version__ = "0.1.0"
