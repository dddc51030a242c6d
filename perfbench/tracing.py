"""Observation from outside the package: per-cell hooks, spans and proxies.

Nothing here edits ``mirrorsolve``.  Calls the package makes internally are
observed by rebinding the module-level names it calls through (for example
``mirrorsolve.experiments.run``) for the duration of a ``with`` block, and
calls on objects it is handed are observed through delegating proxies.

* :class:`CellLog` is used by every run.  It costs two extra Python calls
  per Landweber cell: it marks where each cell starts and keeps the stop
  reason and final iterate that ``run_rate_sweep`` drops with
  ``keep_records=False``.
* :class:`Tracer` is used by the traced run only.  It keeps spans (name,
  start, end, parent) in memory and writes them out once, at the end.
  :class:`Untraced` stands in for it when tracing is off.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np
import scipy.sparse.linalg as spla

from mirrorsolve import experiments, operators, smd

perf_counter = time.perf_counter


@contextlib.contextmanager
def rebound(bindings):
    """Temporarily replace ``(module, name) -> value`` bindings."""
    saved = [(mod, name, getattr(mod, name)) for (mod, name) in bindings]
    for (mod, name), value in bindings.items():
        setattr(mod, name, value)
    try:
        yield
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)


class Untraced:
    """No spans, no counts: what every untraced run passes as its tracer."""

    traced = False

    @staticmethod
    def wrap(name, fn):
        return fn

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def bindings() -> dict:
        return {}


class CellLog:
    """Cell boundaries and results seen at ``run_rate_sweep``'s call sites.

    ``starts[i]`` is when cell i called ``add_noise``; ``results[i]`` is
    (stop reason, k_stop, final iterate) of cell i, or None if ``run``
    raised.  Under a real tracer the degenerate steps of each run are also
    counted (that walks the records, so untraced runs skip it).
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.starts = []
        self.results = []

    def bindings(self, tracer) -> dict:
        add_noise = tracer.wrap("grids.add_noise", experiments.add_noise)
        run = tracer.wrap("landweber.run", experiments.run)

        def logged_add_noise(*args, **kwargs):
            self.starts.append(self.clock())
            return add_noise(*args, **kwargs)

        def logged_run(*args, **kwargs):
            try:
                res = run(*args, **kwargs)
            except Exception:
                self.results.append(None)
                raise
            self.results.append((res.stop_reason, res.k_stop, res.x))
            if tracer.traced:
                tracer.counts["degenerate_steps"] += sum(r.degenerate for r in res.records)
            return res

        return {(experiments, "add_noise"): logged_add_noise,
                (experiments, "run"): logged_run}


class Tracer:
    """In-memory span recorder.

    A span is (name, start, end, parent); the parent is the span open when
    it started.  A span's exclusive time is its duration minus that of its
    direct children, so a layer's self time is the sum of the exclusive
    times of its spans.
    """

    traced = True

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = Counter()
        self._open = [-1]

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, t0, t1, stack = (self.name_id, self.parent, self.t0,
                                          self.t1, self._open)

        def traced(*args, **kwargs):
            idx = len(t0)
            name_id.append(nid)
            parent.append(stack[-1])
            t1.append(0.0)
            stack.append(idx)
            t0.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def bindings(self) -> dict:
        """Spans around package-internal calls of public functions, and CG
        calls and iterations counted by wrapping SciPy's ``cg``."""
        cg, counts = spla.cg, self.counts

        def counted_cg(*args, callback=None, **kwargs):
            def cb(xk):
                counts["cg_iters"] += 1
                if callback is not None:
                    callback(xk)

            counts["cg_calls"] += 1
            return cg(*args, callback=cb, **kwargs)

        return {
            (operators, "power_iteration_norm"):
                self.wrap("grids.power_iter", operators.power_iteration_norm),
            (experiments, "write_iterates_csv"):
                self.wrap("experiments.csv_write", experiments.write_iterates_csv),
            (smd, "smd_step"): self.wrap("smd.step", smd.smd_step),
            (spla, "cg"): counted_cg,
        }

    def arrays(self):
        return (np.frombuffer(self.name_id, np.int32), np.frombuffer(self.parent, np.int32),
                np.frombuffer(self.t0), np.frombuffer(self.t1))

    def totals(self) -> dict:
        """name -> (calls, total seconds, exclusive seconds)."""
        nid, parent, t0, t1 = self.arrays()
        dur = t1 - t0
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        excl = dur - covered
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        tot = np.bincount(nid, weights=dur, minlength=k)
        ex = np.bincount(nid, weights=excl, minlength=k)
        return {name: (int(calls[i]), float(tot[i]), float(ex[i]))
                for i, name in enumerate(self.names)}

    def gaps(self, child: str, parent: str) -> np.ndarray:
        """Start-to-start intervals of consecutive ``child`` spans opened
        directly inside the same ``parent`` span: per-iterate times."""
        if child not in self._ids or parent not in self._ids:
            return np.zeros(0)
        nid, par, t0, _ = self.arrays()
        sel = (nid == self._ids[child]) & (par >= 0)
        sel[sel] = nid[par[sel]] == self._ids[parent]
        starts, owner = t0[sel], par[sel]
        return np.diff(starts)[owner[1:] == owner[:-1]]

    def save(self, path) -> None:
        nid, parent, t0, t1 = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent,
                 t0=t0, t1=t1, counter_names=np.array(list(self.counts)),
                 counter_values=np.array(list(self.counts.values()), dtype=np.int64))


class Traced:
    """Delegating proxy that records a span around selected methods.

    ``spans`` maps method name -> span name (methods the wrapped object
    lacks are skipped); ``tracer`` is anything with ``wrap(name, fn)``, a
    :class:`Tracer` or a ``hostclock.HostClock``.  Every other attribute is read
    from the wrapped object, and ``__class__`` reports the wrapped type, so
    ``isinstance`` checks in the package (``run_rate_sweep`` accepts rule 1
    only for a ``LinearIntegral``) see the real operator.
    """

    def __init__(self, inner, tracer: Tracer, spans: dict):
        self._inner = inner
        for method, span in spans.items():
            if hasattr(inner, method):
                setattr(self, method, tracer.wrap(span, getattr(inner, method)))

    @property
    def __class__(self):
        return type(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


OPERATOR_SPANS = {"apply": "operators.apply",
                  "adjoint_apply": "operators.adjoint",
                  "deriv_adjoint_apply": "operators.adjoint",
                  "deriv_apply": "operators.deriv"}
REGULARIZER_SPANS = {"mirror_map": "regularizers.mirror_map",
                     "error_norm": "regularizers.error_norm"}


def traced_operator(op, tracer: Tracer):
    """Proxy for a forward operator; an elliptic operator is rebuilt around a
    proxied solver, so its CG solves are spans too."""
    if isinstance(op, operators.EllipticCoefficient):
        solver = Traced(op.solver, tracer, {"solve": "operators.cg"})
        op = operators.EllipticCoefficient(op.f, op.g, op.grid_in, solver=solver)
    return Traced(op, tracer, OPERATOR_SPANS)


def traced_regularizer(reg, tracer: Tracer):
    proxy = Traced(reg, tracer, REGULARIZER_SPANS)
    proxy.bregman_to = lambda xbar: tracer.wrap("regularizers.bregman",
                                                reg.bregman_to(xbar))
    return proxy
