"""A clock that runs at a reference host speed.

The benchmark shares a few cores of a host with other tenants.  A fixed
computation there takes up to twice as long for stretches of seconds to
minutes at a time, and process CPU time slows with it: the loss is
contention for the core, not descheduling, so neither a median nor the
fastest sample of a 30 s run removes it.  :class:`HostClock` measures the
host's speed while the workload runs instead: every ``PROBE_INTERVAL_S``,
and whenever it is read, it times a :class:`Probe` (fixed work owned by the
benchmark, never the package's code) and advances by the elapsed time
scaled by ``PROBE_REF_S`` over the probe's time, averaged over the probes
at both ends of the stretch.  Probe time itself is not counted.  A stretch
that ran slow because the host was slow is counted at reference speed; one
that ran slow because the program did more work is not shortened.

The workload calls :meth:`HostClock.tick` through a delegating proxy on its
regularizer's ``mirror_map`` (once per Landweber iterate or SMD step); a
tick costs one clock read unless a probe is due.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

perf_counter = time.perf_counter

#: the probe's time on a quiet 2-vCPU host (the fast state of the host the
#: benchmark was written on); adjusted times are in seconds at that speed
PROBE_REF_S = 2.0e-3
#: seconds of workload between two probes
PROBE_INTERVAL_S = 0.25


class Probe:
    """Fixed work in the three shapes the workloads spend their time in:
    NumPy calls on 51-node vectors (per-call overhead, as in ``smd_paths``),
    transcendental functions on 5001-node vectors (as in ``entropy_sweep``)
    and a sparse five-point stencil product on a 64 x 64 grid (as in the CG
    solves of ``elliptic_sweep``).  Inputs are fixed; nothing feeds back."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random(51)
        self.large = rng.random(5001)
        line = sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(64, 64))
        eye = sp.eye_array(64)
        self.stencil = (sp.kron(line, eye) + sp.kron(eye, line)).tocsr()
        self.field = rng.random(64 * 64)

    def __call__(self) -> float:
        """Run the probe once; returns its wall time in seconds."""
        t0 = perf_counter()
        small, large, stencil, field = self.small, self.large, self.stencil, self.field
        for _ in range(120):
            w = np.exp(small - small.max())
            w /= w.sum()
            float(np.dot(w, small))
        for _ in range(12):
            float(np.sum(np.log(large) * np.exp(-large)))
        for _ in range(60):
            stencil @ field
        return perf_counter() - t0


class HostClock:
    """Reads as seconds at the reference host speed (see the module doc).

    ``raw`` is the wall time elapsed outside probes, for comparison.
    """

    def __init__(self):
        self.probe = Probe()
        self.probe()  # first call pays for lazy set-up in NumPy and SciPy
        self.adjusted = 0.0
        self.raw = 0.0
        self.probes = []
        self._last_probe = self.probe()
        self._since = perf_counter()

    def _advance(self) -> None:
        stretch = perf_counter() - self._since
        p = self.probe()
        self.probes.append(p)
        self.raw += stretch
        self.adjusted += stretch * 2.0 * PROBE_REF_S / (self._last_probe + p)
        self._last_probe = p
        self._since = perf_counter()

    def __call__(self) -> float:
        """Close the current stretch and return the adjusted time so far."""
        self._advance()
        return self.adjusted

    def tick(self) -> None:
        if perf_counter() - self._since >= PROBE_INTERVAL_S:
            self._advance()

    def wrap(self, name, fn):
        """Tracer-style hook: ``fn`` preceded by a tick (``name`` is unused)."""
        tick = self.tick

        def ticking(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return ticking
