"""How the benchmark measures time on a shared host.

Two things move raw times on a shared VM without any change to bridgelab:

* the hypervisor takes the core away for a while (steal time, up to a third
  of a second in a second here); the benchmark therefore times CPU time of
  its own process (``time.process_time``), which leaves stolen time out and,
  for this single-threaded program with BLAS pools pinned to one thread,
  equals its wall time on a core of its own;
* the speed of the core itself changes by up to 1.5x for seconds to tens of
  seconds at a time, as other tenants load the same physical cores; this
  moves CPU time too. A short fixed kernel that uses no bridgelab code (a
  Python loop over small numpy arrays, then a few passes over a 20000-element
  array, as the solvers do) is timed beside every measured interval, and the
  interval is reported scaled by ``REFERENCE_S / kernel time``: the time it
  would have taken on a core where the kernel takes ``REFERENCE_S``, about
  this benchmark's 2-core KVM guest (Xeon, family 6 model 207) at its usual
  speed. Changes to bridgelab move the interval but not the kernel.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel CPU time that defines the reference core (seconds).
REFERENCE_S = 0.0022
#: Kernel runs on each side of a measured interval.
RUNS = 2


#: The kernel's vector work runs in place, in arrays allocated once when the
#: runner starts, so that its speed does not depend on what the program
#: allocated and freed before it.
_START = np.linspace(0.0, 1.0, 20000)
_W = np.empty_like(_START)
_T = np.empty_like(_START)


def kernel() -> None:
    z = np.linspace(0.1, 1.0, 8)
    for _ in range(500):
        z = z + 1e-3 * np.sin(z)
    _W[:] = _START
    for _ in range(20):
        np.multiply(_W, _W, out=_T)
        np.add(_T, 1e-3, out=_T)
        np.sqrt(_T, out=_W)


def sample(runs: int = RUNS) -> list[float]:
    """CPU times of ``runs`` back-to-back kernel runs."""
    times = []
    for _ in range(runs):
        t0 = time.process_time()
        kernel()
        times.append(time.process_time() - t0)
    return times


def scale(times: list[float]) -> float:
    """Factor that turns a CPU time measured beside these kernel times into
    reference seconds."""
    return REFERENCE_S / statistics.median(times)
