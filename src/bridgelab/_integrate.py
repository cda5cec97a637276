"""Fixed-step classical Runge-Kutta on batches of states, with a domain guard
on every state the right-hand side sees."""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DomainEscape, NonFinite


def integrate_grid(
    rhs: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    T: float,
    steps: int,
    feasible: Optional[Callable[[np.ndarray], bool]] = None,
) -> np.ndarray:
    """Integrate dz/dt = rhs(z) on a uniform grid of `steps` intervals.

    `z0` is one state (n,) or a batch of rows (m, n); `rhs` and `feasible`
    are called on arrays of that shape and the result has shape
    (steps + 1,) + z0.shape. Rows never interact, so a row of a batch follows
    exactly the path it would follow on its own.

    When a `feasible` predicate is given, it is the one domain check: it must
    be true on a batch exactly when it is true on each of its rows. It runs
    on `z0`, on the three inner RK4 stage states before `rhs` sees them and
    on every step result, so every state `rhs` is called on has been checked
    exactly once and `rhs` may skip its own validation. The first bad state
    ends the call: an infeasible one raises DomainEscape, and a step result
    that is not finite raises NonFinite. Callers recover one level up, as
    shooting does by halving its Newton step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.asarray(z0, dtype=float)
    h = T / steps

    def inside(z):
        if feasible is not None and not feasible(z):
            raise DomainEscape("integration reached a state outside the domain")
        return z

    out = np.empty((steps + 1,) + z.shape)
    out[0] = inside(z)
    for i in range(1, steps + 1):
        k1 = rhs(z)
        k2 = rhs(inside(z + (0.5 * h) * k1))
        k3 = rhs(inside(z + (0.5 * h) * k2))
        k4 = rhs(inside(z + h * k3))
        z = z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(z).all():
            raise NonFinite("state overflowed during integration")
        out[i] = inside(z)
    return out
