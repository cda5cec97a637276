"""The numerical kernels: fixed-step classical Runge-Kutta on batches of
states, with a domain guard on every state the right-hand side sees, and
the one damped Newton loop that every nonlinear solve runs (shooting, the
action route and a custom potential's minimizer search)."""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DomainEscape, NonFinite


def integrate_grid(
    rhs: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    T: float | np.ndarray,
    steps: int,
    feasible: Optional[Callable[[np.ndarray], bool]] = None,
) -> np.ndarray:
    """Integrate dz/dt = rhs(z) on a uniform grid of `steps` intervals.

    `z0` is one state (n,) or a batch whose rows run along its second-to-last
    axis, such as rows (m, n) or a phase-space batch (2, m, d) of positions
    then velocities; `rhs` and `feasible` are called on arrays of that shape
    and the result has shape (steps + 1,) + z0.shape. `T` is one horizon, or
    for a batch an (m,) array of per-row horizons, each row then stepping by
    its own T / steps: the steps broadcast as (m, 1). Rows never interact,
    so a row of a batch follows exactly the path it would follow on its own.
    `rhs` returns a fresh array or its argument; the integrator never writes
    into an array `rhs` returned, and sums the four stages of a step into
    one array of its own.

    When a `feasible` predicate is given, it is the one domain check: it must
    be true on a batch exactly when it is true on each of its rows. It runs
    on `z0`, on the three inner RK4 stage states before `rhs` sees them and
    on every step result, so every state `rhs` is called on has been checked
    exactly once and `rhs` may skip its own validation. The first bad state
    ends the call: an infeasible one raises DomainEscape, and a step result
    that is not finite raises NonFinite. ``_damped_newton`` takes either as
    an unusable trial, or, inside a Newton step, as no step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.asarray(z0, dtype=float)
    h = T / steps if np.ndim(T) == 0 else (np.asarray(T, dtype=float) / steps)[:, None]
    half, sixth = 0.5 * h, h / 6.0

    def inside(z):
        if feasible is not None and not feasible(z):
            raise DomainEscape("integration reached a state outside the domain")
        return z

    out = np.empty((steps + 1,) + z.shape)
    out[0] = inside(z)
    z = out[0]
    acc = np.empty_like(z)
    for i in range(1, steps + 1):
        k1 = rhs(z)
        k2 = rhs(inside(z + half * k1))
        k3 = rhs(inside(z + half * k2))
        k4 = rhs(inside(z + h * k3))
        # z + h/6 (k1 + 2 (k2 + k3) + k4), operation for operation, in one buffer
        np.add(k2, k3, out=acc)
        acc *= 2.0
        acc += k1
        acc += k4
        acc *= sixth
        np.add(z, acc, out=out[i])
        z = out[i]
        if not np.isfinite(z).all():
            raise NonFinite("state overflowed during integration")
        inside(z)
    return out


#: Every damped Newton loop stops after at most NEWTON_MAX_ITER iterations.
NEWTON_MAX_ITER = 100


def _damped_newton(evaluate, newton_step, u, tol):
    """Damped Newton iteration from u, the package's only nonlinear iteration.

    ``evaluate(u)`` returns ``(error, data)``: the sup-norm error of u and
    whatever ``newton_step(u, data)`` needs to return a step. The loop alone
    decides what failed: a trial is unusable when its error is infinite or
    evaluating it raises DomainEscape or NonFinite; no step is available when
    ``newton_step`` raises LinAlgError, DomainEscape or NonFinite, or returns
    a step that is not finite. Other exceptions pass through. Each step is
    halved (up to 30 times) until the error decreases; the iteration ends
    once the error is below ``tol``, when no step is available, at the first
    step no halving improves, or after NEWTON_MAX_ITER iterations. Returns
    ``(u, error, data, iterations)``; ``iterations`` counts every pass
    including the one that met ``tol``, and is 0 exactly when the start
    itself is unusable.
    """
    def trial(u):
        try:
            return evaluate(u)
        except (DomainEscape, NonFinite):
            return np.inf, None

    err, data = trial(u)
    if not np.isfinite(err):
        return u, err, data, 0
    iterations = 0
    for _ in range(NEWTON_MAX_ITER):
        iterations += 1
        if err < tol:
            break
        try:
            step = newton_step(u, data)
        except (np.linalg.LinAlgError, DomainEscape, NonFinite):
            break
        if not np.all(np.isfinite(step)):
            break
        lam = 1.0
        for _ in range(30):
            v = u + lam * step
            err_new, data_new = trial(v)
            if err_new < err:
                break
            lam *= 0.5
        else:
            break
        u, err, data = v, err_new, data_new
    return u, err, data, iterations
