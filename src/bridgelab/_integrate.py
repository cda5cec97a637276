"""Fixed-step classical Runge-Kutta on batches of states, with domain-guarded
step refinement row by row."""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DomainEscape, NonFinite

MAX_HALVINGS = 40


class _InfeasibleStage(Exception):
    """An inner stage state failed the domain check; carries that state."""


def _rk4_step(f, z, h, k1):
    k2 = f(z + (0.5 * h) * k1)
    k3 = f(z + (0.5 * h) * k2)
    k4 = f(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def integrate_grid(
    rhs: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    T: float,
    steps: int,
    feasible: Optional[Callable[[np.ndarray], bool]] = None,
) -> np.ndarray:
    """Integrate dz/dt = rhs(z) on a uniform grid of `steps` intervals.

    `z0` is one state (n,) or a batch of rows (m, n); `rhs` and `feasible`
    are called on arrays of that kind (a batch, or some of its rows) and the
    result has shape (steps + 1,) + z0.shape. Rows never interact, so a row
    of a batch follows exactly the path it would follow on its own.

    When a `feasible` predicate is given, it is the one domain check: it must
    be true on a batch exactly when it is true on each of its rows. It runs
    on `z0`, on every step result (after the finiteness check) and on the
    three inner RK4 stage states before `rhs` sees them, so every state `rhs`
    is called on has been checked exactly once and `rhs` may skip its own
    validation. An infeasible `z0` raises DomainEscape. Each step is taken
    by the whole batch at once; only the rows whose step result (or inner
    stage) is infeasible or not finite are retried alone with halved
    substeps, up to MAX_HALVINGS levels and a budget of substep attempts per
    row. A row that still fails makes the whole call raise: DomainEscape, or
    NonFinite when its state stopped being finite.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z0 = np.asarray(z0, dtype=float)
    h = T / steps

    if feasible is None:
        guarded = rhs
    elif not feasible(z0):
        raise DomainEscape("initial state lies outside the domain")
    else:
        def guarded(z):
            if not feasible(z):
                raise _InfeasibleStage(z)
            return rhs(z)

    def usable(z):
        return np.isfinite(z).all() and (feasible is None or feasible(z))

    def infeasible_rows(z):
        return np.array([not feasible(z[r:r + 1]) for r in range(len(z))])

    # refinement exists to recover marginal steps; a trajectory that keeps
    # demanding substeps is running into a genuine escape, so cap each row's
    # step attempts (grid steps plus substeps)
    limit = 4 * steps + 1000
    substeps = np.zeros(1 if z0.ndim == 1 else len(z0), dtype=int)

    def advance(z, dt, depth, row):
        substeps[row] += 1
        if i + 1 + substeps[row] > limit:
            raise DomainEscape("integration exceeded its refinement budget")
        try:
            znew = _rk4_step(guarded, z, dt, rhs(z))
        except _InfeasibleStage:
            znew = None
        if znew is not None and usable(znew):
            return znew
        return halve(z, dt, depth, znew, row)

    def halve(z, dt, depth, failed, row):
        """Replace the failed step of `row` from z over dt by two half steps."""
        if depth >= MAX_HALVINGS:
            if failed is not None and not np.isfinite(failed).all():
                raise NonFinite("state overflowed during integration")
            raise DomainEscape("state left the domain and refinement failed")
        zmid = advance(z, 0.5 * dt, depth + 1, row)
        return advance(zmid, 0.5 * dt, depth + 1, row)

    def grid_step(z):
        # z is z0 or a step result, both already feasible
        try:
            znew = _rk4_step(guarded, z, h, rhs(z))
        except _InfeasibleStage as stage:
            znew, stage_state = None, stage.args[0]
        if znew is not None and usable(znew):
            return znew
        if z.ndim == 1:
            return halve(z, h, 0, znew, 0)
        # some rows failed: the others keep their batch step, the failed ones
        # are refined alone
        out = np.empty_like(z)
        rows = np.arange(len(z))
        while znew is None:
            bad = infeasible_rows(stage_state)
            if not bad.any():
                raise ValueError("feasible rejected a batch but none of its rows")
            for r in np.flatnonzero(bad):
                out[rows[r]] = halve(z[rows[r]:rows[r] + 1], h, 0, None, rows[r])
            rows = rows[~bad]
            if rows.size == 0:
                return out
            try:
                znew = _rk4_step(guarded, z[rows], h, rhs(z[rows]))
            except _InfeasibleStage as stage:
                stage_state = stage.args[0]
        bad = ~np.isfinite(znew).all(axis=1)
        if feasible is not None:
            bad[~bad] = infeasible_rows(znew[~bad])
        out[rows[~bad]] = znew[~bad]
        for r in np.flatnonzero(bad):
            out[rows[r]] = halve(z[rows[r]:rows[r] + 1], h, 0, znew[r:r + 1], rows[r])
        return out

    out = np.empty((steps + 1,) + z0.shape)
    out[0] = z0
    z = z0
    for i in range(steps):
        z = grid_step(z)
        out[i + 1] = z
    return out
