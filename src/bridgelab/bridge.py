"""Two-point boundary-value solvers for the Newton system x'' = F''(x) F'(x).

Two independent routes produce the same interpolation: shooting (damped
Newton on the initial velocity of a phase-space RK4 integration) and direct
minimization of the discretized action. Closed forms for the two solvable
builtin potentials serve as oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._integrate import integrate_grid
from .errors import (
    DomainEscape,
    MaxIterations,
    NoConvergence,
    NonFinite,
    UnsupportedEndpoints,
    UnsupportedKind,
)
from .flow import Trajectory, default_steps
from .functionals import action_cost, conserved_energy
from .potential import ALL_SPACE, NEG_LOG, QUADRATIC_ISOTROPIC, Potential

#: Beyond this horizon ``auto`` sends potentials with a positive convexity
#: bound straight to the action route (see ``solve_bridge``).
AUTO_ACTION_HORIZON = 30.0


@dataclass
class SolverOptions:
    """Knobs shared by the bridge solvers.

    ``grid_points`` is the number of nodes of the returned trajectory
    (default ``default_steps(T) + 1``); ``method`` is one of ``shooting``,
    ``action`` or ``auto`` (shooting first, action on failure).
    """

    method: str = "auto"
    max_iter: int = 100
    tol_boundary: float = 1e-9
    grid_points: int | None = None

    def nodes(self, T: float) -> int:
        if self.grid_points is not None:
            if self.grid_points < 3:
                raise ValueError("grid_points must be >= 3")
            return int(self.grid_points)
        return default_steps(T) + 1


@dataclass
class BridgeSolution:
    """A solved interpolation plus its scalar diagnostics."""

    trajectory: Trajectory
    cost: float
    energy_mean: float
    energy_maxdev: float
    newton_residual: float
    solver: str
    boundary_error: float = 0.0
    iterations: int = 0
    context: dict = field(default_factory=dict)


def newton_residual(traj: Trajectory, P: Potential) -> float:
    """Max deviation of the second-difference acceleration from F''(x)F'(x).

    Uses central second differences on the interior nodes of a uniform grid
    with at least five nodes.
    """
    if traj.n_nodes < 5:
        raise ValueError("newton_residual needs at least 5 nodes")
    h = traj.spacing()
    acc = (traj.states[2:] - 2.0 * traj.states[1:-1] + traj.states[:-2]) / (h * h)
    force = P.hess_grad_many(traj.states[1:-1])
    return float(np.max(np.linalg.norm(acc - force, axis=1)))


def _finish_solution(traj, P, solver, boundary_error, iterations, **context) -> BridgeSolution:
    energy = conserved_energy(traj, P)
    return BridgeSolution(
        trajectory=traj,
        cost=action_cost(traj, P),
        energy_mean=energy.mean,
        energy_maxdev=energy.maxdev,
        newton_residual=newton_residual(traj, P) if traj.n_nodes >= 5 else float("nan"),
        solver=solver,
        boundary_error=float(boundary_error),
        iterations=int(iterations),
        context=context,
    )


# -- shooting -----------------------------------------------------------------


def _integrate_phase(P: Potential, x: np.ndarray, v0: np.ndarray, T: float,
                     steps: int) -> np.ndarray:
    """Integrate the phase-space Newton system; returns (steps+1, 2d) states."""
    d = P.dim
    # integrate_grid runs `feasible` on every stage state before rhs sees it,
    # so the force is evaluated without checking the state again
    force = P.force_fn

    if P.domain == ALL_SPACE:
        feasible = None
    else:
        def feasible(z):
            return P.in_domain(z[:d])

    def rhs(z):
        return np.concatenate([z[d:], force(z[:d])])

    return integrate_grid(rhs, np.concatenate([x, v0]), T, steps, feasible)


def solve_bridge_shooting(P: Potential, x, y, T: float, opts: SolverOptions | None = None) -> BridgeSolution:
    """Shooting solve: damped Newton on the initial velocity.

    Newton starts from the straight line (y - x)/T and, if that fails, from
    (y - x)/T - F'(x), which leaves x along the gradient flow that long
    bridges follow. The Jacobian of the landing map uses forward differences
    with step 1e-6*(1+|v0|). Newton steps are halved (up to 30 times) until
    the landing error decreases; a start is abandoned after two stalled steps.
    ``context["restarts"]`` is the index of the start that converged.
    """
    opts = opts or SolverOptions()
    x = P.check_domain(x)
    y = P.check_domain(y)
    if T <= 0:
        raise ValueError("T must be positive")
    d = P.dim
    steps = opts.nodes(T) - 1

    def landing_error(v0):
        try:
            phase = _integrate_phase(P, x, v0, T, steps)
        except (DomainEscape, NonFinite):
            return np.inf, None
        err = float(np.max(np.abs(phase[-1, :d] - y)))
        return err, phase

    straight = (y - x) / T
    total_iters = 0
    landed = False
    for attempt in range(2):
        v0 = straight - P.grad(x) if attempt else straight
        err, phase = landing_error(v0)
        if not np.isfinite(err):
            continue
        landed = True
        stall = 0
        for _ in range(opts.max_iter):
            total_iters += 1
            if err < opts.tol_boundary:
                break
            # forward-difference Jacobian of the landing map
            fd = 1e-6 * (1.0 + float(np.linalg.norm(v0)))
            J = np.empty((d, d))
            r = phase[-1, :d] - y
            for j in range(d):
                vj = v0.copy()
                vj[j] += fd
                errj, phasej = landing_error(vj)
                if phasej is None:
                    J[:, j] = np.nan
                    break
                J[:, j] = (phasej[-1, :d] - (r + y)) / fd
            if not np.all(np.isfinite(J)):
                break
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            lam, improved = 1.0, False
            for _ in range(30):
                err_new, phase_new = landing_error(v0 + lam * step)
                if err_new < err:
                    v0 = v0 + lam * step
                    err, phase = err_new, phase_new
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                stall += 1
                if stall >= 2:
                    break
            else:
                stall = 0
        if err < opts.tol_boundary:
            traj = Trajectory(np.linspace(0.0, T, steps + 1), phase[:, :d], phase[:, d:])
            return _finish_solution(traj, P, "shooting", err, total_iters, restarts=attempt)
    if not landed:
        raise DomainEscape("every trial trajectory left the domain")
    raise NoConvergence(
        f"shooting did not reach the boundary tolerance after {total_iters} iterations"
    )


# -- direct action minimization -------------------------------------------------


def _velocity_matrix_apply(path: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite differences: centered inside, one-sided at the ends."""
    v = np.empty_like(path)
    v[1:-1] = (path[2:] - path[:-2]) / (2.0 * h)
    v[0] = (-3.0 * path[0] + 4.0 * path[1] - path[2]) / (2.0 * h)
    v[-1] = (3.0 * path[-1] - 4.0 * path[-2] + path[-3]) / (2.0 * h)
    return v


def solve_bridge_action(P: Potential, x, y, T: float, grid_points: int | None = None,
                        opts: SolverOptions | None = None) -> BridgeSolution:
    """Minimize the discretized action over interior nodes (endpoints pinned).

    The kinetic term is integrated with interval-midpoint speeds
    sum |p_{i+1} - p_i|^2 / h (node-centered differences leave a parity
    null mode that pollutes the minimizer with checkerboard offsets); the
    potential term is the trapezoidal rule at the nodes. Limited-memory
    quasi-Newton descent with Armijo backtracking (sufficient-decrease 1e-4,
    shrink 0.5); terminates when the gradient sup-norm drops below 1e-8 or
    after 1e5 iterations (MaxIterations). The returned trajectory carries
    velocities from centered differences on interior nodes (second-order
    one-sided at the ends), and its cost is the same trapezoidal quadrature
    used everywhere else.
    """
    opts = opts or SolverOptions()
    x = P.check_domain(x)
    y = P.check_domain(y)
    if T <= 0:
        raise ValueError("T must be positive")
    n_nodes = grid_points if grid_points is not None else opts.nodes(T)
    if n_nodes < 3:
        raise ValueError("grid_points must be >= 3")
    d = P.dim
    h = T / (n_nodes - 1)
    w = np.full(n_nodes, h)
    w[0] = w[-1] = 0.5 * h

    path0 = np.linspace(0.0, 1.0, n_nodes)[:, None] * (y - x)[None, :] + x[None, :]
    if P.domain != ALL_SPACE:
        path0 = np.maximum(path0, 1e-6)
        path0[0], path0[-1] = x, y

    def assemble(interior):
        path = np.empty((n_nodes, d))
        path[0] = x
        path[-1] = y
        path[1:-1] = interior.reshape(n_nodes - 2, d)
        return path

    def fun_grad(z):
        path = assemble(z)
        if P.domain != ALL_SPACE and not np.all(path > 0.0):
            return np.inf, None
        diffs = np.diff(path, axis=0)
        grads = P.grad_many(path)
        J = float(np.sum(diffs * diffs) / h + w @ np.sum(grads * grads, axis=1))
        dJ = np.zeros_like(path)
        dJ[:-1] -= (2.0 / h) * diffs
        dJ[1:] += (2.0 / h) * diffs
        dJ += 2.0 * w[:, None] * P.hess_grad_many(path)
        return J, dJ[1:-1].ravel()

    z, iterations = _lbfgs(fun_grad, path0[1:-1].ravel())
    path = assemble(z)
    traj = Trajectory(np.linspace(0.0, T, n_nodes), path, _velocity_matrix_apply(path, h))
    return _finish_solution(traj, P, "action", 0.0, iterations, grid_points=n_nodes)


#: Action descent stops once the gradient sup-norm is below ACTION_GTOL and
#: raises MaxIterations after ACTION_MAX_ITER iterations.
ACTION_GTOL = 1e-8
ACTION_MAX_ITER = 100000


def _lbfgs(fun_grad, z0, memory=12):
    """Two-loop L-BFGS with Armijo backtracking.

    Exits on the gradient sup-norm test, or once descent stalls at the
    double-precision floor while the gradient sits within three decades of
    the target (the discretization error dominates long before that point).
    """
    z = z0.copy()
    f, g = fun_grad(z)
    if g is None:
        raise DomainEscape("initial action path is infeasible")
    s_hist, y_hist, rho_hist = [], [], []
    flats = 0
    for it in range(ACTION_MAX_ITER):
        gsup = float(np.max(np.abs(g)))
        if gsup < ACTION_GTOL:
            return z, it
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, yv, r in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = r * float(s @ q)
            alphas.append(a)
            q -= a * yv
        if y_hist:
            gamma = float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s, yv, r), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = r * float(yv @ q)
            q += (a - b) * s
        direction = -q
        slope = float(g @ direction)
        if slope >= 0.0:
            direction = -g
            slope = -float(g @ g)
        t = 1.0
        accepted = False
        for _ in range(60):
            f_new, g_new = fun_grad(z + t * direction)
            if g_new is not None and f_new <= f + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        stalled = (not accepted) or (f - f_new <= 8.0 * np.finfo(float).eps * max(abs(f), 1.0))
        if stalled:
            flats += 1
            if flats >= 5:
                if gsup <= 1e3 * ACTION_GTOL:
                    return z, it
                raise MaxIterations("action descent stalled before the gradient test")
            if not accepted:
                continue
        else:
            flats = 0
        z_new = z + t * direction
        s = z_new - z
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * float(yv @ yv):
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        z, f, g = z_new, f_new, g_new
    raise MaxIterations("action minimizer hit its iteration cap")


def solve_bridge(P: Potential, x, y, T: float, opts: SolverOptions | None = None) -> BridgeSolution:
    """Dispatch on opts.method; ``auto`` falls back to action minimization.

    For strongly convex potentials the landing map of single shooting is
    exp(rho T)-sensitive, so beyond AUTO_ACTION_HORIZON the boundary
    tolerance is unreachable in double precision; auto then goes straight
    to the action route.
    """
    opts = opts or SolverOptions()
    if opts.method == "shooting":
        return solve_bridge_shooting(P, x, y, T, opts)
    if opts.method == "action":
        return solve_bridge_action(P, x, y, T, opts=opts)
    if opts.method != "auto":
        raise ValueError(f"unknown solver method {opts.method!r}")
    if P.rho is not None and P.rho > 0 and T > AUTO_ACTION_HORIZON:
        return solve_bridge_action(P, x, y, T, opts=opts)
    try:
        return solve_bridge_shooting(P, x, y, T, opts)
    except (NoConvergence, DomainEscape, NonFinite):
        return solve_bridge_action(P, x, y, T, opts=opts)


def reverse_solution(sol: BridgeSolution) -> BridgeSolution:
    """The time-reversed bridge, which interpolates the swapped endpoints."""
    traj = sol.trajectory
    times = traj.times[-1] - traj.times[::-1]
    rev = Trajectory(times, traj.states[::-1].copy(), -traj.velocities[::-1].copy())
    return replace(sol, trajectory=rev)


# -- closed forms ---------------------------------------------------------------


def _closed_form(kind: str, x, y, T: float):
    """(path, energy, cost) of the exact interpolation, where known.

    ``path(t)`` gives (states, velocities) at one time or on an array of
    times; a single time is evaluated with ``math``, whose exp can differ
    from numpy's in the last bit. ``cost()`` is evaluated on demand. For the
    log potential (equal endpoints) the kinetic part integrates to -4 A(v0)
    with A(v) = sqrt(1-v^2) - log((1+sqrt(1-v^2))/v) evaluated at
    v0 = sqrt(-E) x, which combines with the conserved quantity into
    C = -4 A(v0) - T E.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if kind == QUADRATIC_ISOTROPIC:
        em = math.exp(-T)
        den = 1.0 - math.exp(-2.0 * T)
        alpha = (x - y * em) / den
        beta = (y - x * em) / den

        def path(t):
            m = math if np.ndim(t) == 0 else np
            down = np.multiply.outer(m.exp(-t), alpha)
            up = np.multiply.outer(m.exp(-(T - t)), beta)
            return down + up, up - down

        return (path, float(-4.0 * em * np.dot(alpha, beta)),
                lambda: float(den * (np.dot(alpha, alpha) + np.dot(beta, beta))))
    if kind != NEG_LOG:
        raise UnsupportedKind(f"no closed form for kind {kind!r}")
    if x.shape != (1,) or y.shape != (1,):
        raise UnsupportedEndpoints("the log-potential closed form is one-dimensional")
    if x[0] != y[0]:
        raise UnsupportedEndpoints("the log-potential closed form needs equal endpoints")
    if x[0] <= 0:
        raise UnsupportedEndpoints("endpoints must be positive")
    x0 = float(x[0])
    # E = 2(x0^2 - sqrt(x0^4 + T^2))/T^2 and s = sqrt(1 + E x0^2), free of cancellation
    D = x0 * x0 + math.sqrt(x0**4 + T * T)
    E = -2.0 / D
    s = T / D

    def path(t):
        m = math if np.ndim(t) == 0 else np
        r = m.sqrt(x0 * x0 + t * t * E + 2.0 * t * s)
        return np.expand_dims(r, -1), np.expand_dims(np.divide(t * E + s, r), -1)

    def cost():
        v0 = math.sqrt(-E) * x0
        return -4.0 * (s - math.log((1.0 + s) / v0)) - T * E

    return path, E, cost


def closed_form_energy(kind: str, x, y, T: float) -> float:
    """Exact conserved quantity of the interpolation, where known."""
    return _closed_form(kind, x, y, T)[1]


def closed_form_cost(kind: str, x, y, T: float) -> float:
    """Exact interpolation cost, where known."""
    return _closed_form(kind, x, y, T)[2]()


def closed_form_bridge(kind: str, x, y, T: float, t: float) -> np.ndarray:
    """Exact interpolation point at time t in [0, T], where known."""
    if not 0.0 <= t <= T:
        raise ValueError("t must lie in [0, T]")
    return _closed_form(kind, x, y, T)[0](t)[0]


def closed_form_bridge_trajectory(kind: str, x, y, T: float, steps: int) -> Trajectory:
    """Exact interpolation sampled on a uniform grid, with exact velocities."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    times = np.linspace(0.0, T, steps + 1)
    return Trajectory(times, *_closed_form(kind, x, y, T)[0](times))


def closed_form_solution(kind: str, P: Potential, x, y, T: float, steps: int) -> BridgeSolution:
    """Package a closed-form trajectory with the usual diagnostics."""
    traj = closed_form_bridge_trajectory(kind, x, y, T, steps)
    return _finish_solution(traj, P, "closed_form", 0.0, 0)
