"""Two-point boundary-value solvers for the Newton system x'' = F''(x) F'(x).

Two independent routes produce the same interpolation, each by one damped
Newton loop: multiple shooting (on the initial states of the segments of a
phase-space RK4 integration) and the discrete Euler-Lagrange equations of
the discretized action. Exact bridges of the three builtin potentials
serve as oracles at any endpoints and dimension: neg-log coordinate by
coordinate, the quadratics mode by mode along the eigenvectors of A.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from ._integrate import _damped_newton, integrate_grid
from .errors import DomainEscape, NoConvergence, NonFinite, UnsupportedKind
from .flow import Trajectory, default_steps, flows_on_grid
from .functionals import energy_stats, trapezoid_cost
from .potential import (ALL_SPACE, NEG_LOG, QUADRATIC_ISOTROPIC, QUADRATIC_MATRIX, Potential,
                        _as_builtin, as_count)


METHODS = ("shooting", "action", "auto")


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the bridge solvers, checked once on construction.

    ``grid_points`` is the number of nodes of the returned trajectory, a
    whole number at least 3 (default ``default_steps(T) + 1``); ``method``
    is one of ``shooting``, ``action`` or ``auto`` (shooting first, action
    on failure); ``tol_boundary`` is a finite positive real number, not a
    boolean. A value of another type or out of range is a ValueError. The iteration budget
    is the Newton loop's own.
    """

    method: str = "auto"
    tol_boundary: float = 1e-9
    grid_points: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        tol = self.tol_boundary
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 < tol < math.inf):
            raise ValueError(f"tol_boundary must be finite and positive, got {tol!r}")
        if self.grid_points is not None:
            object.__setattr__(self, "grid_points", as_count(self.grid_points, "grid_points"))
            if self.grid_points < 3:
                raise ValueError("grid_points must be >= 3")

    def nodes(self, T: float) -> int:
        if self.grid_points is not None:
            return self.grid_points
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
    grads = P.grad_many(traj.states)
    energy = energy_stats(traj, grads)
    return BridgeSolution(
        trajectory=traj,
        cost=trapezoid_cost(traj, P, grads),
        energy_mean=energy.mean,
        energy_maxdev=energy.maxdev,
        newton_residual=newton_residual(traj, P) if traj.n_nodes >= 5 else float("nan"),
        solver=solver,
        boundary_error=float(boundary_error),
        iterations=int(iterations),
        context=context,
    )


# -- shooting -----------------------------------------------------------------


def _integrate_phase(P: Potential, Z0: np.ndarray, T: float | np.ndarray,
                     steps: int) -> np.ndarray:
    """Integrate the phase-space Newton system from rows (m, 2d) of states as
    one batch, over one horizon T or per-row horizons (m,). The batch is held
    as (2, m, d), every row's position and then every row's velocity, so the
    force and the domain guard read one contiguous block; returns the paths
    (steps + 1, 2, m, d). Both Newton phases of shooting run their landing
    maps and Jacobian batches through it, on k or kc steps per segment."""
    # integrate_grid runs `feasible` on every stage state before rhs sees it,
    # so a builtin force is evaluated without checking the state again; a
    # positive-orthant custom's force checks each row a second time, with a
    # few float comparisons in its row loop (an open waste)
    force = P.force_fn

    if P.domain == ALL_SPACE:
        feasible = None
    else:
        def feasible(z):
            return P.in_domain(z[0])

    def rhs(z):
        dz = np.empty_like(z)
        dz[0] = z[1]
        dz[1] = force(z[0])
        return dz

    batch = Z0.reshape(len(Z0), 2, P.dim).transpose(1, 0, 2)
    return integrate_grid(rhs, batch, T, steps, feasible)


#: Multiple shooting cuts [0, T] into segments of at most
#: SEGMENT_SPAN / max(rho, 1) time units for every potential, so the landing
#: map of a segment is at most about exp(SEGMENT_SPAN) sensitive to its
#: initial state.
SEGMENT_SPAN = 5.0

#: A potential with ``batched_rows`` also gets segments of at most
#: SEGMENT_STEPS grid steps. A landing map is a sequential loop over the
#: segment's RK4 steps, and each step costs about the same numpy overhead
#: however many rows the batch holds, so many short segments are cheaper
#: than a few long ones. A custom potential calls its pointwise functions in
#: a Python loop over the rows, so its cost follows the row count, and every
#: extra segment adds a row to each landing map of both Newton phases and
#: 2d rows to each Jacobian batch; it keeps the SEGMENT_SPAN rule alone.
#: On 22 solves of 2-3-D analytic custom potentials (cosh, quartic,
#: log-sum-exp) short segments took 4.6 s against about 3.7 s, measured with
#: one Newton phase and the Jacobian on the fine grid, and landed two far
#: cosh bridges, which fail here, with energy drifts of 3e-6.
SEGMENT_STEPS = 50

#: A potential without ``batched_rows`` runs the same Newton loop twice: first
#: on kc = min(k, ceil(t * max(lam, 1) / JACOBIAN_STEP)) RK4 steps per segment
#: of t time units, lam the largest eigenvalue of F'' at x and y
#: (``_jacobian_steps``), then on the fine grid's k. The coarse solution is
#: the fine phase's start and its last Jacobian blocks the fine phase's first
#: step; any later fine step integrates its Jacobian on the fine grid, and the
#: fine phase's residual decides convergence. With a one-phase solve, a step
#: of 0.2 / lam, or a fixed 0.08 time units, added Newton iterations on
#: quartic and cosh solves.
JACOBIAN_STEP = 0.1


def _segment_starts(P: Potential, T: float, steps: int) -> tuple[np.ndarray, int]:
    """First grid node of each shooting segment, and the segment length k.

    The segment count M is ceil(T max(rho, 1) / SEGMENT_SPAN), raised to
    ceil(steps / SEGMENT_STEPS) for a potential with ``batched_rows``, and
    at most half the step count. Every segment is k = ceil(steps / M) steps long, so all
    advance as one batch; the last one starts at node steps - k, so none runs
    past T.
    """
    rate = max(P.rho or 0.0, 1.0)
    wanted = math.ceil(T * rate / SEGMENT_SPAN)
    if P.batched_rows:
        wanted = max(wanted, math.ceil(steps / SEGMENT_STEPS))
    k = math.ceil(steps / max(min(wanted, steps // 2), 1))
    M = math.ceil(steps / k)
    return np.array([j * k for j in range(M - 1)] + [steps - k]), k


def _jacobian_steps(P: Potential, x, y, span: float, k: int) -> int:
    """RK4 steps kc of the coarse landing map and Jacobian batch for
    segments of at most ``span`` time units and k fine steps (see
    JACOBIAN_STEP); k when the curvature at x and y is not finite."""
    lam = float(np.max(np.linalg.eigvalsh(np.array([P.hessian(x), P.hessian(y)]))))
    if not lam < math.inf:
        return k
    return min(k, math.ceil(span * max(lam, 1.0) / JACOBIAN_STEP))


def solve_bridge_shooting(P: Potential, x, y, T: float, opts: SolverOptions | None = None) -> BridgeSolution:
    """Multiple shooting: damped Newton on the initial states of M segments.

    [0, T] is cut into M segments of k grid steps each (``_segment_starts``):
    a segment spans at most SEGMENT_SPAN / max(rho, 1) time units and, for a
    potential with ``batched_rows``, at most SEGMENT_STEPS grid steps; M is
    at most half the step count. The last segment starts k steps before T
    and the states of its neighbour beyond that junction are discarded.
    The unknowns are the initial velocity and the initial states of
    segments 2..M; the residuals are the junction defects and the landing
    error at y, and the returned ``boundary_error`` is their sup norm. All
    segments advance as one RK4 batch; single shooting is the case M = 1, a
    batch of one row on the same landing map.

    With M = 1 Newton starts from the straight line (y - x)/T and, if that
    fails, from (y - x)/T - F'(x), which leaves x along the gradient flow
    that long bridges follow. With M > 1 it starts from the paper's
    long-time picture (the turnpike seed): segment states on [0, T/2]
    follow the gradient flow from x with velocity -F', those on (T/2, T]
    the reversed flow from y with velocity +F'. The flows are exact for a
    builtin potential and RK4 on the solve's grid otherwise
    (``_turnpike_seed``).

    Each start runs ``_damped_newton``, which owns every escape and
    overflow of an integration. The Jacobian is block bidiagonal: each
    segment's 2d x 2d landing-map Jacobian, by forward differences with step
    1e-6*(1+|s|) for a segment's unknowns s, all integrated as one batch,
    and minus the identity for the next segment's start.
    ``_block_tridiagonal_solve`` solves it in O(M d^3) without forming the
    n x n matrix. With ``batched_rows`` every evaluated iterate advances its
    M segment starts and the n perturbed starts as one batch, one
    ``_integrate_phase`` call of M + n rows; if that batch leaves the domain
    or overflows, the iterate is judged on its M rows alone and
    ``newton_step`` integrates the n perturbed rows on the fine grid by
    themselves, so the loop makes the decisions two passes would.

    A potential without ``batched_rows`` pays per row, so it integrates rows
    only where they are used: each evaluation its M starts, each step its n
    perturbed rows, differenced against the landings the evaluation holds.
    When kc < k (``_jacobian_steps``) each start runs that same Newton loop
    twice. The coarse phase takes kc steps per segment, each row run to its
    own junction, to ``tol_boundary``; its last step keeps its Jacobian
    blocks. The fine phase starts from the coarse solution on the fine grid,
    and its first step takes those blocks. A coarse phase that misses the
    tolerance, or whose start is unusable, leaves the fine phase the raw
    guess and no Jacobian.

    ``context["restarts"]`` is the index of the start that converged,
    ``context["segments"]`` is M, ``iterations`` counts the fine passes and
    ``context["coarse_iterations"]`` the coarse ones, over every start.
    """
    opts = opts or SolverOptions()
    x = P.check_domain(x)
    y = P.check_domain(y)
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    d = P.dim
    steps = opts.nodes(T) - 1
    starts, k = _segment_starts(P, T, steps)
    M = len(starts)
    span = k * (T / steps)
    # RK4 steps per segment of the coarse Newton phase, which runs when kc < k
    kc = k if P.batched_rows else _jacobian_steps(P, x, y, span, k)
    # local step at which each segment meets the next one, or lands at T
    meet = np.append(np.diff(starts), k)
    # unknown p is component comp[p] of the initial state of segment seg[p]
    seg = np.repeat(np.arange(M), 2 * d)[d:]
    comp = np.tile(np.arange(2 * d), M)[d:]
    n = seg.size

    def initial_states(u):
        return np.concatenate([x, u]).reshape(M, 2 * d)

    def perturbed_rows(Z):
        """Each unknown's segment start with that unknown moved by its
        forward-difference step fd = 1e-6*(1+|s|); returns (rows (n, 2d), fd)."""
        scale = np.linalg.norm(Z, axis=1)
        scale[0] = np.linalg.norm(Z[0, d:])
        fd = 1e-6 * (1.0 + scale[seg])
        rows = Z[seg]
        rows[np.arange(n), comp] += fd
        return rows, fd

    def jacobian_blocks(moved, landed, fd):
        """The (M, 2d, 2d) landing-map Jacobians from the (n, 2d) landings of
        the perturbed rows and the (M, 2d) landings of their segments; the
        first segment's start position is x, so its block keeps only the
        velocity columns."""
        jac = np.zeros((M, 2 * d, 2 * d))
        jac[seg, :, comp] = (moved - landed[seg]) / fd[:, None]
        return jac

    def residuals(landed, Z):
        """Each segment's landing minus the next one's start, the last minus y."""
        return landed.ravel()[:n] - np.concatenate([Z[1:].ravel(), y])

    def advance(rows, segs, kk):
        """Run rows (m, 2d) from the starts of segments ``segs``: with kk = k
        on the solve's grid, k steps over span read at meet[segs], else each
        row to its own junction in kk steps; returns the paths and the
        (m, 2d) landings."""
        if kk == k:
            paths, nodes = _integrate_phase(P, rows, span, k), meet[segs]
        else:
            paths, nodes = _integrate_phase(P, rows, meet[segs] * (T / steps), kk), -1
        return paths, paths[nodes, :, np.arange(len(rows))].reshape(len(rows), -1)

    def landing_error(u, kk=k):
        """Sup-norm error of u on kk-step landing maps, with its (kk + 1, 2,
        M, d) segment paths, their landings, its residuals and, when the
        merged batch ran, its Jacobian blocks."""
        Z = initial_states(u)
        jac = None
        if P.batched_rows:
            rows, fd = perturbed_rows(Z)
            try:
                paths, ends = advance(np.concatenate([Z, rows]), np.append(np.arange(M), seg), kk)
                paths, landed = paths[:, :, :M], ends[:M]
                jac = jacobian_blocks(ends[M:], landed, fd)
            except (DomainEscape, NonFinite):
                # a perturbed row failed: judge the trial by its own rows, and
                # leave the Jacobian to newton_step
                pass
        if jac is None:
            paths, landed = advance(Z, np.arange(M), kk)
        r = residuals(landed, Z)
        return float(np.max(np.abs(r))), (paths, landed, r, jac)

    def newton_step(u, data, kk=k):
        """Newton step through the forward-difference segment Jacobians: the
        merged batch's, else (first fine step only) the blocks the last
        coarse step kept in ``carried``, else the n perturbed rows run in kk
        steps against the landings ``landing_error`` already has."""
        nonlocal carried
        _, landed, r, jac = data
        if jac is None and kk == k:
            jac, carried = carried, None
        if jac is None:
            rows, fd = perturbed_rows(initial_states(u))
            jac = jacobian_blocks(advance(rows, seg, kk)[1], landed, fd)
            if kk < k:
                carried = jac
        return _shooting_step(jac, r)

    # starting guesses, each built only when the one before it has failed
    if M == 1:
        straight = (y - x) / T
        guesses = (lambda: straight, lambda: straight - P.grad(x))
    else:
        guesses = (lambda: _turnpike_seed(P, x, y, T, steps, starts),)
    total_iters = coarse_iters = 0
    for attempt, guess in enumerate(guesses):
        u = guess()
        carried = None
        if kc < k:
            polished, err, _, passes = _damped_newton(
                lambda v: landing_error(v, kc), lambda v, data: newton_step(v, data, kc), u,
                opts.tol_boundary)
            coarse_iters += passes
            # an unconverged coarse phase leaves the fine phase the raw guess
            if err < opts.tol_boundary:
                u = polished
            else:
                carried = None
        _, err, data, iterations = _damped_newton(landing_error, newton_step, u,
                                                  opts.tol_boundary)
        total_iters += iterations
        if err < opts.tol_boundary:
            paths = data[0]
            path = np.empty((steps + 1, 2, d))
            # a later segment overwrites its neighbour from their junction on
            for j, s in enumerate(starts):
                path[s:s + k + 1] = paths[:, :, j]
            traj = Trajectory(np.linspace(0.0, T, steps + 1), path[:, 0], path[:, 1])
            return _finish_solution(traj, P, "shooting", err, total_iters,
                                    restarts=attempt, segments=M,
                                    coarse_iterations=coarse_iters)
    # a start that leaves the domain runs no iteration
    if not total_iters:
        raise DomainEscape("every trial trajectory left the domain")
    raise NoConvergence(
        f"shooting did not reach the boundary tolerance after {total_iters} iterations"
    )


def _shooting_step(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Newton step of multiple shooting from the segments' landing-map
    Jacobians ``jac`` (M, 2d, 2d) and the residuals r (2dM - d).

    The residuals of segment j are its landing minus the start of segment
    j + 1 (minus y, position only, for the last). The step solves the block
    bidiagonal system jac_j ds_j - ds_{j+1} = -r_j, with the first segment's
    start position pinned. Regrouped into block rows of 2d equations (the
    velocity defect at junction j, or the pinned start position for j = 0,
    then the position defect at junction j + 1), it is block tridiagonal in
    the M starts, every row with the same U = -I from its position defect to
    s_{j+1}; ``_block_tridiagonal_solve`` takes it in about log2 M batched QR passes.
    """
    M, m, _ = jac.shape
    d = m // 2
    L, D = np.zeros((2, M, m, m))
    L[1:, :d] = jac[:-1, d:]
    D[0, :d, :d] = np.eye(d)
    D[1:, :d, d:] = -np.eye(d)
    D[:, d:] = jac[:, :d]
    b = -np.concatenate([np.zeros(d), r]).reshape(M, m)
    return _block_tridiagonal_solve(L, D, -np.eye(m, k=-d), b).ravel()[d:]


def _turnpike_seed(P: Potential, x, y, T: float, steps: int, starts) -> np.ndarray:
    """Multiple-shooting unknowns from the gradient flows out of x and into y.

    A segment starting at node s <= steps/2 takes the state of the flow from
    x at node s of the solve's grid, with velocity -F'; a later one the state
    of the flow from y at node steps - s, with velocity +F' (that flow
    reversed in time). Both flows come from ``flows_on_grid`` on the solve's
    grid up to the last node read: exact for a builtin potential, RK4 on the
    grid otherwise.
    """
    early = 2 * starts <= steps
    node = np.where(early, starts, steps - starts)
    times = np.linspace(0.0, T, steps + 1)[:node.max() + 1]
    from_x, from_y = flows_on_grid(P, np.array([x, y]), times)
    Z = np.where(early[:, None],
                 np.hstack([from_x.states[node], from_x.velocities[node]]),
                 np.hstack([from_y.states[node], -from_y.velocities[node]]))
    return Z.ravel()[P.dim:]


# -- stationary discrete action ------------------------------------------------


def _velocity_matrix_apply(path: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite differences: centered inside, one-sided at the ends."""
    v = np.empty_like(path)
    v[1:-1] = (path[2:] - path[:-2]) / (2.0 * h)
    v[0] = (-3.0 * path[0] + 4.0 * path[1] - path[2]) / (2.0 * h)
    v[-1] = (3.0 * path[-1] - 4.0 * path[-2] + path[-3]) / (2.0 * h)
    return v


def solve_bridge_action(P: Potential, x, y, T: float, opts: SolverOptions | None = None) -> BridgeSolution:
    """Find the stationary point of the discretized action (endpoints pinned).

    The kinetic term is integrated with interval-midpoint speeds
    sum |p_{i+1} - p_i|^2 / h (node-centered differences leave a parity
    null mode that pollutes the minimizer with checkerboard offsets); the
    potential term is the trapezoidal rule at the nodes. The action is
    stationary where the interior nodes solve the discrete Euler-Lagrange
    equations r_i = p_{i+1} - 2 p_i + p_{i-1} - h^2 F''F'(p_i) = 0, whose
    residual is h^2/2 times the action gradient. ``_damped_newton`` solves
    them from the straight line, with diagonal Jacobian blocks -2 I -
    h^2 d(F''F')/dp by forward differences (step 1e-7*(1+|p|)) and one
    identity block for every off-diagonal one, each step a batched-QR
    ``_block_tridiagonal_solve``, until the action gradient's sup-norm
    (2/h) max |r| is below ACTION_GTOL; otherwise it raises NoConvergence
    with the gradient it stopped at (budget ``_integrate.NEWTON_MAX_ITER``).
    The returned trajectory carries velocities from centered differences on
    interior nodes (second-order one-sided at the ends), and its cost is the
    same end-corrected trapezoid used everywhere else; with second-order end
    velocities the end term does not make it fourth-order on this route.
    """
    opts = opts or SolverOptions()
    x = P.check_domain(x)
    y = P.check_domain(y)
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    n_nodes = opts.nodes(T)
    d = P.dim
    h = T / (n_nodes - 1)
    straight = np.linspace(0.0, 1.0, n_nodes)[:, None] * (y - x)[None, :] + x[None, :]

    def assemble(interior):
        path = np.empty((n_nodes, d))
        path[0] = x
        path[-1] = y
        path[1:-1] = interior.reshape(n_nodes - 2, d)
        return path

    def equations(z):
        """Action-gradient sup-norm of z, with the force and residuals at its nodes."""
        path = assemble(z)
        if not P.in_domain(path):
            return np.inf, None
        force = P.hess_grad_many(path[1:-1])
        r = path[2:] - 2.0 * path[1:-1] + path[:-2] - h * h * force
        return (2.0 / h) * float(np.max(np.abs(r))), (force, r)

    def newton_step(z, data):
        """Newton step by the nested-dissection block solve."""
        force, r = data
        inner = z.reshape(n_nodes - 2, d)
        fd = 1e-7 * (1.0 + np.linalg.norm(inner, axis=1))
        dforce = np.empty((n_nodes - 2, d, d))
        for k in range(d):
            shifted = inner.copy()
            shifted[:, k] += fd
            dforce[:, :, k] = (P.hess_grad_many(shifted) - force) / fd[:, None]
        eye = np.eye(d)
        return _block_tridiagonal_solve(eye, -2.0 * eye - h * h * dforce, eye, -r).ravel()

    z, err, _, iterations = _damped_newton(equations, newton_step, straight[1:-1].ravel(),
                                           ACTION_GTOL)
    if not err < ACTION_GTOL:
        raise NoConvergence(
            f"action route stopped at gradient sup-norm {err:.3g} after {iterations} "
            f"Newton iterations (target {ACTION_GTOL:g})"
        )
    path = assemble(z)
    traj = Trajectory(np.linspace(0.0, T, n_nodes), path, _velocity_matrix_apply(path, h))
    return _finish_solution(traj, P, "action", 0.0, iterations, grid_points=n_nodes)


#: The action route stops once the action gradient's sup-norm is below ACTION_GTOL.
ACTION_GTOL = 1e-8


def _block_tridiagonal_solve(L, D, U, b):
    """Solve L_i s_{i-1} + D_i s_i + U_i s_{i+1} = b_i for i < n, with
    s_{-1} = s_n = 0; L, D and U are (n, m, m) or one (m, m) block for every
    row (L_0 and U_{n-1} are not read) and b is (n, m).

    Orthogonal nested dissection (S. J. Wright, SIAM J. Sci. Stat. Comput. 13,
    1992): block rows pair into groups of 2m equations in four border unknowns,
    and each level merges neighbouring groups (an unpaired last one waits) by
    one batched Householder QR of their (4m, 6m + 1) panels, keeping the pivot
    rows of the unknowns they share: ceil(log2 ceil(n / 2)) passes, O(n m^3)
    work and O(n m^2) memory. Orthogonal steps keep it backward stable without
    choosing pivots; a singular system raises LinAlgError from a pivot block.
    """
    n, m = b.shape
    k = (n + 1) // 2
    # pair i is (s_{2i-1}, s_{2i}); group j is rows 2j, 2j + 1 as [pair j | pair j + 1 | b]
    E = np.zeros((2 * k, m, 4 * m + 1))
    E[:n, :, 4 * m] = b
    for c, X in enumerate((L, D, U)):
        E[0:n:2, :, c * m:c * m + m] = X[::2] if X.ndim == 3 else X
        E[1:n:2, :, c * m + m:c * m + 2 * m] = X[1::2] if X.ndim == 3 else X
    E[0, :, :m] = E[n - 1, :, (3 - n % 2) * m:(4 - n % 2) * m] = 0.0
    E[n:, :, 2 * m:3 * m] = np.eye(m)  # an odd n adds the row s_n = 0
    E = E.reshape(k, 2 * m, 4 * m + 1)
    edges, levels = np.arange(k + 1), []  # group j lies between pairs edges[j] and edges[j + 1]
    upper = np.arange(4 * m) >= np.arange(4 * m)[:, None]
    while len(E) > 1:
        # groups 2j, 2j + 1 as [shared pair | left pair | right pair | b]; an odd last one waits a level
        p = len(E) // 2
        R = np.zeros((p, 4 * m, 6 * m + 1))
        R[:, :2 * m, :2 * m] = E[0:2 * p:2, :, 2 * m:4 * m]
        R[:, :2 * m, 2 * m:4 * m] = E[0:2 * p:2, :, :2 * m]
        R[:, :2 * m, 6 * m] = E[0:2 * p:2, :, 4 * m]
        R[:, 2 * m:, :2 * m] = E[1:2 * p:2, :, :2 * m]
        R[:, 2 * m:, 4 * m:] = E[1:2 * p:2, :, 2 * m:]
        E = E[2 * p:].copy()
        # raw mode holds one copy of the panel, with reflectors below R's diagonal
        R = np.linalg.qr(R, mode="raw")[0].swapaxes(1, 2)
        R[:, :, :4 * m] *= upper
        levels.append((edges[:2 * p + 1], R[:, :2 * m].copy()))
        E = np.concatenate([R[:, 2 * m:, 2 * m:], E])
        edges = np.concatenate([edges[:-1:2], edges[-1:]])
        del R  # before the next level's panel
    # the last group pins s_0 and s_{2k-1}; s_{-1} = s_{2k} = 0
    pairs = np.zeros((k + 1, 2 * m))
    pairs[0, m:], pairs[k, :m] = np.linalg.solve(E[0, :, m:3 * m], E[0, :, 4 * m]).reshape(2, m)
    for e, R in reversed(levels):  # merge j finds pair e[2j + 1] from pairs e[2j] and e[2j + 2]
        outer = pairs[e[::2]]
        near = np.concatenate([outer[:-1], outer[1:]], axis=1)[:, :, None]
        rhs = R[:, :, 6 * m:] - R[:, :, 2 * m:6 * m] @ near
        pairs[e[1::2]] = np.linalg.solve(R[:, :, :2 * m], rhs)[:, :, 0]
    return pairs.reshape(-1, m)[1:n + 1]


def solve_bridge(P: Potential, x, y, T: float, opts: SolverOptions | None = None) -> BridgeSolution:
    """Dispatch on opts.method.

    ``auto`` tries shooting at every horizon and falls back to the action
    route only when shooting raises NoConvergence, DomainEscape or
    NonFinite.
    """
    opts = opts or SolverOptions()
    if opts.method == "shooting":
        return solve_bridge_shooting(P, x, y, T, opts)
    if opts.method == "action":
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


def _closed_form(P, x, y, T: float):
    """(path, energy, cost) of the exact bridge of the builtin potential P,
    or of the builtin of kind P at the endpoints' dimension; a custom
    potential, an unknown kind or the quadratic-matrix kind without its
    matrix is UnsupportedKind. ``path`` maps times (n, 1) to (states,
    velocities) through one numpy expression whatever n is.

    Neg-log, per coordinate: x(t)^2 = a t^2 + b t + x^2 with
    a = (x - y)^2/T^2 - 2/(S + xy), S = sqrt(x^2 y^2 + T^2), and
    b = (y^2 - x^2 - a T^2)/T. The energy is a and the cost, free of
    cancellation, a T + 2 int dt/x(t)^2 = a T + log1p(2T(S + T)/(x^2 y^2)).

    Quadratic, per eigenmode of A = F''(0) with endpoints u, w and rate
    k = |lam|: u W(T - t) + w W(t) with W(s) = sinh(ks)/sinh(kT). That is
    alpha e^{-kt} + beta e^{-k(T - t)}, with energy -4 lam^2 alpha beta
    e^{-kT} and cost k (1 - e^{-2kT})(alpha^2 + beta^2), all written to stay
    accurate as kT -> 0. A mode with lam = 0 is a straight line, W(s) = s/T.
    """
    P = _as_builtin(P, np.size(x))
    x, y = P.check_domain(x), P.check_domain(y)
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    if P.kind == NEG_LOG:
        xy = x * y
        S = np.sqrt(xy * xy + T * T)
        a = (x - y) ** 2 / (T * T) - 2.0 / (S + xy)
        b = (y * y - x * x - a * T * T) / T

        def path(t):
            r = np.sqrt(x * x + t * (a * t + b))
            return r, (2.0 * a * t + b) / (2.0 * r)

        return path, float(np.sum(a)), float(np.sum(a * T + np.log1p(2.0 * T * (S + T) / (xy * xy))))
    if P.kind not in (QUADRATIC_ISOTROPIC, QUADRATIC_MATRIX):
        raise UnsupportedKind(f"no closed form for kind {P.kind!r}")
    lam, Q = np.linalg.eigh(P.hessian(np.zeros(P.dim)))
    flat = lam == 0.0
    k = np.where(flat, 1.0, np.abs(lam))  # any rate: a flat mode takes the straight line
    u, w = Q.T @ x, Q.T @ y
    em, den = np.exp(-k * T), -np.expm1(-2.0 * k * T)

    def weight(s, rest):
        """W(s) and W'(s), given rest = T - s as the caller holds it."""
        e = np.exp(-k * rest)
        return (np.where(flat, s / T, -e * np.expm1(-2.0 * k * s) / den),
                np.where(flat, 1.0 / T, k * e * (1.0 + np.exp(-2.0 * k * s)) / den))

    def path(t):
        (back, dback), (ahead, dahead) = weight(T - t, t), weight(t, T - t)
        # an elementwise sum, not a matrix product, which BLAS may round
        # differently for one row and for many
        return [np.sum(m[:, None, :] * Q, axis=-1)
                for m in (u * back + w * ahead, w * dahead - u * dback)]

    d0, dT = weight(0.0, T)[1], weight(T, 0.0)[1]
    energy = (d0 * (u - w)) ** 2 - 4.0 * u * w * lam * lam * em / (1.0 + em) ** 2
    cost = dT * (u - w) ** 2 - 2.0 * u * w * np.abs(lam) * np.expm1(-k * T) / (1.0 + em)
    return path, float(np.sum(energy)), float(np.sum(cost))


def closed_form_energy(P, x, y, T: float) -> float:
    """Exact conserved quantity of the bridge of a builtin potential or kind."""
    return _closed_form(P, x, y, T)[1]


def closed_form_cost(P, x, y, T: float) -> float:
    """Exact cost of the bridge of a builtin potential or kind."""
    return _closed_form(P, x, y, T)[2]


def closed_form_bridge(P, x, y, T: float, t: float) -> np.ndarray:
    """Exact bridge point at time t in [0, T], evaluated as a one-node grid."""
    if not 0.0 <= t <= T:
        raise ValueError("t must lie in [0, T]")
    return _closed_form(P, x, y, T)[0](np.array([[float(t)]]))[0][0]


def closed_form_bridge_trajectory(P, x, y, T: float, steps: int) -> Trajectory:
    """Exact bridge on a uniform grid, with exact velocities."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    times = np.linspace(0.0, T, steps + 1)
    return Trajectory(times, *_closed_form(P, x, y, T)[0](times[:, None]))


def closed_form_solution(P: Potential, x, y, T: float, steps: int) -> BridgeSolution:
    """Package a closed-form trajectory with the usual diagnostics."""
    return _finish_solution(closed_form_bridge_trajectory(P, x, y, T, steps), P, "closed_form", 0.0, 0)
