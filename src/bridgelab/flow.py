"""Gradient-flow integration and the exactly solvable reference flows."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._integrate import integrate_grid
from .errors import DomainError, NonUniformGrid, OffGrid, UnsupportedKind
from .potential import ALL_SPACE, NEG_LOG, QUADRATIC_ISOTROPIC, QUADRATIC_MATRIX, Potential

#: Relative spacing variation tolerated before a grid counts as non-uniform.
UNIFORMITY_RTOL = 1e-12


def uniform_step(times: np.ndarray) -> float:
    """Step of a uniform time grid; raises NonUniformGrid when spacing varies.

    The spacing may vary by UNIFORMITY_RTOL * max(h, 1) plus 2 eps times the
    grid's largest |time|: rounding each node of ``np.linspace(0, T, n)``
    moves a step by up to about eps * T, 1.6e-12 at T = 1e4 on the default
    grid.
    """
    dt = np.diff(times)
    h = float(dt[0])
    rounding = 2.0 * np.finfo(float).eps * max(abs(times[0]), abs(times[-1]))
    if np.max(np.abs(dt - h)) > UNIFORMITY_RTOL * max(h, 1.0) + rounding:
        raise NonUniformGrid("time grid is not uniform")
    return h


@dataclass
class Trajectory:
    """A time grid with one state and one velocity per node."""

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        n = self.times.shape[0]
        if n < 2:
            raise ValueError("a trajectory needs at least two nodes")
        if self.states.shape[0] != n or self.velocities.shape[0] != n:
            raise ValueError("times, states and velocities must have equal length")
        if self.states.shape != self.velocities.shape:
            raise ValueError("states and velocities must have matching shapes")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.times.shape[0]

    @cached_property
    def _step(self) -> float:
        return uniform_step(self.times)

    def spacing(self) -> float:
        """Uniform grid step, resolved on the first call; raises NonUniformGrid
        (on every call) when spacing varies."""
        return self._step

    def nearest_index(self, t: float) -> int:
        """Index of the node nearest to time t, clamped to the grid."""
        idx = int(round((t - self.times[0]) / self.spacing()))
        return min(max(idx, 0), self.n_nodes - 1)

    def index_of(self, t: float) -> int:
        """Grid index of time t; raises OffGrid when t is not a node."""
        idx = self.nearest_index(t)
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise OffGrid(f"time {t} is not a grid node")
        return idx


def default_steps(T: float) -> int:
    """Grid-interval heuristic keeping per-step error around 1e-10."""
    return int(math.ceil(max(100.0, 100.0 * T)))


def gradient_flow(P: Potential, x0, T: float, steps: int | None = None):
    """Integrate dS/dt = -F'(S) from x0 over [0, T] with classical RK4.

    ``x0`` is one point (d,), which gives one Trajectory, or rows (m, d) of
    starting points, which are integrated as one batch and give a list of m
    Trajectories; a row of a batch follows exactly the path it would follow
    on its own. The grid is uniform with `steps` intervals (default
    heuristic ``ceil(max(100, 100 T))``). Node velocities are -F'(state).
    For positive-orthant potentials a step that leaves the orthant raises
    DomainEscape.
    """
    points = np.asarray(x0, dtype=float)
    batch = points.ndim == 2
    starts = np.array([P.check_domain(p) for p in (points if batch else [x0])])
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    if steps is None:
        steps = default_steps(T)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    feasible = P.in_domain if P.domain != ALL_SPACE else None
    states = integrate_grid(lambda X: -P.grad_many(X), starts, T, steps, feasible)
    times = np.linspace(0.0, T, steps + 1)
    paths = np.moveaxis(states, 1, 0).copy()  # one contiguous path per start
    flows = [Trajectory(times, path, -P.grad_many(path)) for path in paths]
    return flows if batch else flows[0]


def flows_on_grid(P: Potential, sources, times) -> list[Trajectory]:
    """The gradient flows from the rows ``sources`` (m, d) at the nodes of
    ``times``, a uniform grid from 0: exact (``closed_form_flow``) where P
    has a closed form, otherwise ``gradient_flow``'s RK4 with one step per
    grid interval, all sources as one batch. Velocities are -F'(state)."""
    try:
        exact = [closed_form_flow(P, p, times) for p in sources]
    except UnsupportedKind:
        return gradient_flow(P, sources, times[-1], steps=len(times) - 1)
    return [Trajectory(times, s, -P.grad_many(s)) for s in exact]


def closed_form_flow(P, x0, t) -> np.ndarray:
    """Exact gradient flow from x0 (d,) of the builtin potential, or builtin
    kind, P, at one time t, which gives (d,), or at an array of times (n,),
    which gives (n, d); a custom potential, or the quadratic-matrix kind
    without its matrix, is UnsupportedKind. A potential checks x0 against
    its domain, and the neg-log kind needs a positive x0 (DomainError
    otherwise). The quadratic-matrix flow is Q diag(e^{-lam t}) Q^T x0, its
    last product an elementwise sum as in the bridge closed forms."""
    t = np.asarray(t, dtype=float)[..., None]  # a time per row, broadcast over the coordinates
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    if isinstance(P, Potential):
        x0, kind = P.check_domain(x0), P.kind
    else:
        x0, kind = np.atleast_1d(np.asarray(x0, dtype=float)), P
        if kind == NEG_LOG and not np.all(x0 > 0.0):
            raise DomainError(f"point {x0} outside domain of {NEG_LOG}")
    if kind == QUADRATIC_ISOTROPIC:
        return np.exp(-t) * x0
    if kind == NEG_LOG:
        return np.sqrt(2.0 * t + x0 * x0)
    if kind == QUADRATIC_MATRIX and isinstance(P, Potential):
        lam, Q = np.linalg.eigh(P.hessian(np.zeros(P.dim)))
        return np.sum((np.exp(-lam * t) * (Q.T @ x0))[..., None, :] * Q, axis=-1)
    raise UnsupportedKind(f"no closed-form flow for kind {kind!r}")
