"""Scalar functionals along trajectories: action, energy, defect, envelope,
and the concavity profiles used by the long-time estimates."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .flow import Trajectory, uniform_step
from .potential import Potential

if TYPE_CHECKING:
    from .bridge import SolverOptions


@dataclass
class EnergyStats:
    """Per-node conserved-quantity samples |v|^2 - |F'(x)|^2 with summary stats."""

    mean: float
    maxdev: float
    samples: np.ndarray  # shape (n, 2): columns (t, E(t))


@dataclass
class ConcavityProfile:
    """The transformed map Lambda(t) = exp(-a Phi(t)) and its worst curvature.

    ``max_second_difference`` is the largest central second difference
    divided by h^2 (curvature units); positive values beyond tolerance
    signal a concavity violation, reported with its grid location.
    """

    times: np.ndarray
    values: np.ndarray
    max_second_difference: float
    argmax_time: float


@dataclass
class EnvelopeCheck:
    """Central-difference cost derivative against the conserved quantity."""

    dcost_dT: float
    neg_energy: float
    gap: float


def action_cost(traj: Trajectory, P: Potential) -> float:
    """Trapezoidal quadrature of |v|^2 + |F'(x)|^2 using stored velocities."""
    return trapezoid_cost(traj, P.grad_many(traj.states))


def conserved_energy(traj: Trajectory, P: Potential) -> EnergyStats:
    """E(t) = |v(t)|^2 - |F'(x(t))|^2 per node; constant on true bridges."""
    return energy_stats(traj, P.grad_many(traj.states))


def trapezoid_cost(traj: Trajectory, grads: np.ndarray) -> float:
    """``action_cost`` from the rows F'(x) at the nodes, evaluated once by the caller."""
    if traj.n_nodes < 3:
        raise ValueError("action_cost needs at least 3 nodes")
    h = traj.spacing()
    g = np.sum(traj.velocities**2, axis=1) + np.sum(grads**2, axis=1)
    w = np.full(traj.n_nodes, h)
    w[0] = w[-1] = 0.5 * h
    return float(w @ g)


def energy_stats(traj: Trajectory, grads: np.ndarray) -> EnergyStats:
    """``conserved_energy`` from the rows F'(x) at the nodes, evaluated once by the caller."""
    E = np.sum(traj.velocities**2, axis=1) - np.sum(grads**2, axis=1)
    mean = float(np.mean(E))
    return EnergyStats(
        mean=mean,
        maxdev=float(np.max(np.abs(E - mean))),
        samples=np.column_stack([traj.times, E]),
    )


def defect_field(traj: Trajectory, P: Potential, t: float) -> np.ndarray:
    """F'(x(t)) + v(t): the deviation from gradient-flow motion at node t."""
    idx = traj.index_of(t)
    return P.grad(traj.states[idx]) + traj.velocities[idx]


def envelope_check(P: Potential, x, y, T: float, h: float,
                   opts: SolverOptions | None = None) -> EnvelopeCheck:
    """Compare the central difference of the cost in T against -E_T.

    Solves the bridge at T - h, T + h (cost derivative) and at T (conserved
    quantity); all three solves share the same options so quadrature bias
    cancels in the difference.
    """
    # the bridge module builds its solutions from this module's cost and energy
    from .bridge import SolverOptions, solve_bridge

    if T - h <= 0:
        raise ValueError("need T - h > 0")
    opts = opts or SolverOptions()
    c_minus = solve_bridge(P, x, y, T - h, opts).cost
    c_plus = solve_bridge(P, x, y, T + h, opts).cost
    mid = solve_bridge(P, x, y, T, opts)
    dcost = (c_plus - c_minus) / (2.0 * h)
    neg_e = -mid.energy_mean
    return EnvelopeCheck(dcost_dT=dcost, neg_energy=neg_e, gap=abs(dcost - neg_e))


def concavity_profile(times, phi_values, a: float) -> ConcavityProfile:
    """Profile Lambda = exp(-a Phi) on a uniform grid with curvature report."""
    times = np.asarray(times, dtype=float)
    phi_values = np.asarray(phi_values, dtype=float)
    if times.ndim != 1 or times.shape != phi_values.shape or times.size < 3:
        raise ValueError("need matching 1-d arrays with at least 3 samples")
    h = uniform_step(times)
    lam = np.exp(-a * phi_values)
    d2 = (lam[2:] - 2.0 * lam[1:-1] + lam[:-2]) / (h * h)
    k = int(np.argmax(d2))
    return ConcavityProfile(
        times=times,
        values=lam,
        max_second_difference=float(d2[k]),
        argmax_time=float(times[k + 1]),
    )


def cumulative_integral(times, values) -> np.ndarray:
    """Cumulative quadrature on a uniform grid, exact for cubics.

    Each interval is integrated with the quadratic through its neighbours
    and the two endpoint corrections averaged, giving O(h^4) accumulation;
    plain cumulative trapezoid would pollute second differences downstream.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.shape != f.shape or t.size < 3:
        raise ValueError("need matching 1-d arrays with at least 3 samples")
    h = uniform_step(t)
    n = t.size
    out = np.zeros(n)
    # parabola through (i-1, i, i+1) integrated over [i, i+1]
    fwd = h * (-f[:-2] + 8.0 * f[1:-1] + 5.0 * f[2:]) / 12.0
    # parabola through (i, i+1, i+2) integrated over [i, i+1]
    bwd = h * (5.0 * f[:-2] + 8.0 * f[1:-1] - f[2:]) / 12.0
    inc = np.empty(n - 1)
    inc[0] = bwd[0]
    inc[-1] = fwd[-1]
    if n > 3:
        # averaging the two one-sided parabolas cancels the cubic term
        inc[1:-1] = 0.5 * (fwd[:-1] + bwd[1:])
        # cubic end rules keep the edge intervals at the same order
        inc[0] = h * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3]) / 24.0
        inc[-1] = h * (9.0 * f[-1] + 19.0 * f[-2] - 5.0 * f[-3] + f[-4]) / 24.0
    out[1:] = np.cumsum(inc)
    return out
