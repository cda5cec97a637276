"""Theorem-inequality reports on solved interpolations, plus rate fitting.

Twelve inequalities are machine-checked. B4-B7, B9, B10 need a positive
convexity bound rho (and, where a minimizer enters, a located one); B1-B3,
B8, B11, B12 need a finite dimension parameter n. Bounds whose hypotheses a
potential does not meet are skipped. Entropy differences F(y) - F(x) follow
the inequality statements, so every report is evaluated for both endpoint
orientations (the reversed trajectory reuses the forward solve).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import BridgeSolution, SolverOptions, reverse_solution, solve_bridge
from .errors import DegenerateSeries, MissingPrerequisite, BridgeLabError
from .flow import gradient_flow
from .functionals import defect_field
from .potential import Potential

#: Reports pass when margin >= -BOUND_TOL * (1 + |rhs|).
BOUND_TOL = 1e-8

POWER_LAW = "power_law"
EXPONENTIAL = "exponential"


@dataclass
class BoundReport:
    bound_id: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    context: dict = field(default_factory=dict)


@dataclass
class RateFit:
    exponent: float
    prefactor: float
    residual: float
    model: str


def _report(bound_id: str, lhs: float, rhs: float, **context) -> BoundReport:
    margin = rhs - lhs
    return BoundReport(
        bound_id=bound_id,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        passed=bool(margin >= -BOUND_TOL * (1.0 + abs(rhs))),
        context=context,
    )


def _sinh_ratio(a: float, b: float) -> float:
    """sinh(a)/sinh(b) computed without overflowing for large b >= a >= 0."""
    if b <= 0:
        raise ValueError("need b > 0")
    return (math.exp(a - b) - math.exp(-a - b)) / (1.0 - math.exp(-2.0 * b))


def verify_bounds(
    P: Potential,
    x,
    y,
    T: float,
    *,
    solution: BridgeSolution | None = None,
    c1: float | None = None,
    t_values=None,
    theta_values=None,
    opts: SolverOptions | None = None,
    both_orientations: bool = True,
) -> list[BoundReport]:
    """Evaluate every applicable bound on one solved case.

    `solution` is solved on demand; `c1` (the cost at unit horizon, needed by
    the logarithmic cost bounds) is likewise computed by an extra solve when
    a bound requires it. `t_values` defaults to {T/4, T/2, 3T/4} and
    `theta_values` to {0.1, ..., 0.9}.
    """
    opts = opts or SolverOptions()
    x = P.check_domain(x)
    y = P.check_domain(y)
    if t_values is None:
        t_values = [0.25 * T, 0.5 * T, 0.75 * T]
    if theta_values is None:
        theta_values = [k / 10.0 for k in range(1, 10)]

    if solution is None:
        solution = solve_bridge(P, x, y, T, opts)

    if c1 is None and np.isfinite(P.n_dim):
        try:
            c1 = solve_bridge(P, x, y, 1.0, opts).cost
        except BridgeLabError as exc:
            raise MissingPrerequisite(f"could not compute the unit-horizon cost: {exc}") from exc

    both = both_orientations and not np.array_equal(x, y)
    sources = [x, y] if both else [x]
    # the gradient flows of the orientations, one from each source, as one batch
    flows = [None, None]
    if np.isfinite(P.n_dim) or (P.rho is not None and P.rho > 0):
        flows[:len(sources)] = gradient_flow(P, np.array(sources), T,
                                             steps=solution.trajectory.n_nodes - 1)
    reports = _verify_one_orientation(
        P, x, y, T, solution, flows[0], c1, t_values, theta_values, "forward"
    )
    if both:
        reports += _verify_one_orientation(
            P, y, x, T, reverse_solution(solution), flows[1], c1, t_values, theta_values,
            "reversed"
        )
    return reports


def _verify_one_orientation(P, x, y, T, sol, flow, c1, t_values, theta_values, orientation):
    reports: list[BoundReport] = []
    traj = sol.trajectory
    n = P.n_dim
    rho = P.rho
    n_finite = np.isfinite(n)
    rho_pos = rho is not None and rho > 0
    has_min = P.minimizer is not None

    Fx = P.value(x)
    Fy = P.value(y)
    E = sol.energy_mean
    C = sol.cost
    base = {
        "potential": P.kind,
        "x": [float(v) for v in x],
        "y": [float(v) for v in y],
        "T": float(T),
        "orientation": orientation,
        "solver": sol.solver,
        "boundary_error": sol.boundary_error,
        "energy_maxdev": sol.energy_maxdev,
    }

    def phi_sq(idx: int) -> float:
        phi = defect_field(traj, P, traj.times[idx])
        return float(phi @ phi)

    if n_finite:
        reports.append(_report("B1", -E, 2.0 * n / T, part="energy", **base))
        if c1 is not None and T >= 1.0:
            reports.append(
                _report("B1", C, c1 + 2.0 * n * math.log(T), part="cost", c1=c1, **base)
            )
        log_budget = 2.0 * Fy - 2.0 * Fx + (c1 if c1 is not None else 0.0) + 2.0 * n * math.log(max(T, 1.0))
        for t in t_values:
            idx = traj.nearest_index(t)
            tt = float(traj.times[idx])
            if c1 is not None and T >= 1.0 and tt < T:
                reports.append(
                    _report("B2", phi_sq(idx), log_budget / (T - tt), t=tt, c1=c1, **base)
                )
        for theta in theta_values:
            idx = traj.nearest_index(theta * T)
            g = P.grad(traj.states[idx])
            reports.append(
                _report(
                    "B3",
                    float(g @ g),
                    n / (2.0 * T * theta * (1.0 - theta)),
                    theta=float(theta),
                    t=float(traj.times[idx]),
                    **base,
                )
            )
        for t in t_values:
            idx = traj.nearest_index(t)
            tt = float(traj.times[idx])
            dist = float(np.linalg.norm(traj.states[idx] - flow.states[idx]))
            if c1 is not None and T >= 1.0:
                budget = max(2.0 * (Fy - Fx) + c1 + 2.0 * n * math.log(T), 0.0)
                rhs = 2.0 * math.sqrt(budget) * (math.sqrt(T) - math.sqrt(T - tt))
                reports.append(_report("B8", dist, rhs, t=tt, c1=c1, **base))
        reports.append(
            _report(
                "B11",
                Fx - P.value(flow.states[-1]),
                0.5 * n * math.log1p((2.0 * T / n) * float(P.grad(x) @ P.grad(x))),
                **base,
            )
        )
        for t in t_values:
            idx = flow.nearest_index(t)
            tt = float(flow.times[idx])
            if tt > 0:
                g = P.grad(flow.states[idx])
                reports.append(_report("B12", float(g @ g), n / (2.0 * tt), t=tt, **base))

    if rho_pos:
        budget = max(C + 2.0 * Fy - 2.0 * Fx, 0.0)
        for t in t_values:
            idx = traj.nearest_index(t)
            tt = float(traj.times[idx])
            if tt < T:
                rhs = 2.0 * rho / math.expm1(2.0 * rho * (T - tt)) * budget
                reports.append(_report("B4", phi_sq(idx), rhs, t=tt, **base))
        disc = max(C * C - 4.0 * (Fx - Fy) ** 2, 0.0)
        reports.append(
            _report("B5", abs(E), 2.0 * rho / math.expm1(rho * T) * math.sqrt(disc), **base)
        )
        for t in t_values:
            idx = traj.nearest_index(t)
            tt = float(traj.times[idx])
            dist = float(np.linalg.norm(traj.states[idx] - flow.states[idx]))
            denom = math.exp(-2.0 * rho * tt) - math.exp(-2.0 * rho * T)
            if denom > 0:
                rhs = tt * math.exp(-rho * T) * math.sqrt(2.0 * rho / denom * budget)
                reports.append(_report("B7", dist, rhs, t=tt, **base))
        if has_min:
            Fstar = P.value(P.minimizer)
            for t in t_values:
                idx = traj.nearest_index(t)
                tt = float(traj.times[idx])
                c = Fstar - E / (4.0 * rho)
                s1 = _sinh_ratio(2.0 * rho * (T - tt), 2.0 * rho * T)
                s2 = _sinh_ratio(2.0 * rho * tt, 2.0 * rho * T)
                rhs = c + s1 * (Fx - c) + s2 * (Fy - c)
                reports.append(_report("B6", P.value(traj.states[idx]), rhs, t=tt, **base))
            tt = np.linspace(T / 2000.0, T - T / 2000.0, 1999)
            coth = lambda a: 1.0 / math.tanh(a)
            vals = [
                2.0 * coth(rho * s) * (Fx - Fstar) + 2.0 * coth(rho * (T - s)) * (Fy - Fstar)
                for s in tt
            ]
            k = int(np.argmin(vals))
            reports.append(_report("B9", C, vals[k], t_opt=float(tt[k]), **base))
            for label, p in (("x", x), ("y", y)):
                g = P.grad(p)
                reports.append(
                    _report(
                        "B10",
                        2.0 * rho * (P.value(p) - Fstar),
                        float(g @ g),
                        point=label,
                        **base,
                    )
                )
    return reports


def fit_rate(T_values, values, model: str) -> RateFit:
    """Least-squares rate fit in log space.

    ``power_law`` fits log v = e log T + log c; ``exponential`` fits
    log v = e T + log c. The residual is the RMS misfit of log v.
    """
    T_values = np.asarray(T_values, dtype=float)
    values = np.asarray(values, dtype=float)
    if T_values.shape != values.shape or T_values.ndim != 1:
        raise ValueError("T_values and values must be matching 1-d arrays")
    if T_values.size < 2:
        raise DegenerateSeries("need at least two points to fit a rate")
    if np.any(np.diff(T_values) <= 0):
        raise DegenerateSeries("T values must be strictly increasing")
    if np.any(values <= 0):
        raise DegenerateSeries("rate fits need strictly positive values")
    logv = np.log(values)
    if model == POWER_LAW:
        abscissa = np.log(T_values)
    elif model == EXPONENTIAL:
        abscissa = T_values
    else:
        raise ValueError(f"unknown rate model {model!r}")
    slope, intercept = np.polyfit(abscissa, logv, 1)
    fit = slope * abscissa + intercept
    return RateFit(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        residual=float(np.sqrt(np.mean((fit - logv) ** 2))),
        model=model,
    )
