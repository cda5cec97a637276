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

from .bridge import BridgeSolution, SolverOptions, closed_form_cost, reverse_solution, solve_bridge
from .errors import BridgeLabError, DegenerateSeries, MissingPrerequisite, UnsupportedKind
from .flow import flows_on_grid
from .functionals import defect_field
from .potential import Potential

#: Reports pass when margin >= -BOUND_TOL * (1 + |rhs|).
BOUND_TOL = 1e-8
#: Default fractions theta of B3, and default fractions t / T of the bounds read at a node.
THETA_VALUES = tuple(k / 10.0 for k in range(1, 10))
T_FRACTIONS = (0.25, 0.5, 0.75)

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


def _sinh_ratio(a: float, b: float) -> float:
    """sinh(a)/sinh(b) computed without overflowing for large b >= a >= 0."""
    if b <= 0:
        raise ValueError("need b > 0")
    return (math.exp(a - b) - math.exp(-a - b)) / (1.0 - math.exp(-2.0 * b))


def _expm1(x: float) -> float:
    """e^x - 1, or inf where that overflows: B4 and B5 divide by it."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def unit_horizon_cost(P: Potential, x, y, opts: SolverOptions | None = None) -> float | None:
    """c1, the cost of the bridge from x to y at horizon 1, which the
    logarithmic bounds need; None when P has no finite dimension parameter,
    since no bound then uses it. A builtin potential's c1 is its exact cost
    (``closed_form_cost``); any other potential's bridge is solved with
    `opts`, and a failed solve raises MissingPrerequisite.
    """
    if not np.isfinite(P.n_dim):
        return None
    try:
        try:
            return closed_form_cost(P, x, y, 1.0)
        except UnsupportedKind:
            return solve_bridge(P, x, y, 1.0, opts).cost
    except BridgeLabError as exc:
        raise MissingPrerequisite(f"could not compute the unit-horizon cost: {exc}") from exc


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
) -> list[BoundReport]:
    """Evaluate every applicable bound on one solved case.

    `solution` is solved on demand, and so is `c1` (see
    ``unit_horizon_cost``); a caller checking several horizons of one pair
    can solve `c1` once and pass it. The gradient flow of each orientation
    is read at the solution's node times (``flows_on_grid``): exact for a
    builtin potential, and otherwise RK4 on the solution's grid, both
    orientations as one batch. `t_values` defaults
    to T times T_FRACTIONS and `theta_values` to THETA_VALUES. Unless
    x == y, the reversed bridge from y to x is checked too. A report's
    context holds its own labels only: "orientation" ("forward" or
    "reversed") and, where the bound has them, "t", "theta", "part",
    "point", "c1" or "t_opt"; the case's potential, endpoints, T and
    solver diagnostics are the caller's to record, once per case.
    """
    opts = opts or SolverOptions()
    x = P.check_domain(x)
    y = P.check_domain(y)
    t_values = [f * T for f in T_FRACTIONS] if t_values is None else t_values
    theta_values = THETA_VALUES if theta_values is None else theta_values

    if solution is None:
        solution = solve_bridge(P, x, y, T, opts)

    if c1 is None:
        c1 = unit_horizon_cost(P, x, y, opts)

    both = not np.array_equal(x, y)
    sources = [x, y] if both else [x]
    # the gradient flow of each orientation, one from each source
    flows = [None, None]
    if np.isfinite(P.n_dim) or (P.rho is not None and P.rho > 0):
        flows[:len(sources)] = flows_on_grid(P, np.array(sources), solution.trajectory.times)
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

    def add(bound_id: str, lhs: float, rhs: float, **labels) -> None:
        """Append a report; its context is the orientation and the bound's own labels."""
        margin = rhs - lhs
        reports.append(BoundReport(bound_id, float(lhs), float(rhs), float(margin),
                                   bool(margin >= -BOUND_TOL * (1.0 + abs(rhs))),
                                   {"orientation": orientation, **labels}))

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

    # the node nearest each of t_values, shared by B2, B4, B6, B7 and B8
    nodes = [(idx, float(traj.times[idx])) for idx in map(traj.nearest_index, t_values)]

    def phi_sq(t: float) -> float:
        phi = defect_field(traj, P, t)
        return float(phi @ phi)

    def flow_gap(idx: int) -> float:
        return float(np.linalg.norm(traj.states[idx] - flow.states[idx]))

    if n_finite:
        add("B1", -E, 2.0 * n / T, part="energy")
        if c1 is not None and T >= 1.0:
            add("B1", C, c1 + 2.0 * n * math.log(T), part="cost", c1=c1)
            log_budget = 2.0 * Fy - 2.0 * Fx + c1 + 2.0 * n * math.log(T)
            for idx, tt in nodes:
                if tt < T:
                    add("B2", phi_sq(tt), log_budget / (T - tt), t=tt, c1=c1)
        for theta in theta_values:
            idx = traj.nearest_index(theta * T)
            g = P.grad(traj.states[idx])
            add("B3", float(g @ g), n / (2.0 * T * theta * (1.0 - theta)),
                theta=float(theta), t=float(traj.times[idx]))
        if c1 is not None and T >= 1.0:
            for idx, tt in nodes:
                rhs = 2.0 * math.sqrt(max(log_budget, 0.0)) * (math.sqrt(T) - math.sqrt(T - tt))
                add("B8", flow_gap(idx), rhs, t=tt, c1=c1)
        g = P.grad(x)
        add("B11", Fx - P.value(flow.states[-1]),
            0.5 * n * math.log1p((2.0 * T / n) * float(g @ g)))
        for t in t_values:
            idx = flow.nearest_index(t)
            tt = float(flow.times[idx])
            if tt > 0:
                g = P.grad(flow.states[idx])
                add("B12", float(g @ g), n / (2.0 * tt), t=tt)

    if rho_pos:
        budget = max(C + 2.0 * Fy - 2.0 * Fx, 0.0)
        for idx, tt in nodes:
            if tt < T:
                rhs = 2.0 * rho / _expm1(2.0 * rho * (T - tt)) * budget
                add("B4", phi_sq(tt), rhs, t=tt)
        disc = max(C * C - 4.0 * (Fx - Fy) ** 2, 0.0)
        add("B5", abs(E), 2.0 * rho / _expm1(rho * T) * math.sqrt(disc))
        for idx, tt in nodes:
            if tt < T:
                # t e^{-rho T} sqrt(2 rho budget / (e^{-2 rho t} - e^{-2 rho T})) in
                # T - t, without underflow: e^{-rho(T - t)} joins in log space, as
                # alone it underflows past rho(T - t) = 745 before the product does
                rest = rho * (T - tt)
                scale = tt * math.sqrt(2.0 * rho * budget / -math.expm1(-2.0 * rest))
                rhs = math.exp(math.log(scale) - rest) if scale > 0.0 else 0.0
                add("B7", flow_gap(idx), rhs, t=tt)
        if has_min:
            Fstar = P.value(P.minimizer)
            for idx, tt in nodes:
                c = Fstar - E / (4.0 * rho)
                s1 = _sinh_ratio(2.0 * rho * (T - tt), 2.0 * rho * T)
                s2 = _sinh_ratio(2.0 * rho * tt, 2.0 * rho * T)
                rhs = c + s1 * (Fx - c) + s2 * (Fy - c)
                add("B6", P.value(traj.states[idx]), rhs, t=tt)
            # B9 holds at every s in (0, T). With c = rho T, its infimum is
            # 2(a + b) coth c + 4 sqrt(ab) / sinh c, reached where tanh(rho s) =
            # sqrt(a) sinh c / (sqrt(a) cosh c + sqrt(b)), that is where 2 rho s =
            # c + log((sqrt(a) + sqrt(b) e^-c) / (sqrt(b) + sqrt(a) e^-c)). Both are
            # written in e^-c: at large c, sinh c overflows and tanh(rho s) rounds to 1
            a, b = max(Fx - Fstar, 0.0), max(Fy - Fstar, 0.0)
            ra, rb, e = math.sqrt(a), math.sqrt(b), math.exp(-rho * T)
            rhs = (2.0 * (a + b) / math.tanh(rho * T)
                   - 8.0 * ra * rb * e / math.expm1(-2.0 * rho * T))
            if ra > 0.0 and rb > 0.0:
                t_opt = (rho * T + math.log((ra + rb * e) / (rb + ra * e))) / (2.0 * rho)
            else:  # the limit s -> 0 if a = 0, s -> T if b = 0; a = b = 0 makes rhs 0 at every s
                t_opt = T if ra > 0.0 else (0.0 if rb > 0.0 else 0.5 * T)
            add("B9", C, rhs, t_opt=t_opt)
            for label, p in (("x", x), ("y", y)):
                g = P.grad(p)
                add("B10", 2.0 * rho * (P.value(p) - Fstar), float(g @ g), point=label)
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
