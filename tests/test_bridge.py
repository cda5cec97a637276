import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import bridgelab.bridge as bridge_module
import bridgelab.flow as flow_module
from bridgelab import (
    DomainError,
    DomainEscape,
    NoConvergence,
    Potential,
    SolverOptions,
    UnsupportedKind,
    closed_form_bridge,
    closed_form_bridge_trajectory,
    closed_form_cost,
    closed_form_energy,
    closed_form_flow,
    newton_residual,
    solve_bridge,
    solve_bridge_action,
    solve_bridge_shooting,
)
from bridgelab._integrate import integrate_grid
from bridgelab.flow import Trajectory, gradient_flow
from bridgelab.potential import POSITIVE_ORTHANT

QUAD = "quadratic_isotropic"
NEGLOG = "neg_log"

_TURN = np.array([[math.cos(0.6), -math.sin(0.6)], [math.sin(0.6), math.cos(0.6)]])

# exact bridges beyond the equal-endpoint and isotropic cases: neg-log at
# unequal endpoints in d = 1, 2, 3, an anisotropic matrix, a flat mode and
# a negative eigenvalue
EXACT_CASES = [
    (Potential.neg_log(1), [1.0], [3.0], 5.0),
    (Potential.neg_log(2), [1.0, 0.7], [1.6, 2.2], 10.0),
    (Potential.neg_log(3), [0.8, 2.0, 1.3], [1.7, 1.0, 2.5], 20.0),
    (Potential.quadratic_matrix(_TURN @ np.diag([0.3, 2.5]) @ _TURN.T), [1.0, -1.0], [0.5, 2.0], 10.0),
    (Potential.quadratic_matrix(np.diag([1.0, 0.0])), [1.0, -0.5], [0.3, 1.5], 10.0),
    (Potential.quadratic_matrix(np.diag([-1.0, 2.0])), [1.0, -0.5], [0.3, 1.5], 10.0),
]


def quad_alpha_beta(x, y, T):
    den = 1.0 - math.exp(-2.0 * T)
    return (x - y * math.exp(-T)) / den, (y - x * math.exp(-T)) / den


# -- closed forms ------------------------------------------------------------


def test_quadratic_closed_form_bridge_values():
    # zero endpoints stay at the stationary point
    assert closed_form_bridge(QUAD, [0.0], [0.0], 3.0, 1.7)[0] == 0.0
    # hand-evaluated midpoint: alpha = beta = (1 - e^-2)/(1 - e^-4), X_1 = 2 e^-1 alpha
    a, b = quad_alpha_beta(1.0, 1.0, 2.0)
    expected = math.exp(-1.0) * (a + b)
    assert expected == pytest.approx(0.648054, abs=1e-6)
    assert closed_form_bridge(QUAD, [1.0], [1.0], 2.0, 1.0)[0] == pytest.approx(expected)


@pytest.mark.parametrize("P, x, y, T", [
    (QUAD, [1.0, -0.5], [0.3, 2.0], 7.0),
    (QUAD, [0.4], [1.3], 0.5),
    (NEGLOG, [1.3], [1.3], 12.0),
    (NEGLOG, [0.2], [0.2], 3.0),
] + EXACT_CASES)
def test_closed_form_point_is_the_trajectory_node(P, x, y, T):
    # one time and a grid of times go through the same numpy expression
    traj = closed_form_bridge_trajectory(P, x, y, T, 997)
    points = np.array([closed_form_bridge(P, x, y, T, t) for t in traj.times])
    assert np.array_equal(points, traj.states)
    np.testing.assert_allclose(traj.states[[0, -1]], [x, y], rtol=1e-14)


def test_neglog_energy_root_of_its_quadratic():
    # conservation forces (T^2/4) E^2 - x^2 E - 1 = 0 with E < 0
    for T in (2.0, 5.0, 10.0, 50.0):
        for x in (1.0, 2.0):
            E = closed_form_energy(NEGLOG, [x], [x], T)
            assert E < 0
            assert (T * T / 4.0) * E * E - x * x * E - 1.0 == pytest.approx(0.0, abs=1e-12)
    assert closed_form_energy(NEGLOG, [1.0], [1.0], 2.0) == pytest.approx(
        (1.0 - math.sqrt(5.0)) / 2.0
    )


def test_neglog_closed_form_midpoint_is_turning_point():
    # at t = T/2 the speed vanishes, so E = -1/X_mid^2 there
    for T in (2.0, 7.0):
        E = closed_form_energy(NEGLOG, [1.0], [1.0], T)
        mid = closed_form_bridge(NEGLOG, [1.0], [1.0], T, T / 2.0)[0]
        assert mid == pytest.approx(1.0 / math.sqrt(-E), rel=1e-12)
    assert closed_form_bridge(NEGLOG, [1.0], [1.0], 2.0, 1.0)[0] == pytest.approx(
        1.2720196495140689
    )


def test_neglog_closed_form_endpoint_consistency():
    traj = closed_form_bridge_trajectory(NEGLOG, [1.0], [1.0], 5.0, 500)
    assert traj.states[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-12)
    # velocities satisfy the conservation law exactly
    E = closed_form_energy(NEGLOG, [1.0], [1.0], 5.0)
    cons = traj.velocities[:, 0] ** 2 - 1.0 / traj.states[:, 0] ** 2
    np.testing.assert_allclose(cons, E, atol=1e-12)


def test_neglog_closed_form_far_from_origin_is_finite():
    # x0^2 >> T: written as 2(x0^2 - sqrt(x0^4 + T^2))/T^2, E cancels to E x0^2 < -1
    x0, T = 1e4, 10.0
    assert np.all(np.isfinite(closed_form_bridge(NEGLOG, [x0], [x0], T, T / 3.0)))
    traj = closed_form_bridge_trajectory(NEGLOG, [x0], [x0], T, 10)
    assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.velocities))
    # the cost against the log-ratio form in 60 digits: per coordinate
    # a T + log|(2aT + b - 2)(b + 2) / ((2aT + b + 2)(b - 2))|
    for x, y, T in (([x0], [x0], T), ([1e3], [1e3], 1.0), ([1.0], [3.0], 5.0),
                    ([1.0, 0.7], [1.6, 2.2], 10.0)):
        with localcontext() as ctx:
            ctx.prec = 60
            TT, exact = Decimal(T), Decimal(0)
            for X, Y in zip(map(Decimal, x), map(Decimal, y)):
                a = (X - Y) ** 2 / TT**2 - 2 / ((X * X * Y * Y + TT * TT).sqrt() + X * Y)
                b = (Y * Y - X * X - a * TT * TT) / TT
                exact += a * TT + abs((2 * a * TT + b - 2) * (b + 2)
                                      / ((2 * a * TT + b + 2) * (b - 2))).ln()
        assert closed_form_cost(NEGLOG, x, y, T) == pytest.approx(float(exact), rel=1e-12)


def test_closed_form_rejects_unsupported_cases():
    evaluators = (
        lambda P, x, y: closed_form_bridge(P, x, y, 1.0, 0.5),
        lambda P, x, y: closed_form_bridge_trajectory(P, x, y, 1.0, 4),
        lambda P, x, y: closed_form_cost(P, x, y, 1.0),
        lambda P, x, y: closed_form_energy(P, x, y, 1.0),
    )
    custom = Potential.custom(1, lambda x: float(np.sum(np.cosh(x))))
    for evaluate in evaluators:
        # endpoints go through the potential's own domain and shape checks
        with pytest.raises(DomainError):
            evaluate(NEGLOG, [-1.0], [1.0])
        with pytest.raises(ValueError):
            evaluate(Potential.neg_log(1), [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(UnsupportedKind):
            evaluate(custom, [1.0], [1.0])


@pytest.mark.parametrize("T", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("P", [Potential.neg_log(1), Potential.quadratic_isotropic(1)],
                         ids=["neg_log", "quadratic"])
def test_every_route_rejects_a_horizon_that_is_not_positive_and_finite(P, T):
    routes = (solve_bridge_shooting, solve_bridge_action, closed_form_cost,
              lambda P, x, y, T: gradient_flow(P, x, T))
    for route in routes:
        with pytest.raises(ValueError, match="T must be positive and finite"):
            route(P, [1.0], [2.0], T)


# -- shooting ----------------------------------------------------------------


def test_shooting_stationary_pair_is_trivial():
    P = Potential.quadratic_isotropic(1)
    sol = solve_bridge_shooting(P, [0.0], [0.0], 3.0)
    assert sol.cost == pytest.approx(0.0, abs=1e-14)
    assert sol.energy_mean == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(sol.trajectory.states)) == pytest.approx(0.0, abs=1e-12)


def test_shooting_matches_quadratic_closed_form():
    P = Potential.quadratic_isotropic(1)
    sol = solve_bridge_shooting(P, [2.0], [1.0], 1.0)
    exact = closed_form_bridge_trajectory(QUAD, [2.0], [1.0], 1.0, sol.trajectory.n_nodes - 1)
    assert np.max(np.abs(sol.trajectory.states - exact.states)) <= 1e-7
    assert sol.boundary_error <= 1e-9


def test_shooting_quadratic_energy_and_cost_formulas():
    P = Potential.quadratic_isotropic(1)
    for T in (0.5, 1.0, 2.0, 5.0):
        opts = SolverOptions(grid_points=int(800 * max(T, 1.0)) + 1)
        for x, y in ((2.0, 1.0), (1.0, 1.0), (-1.0, 3.0)):
            sol = solve_bridge_shooting(P, [x], [y], T, opts)
            a, b = quad_alpha_beta(x, y, T)
            assert sol.energy_mean == pytest.approx(
                -4.0 * math.exp(-T) * a * b, abs=1e-7 * (1 + abs(a * b))
            )
            assert sol.cost == pytest.approx(
                (1.0 - math.exp(-2.0 * T)) * (a * a + b * b), rel=2e-6
            )
            assert sol.energy_maxdev <= 1e-6 * (1.0 + abs(sol.energy_mean))


def test_shooting_neglog_conserved_quantity():
    P = Potential.neg_log(1)
    for T in (2.0, 5.0, 10.0):
        sol = solve_bridge_shooting(P, [1.0], [1.0], T)
        expect = closed_form_energy(NEGLOG, [1.0], [1.0], T)
        assert sol.energy_mean == pytest.approx(expect, rel=1e-6)
        exact = closed_form_bridge_trajectory(NEGLOG, [1.0], [1.0], T, sol.trajectory.n_nodes - 1)
        assert np.max(np.abs(sol.trajectory.states - exact.states)) <= 1e-6


def test_shooting_neglog_asymmetric_endpoints_conserves():
    # no closed form here: correctness rests on conservation and the
    # discrete Newton residual
    P = Potential.neg_log(1)
    sol = solve_bridge_shooting(P, [1.0], [3.0], 4.0)
    assert sol.boundary_error <= 1e-9
    assert sol.energy_maxdev <= 1e-6 * (1.0 + abs(sol.energy_mean))
    h = sol.trajectory.spacing()
    assert sol.newton_residual <= 100.0 * h * h


def test_shooting_time_reversal_cost_symmetry():
    P = Potential.neg_log(1)
    c_fwd = solve_bridge_shooting(P, [1.0], [2.0], 3.0).cost
    c_rev = solve_bridge_shooting(P, [2.0], [1.0], 3.0).cost
    assert c_fwd == pytest.approx(c_rev, rel=1e-6)


def test_shooting_multidimensional_matrix_potential():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    P = Potential.quadratic_matrix(A)
    sol = solve_bridge_shooting(P, [1.0, -1.0], [0.5, 2.0], 2.0)
    assert sol.boundary_error <= 1e-9
    assert sol.energy_maxdev <= 1e-6 * (1.0 + abs(sol.energy_mean))
    act = solve_bridge_action(P, [1.0, -1.0], [0.5, 2.0], 2.0, opts=SolverOptions(grid_points=401))
    assert act.cost == pytest.approx(sol.cost, rel=1e-3)


@pytest.mark.parametrize("T, nodes, segments", [(40.0, 4001, 80), (160.0, 16001, 320)])
def test_auto_long_horizon_strongly_convex_goes_through_shooting(monkeypatch, T, nodes, segments):
    # auto tries shooting at every horizon; multiple shooting reaches these
    def refuse(*args, **kwargs):
        raise AssertionError("auto called the action route")

    monkeypatch.setattr(bridge_module, "solve_bridge_action", refuse)
    P = Potential.quadratic_isotropic(1)
    sol = solve_bridge(P, [1.0], [1.0], T, SolverOptions(grid_points=nodes))
    assert sol.solver == "shooting"
    assert sol.context["segments"] == segments
    exact = closed_form_bridge_trajectory(QUAD, [1.0], [1.0], T, nodes - 1)
    assert np.max(np.abs(sol.trajectory.states - exact.states)) <= 1e-9
    assert sol.cost == pytest.approx(closed_form_cost(QUAD, [1.0], [1.0], T), rel=1e-4)


def test_auto_falls_back_to_action_when_long_horizon_shooting_fails():
    # the segment rule reads the smallest eigenvalue, so a segment of 50
    # steps spans 2 time units and the stiff direction's landing map grows
    # like exp(30 * 2), beyond double precision: shooting cannot land
    P = Potential.quadratic_matrix(np.diag([0.2, 30.0]))
    x, y, T = [1.0, -1.0], [0.5, 2.0], 40.0
    opts = SolverOptions(grid_points=1001)
    with pytest.raises(NoConvergence):
        solve_bridge_shooting(P, x, y, T, opts)
    sol = solve_bridge(P, x, y, T, opts)
    act = solve_bridge_action(P, x, y, T, opts)
    assert sol.solver == "action"
    assert np.array_equal(sol.trajectory.states, act.trajectory.states)
    assert np.array_equal(sol.trajectory.velocities, act.trajectory.velocities)
    assert (sol.cost, sol.energy_mean, sol.iterations) == (act.cost, act.energy_mean, act.iterations)


@pytest.mark.parametrize("options", [
    {"method": "newton"}, {"tol_boundary": 0.0}, {"tol_boundary": -1e-9},
    {"tol_boundary": float("nan")}, {"tol_boundary": float("inf")}, {"grid_points": 2},
    {"grid_points": 101.7}, {"grid_points": "101"}, {"tol_boundary": "1e-9"},
    {"tol_boundary": True},
], ids=["method", "tol_zero", "tol_negative", "tol_nan", "tol_inf", "grid_points_small",
        "grid_points_fraction", "grid_points_text", "tol_text", "tol_bool"])
def test_solver_options_reject_out_of_range_values(options):
    with pytest.raises(ValueError):
        SolverOptions(**options)


def test_shooting_never_calls_the_action_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("shooting called the action route")

    monkeypatch.setattr(bridge_module, "solve_bridge_action", refuse)
    # a stiff quadratic on a coarse grid: shooting fails on its own
    P = Potential.quadratic_matrix(np.diag([0.2, 30.0]))
    with pytest.raises(NoConvergence):
        solve_bridge_shooting(P, [1.0, -1.0], [0.5, 2.0], 10.0, SolverOptions(grid_points=201))


def test_shooting_escape_when_every_start_leaves_domain():
    # F'(1) = 0, so both starts are the straight line, which crosses zero
    P = Potential.custom(
        1,
        lambda x: float(-np.log(x[0]) + 0.5 * x[0] ** 2),
        lambda x: np.array([x[0] - 1.0 / x[0]]),
        lambda x, v: (1.0 + 1.0 / x[0] ** 2) * v,
        domain=POSITIVE_ORTHANT,
    )
    with pytest.raises(DomainEscape):
        solve_bridge_shooting(P, [1.0], [0.05], 0.1)


# -- multiple shooting --------------------------------------------------------


def sup_error_against_closed_form(P, x, y, T, grid_points=None, solve=solve_bridge_shooting):
    sol = solve(P, x, y, T, SolverOptions(grid_points=grid_points))
    exact = closed_form_bridge_trajectory(P, x, y, T, sol.trajectory.n_nodes - 1)
    return sol, float(np.max(np.abs(sol.trajectory.states - exact.states)))


@pytest.mark.parametrize("T, segments", [(50.0, 100), (1000.0, 2000)])
def test_multiple_shooting_neglog_long_horizon_matches_closed_form(monkeypatch, T, segments):
    seed_steps = []

    def counted(rhs, z0, span, steps, feasible=None):
        seed_steps.append(steps)
        return integrate_grid(rhs, z0, span, steps, feasible)

    # a custom seed's flows would integrate through the flow module; a builtin's are exact
    monkeypatch.setattr(flow_module, "integrate_grid", counted)
    sol, err = sup_error_against_closed_form(Potential.neg_log(1), [1.0], [1.0], T)
    assert sol.context["segments"] == segments
    assert sol.trajectory.n_nodes == 100 * int(T) + 1  # the default grid
    assert err <= 1e-8
    assert seed_steps == []


def _double_well():
    """F = (x^2 - 1)^2 / 4: F'' = 3 x^2 - 1 is negative inside |x| < 1/sqrt(3)
    and rises to 2 at the minimizers x = 1 and -1."""
    return Potential.custom(1, lambda x: float((x[0] ** 2 - 1.0) ** 2 / 4.0),
                            lambda x: x ** 3 - x, lambda x, v: (3.0 * x ** 2 - 1.0) * v)


@pytest.mark.parametrize("P, x, y, segments, iterations", [
    (_double_well(), [0.1], [0.1], 4, 7),  # F''(0.1) < 0
    (Potential.quadratic_matrix(np.zeros((2, 2))), [1.0, -0.5], [0.3, 1.5], 40, 2),  # F'' = 0
])
def test_turnpike_seed_without_positive_curvature_runs_on_the_grid(P, x, y, segments, iterations):
    sol = solve_bridge_shooting(P, x, y, 20.0)
    assert sol.context["segments"] == segments
    assert sol.iterations == iterations and sol.boundary_error < 1e-9


@pytest.mark.parametrize("P, x0", [
    # F'' falls from 1 at 0 to 0.07 at 2
    (Potential.custom(1, lambda x: float(np.log(np.cosh(x[0]))), np.tanh,
                      lambda x, v: v / np.cosh(x) ** 2), 2.0),
    # F'' rises from 0.08 at 0.6 to 2 at the minimizer x = 1
    (_double_well(), 0.6),
])
def test_a_custom_turnpike_seed_runs_on_the_grid(P, x0):
    steps = 2000
    starts, _ = bridge_module._segment_starts(P, 20.0, steps)
    assert list(starts) == [0, 500, 1000, 1500]
    seed = bridge_module._turnpike_seed(P, np.array([x0]), np.array([x0]), 20.0, steps, starts)
    # unknowns: the first velocity, then each later start's state and velocity
    states = np.concatenate([[x0], seed[1::2]])
    on_grid = gradient_flow(P, [x0], 10.0, steps=1000).states[[0, 500, 1000, 500], 0]
    np.testing.assert_allclose(states, on_grid, rtol=1e-12)


@pytest.mark.parametrize("P, x, y", [
    (Potential.neg_log(2), [1.0, 0.7], [1.6, 2.2]),
    (Potential.quadratic_isotropic(2), [2.0, -1.0], [1.0, 0.5]),
    (Potential.quadratic_matrix([[2.0, 0.5], [0.5, 1.0]]), [1.0, -1.0], [0.5, 2.0]),
], ids=["neg_log", "isotropic", "matrix"])
def test_a_builtin_turnpike_seed_reads_the_exact_flows(monkeypatch, P, x, y):
    monkeypatch.setattr(flow_module, "gradient_flow", None)  # a builtin seed integrates nothing
    T, steps = 7.0, 700
    starts, _ = bridge_module._segment_starts(P, T, steps)
    assert len(starts) > 2
    seed = bridge_module._turnpike_seed(P, np.array(x), np.array(y), T, steps, starts)
    # unknowns: the first velocity, then each later start's state and velocity;
    # the first state is x itself, not an unknown
    Z = np.concatenate([[np.nan, np.nan], seed]).reshape(-1, 4)
    times = np.linspace(0.0, T, steps + 1)
    for j, s in enumerate(starts):
        if 2 * s <= steps:
            exact = closed_form_flow(P, x, times[s])
            assert np.array_equal(Z[j, 2:], -P.grad(exact))
        else:
            exact = closed_form_flow(P, y, times[steps - s])
            assert np.array_equal(Z[j, 2:], P.grad(exact))
        assert j == 0 or np.array_equal(Z[j, :2], exact)


@pytest.mark.parametrize("T, segments", [(5.0, 10), (20.0, 40)])
def test_multiple_shooting_lands_a_stiff_axis_in_one_newton_step(T, segments):
    # F'' = diag(1, 25): the seed is the exact flow, whose fast axis has decayed
    P = Potential.quadratic_matrix(np.diag([1.0, 25.0]))
    sol = solve_bridge_shooting(P, [1.0, -0.5], [0.3, 1.5], T)
    assert sol.context["segments"] == segments
    assert sol.iterations == 2 and sol.boundary_error < 1e-9


def test_multiple_shooting_quadratic_beyond_single_shooting_reach():
    sol, err = sup_error_against_closed_form(Potential.quadratic_isotropic(1), [2.0], [1.0], 200.0)
    assert sol.context["segments"] == 400
    assert err <= 1e-9


@pytest.mark.parametrize("P, x, y, T", [
    (Potential.neg_log(2), [1.0, 0.7], [1.6, 2.2], 23.0),
    (Potential.quadratic_isotropic(2), [2.0, -1.0], [1.0, 0.5], 12.0),
] + EXACT_CASES)
def test_multiple_shooting_segments_meet_within_the_boundary_tolerance(P, x, y, T):
    opts = SolverOptions(grid_points=2001)
    sol, err = sup_error_against_closed_form(P, x, y, T, opts.grid_points)
    cost = closed_form_cost(P, x, y, T)
    assert err <= 1e-8 and sol.cost == pytest.approx(cost, rel=1e-8)
    # the action route's second-order differences are O(h^2) off
    h = T / (opts.grid_points - 1)
    act, act_err = sup_error_against_closed_form(P, x, y, T, opts.grid_points, solve_bridge_action)
    assert act_err <= h * h and act.cost == pytest.approx(cost, rel=h * h)
    traj = sol.trajectory
    steps = traj.n_nodes - 1
    starts, k = bridge_module._segment_starts(P, T, steps)
    assert sol.context["segments"] == len(starts) > 2 and sol.boundary_error < opts.tol_boundary
    phase = np.hstack([traj.states, traj.velocities])
    # each segment, integrated alone from its stored start, reproduces the
    # stored nodes up to the next start and misses that start by at most tol
    ends = list(starts[1:]) + [steps]
    for s, e in zip(starts, ends):
        alone = bridge_module._integrate_phase(P, phase[s:s + 1], k * T / steps, k)[:, 0]
        np.testing.assert_allclose(alone[:e - s], phase[s:e], rtol=0, atol=1e-15)
        assert np.max(np.abs(alone[e - s] - phase[e])) <= opts.tol_boundary
    assert np.max(np.abs(traj.states[-1] - y)) <= opts.tol_boundary
    assert np.array_equal(traj.states[0], x)


def _quadratic_custom(dim):
    return Potential.custom(dim, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                            lambda x, v: v.copy(), rho=1.0)


def test_short_segments_for_builtins_and_the_span_rule_alone_for_custom_potentials():
    # 500 steps: builtins get 500 / SEGMENT_STEPS segments; a custom potential,
    # whose rows loop in Python, keeps the SEGMENT_SPAN count, here 1
    opts = SolverOptions(grid_points=501)
    for P in (Potential.neg_log(1), Potential.quadratic_isotropic(1)):
        assert P.batched_rows
        sol = solve_bridge_shooting(P, [1.0], [1.2], 5.0, opts)
        assert sol.context["segments"] == 500 // bridge_module.SEGMENT_STEPS == 10
    custom = _quadratic_custom(1)
    assert not custom.batched_rows
    sol = solve_bridge_shooting(custom, [1.0], [1.2], 5.0, opts)
    assert sol.context["segments"] == 1


def _span_rule_count(P, T, steps):
    """The segment count of the SEGMENT_SPAN rule alone."""
    wanted = min(math.ceil(T * max(P.rho or 0.0, 1.0) / bridge_module.SEGMENT_SPAN), steps // 2)
    return math.ceil(steps / math.ceil(steps / max(wanted, 1)))


@pytest.mark.parametrize("P", [Potential.neg_log(2), Potential.quadratic_isotropic(1),
                               Potential.quadratic_matrix(np.diag([0.5, 3.0]))],
                         ids=["neg_log", "quadratic", "matrix"])
def test_builtin_segments_are_short_and_at_least_the_span_count(P):
    K = bridge_module.SEGMENT_STEPS
    for T in (0.3, 1.0, 3.8, 10.0, 47.0, 200.0):
        for steps in (2, 3, 7, 49, 50, 51, 380, 1001, 4000, 20000):
            starts, k = bridge_module._segment_starts(P, T, steps)
            assert k <= K and len(starts) >= _span_rule_count(P, T, steps)
            # the segments cover the grid and the last one ends at T
            assert starts[0] == 0 and starts[-1] + k == steps
            assert np.all(np.diff(starts) <= k)


def test_custom_potential_keeps_one_segment_at_the_far_cosh_geometry():
    # the 2-D cosh case [1, 2] -> [0.5, -1] at T = 3.8 on the default grid
    P = Potential.custom(2, lambda x: float(np.sum(np.cosh(x))), np.sinh,
                         lambda x, v: np.cosh(x) * v, rho=1.0)
    steps = SolverOptions().nodes(3.8) - 1
    starts, k = bridge_module._segment_starts(P, 3.8, steps)
    assert (len(starts), k) == (1, steps) == (_span_rule_count(P, 3.8, steps), steps)
    assert len(bridge_module._segment_starts(_quadratic_custom(2), 3.8, steps)[0]) == 1


# M segments, with k = 50 steps each
MERGE_CASES = [
    (Potential.quadratic_isotropic(1), [2.0], [1.0], 20.0, 201, 4, (2, 3)),
    (Potential.neg_log(1), [1.0], [1.5], 15.0, 151, 3, (6, 11)),
]
MERGE_IDS = ["quadratic", "neg_log"]


def _counting_phase(monkeypatch, fails=lambda width: False):
    """Count ``_integrate_phase`` calls by batch width; a batch whose width
    ``fails`` accepts raises DomainEscape."""
    calls = []
    phase = bridge_module._integrate_phase

    def counted(P, Z0, T, steps):
        calls.append(len(Z0))
        if fails(len(Z0)):
            raise DomainEscape("patched: a perturbed row escapes")
        return phase(P, Z0, T, steps)

    monkeypatch.setattr(bridge_module, "_integrate_phase", counted)
    return calls


def _widths(P, M):
    """(merged batch, Jacobian rows) widths: M + n and n = 2dM - d."""
    n = 2 * P.dim * M - P.dim
    return M + n, n


@pytest.mark.parametrize("P, x, y, T, nodes, M, counts", MERGE_CASES, ids=MERGE_IDS)
def test_merged_landing_and_jacobian_batch_matches_two_passes(monkeypatch, P, x, y, T, nodes,
                                                              M, counts):
    # the two-pass reference is the same potential with every merged batch
    # escaping: each iterate then falls back to its M rows, and each Newton
    # step integrates the n Jacobian rows by itself
    opts = SolverOptions(method="shooting", grid_points=nodes)
    wide, n = _widths(P, M)
    calls = _counting_phase(monkeypatch)
    merged = solve_bridge_shooting(P, x, y, T, opts)
    n_merged = len(calls)
    assert set(calls) == {wide}
    calls = _counting_phase(monkeypatch, fails=lambda width: width == wide)
    separate = solve_bridge_shooting(P, x, y, T, opts)
    assert merged.context["segments"] == separate.context["segments"] == M
    assert np.array_equal(merged.trajectory.states, separate.trajectory.states)
    assert np.array_equal(merged.trajectory.velocities, separate.trajectory.velocities)
    assert merged.cost == separate.cost
    assert merged.boundary_error == separate.boundary_error
    assert merged.iterations == separate.iterations
    # one batch per evaluation against an extra Jacobian pass per Newton step
    two_pass = [width for width in calls if width != wide]
    assert (n_merged, len(two_pass)) == counts and calls.count(wide) == n_merged
    assert counts[1] == counts[0] + merged.iterations - 1
    assert set(two_pass) == {M, n}


@pytest.mark.parametrize("P, x, y, T, nodes, M, counts", MERGE_CASES, ids=MERGE_IDS)
def test_failed_merged_batch_keeps_every_newton_decision(monkeypatch, P, x, y, T, nodes, M,
                                                         counts):
    # every batch wider than the segment starts escapes: the solve must end
    # as the two-pass solve whose Jacobian escapes does, judging its start
    # by the M rows alone and taking no step after it
    opts = SolverOptions(method="shooting", grid_points=nodes)
    wide, n = _widths(P, M)
    outcomes = []
    for fails in (lambda width: width > M, lambda width: width in (wide, n)):
        calls = _counting_phase(monkeypatch, fails)
        with pytest.raises(NoConvergence) as info:
            solve_bridge_shooting(P, x, y, T, opts)
        outcomes.append(str(info.value))
        assert calls == [wide, M, n]
    assert outcomes[0] == outcomes[1]
    assert "after 1 iterations" in outcomes[0]


def _cosh_custom(dim):
    return Potential.custom(dim, lambda x: float(np.sum(np.cosh(x))), np.sinh,
                            lambda x, v: np.cosh(x) * v, rho=1.0)


def _quartic_custom(dim):
    return Potential.custom(dim, lambda x: float(np.sum(0.25 * x ** 4 + 0.5 * x ** 2)),
                            lambda x: x ** 3 + x, lambda x, v: (3.0 * x ** 2 + 1.0) * v, rho=1.0)


def _lse_custom(dim, c=0.5):
    """log-sum-exp plus c |x|^2 / 2."""
    def parts(x):
        p = np.exp(x - np.max(x))
        return p / p.sum()

    def value(x):
        m = float(np.max(x))
        return m + math.log(float(np.sum(np.exp(x - m)))) + 0.5 * c * float(x @ x)

    def hess_apply(x, v):
        p = parts(x)
        return p * v - p * float(p @ v) + c * v

    return Potential.custom(dim, value, lambda x: parts(x) + c * x, hess_apply, rho=c)


def _batched_twin(P):
    """P with ``batched_rows`` on: the same callables, shot as the builtins
    are, with each iterate's Jacobian from the merged fine-grid batch."""
    return Potential(P.kind, P.dim, rho=P.rho, n_dim=P.n_dim, domain=P.domain,
                     value_fn=P._value_fn, grad_fn=P._grad_fn,
                     hess_apply_fn=P._hess_apply_fn, force_fn=P.force_fn,
                     minimizer=P.minimizer, batched_rows=True)


def _recording_phase(monkeypatch, fails=lambda width, steps: False):
    """Record ``_integrate_phase`` calls as (width, steps); a call that
    ``fails`` accepts raises DomainEscape."""
    calls = []
    phase = bridge_module._integrate_phase

    def recorded(P, Z0, T, steps):
        calls.append((len(Z0), steps))
        if fails(len(Z0), steps):
            raise DomainEscape("patched: a Jacobian row escapes")
        return phase(P, Z0, T, steps)

    monkeypatch.setattr(bridge_module, "_integrate_phase", recorded)
    return calls


def _coarse_steps(P, x, y, T, nodes):
    """(M, k, kc) of a custom solve: segments, fine and coarse Jacobian steps."""
    steps = nodes - 1
    starts, k = bridge_module._segment_starts(P, T, steps)
    kc = bridge_module._jacobian_steps(P, np.asarray(x, float), np.asarray(y, float),
                                       k * T / steps, k)
    return len(starts), k, kc


# custom potentials whose segment count the batched twin shares (k = 50),
# on grids fine enough for a coarse Jacobian (kc = 40 and 44)
COARSE_CASES = [
    (_quadratic_custom(1), [2.0], [1.0], 16.0, 201),
    (_cosh_custom(2), [0.3, -0.2], [-0.3, 0.4], 8.0, 101),
]
COARSE_IDS = ["quadratic", "cosh"]


def test_custom_shooting_integrates_the_jacobian_only_when_newton_steps(monkeypatch):
    # the 2-D cosh potential on two segments. The coarse phase evaluates the
    # M segment starts in kc < k steps and integrates the n perturbed rows,
    # also in kc steps, once per Newton step, against the landings of that
    # evaluation; the fine phase then evaluates the M starts on the fine
    # grid, and its first step takes the coarse phase's last Jacobian, so it
    # integrates no Jacobian batch
    P = _cosh_custom(2)
    x, y, T, nodes = [1.0, 0.5], [0.5, -1.0], 8.0, 401
    M, k, kc = _coarse_steps(P, x, y, T, nodes)
    _, n = _widths(P, M)
    assert (M, k) == (2, 200) and 1 <= kc < k
    opts = SolverOptions(method="shooting", grid_points=nodes)
    calls = _recording_phase(monkeypatch)
    sol = solve_bridge_shooting(P, x, y, T, opts)
    assert sol.context["segments"] == M and sol.boundary_error < opts.tol_boundary
    coarse = sol.context["coarse_iterations"]
    assert coarse > 1 and sol.iterations == 2
    fine = calls.index((M, k))
    assert set(calls[:fine]) == {(M, kc), (n, kc)}
    # the converged coarse iterate takes no step
    assert calls[:fine].count((n, kc)) == coarse - 1
    assert calls[:fine].count((M, kc)) >= coarse
    assert calls[fine:] == [(M, k)] * 2


# COARSE_CASES and a custom potential on three segments of k = 50 steps, which
# the batched twin shares as well
FALLBACK_CASES = COARSE_CASES + [(_cosh_custom(2), [0.3, -0.2], [-0.3, 0.4], 12.0, 151)]


@pytest.mark.parametrize("P, x, y, T, nodes", FALLBACK_CASES,
                         ids=COARSE_IDS + ["cosh_3_segments"])
def test_escaping_coarse_jacobian_steps_as_the_fine_jacobian_does(monkeypatch, P, x, y, T, nodes):
    # the reference is the batched twin, whose merged batch gives each
    # iterate the fine-grid Jacobian; with every kc-step call escaping, the
    # coarse phase's start is unusable, and the fine phase must start from
    # the raw guess and take the same steps from the same Jacobian rows
    M, k, kc = _coarse_steps(P, x, y, T, nodes)
    wide, n = _widths(P, M)
    assert kc < k
    opts = SolverOptions(method="shooting", grid_points=nodes)
    twin = solve_bridge_shooting(_batched_twin(P), x, y, T, opts)
    calls = _recording_phase(monkeypatch, fails=lambda width, steps: steps == kc)
    sol = solve_bridge_shooting(P, x, y, T, opts)
    assert sol.context["segments"] == twin.context["segments"] == M
    assert sol.context["coarse_iterations"] == 0
    assert np.array_equal(sol.trajectory.states, twin.trajectory.states)
    assert np.array_equal(sol.trajectory.velocities, twin.trajectory.velocities)
    assert sol.cost == twin.cost
    assert sol.boundary_error == twin.boundary_error
    assert sol.iterations == twin.iterations > 1
    # the coarse start escapes once; then each step: the coarse batch
    # escapes, and the n rows run on the fine grid
    assert calls[0] == (M, kc) and calls.count((M, kc)) == 1
    assert calls[-1] == (M, k)
    assert calls.count((wide, kc)) == calls.count((n, k)) == sol.iterations - 1
    assert set(calls) == {(M, kc), (M, k), (wide, kc), (n, k)}


@pytest.mark.parametrize("P, x, y, T, nodes", FALLBACK_CASES,
                         ids=COARSE_IDS + ["cosh_3_segments"])
def test_unconverged_coarse_phase_leaves_the_fine_phase_the_raw_guess(monkeypatch, P, x, y, T,
                                                                      nodes):
    # only the coarse Jacobian batch escapes: the coarse phase evaluates its
    # start, finds no step and stops short of the tolerance; the fine phase
    # then steps from the raw guess exactly as the batched twin does
    M, k, kc = _coarse_steps(P, x, y, T, nodes)
    wide, n = _widths(P, M)
    assert 2 <= M <= 4 and kc < k
    opts = SolverOptions(method="shooting", grid_points=nodes)
    twin = solve_bridge_shooting(_batched_twin(P), x, y, T, opts)
    coarse_batches = {(n, kc), (wide, kc)}  # of the coarse phase, and of a fine step
    calls = _recording_phase(monkeypatch,
                             fails=lambda width, steps: (width, steps) in coarse_batches)
    sol = solve_bridge_shooting(P, x, y, T, opts)
    assert sol.context["coarse_iterations"] == 1
    assert np.array_equal(sol.trajectory.states, twin.trajectory.states)
    assert np.array_equal(sol.trajectory.velocities, twin.trajectory.velocities)
    assert sol.cost == twin.cost and sol.boundary_error == twin.boundary_error
    assert sol.iterations == twin.iterations > 1
    # one coarse pass, then each fine step: the coarse batch escapes, and
    # the n rows run on the fine grid
    assert calls[:3] == [(M, kc), (n, kc), (M, k)]
    assert calls.count((M, kc)) == calls.count((n, kc)) == 1
    assert calls.count((wide, kc)) == calls.count((n, k)) == sol.iterations - 1


@pytest.mark.parametrize("P, x, y, T, nodes", FALLBACK_CASES[1:],
                         ids=["cosh", "cosh_3_segments"])
def test_unconverged_coarse_phase_leaves_no_jacobian_to_the_fine_phase(monkeypatch, P, x, y, T,
                                                                       nodes):
    # every coarse Jacobian batch but the first escapes: the coarse phase
    # takes one step, finds none on its second pass and stops short of the
    # tolerance. Its one Jacobian belongs to another point, so the fine
    # phase must not reuse it: from the raw guess it steps as the twin does
    M, k, kc = _coarse_steps(P, x, y, T, nodes)
    wide, n = _widths(P, M)
    opts = SolverOptions(method="shooting", grid_points=nodes)
    twin = solve_bridge_shooting(_batched_twin(P), x, y, T, opts)
    batches = []

    def later_batches(width, steps):
        batches.append((width, steps) in {(n, kc), (wide, kc)})
        return batches[-1] and sum(batches) > 1

    _recording_phase(monkeypatch, fails=later_batches)
    sol = solve_bridge_shooting(P, x, y, T, opts)
    assert sol.context["coarse_iterations"] == 2
    assert np.array_equal(sol.trajectory.states, twin.trajectory.states)
    assert sol.cost == twin.cost and sol.iterations == twin.iterations


@pytest.mark.parametrize("P, x, y, T, nodes", COARSE_CASES, ids=COARSE_IDS)
def test_escaping_coarse_and_fine_jacobians_stop_after_the_first_iteration(monkeypatch, P, x, y,
                                                                          T, nodes):
    # when the fine Jacobian escapes as well, no step is available: the solve
    # ends as the twin's does when its merged batch and Jacobian rows escape
    M, k, kc = _coarse_steps(P, x, y, T, nodes)
    wide, n = _widths(P, M)
    opts = SolverOptions(method="shooting", grid_points=nodes)
    outcomes = []
    for potential, escaping in ((P, {(n, kc), (wide, kc), (n, k)}),
                                (_batched_twin(P), {(wide, k), (n, k)})):
        calls = _recording_phase(monkeypatch, fails=lambda width, steps: (width, steps) in escaping)
        with pytest.raises(NoConvergence) as info:
            solve_bridge_shooting(potential, x, y, T, opts)
        outcomes.append(str(info.value))
    assert calls == [(wide, k), (M, k), (n, k)]  # the twin's
    assert outcomes[0] == outcomes[1]
    assert "after 1 iterations" in outcomes[0]


# the short cosh and quartic cases come from the benchmark's endpoint boxes,
# where a coarser rule (JACOBIAN_STEP = 0.2) added a Newton iteration to the
# one-phase solve; at T = 7.55 the first of two segments meets the second
# after 377 of 378 steps
@pytest.mark.parametrize("P, x, y, T, M", [
    (_cosh_custom(2), [-0.83, 0.18], [0.15, -0.84], 0.53, 1),
    (_cosh_custom(3), [0.83, -0.17, 0.83], [-0.17, 0.82, -0.18], 0.59, 1),
    (_cosh_custom(3), [0.3, -0.2, 0.1], [-0.3, 0.4, 0.2], 7.55, 2),
    (_quartic_custom(2), [0.5, -0.49], [-0.49, 0.51], 0.47, 1),
    (_quartic_custom(2), [0.5, -0.3], [-0.4, 0.6], 6.0, 2),
    (_quartic_custom(3), [-0.51, 0.49, -0.51], [0.49, -0.52, 0.5], 0.58, 1),
    (_lse_custom(2), [1.0, -0.5], [-0.2, 0.4], 3.0, 1),
    (_lse_custom(3), [1.0, -0.5, 0.3], [-0.2, 0.4, 1.1], 12.0, 3),
], ids=["cosh_2", "cosh_3", "cosh_3_far", "quartic_2", "quartic_2_far", "quartic_3", "lse_2",
        "lse_3_far"])
def test_coarse_jacobian_keeps_the_fine_jacobian_iteration_counts(monkeypatch, P, x, y, T, M):
    # the reference integrates every Newton step's batch on the fine grid, in
    # one phase from the raw guess; the nested solve polishes its coarse
    # solution in two fine passes, never more than the reference takes
    nodes = SolverOptions().nodes(T)
    _, k, kc = _coarse_steps(P, x, y, T, nodes)
    assert kc < k
    with monkeypatch.context() as patched:
        # kc = k: no coarse phase, and each Newton step's batch runs k steps
        patched.setattr(bridge_module, "_jacobian_steps", lambda P, x, y, span, k: k)
        fine = solve_bridge_shooting(P, x, y, T)
    calls = _recording_phase(monkeypatch)
    nested = solve_bridge_shooting(P, x, y, T)
    assert nested.context["segments"] == fine.context["segments"] == M
    assert nested.context["coarse_iterations"] > 1 and fine.context["coarse_iterations"] == 0
    assert nested.iterations == 2 <= fine.iterations
    # at most two fine evaluations of the M segment starts
    assert calls.count((M, k)) <= 2
    assert max(nested.boundary_error, fine.boundary_error) < 1e-9
    # both land within the boundary tolerance of the same solution
    assert np.max(np.abs(nested.trajectory.states - fine.trajectory.states)) <= 1e-8
    assert nested.cost == pytest.approx(fine.cost, rel=1e-8)


def test_coarse_jacobian_blocks_match_the_fine_grid_blocks(monkeypatch):
    # segments of 377 and 378 steps: each row of the coarse batch must run to
    # its own junction; the first Newton step's blocks against those of the
    # fine grid, which the escaping coarse batch falls back to
    P, x, y, T = _cosh_custom(3), [0.3, -0.2, 0.1], [-0.3, 0.4, 0.2], 7.55
    nodes = SolverOptions().nodes(T)
    M, k, kc = _coarse_steps(P, x, y, T, nodes)
    assert list(bridge_module._segment_starts(P, T, nodes - 1)[0]) == [0, 377] and k == 378
    blocks = []
    step = bridge_module._shooting_step
    monkeypatch.setattr(bridge_module, "_shooting_step",
                        lambda jac, r: blocks.append(jac) or step(jac, r))
    solve_bridge_shooting(P, x, y, T)
    coarse = blocks[0]
    blocks.clear()
    _recording_phase(monkeypatch, fails=lambda width, steps: steps == kc)
    solve_bridge_shooting(P, x, y, T)
    fine = blocks[0]
    for j in range(M):
        assert np.max(np.abs(coarse[j] - fine[j])) <= 1e-4 * np.max(np.abs(fine[j]))


def _dense_shooting_jacobian(jac):
    """The n x n multiple-shooting Jacobian, n = 2dM - d, from the segment blocks."""
    M, m, _ = jac.shape
    d = m // 2
    J = np.zeros((m * M, m * M))
    for j in range(M):
        J[m * j:m * j + m, m * j:m * j + m] = jac[j]
        if j + 1 < M:
            J[m * j:m * j + m, m * (j + 1):m * (j + 2)] = -np.eye(m)
    # the first start position is pinned and the last landing is checked in position only
    return J[:m * M - d, d:]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 2, 50])
def test_shooting_block_solve_matches_the_dense_solve(d, M):
    rng = np.random.default_rng(100 * d + M)
    # landing maps of short segments are near the identity
    jac = np.eye(2 * d) + 0.5 * rng.normal(size=(M, 2 * d, 2 * d))
    jac[0, :, :d] = 0.0
    r = rng.normal(size=2 * d * M - d)
    dense = np.linalg.solve(_dense_shooting_jacobian(jac), -r)
    step = bridge_module._shooting_step(jac, r)
    assert np.max(np.abs(step - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("d, n", [(1, 1), (2, 3), (3, 40)])
def test_block_tridiagonal_solve_matches_the_dense_solve(d, n):
    rng = np.random.default_rng(10 * d + n)
    L, D, U = rng.normal(size=(3, n, d, d))
    b = rng.normal(size=(n, d))
    A = np.zeros((n * d, n * d))
    for i in range(n):
        A[i * d:i * d + d, i * d:i * d + d] = D[i]
        if i:
            A[i * d:i * d + d, (i - 1) * d:i * d] = L[i]
        if i + 1 < n:
            A[i * d:i * d + d, (i + 1) * d:(i + 2) * d] = U[i]
    dense = np.linalg.solve(A, b.ravel())
    s = bridge_module._block_tridiagonal_solve(L, D, U, b).ravel()
    assert np.max(np.abs(s - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_singular_block_raises_linalg_error():
    # a segment whose landing ignores its start makes the system singular
    jac = np.random.default_rng(7).normal(size=(3, 4, 4))
    jac[1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        bridge_module._shooting_step(jac, np.ones(10))
    zero = np.zeros((4, 2, 2))
    with pytest.raises(np.linalg.LinAlgError):
        bridge_module._block_tridiagonal_solve(zero, zero, zero, np.ones((4, 2)))


# -- action minimization --------------------------------------------------------


def test_action_cross_solver_agreement_quadratic():
    P = Potential.quadratic_isotropic(1)
    shoot = solve_bridge_shooting(P, [2.0], [1.0], 1.0)
    act = solve_bridge_action(P, [2.0], [1.0], 1.0, opts=SolverOptions(grid_points=201))
    assert act.cost == pytest.approx(shoot.cost, rel=1e-4)


def test_action_stationary_pair_costs_nothing():
    P = Potential.quadratic_isotropic(2)
    sol = solve_bridge_action(P, [0.0, 0.0], [0.0, 0.0], 2.0, opts=SolverOptions(grid_points=201))
    assert sol.cost <= 1e-8


def test_action_cross_solver_agreement_neglog_long_horizon():
    P = Potential.neg_log(1)
    shoot = solve_bridge_shooting(P, [1.0], [1.0], 10.0)
    act = solve_bridge_action(P, [1.0], [1.0], 10.0, opts=SolverOptions(grid_points=1001))
    assert act.cost == pytest.approx(shoot.cost, rel=0.02)


def test_solve_bridge_dispatches_to_the_action_route():
    P = Potential.quadratic_isotropic(2)
    x, y, T, opts = [1.0, -0.5], [0.3, 1.5], 2.0, SolverOptions(method="action", grid_points=401)
    sol = solve_bridge(P, x, y, T, opts)
    assert sol.solver == "action"
    direct = solve_bridge_action(P, x, y, T, opts=opts)
    assert sol.trajectory.states.tobytes() == direct.trajectory.states.tobytes()
    assert sol.cost == pytest.approx(closed_form_cost(P, x, y, T), rel=1e-4)


def test_auto_falls_back_to_action(monkeypatch):
    def fail(*args, **kwargs):
        raise NoConvergence("shooting failed")

    monkeypatch.setattr(bridge_module, "solve_bridge_shooting", fail)
    P = Potential.neg_log(1)
    opts = SolverOptions(method="auto", grid_points=401)
    sol = solve_bridge(P, [1.0], [2.0], 2.0, opts)
    assert sol.solver == "action"
    # conservation at discretization accuracy (endpoint differences are O(h^2))
    assert sol.energy_maxdev <= 1e-3 * (1.0 + abs(sol.energy_mean))


def test_action_route_solves_its_discrete_equations():
    # for a quadratic the discrete Euler-Lagrange equations
    # p_{i+1} - 2 p_i + p_{i-1} = h^2 A^2 p_i are linear: solve them densely
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    x, y, T, nodes = np.array([1.0, -1.0]), np.array([0.5, 2.0]), 2.0, 201
    sol = solve_bridge_action(Potential.quadratic_matrix(A), x, y, T, SolverOptions(grid_points=nodes))
    n, h = nodes - 2, T / (nodes - 1)
    second_difference = np.diag(np.full(n, -2.0)) + np.eye(n, k=1) + np.eye(n, k=-1)
    K = np.kron(second_difference, np.eye(2)) - h * h * np.kron(np.eye(n), A @ A)
    rhs = np.zeros((n, 2))
    rhs[0], rhs[-1] = -x, -y
    exact = np.linalg.solve(K, rhs.ravel()).reshape(n, 2)
    assert np.max(np.abs(sol.trajectory.states[1:-1] - exact)) <= 1e-9


def test_action_route_fails_promptly_on_finite_difference_potential():
    # finite-difference derivatives leave the force too noisy for the
    # Jacobian's forward differences; the route says where it stopped
    P = Potential.custom(2, lambda x: float(np.sum(np.log(np.cosh(x))) + 0.5 * x @ x))
    with pytest.raises(NoConvergence, match="gradient sup-norm"):
        solve_bridge_action(P, [1.0, -0.5], [0.2, 0.7], 1.0, SolverOptions(grid_points=101))


def _log_sum_exp_potential():
    def softmax(x):
        e = np.exp(x - np.max(x))
        return e / np.sum(e)

    def value(x):
        m = float(np.max(x))
        return m + math.log(float(np.sum(np.exp(x - m)))) + 0.5 * float(x @ x)

    def hess_apply(x, v):
        p = softmax(x)
        return p * v - p * float(p @ v) + v

    return Potential.custom(3, value, lambda x: softmax(x) + x, hess_apply, rho=1.0)


@pytest.mark.parametrize("P, x, y, T", [
    (_log_sum_exp_potential(), [0.5, -1.0, 1.2], [-0.8, 0.3, 1.0], 3.0),
    (Potential.custom(2, lambda x: float(np.sum(0.25 * x**4 + 0.5 * x**2)), lambda x: x**3 + x,
                      lambda x, v: (3.0 * x**2 + 1.0) * v, rho=1.0),
     [1.0, -0.5], [0.2, 0.7], 0.5),
    (Potential.custom(2, lambda x: float(np.sum(np.cosh(x))), np.sinh,
                      lambda x, v: np.cosh(x) * v, rho=1.0),
     [0.8, -0.6], [-0.4, 0.9], 1.0),
], ids=["log_sum_exp_3d", "quartic_2d", "cosh_2d"])
def test_action_route_agrees_with_shooting_on_custom_potentials(P, x, y, T):
    shoot = solve_bridge_shooting(P, x, y, T)
    act = solve_bridge_action(P, x, y, T)
    assert act.cost == pytest.approx(shoot.cost, rel=1e-4)
    assert np.max(np.abs(act.trajectory.states - shoot.trajectory.states)) <= 1e-5


# -- residual diagnostics ------------------------------------------------------


def test_newton_residual_on_exact_bridge_is_differencing_noise():
    traj = closed_form_bridge_trajectory(QUAD, [2.0], [1.0], 1.0, 1000)
    P = Potential.quadratic_isotropic(1)
    assert newton_residual(traj, P) <= 1e-5


def test_newton_residual_zero_on_stationary_path():
    P = Potential.quadratic_isotropic(1)
    times = np.linspace(0.0, 1.0, 11)
    traj = Trajectory(times, np.zeros((11, 1)), np.zeros((11, 1)))
    assert newton_residual(traj, P) <= 1e-12


def test_newton_residual_flags_linear_path():
    P = Potential.quadratic_isotropic(1)
    times = np.linspace(0.0, 1.0, 101)
    states = (2.0 + (1.0 - 2.0) * times)[:, None]
    velocities = np.full_like(states, -1.0)
    traj = Trajectory(times, states, velocities)
    assert newton_residual(traj, P) > 0.1
