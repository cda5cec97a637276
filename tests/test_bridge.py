import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import bridgelab.bridge as bridge_module
from bridgelab import (
    DomainEscape,
    NoConvergence,
    Potential,
    SolverOptions,
    UnsupportedEndpoints,
    UnsupportedKind,
    closed_form_bridge,
    closed_form_bridge_trajectory,
    closed_form_cost,
    closed_form_energy,
    newton_residual,
    solve_bridge,
    solve_bridge_action,
    solve_bridge_shooting,
)
from bridgelab.flow import Trajectory
from bridgelab.potential import POSITIVE_ORTHANT

QUAD = "quadratic_isotropic"
NEGLOG = "neg_log"


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
    with localcontext() as ctx:
        ctx.prec = 50
        X, TT = Decimal(x0), Decimal(T)
        D = X * X + (X**4 + TT * TT).sqrt()
        E, s = -2 / D, TT / D
        v0 = (-E).sqrt() * X
        exact = float(-4 * (s - ((1 + s) / v0).ln()) - TT * E)
    assert closed_form_cost(NEGLOG, [x0], [x0], T) == pytest.approx(exact, rel=1e-9)


def test_closed_form_rejects_unsupported_cases():
    evaluators = (
        lambda kind, x, y: closed_form_bridge(kind, x, y, 1.0, 0.5),
        lambda kind, x, y: closed_form_bridge_trajectory(kind, x, y, 1.0, 4),
        lambda kind, x, y: closed_form_cost(kind, x, y, 1.0),
        lambda kind, x, y: closed_form_energy(kind, x, y, 1.0),
    )
    for evaluate in evaluators:
        for x, y in (([1.0], [2.0]), ([1.0, 1.0], [1.0, 1.0]), ([-1.0], [-1.0])):
            with pytest.raises(UnsupportedEndpoints):
                evaluate(NEGLOG, x, y)
        with pytest.raises(UnsupportedKind):
            evaluate("quadratic_matrix", [1.0], [1.0])


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
    act = solve_bridge_action(P, [1.0, -1.0], [0.5, 2.0], 2.0, grid_points=401)
    assert act.cost == pytest.approx(sol.cost, rel=1e-3)


def test_auto_long_horizon_strongly_convex_goes_through_action():
    # the shooting landing map is exp(rho T)-sensitive, so beyond the
    # crossover the auto route must deliver the action solution
    P = Potential.quadratic_isotropic(1)
    sol = solve_bridge(P, [1.0], [1.0], 40.0, SolverOptions(grid_points=4001))
    assert sol.solver == "action"
    a, b = quad_alpha_beta(1.0, 1.0, 40.0)
    assert sol.cost == pytest.approx((1.0 - math.exp(-80.0)) * (a * a + b * b), rel=1e-3)


def test_shooting_no_convergence_budget():
    P = Potential.neg_log(1)
    with pytest.raises(NoConvergence):
        solve_bridge_shooting(
            P, [1.0], [3.0], 5.0, SolverOptions(max_iter=1, tol_boundary=1e-12)
        )


def test_shooting_never_calls_the_action_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("shooting called the action route")

    monkeypatch.setattr(bridge_module, "solve_bridge_action", refuse)
    with pytest.raises(NoConvergence):
        solve_bridge_shooting(Potential.neg_log(1), [1.0], [3.0], 5.0, SolverOptions(max_iter=1))


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
        solve_bridge_shooting(P, [1.0], [0.05], 0.1, SolverOptions(max_iter=1))


# -- multiple shooting --------------------------------------------------------


def sup_error_against_closed_form(kind, P, x, y, T, grid_points=None):
    sol = solve_bridge_shooting(P, x, y, T, SolverOptions(grid_points=grid_points))
    exact = closed_form_bridge_trajectory(kind, x, y, T, sol.trajectory.n_nodes - 1)
    return sol, float(np.max(np.abs(sol.trajectory.states - exact.states)))


@pytest.mark.parametrize("T, segments", [(50.0, 10), (1000.0, 200)])
def test_multiple_shooting_neglog_long_horizon_matches_closed_form(T, segments):
    sol, err = sup_error_against_closed_form(NEGLOG, Potential.neg_log(1), [1.0], [1.0], T)
    assert sol.context["segments"] == segments
    assert sol.trajectory.n_nodes == 100 * int(T) + 1  # the default grid
    assert err <= 1e-8


def test_multiple_shooting_quadratic_beyond_single_shooting_reach():
    sol, err = sup_error_against_closed_form(QUAD, Potential.quadratic_isotropic(1), [2.0], [1.0], 200.0)
    assert sol.context["segments"] == 40
    assert err <= 1e-9


@pytest.mark.parametrize("P, x, y, T", [
    (Potential.neg_log(2), [1.0, 0.7], [1.6, 2.2], 23.0),
    (Potential.quadratic_isotropic(2), [2.0, -1.0], [1.0, 0.5], 12.0),
])
def test_multiple_shooting_segments_meet_within_the_boundary_tolerance(P, x, y, T):
    opts = SolverOptions(grid_points=2001)
    sol = solve_bridge_shooting(P, x, y, T, opts)
    traj = sol.trajectory
    steps = traj.n_nodes - 1
    starts, k = bridge_module._segment_starts(P, T, steps)
    assert sol.context["segments"] == len(starts) > 2 and sol.boundary_error < opts.tol_boundary
    phase = np.hstack([traj.states, traj.velocities])
    # each segment, integrated alone from its stored start, reproduces the
    # stored nodes up to the next start and misses that start by at most tol
    ends = list(starts[1:]) + [steps]
    for s, e in zip(starts, ends):
        alone = bridge_module._integrate_phase(P, phase[s], k * T / steps, k)
        np.testing.assert_allclose(alone[:e - s], phase[s:e], rtol=0, atol=1e-15)
        assert np.max(np.abs(alone[e - s] - phase[e])) <= opts.tol_boundary
    assert np.max(np.abs(traj.states[-1] - y)) <= opts.tol_boundary
    assert np.array_equal(traj.states[0], x)


def test_short_horizons_keep_single_shooting():
    for P, T in ((Potential.neg_log(1), 5.0), (Potential.quadratic_isotropic(1), 5.0)):
        sol = solve_bridge_shooting(P, [1.0], [1.2], T, SolverOptions(grid_points=501))
        assert sol.context["segments"] == 1


# -- action minimization --------------------------------------------------------


def test_action_cross_solver_agreement_quadratic():
    P = Potential.quadratic_isotropic(1)
    shoot = solve_bridge_shooting(P, [2.0], [1.0], 1.0)
    act = solve_bridge_action(P, [2.0], [1.0], 1.0, grid_points=201)
    assert act.cost == pytest.approx(shoot.cost, rel=1e-4)


def test_action_stationary_pair_costs_nothing():
    P = Potential.quadratic_isotropic(2)
    sol = solve_bridge_action(P, [0.0, 0.0], [0.0, 0.0], 2.0, grid_points=201)
    assert sol.cost <= 1e-8


def test_action_cross_solver_agreement_neglog_long_horizon():
    P = Potential.neg_log(1)
    shoot = solve_bridge_shooting(P, [1.0], [1.0], 10.0)
    act = solve_bridge_action(P, [1.0], [1.0], 10.0, grid_points=1001)
    assert act.cost == pytest.approx(shoot.cost, rel=0.02)


def test_auto_falls_back_to_action():
    P = Potential.neg_log(1)
    opts = SolverOptions(method="auto", max_iter=1, grid_points=401)
    sol = solve_bridge(P, [1.0], [2.0], 2.0, opts)
    assert sol.solver == "action"
    # conservation at discretization accuracy (endpoint differences are O(h^2))
    assert sol.energy_maxdev <= 1e-3 * (1.0 + abs(sol.energy_mean))


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
