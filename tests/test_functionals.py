import math

import numpy as np
import pytest

from bridgelab import (
    NonUniformGrid,
    OffGrid,
    Potential,
    SolverOptions,
    Trajectory,
    action_cost,
    closed_form_bridge_trajectory,
    closed_form_cost,
    closed_form_energy,
    concavity_profile,
    conserved_energy,
    cumulative_integral,
    defect_field,
    envelope_check,
    gradient_flow,
    solve_bridge_shooting,
)

QUAD = "quadratic_isotropic"
NEGLOG = "neg_log"


def neglog_interior_integral(x0: float, T: float, t):
    """Exact running integral of |F'(X_s)|^2 = 1/X_s^2 along the equal-endpoint
    log-potential interpolation: X^2 is a quadratic in s with real roots
    outside [0, T], so partial fractions give a logarithm."""
    E = closed_form_energy(NEGLOG, [x0], [x0], T)
    b = 2.0 * math.sqrt(1.0 + E * x0 * x0)
    r1 = (-b + 2.0) / (2.0 * E)
    r2 = (-b - 2.0) / (2.0 * E)
    t = np.asarray(t, dtype=float)
    val = 0.5 * (np.log(np.abs((t - r1) / (t - r2))) - math.log(abs(r1 / r2)))
    return val


def test_action_cost_zero_on_stationary_path():
    P = Potential.quadratic_isotropic(1)
    times = np.linspace(0.0, 3.0, 51)
    traj = Trajectory(times, np.zeros((51, 1)), np.zeros((51, 1)))
    assert action_cost(traj, P) <= 1e-12


def test_action_cost_matches_quadratic_closed_form():
    P = Potential.quadratic_isotropic(1)
    traj = closed_form_bridge_trajectory(QUAD, [2.0], [1.0], 1.0, 4000)
    assert action_cost(traj, P) == pytest.approx(
        closed_form_cost(QUAD, [2.0], [1.0], 1.0), abs=1e-6
    )


@pytest.mark.parametrize("kind, P, x, y, T", [
    (QUAD, Potential.quadratic_isotropic(1), [2.0], [1.0], 5.0),
    (NEGLOG, Potential.neg_log(1), [1.0], [1.0], 5.0),
])
def test_action_cost_is_fourth_order_on_exact_bridges(kind, P, x, y, T):
    # the Euler-Maclaurin end term removes the trapezoid's h^2 error, so
    # halving the step divides the error by about 16
    exact = closed_form_cost(kind, x, y, T)
    errors = [abs(action_cost(closed_form_bridge_trajectory(kind, x, y, T, steps), P) - exact)
              for steps in (100, 200)]
    assert errors[1] <= 1e-7 * exact
    assert 14.0 <= errors[0] / errors[1] <= 18.0


def test_action_cost_neglog_long_horizon_log_growth():
    # dual route: trapezoid quadrature over the exact trajectory against the
    # antiderivative-based closed form, then the logarithmic growth band
    P = Potential.neg_log(1)
    T = 1000.0
    traj = closed_form_bridge_trajectory(NEGLOG, [1.0], [1.0], T, 200000)
    quad = action_cost(traj, P)
    exact = closed_form_cost(NEGLOG, [1.0], [1.0], T)
    assert quad == pytest.approx(exact, rel=1e-4)
    assert 0.9 <= quad / (2.0 * math.log(T)) <= 1.1


def test_action_cost_requires_uniform_grid():
    P = Potential.quadratic_isotropic(1)
    times = np.array([0.0, 0.1, 0.3, 0.6])
    traj = Trajectory(times, np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(NonUniformGrid):
        action_cost(traj, P)


def test_conserved_energy_quadratic_bridge():
    P = Potential.quadratic_isotropic(1)
    traj = closed_form_bridge_trajectory(QUAD, [1.0], [1.0], 2.0, 500)
    stats = conserved_energy(traj, P)
    assert stats.mean == pytest.approx(closed_form_energy(QUAD, [1.0], [1.0], 2.0), abs=1e-12)
    assert stats.maxdev <= 1e-12
    assert stats.samples.shape == (501, 2)


def test_conserved_energy_vanishes_identically_on_gradient_flow():
    P = Potential.neg_log(1)
    traj = gradient_flow(P, [1.0], 1.0)
    stats = conserved_energy(traj, P)
    assert stats.mean == 0.0 and stats.maxdev == 0.0  # velocities are -F' exactly


def test_defect_field_vanishes_on_gradient_flow():
    P = Potential.quadratic_isotropic(1)
    traj = gradient_flow(P, [2.0], 1.0)
    for t in (0.25, 0.5, 1.0):
        assert np.linalg.norm(defect_field(traj, P, t)) <= 1e-9


def test_defect_field_quadratic_bridge_formula():
    # along the closed form, F'(X_t) + V_t collapses to 2 e^{-(T-t)} beta
    T, x, y = 1.0, 2.0, 1.0
    P = Potential.quadratic_isotropic(1)
    traj = closed_form_bridge_trajectory(QUAD, [x], [y], T, 100)
    beta = (y - x * math.exp(-T)) / (1.0 - math.exp(-2.0 * T))
    for t in (0.0, 0.25, 0.5, 0.75):
        expected = 2.0 * math.exp(-(T - t)) * beta
        assert defect_field(traj, P, t)[0] == pytest.approx(expected, abs=1e-12)


def test_defect_field_norm_nondecreasing_on_bridges():
    for P, x, y, T in (
        (Potential.quadratic_isotropic(1), [2.0], [1.0], 1.0),
        (Potential.neg_log(1), [1.0], [1.0], 4.0),
    ):
        sol = solve_bridge_shooting(P, x, y, T)
        traj = sol.trajectory
        norms = np.linalg.norm(P.grad_many(traj.states) + traj.velocities, axis=1)
        assert np.all(np.diff(norms) >= -1e-9)


def test_defect_field_off_grid():
    P = Potential.quadratic_isotropic(1)
    traj = gradient_flow(P, [1.0], 1.0, steps=100)
    with pytest.raises(OffGrid):
        defect_field(traj, P, 0.0050001)


def test_envelope_identity_quadratic():
    P = Potential.quadratic_isotropic(1)
    opts = SolverOptions(grid_points=4001)
    report = envelope_check(P, [2.0], [1.0], 2.0, 1e-3, opts)
    assert report.gap <= 1e-4


def test_envelope_identity_neglog():
    P = Potential.neg_log(1)
    opts = SolverOptions(grid_points=4001)
    report = envelope_check(P, [1.0], [1.0], 5.0, 1e-3, opts)
    assert report.gap <= 1e-4


def test_envelope_trivial_at_stationary_pair():
    P = Potential.quadratic_isotropic(1)
    report = envelope_check(P, [0.0], [0.0], 2.0, 1e-3)
    assert report.gap <= 1e-10


def test_concavity_profile_flags_convex_control():
    t = np.linspace(0.0, 1.0, 101)
    prof = concavity_profile(t, t, 1.0)  # Lambda = exp(-t) is convex
    scale = np.max(np.abs(prof.values))
    assert prof.max_second_difference > 1e-3 * scale


def test_concavity_profile_rejects_nonuniform_grid():
    t = np.array([0.0, 0.1, 0.3])
    with pytest.raises(NonUniformGrid):
        concavity_profile(t, t, 1.0)


def test_improved_ripani_profile_is_affine_on_neglog_bridge():
    # with a = 1/n the transformed map is exactly affine for this potential,
    # so the measured curvature is pure numerical noise
    T = 2.0
    traj = closed_form_bridge_trajectory(NEGLOG, [1.0], [1.0], T, 2000)
    P = Potential.neg_log(1)
    phi = P.value_many(traj.states) + neglog_interior_integral(1.0, T, traj.times)
    prof = concavity_profile(traj.times, phi, 1.0)
    scale = np.max(np.abs(prof.values))
    assert abs(prof.max_second_difference) <= 1e-8 * scale


def test_cumulative_integral_matches_interior_closed_form():
    T = 2.0
    traj = closed_form_bridge_trajectory(NEGLOG, [1.0], [1.0], T, 4000)
    g = 1.0 / traj.states[:, 0] ** 2
    numeric = cumulative_integral(traj.times, g)
    exact = neglog_interior_integral(1.0, T, traj.times)
    assert np.max(np.abs(numeric - exact)) <= 1e-10


def test_cumulative_integral_exact_for_cubics():
    t = np.linspace(0.0, 1.0, 11)
    out = cumulative_integral(t, t**3)
    np.testing.assert_allclose(out, t**4 / 4.0, atol=1e-15)


def test_interior_derivative_band_on_neglog_bridges():
    # the running-entropy derivative is pinched between -n/t and n/(T - t)
    P = Potential.neg_log(1)
    n = P.n_dim
    for T in (2.0, 5.0):
        traj = closed_form_bridge_trajectory(NEGLOG, [1.0], [1.0], T, 1000)
        grads = P.grad_many(traj.states)
        phi_dot = np.sum(grads * (grads + traj.velocities), axis=1)
        t = traj.times[1:-1]
        assert np.all(phi_dot[1:-1] >= -n / t - 1e-9)
        assert np.all(phi_dot[1:-1] <= n / (T - t) + 1e-9)


def test_energy_cost_product_bound():
    # |E_T| T never exceeds the cost
    for T in (2.0, 5.0, 20.0):
        E = closed_form_energy(NEGLOG, [1.0], [1.0], T)
        C = closed_form_cost(NEGLOG, [1.0], [1.0], T)
        assert abs(E) * T <= C + 1e-8


def test_bridge_solution_cost_equals_action_cost():
    P = Potential.neg_log(1)
    sol = solve_bridge_shooting(P, [1.0], [1.0], 2.0)
    assert action_cost(sol.trajectory, P) == sol.cost
