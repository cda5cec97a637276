import math

import numpy as np
import pytest

from bridgelab import (
    DomainError,
    DomainEscape,
    OffGrid,
    Potential,
    Trajectory,
    UnsupportedKind,
    closed_form_flow,
    concavity_profile,
    gradient_flow,
)
import bridgelab.flow as flow_module
from bridgelab.potential import POSITIVE_ORTHANT


def test_quadratic_flow_hits_exponential_decay():
    P = Potential.quadratic_isotropic(1)
    traj = gradient_flow(P, [1.0], 1.0)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert traj.states[0, 0] == 1.0  # initial condition exact


def test_neglog_flow_hits_sqrt_profile():
    P = Potential.neg_log(1)
    traj = gradient_flow(P, [1.0], 4.0)
    assert traj.states[-1, 0] == pytest.approx(3.0, abs=1e-8)


def test_flow_oracle_agreement_on_fine_grids():
    for kind, P, x0 in (
        ("quadratic_isotropic", Potential.quadratic_isotropic(1), [2.0]),
        ("neg_log", Potential.neg_log(1), [1.0]),
    ):
        for T in (1.0, 10.0):
            steps = int(1000 * T)
            traj = gradient_flow(P, x0, T, steps=steps)
            exact = np.array([closed_form_flow(kind, x0, t)[0] for t in traj.times])
            assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-7


def test_closed_form_flow_values():
    np.testing.assert_allclose(
        closed_form_flow("quadratic_isotropic", [2.0, 0.0], math.log(2.0)), [1.0, 0.0]
    )
    assert closed_form_flow("neg_log", [1.0], 0.0)[0] == 1.0
    assert closed_form_flow("neg_log", [1.0], 4.0)[0] == pytest.approx(3.0)
    with pytest.raises(UnsupportedKind):
        closed_form_flow("quadratic_matrix", [1.0], 1.0)


@pytest.mark.parametrize("P", [Potential.neg_log(1), "neg_log"], ids=["potential", "kind"])
@pytest.mark.parametrize("x0", [[-1.0], [0.0], [math.nan]])
def test_closed_form_flow_rejects_a_start_outside_the_neg_log_domain(P, x0):
    with pytest.raises(DomainError):
        closed_form_flow(P, x0, 1.0)


def rotated(diagonal, angle=0.7):
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag(diagonal) @ R.T


@pytest.mark.parametrize("A", [rotated([0.3, 2.5]), np.diag([1.0, 0.0])],
                         ids=["rotated_0.3_2.5", "diag_1_0"])
def test_closed_form_flow_of_a_quadratic_matrix_matches_gradient_flow(A):
    P = Potential.quadratic_matrix(A)
    x0 = [1.0, -0.5]
    traj = gradient_flow(P, x0, 3.0, steps=3000)
    exact = np.array([closed_form_flow(P, x0, t) for t in traj.times])
    assert np.max(np.abs(traj.states - exact)) <= 1e-12


@pytest.mark.parametrize("P, x0", [
    (Potential.quadratic_isotropic(2), [2.0, -1.0]),
    (Potential.neg_log(2), [1.0, 3.0]),
    (Potential.quadratic_matrix(rotated([0.3, 2.5])), [1.0, -0.5]),
], ids=["isotropic", "neg_log", "matrix"])
def test_closed_form_flow_over_an_array_of_times(P, x0):
    # one expression per kind: rows (n, d) at the times (n,), each the flow at its time
    rk4 = gradient_flow(P, x0, 3.0, steps=3000)
    flow = closed_form_flow(P, x0, rk4.times)
    assert flow.shape == rk4.states.shape
    each = np.array([closed_form_flow(P, x0, t) for t in rk4.times])
    np.testing.assert_allclose(flow, each, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(flow, rk4.states, rtol=1e-9, atol=0.0)
    with pytest.raises(ValueError):
        closed_form_flow(P, x0, np.array([0.0, -1e-3]))


def test_closed_form_flow_of_a_builtin_is_the_flow_of_its_kind():
    for P, x0 in ((Potential.quadratic_isotropic(2), [2.0, -1.0]), (Potential.neg_log(2), [1.0, 3.0])):
        for t in (0.0, 0.3, 7.0):
            assert np.array_equal(closed_form_flow(P, x0, t), closed_form_flow(P.kind, x0, t))
    with pytest.raises(UnsupportedKind):
        closed_form_flow(Potential.custom(1, lambda x: float(x @ x)), [1.0], 1.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_isotropic_quadratic_flow_is_the_exponential_decay_bit_for_bit(dim):
    # the isotropic kind runs through the quadratic-matrix expression, whose eigh(I) is (1, I)
    rng = np.random.default_rng(dim)
    P = Potential.quadratic_isotropic(dim)
    times = np.concatenate([[0.0], rng.uniform(0.0, 20.0, 50)])
    for x0 in rng.normal(scale=3.0, size=(20, dim)):
        flow = closed_form_flow(P, x0, times)
        assert flow.tobytes() == (np.exp(-times)[:, None] * x0).tobytes()
        for t in times[:5]:
            assert closed_form_flow(P, x0, t).tobytes() == (np.exp(-t) * x0).tobytes()


def test_flow_velocities_are_negative_gradients():
    P = Potential.neg_log(2)
    traj = gradient_flow(P, [1.0, 2.0], 2.0)
    np.testing.assert_allclose(traj.velocities, -P.grad_many(traj.states))


@pytest.mark.parametrize("P, starts", [
    (Potential.neg_log(2), [[1.0, 2.0], [0.3, 0.7], [2.5, 0.1]]),
    (Potential.quadratic_isotropic(2), [[2.0, -1.0], [0.0, 0.0]]),
])
def test_flows_from_rows_equal_flows_from_each_point(P, starts):
    flows = gradient_flow(P, np.array(starts), 1.5, steps=30)
    assert len(flows) == len(starts)
    for start, flow in zip(starts, flows):
        alone = gradient_flow(P, start, 1.5, steps=30)
        assert np.array_equal(flow.states, alone.states)
        assert np.array_equal(flow.velocities, alone.velocities)


def test_monotone_dissipation_along_flows():
    for P, x0 in (
        (Potential.quadratic_isotropic(2), [1.5, -2.0]),
        (Potential.neg_log(2), [0.5, 3.0]),
    ):
        traj = gradient_flow(P, x0, 5.0)
        values = P.value_many(traj.states)
        assert np.all(np.diff(values) <= 1e-10)


def test_costa_profile_concave_along_neglog_flow():
    for d, x0 in ((1, [1.0]), (2, [1.0, 2.0])):
        P = Potential.neg_log(d)
        traj = gradient_flow(P, x0, 4.0, steps=1600)
        phi = P.value_many(traj.states)
        prof = concavity_profile(traj.times, phi, 2.0 / P.n_dim)
        scale = np.max(np.abs(prof.values))
        assert prof.max_second_difference <= 1e-8 * scale


def test_fisher_decay_along_neglog_flow():
    for d, x0 in ((1, [1.0]), (3, [0.5, 1.0, 2.0])):
        P = Potential.neg_log(d)
        traj = gradient_flow(P, x0, 5.0)
        grads = P.grad_many(traj.states)
        fisher = np.sum(grads**2, axis=1)
        t = traj.times
        bound = P.n_dim / (2.0 * t[1:])
        assert np.all(fisher[1:] <= bound + 1e-10)


def test_entropy_gap_bound_along_neglog_flow():
    for d, x0 in ((1, [1.0]), (2, [0.5, 2.0])):
        P = Potential.neg_log(d)
        n = P.n_dim
        for T in (0.5, 2.0, 10.0):
            traj = gradient_flow(P, x0, T)
            lhs = P.value(traj.states[0]) - P.value(traj.states[-1])
            g0 = P.grad(traj.states[0])
            rhs = 0.5 * n * math.log1p((2.0 * T / n) * float(g0 @ g0))
            assert lhs <= rhs + 1e-8


def test_flow_escape_raises():
    # constant drift toward the boundary of the positive orthant
    P = Potential.custom(
        1,
        lambda x: float(x[0]),
        grad_fn=lambda x: np.ones(1),
        domain=POSITIVE_ORTHANT,
    )
    with pytest.raises(DomainEscape):
        gradient_flow(P, [0.5], 2.0, steps=100)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0]), np.zeros((1, 1)), np.zeros((1, 1)))
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), np.zeros((3, 2)), np.zeros((3, 2)))
    assert traj.dim == 2 and traj.spacing() == 0.5


@pytest.mark.parametrize("T", [1e4, 2e4, 1e5])
def test_default_long_horizon_grids_are_uniform(T):
    # np.linspace moves a step of the default grid by up to about one ulp of
    # T (1.6e-12 at T = 1e4), more than an absolute 1e-12; the grid and its
    # time reversal, as ``reverse_solution`` builds it, are uniform
    n = flow_module.default_steps(T) + 1
    times = np.linspace(0.0, T, n)
    assert flow_module.uniform_step(times) == pytest.approx(T / (n - 1), rel=1e-12)
    nodes = np.broadcast_to(0.0, (n, 1))
    for grid in (times, T - times[::-1]):
        traj = Trajectory(grid, nodes, nodes)
        # the reversed grid's first step is exact only to an ulp of T
        assert abs(traj.spacing() - T / (n - 1)) <= 2.0 * np.finfo(float).eps * T
        assert traj.index_of(T) == n - 1


def test_nearest_index_clamps_and_index_of_rejects_off_node_times():
    traj = Trajectory(np.linspace(0.0, 1.0, 5), np.zeros((5, 1)), np.zeros((5, 1)))
    assert traj.nearest_index(-3.0) == 0 and traj.nearest_index(7.0) == 4
    assert traj.nearest_index(0.3) == 1 and traj.nearest_index(0.4) == 2
    assert traj.index_of(0.5) == 2 and traj.index_of(1.0) == 4
    for t in (0.3, -0.25, 1.25):
        with pytest.raises(OffGrid):
            traj.index_of(t)
