import numpy as np
import pytest

from bridgelab import DomainEscape, NonFinite, Potential
from bridgelab._integrate import _damped_newton, integrate_grid


def positive(z):
    return bool(np.all(z > 0.0))


def recording(field):
    seen = []

    def rhs(z):
        seen.append(z.copy())
        return field(z)

    return rhs, seen


def test_a_midpoint_stage_outside_raises_before_rhs_sees_it():
    # dz/dt = -z from 1 with one step of 2.5: the first midpoint stage lands
    # at -0.25, so the step raises after rhs saw only its start
    rhs, seen = recording(lambda z: -z)
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, [1.0], 2.5, 1, positive)
    assert len(seen) == 1 and seen[0][0] == 1.0
    # two steps of 1.25 keep every stage positive and match the unguarded path
    rhs, seen = recording(lambda z: -z)
    out = integrate_grid(rhs, [1.0], 2.5, 2, positive)
    assert all(positive(z) for z in seen)
    assert np.array_equal(out, integrate_grid(lambda z: -z, [1.0], 2.5, 2))


def test_true_escape_raises_without_evaluating_rhs_outside():
    # constant drift through the boundary at t = 1
    rhs, seen = recording(lambda z: -np.ones_like(z))
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, [1.0], 2.0, 4, positive)
    assert seen and all(positive(z) for z in seen)
    rhs, seen = recording(lambda z: -z)
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, [-1.0], 1.0, 4, positive)
    assert not seen


def test_overflow_on_all_space_raises_nonfinite():
    # dz/dt = z^2 from 1e200 overflows in the first step
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
        integrate_grid(lambda z: z * z, [1e200], 1.0, 10)


def test_each_step_calls_rhs_and_feasible_four_times_on_the_whole_batch():
    calls = {"rhs": [], "feasible": []}

    def rhs(z):
        calls["rhs"].append(z.shape)
        return -z

    def feasible(z):
        calls["feasible"].append(z.shape)
        return positive(z)

    integrate_grid(rhs, [[1.0, 2.0], [3.0, 4.0]], 1.0, 3, feasible)
    # per step: k1 at the checked start, then three stages and the result
    assert calls["rhs"] == [(2, 2)] * 12
    assert calls["feasible"] == [(2, 2)] * (1 + 12)


# -- batches --------------------------------------------------------------------


def phase_rows(P):
    """Right-hand side and domain guard of the phase-space Newton system."""
    d = P.dim

    def rhs(z):
        return np.concatenate([z[..., d:], P.force_fn(z[..., :d])], axis=-1)

    return rhs, lambda z: P.in_domain(z[..., :d])


@pytest.mark.parametrize("P, rows", [
    (Potential.neg_log(1), [[1.0, 0.3], [2.0, -0.4], [0.5, 2.5]]),
    (Potential.quadratic_isotropic(2), [[1.0, -2.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0],
                                        [-3.0, 0.25, 1.0, -1.5]]),
])
def test_batch_rows_equal_single_state_integrations(P, rows):
    rhs, feasible = phase_rows(P)
    # one horizon for the batch, then one horizon per row
    for T, row_T in ((1.0, [1.0, 1.0, 1.0]), (np.array([0.3, 1.0, 0.77]), [0.3, 1.0, 0.77])):
        batch = integrate_grid(rhs, rows, T, 4, feasible)
        assert batch.shape == (5, len(rows), 2 * P.dim)
        for r, row in enumerate(rows):
            alone = integrate_grid(rhs, row, row_T[r], 4, feasible)
            assert np.array_equal(batch[:, r], alone)


def test_a_row_whose_midpoint_leaves_the_orthant_fails_the_batch_before_rhs_sees_it():
    # column 0 decays at the rate in column 1: with one step of 2.5 the first
    # midpoint stage of the fast row lands at -0.25, the others stay positive
    def field(z):
        return np.stack([-z[..., 0] * z[..., 1], 0.0 * z[..., 1]], axis=-1)

    rhs, seen = recording(field)
    rows = np.array([[1.0, 0.2], [1.0, 1.0], [2.0, 0.1]])
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, rows, 2.5, 1, positive)
    assert len(seen) == 1 and np.array_equal(seen[0], rows)
    for r in (0, 2):  # the other rows integrate alone without raising
        integrate_grid(field, rows[r], 2.5, 1, positive)


def test_a_row_that_keeps_escaping_fails_the_whole_batch():
    rhs, feasible = phase_rows(Potential.neg_log(1))
    # the second row falls into the origin well before T
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, [[1.0, 0.3], [0.5, -5.0], [2.0, 0.0]], 1.0, 10, feasible)
    # the inner stages of [0.1, 11.5] leave the orthant in its first step, so it
    # raises alone and in a batch with rows that integrate cleanly
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, [0.1, 11.5], 1.0, 4, feasible)
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, [[1.0, 0.3], [0.1, 11.5], [2.0, -0.4]], 1.0, 4, feasible)


# -- the damped Newton loop ----------------------------------------------------------


def distance_to(target, trials, escape_above=np.inf):
    """evaluate() of the toy problem u = target, recording every trial; a
    trial above `escape_above` raises DomainEscape."""

    def evaluate(u):
        trials.append(u.copy())
        if np.any(u > escape_above):
            raise DomainEscape("trial left the domain")
        return float(np.max(np.abs(u - target))), None

    return evaluate


def test_a_singular_system_ends_the_newton_loop():
    def singular(u, data):
        return np.linalg.solve(np.zeros((1, 1)), u)

    trials = []
    u, err, _, iterations = _damped_newton(distance_to(2.0, trials), singular, np.zeros(1), 1e-12)
    assert u[0] == 0.0 and err == 2.0
    assert iterations == 1 and len(trials) == 1


def test_a_step_that_is_not_finite_ends_the_newton_loop_without_trying_it():
    trials = []
    u, err, _, iterations = _damped_newton(distance_to(2.0, trials),
                                           lambda u, data: np.full(1, np.nan), np.zeros(1), 1e-12)
    assert u[0] == 0.0 and err == 2.0
    assert iterations == 1 and len(trials) == 1


def test_an_escaping_trial_is_unusable_and_its_step_is_halved():
    # the full step lands at 4, beyond the domain edge at 3; half of it lands on 2
    trials = []
    evaluate = distance_to(2.0, trials, escape_above=3.0)
    u, err, _, iterations = _damped_newton(evaluate, lambda u, data: 2.0 * (2.0 - u),
                                           np.zeros(1), 1e-12)
    assert u[0] == 2.0 and err == 0.0
    assert [t[0] for t in trials] == [0.0, 4.0, 2.0] and iterations == 2
    # a start outside the domain runs no iteration
    trials.clear()
    u, err, data, iterations = _damped_newton(evaluate, lambda u, data: 2.0 - u,
                                              np.full(1, 5.0), 1e-12)
    assert u[0] == 5.0 and err == np.inf and data is None and iterations == 0
    assert len(trials) == 1


def test_the_first_line_search_that_no_halving_improves_ends_the_newton_loop():
    # every step points away from the target
    trials = []
    u, err, _, iterations = _damped_newton(distance_to(2.0, trials),
                                           lambda u, data: u - 2.0, np.zeros(1), 1e-12)
    assert u[0] == 0.0 and err == 2.0
    assert iterations == 1 and len(trials) == 1 + 30


def test_the_newton_loop_lets_other_errors_through():
    def bad_direction(u, data):
        raise ValueError("direction must be finite")

    with pytest.raises(ValueError, match="direction must be finite"):
        _damped_newton(distance_to(2.0, []), bad_direction, np.zeros(1), 1e-12)
