import numpy as np
import pytest

import bridgelab.bridge as bridge_module
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


# -- the phase-space kernel ------------------------------------------------------------


def as_rows(paths, d):
    """``_integrate_phase`` paths (steps + 1, 2, m, d) as (steps + 1, m, 2d)."""
    return paths.transpose(0, 2, 1, 3).reshape(len(paths), paths.shape[2], 2 * d)


def recording_force(P):
    """P with a force that keeps a copy of every batch it is called on."""
    seen = []
    force = P.force_fn

    def recorded(X):
        seen.append(X.copy())
        return force(X)

    P.force_fn = recorded
    return P, seen


def _cosh_custom(dim):
    return Potential.custom(dim, lambda x: float(np.sum(np.log(np.cosh(x)))), np.tanh,
                            lambda x, v: v / np.cosh(x) ** 2)


@pytest.mark.parametrize("P, rows", [
    (Potential.neg_log(1), [[1.0, 0.3], [2.0, -0.4], [0.5, 2.5], [1.3, 0.0]]),
    (Potential.neg_log(2), [[1.5, 1.2, 0.3, 0.8], [2.0, 1.5, -0.4, 1.0], [1.1, 1.6, 0.9, 0.1]]),
    (Potential.quadratic_matrix([[2.0, 0.5], [0.5, 1.0]]),
     [[1.0, -2.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0], [-3.0, 0.25, 1.0, -1.5]]),
    (_cosh_custom(2), [[1.0, -0.5, 0.2, 0.3], [0.2, 0.7, -1.0, 0.0]]),
], ids=["neg_log_1d", "neg_log_2d", "matrix_2x2", "custom_cosh_2d"])
def test_integrate_phase_equals_the_row_layout_reference(P, rows):
    # the reference keeps each state as one row (position, velocity) and
    # builds its right-hand side by slicing and concatenating
    rhs, feasible = phase_rows(P)
    per_row = np.linspace(0.3, 1.1, len(rows))
    for T in (0.8, per_row):
        reference = integrate_grid(rhs, rows, T, 6, feasible)
        paths = bridge_module._integrate_phase(P, np.array(rows), T, 6)
        assert paths.shape == (7, 2, len(rows), P.dim)
        assert np.array_equal(as_rows(paths, P.dim), reference)


def test_integrate_phase_escapes_before_the_force_sees_the_stage():
    # the inner stages of [0.1, 11.5] leave the orthant in the first step
    P, seen = recording_force(Potential.neg_log(1))
    rows = [[1.0, 0.3], [0.1, 11.5], [2.0, -0.4]]
    with pytest.raises(DomainEscape):
        bridge_module._integrate_phase(P, np.array(rows), 1.0, 4)
    assert seen and all(np.all(X > 0.0) for X in seen)
    assert np.array_equal(seen[0], np.array(rows)[:, :1])


def test_integrate_phase_overflows_at_the_reference_step():
    # x'' = x grows by about e per unit step: the row from 1e300 overflows
    # in its 18th step, the others never
    rows = [[1.0, 0.3, 0.5, 0.0], [1e300, 1e300, 0.0, 1e300], [-2.0, 1.0, 0.0, 0.5]]
    counts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for run in ("reference", "blocks"):
            P, seen = recording_force(Potential.quadratic_isotropic(2))
            rhs, feasible = phase_rows(P)
            with pytest.raises(NonFinite):
                if run == "reference":
                    integrate_grid(rhs, rows, 40.0, 40, feasible)
                else:
                    bridge_module._integrate_phase(P, np.array(rows), 40.0, 40)
            counts.append(len(seen))
    assert counts[0] == counts[1] and 4 < counts[0] < 4 * 40


def plain_rk4(rhs, z0, T, steps):
    """Classical RK4 written out step by step, one new array per operation."""
    z = np.asarray(z0, dtype=float)
    h = T / steps if np.ndim(T) == 0 else (np.asarray(T, dtype=float) / steps)[:, None]
    out = [z]
    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + (0.5 * h) * k1)
        k3 = rhs(z + (0.5 * h) * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(z)
    return np.array(out)


def test_integrate_grid_equals_plain_rk4_bit_for_bit():
    rhs, _ = phase_rows(Potential.neg_log(2))
    rows = [[1.5, 1.2, 0.3, 0.8], [2.0, 1.5, -0.4, 1.0], [1.1, 1.6, 0.9, 0.1]]
    for T in (1.1, np.array([0.4, 1.1, 0.9])):
        assert np.array_equal(integrate_grid(rhs, rows, T, 7), plain_rk4(rhs, rows, T, 7))


def test_integrate_grid_never_writes_into_what_rhs_returned():
    for field in (lambda z: -z, lambda z: z):  # a fresh array, and rhs's own argument
        returned = []

        def rhs(z):
            dz = field(z)
            returned.append((dz, dz.copy()))
            return dz

        # a phase-space batch (2, m, d) with per-row horizons
        batch = np.array([[[1.0], [2.0], [0.5]], [[0.3], [-0.4], [2.5]]])
        integrate_grid(rhs, batch, np.array([0.5, 1.0, 2.0]), 5)
        assert len(returned) == 20
        assert all(np.array_equal(dz, kept) for dz, kept in returned)


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
