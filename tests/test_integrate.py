import numpy as np
import pytest

from bridgelab import DomainEscape, Potential
from bridgelab._integrate import integrate_grid


def positive(z):
    return bool(np.all(z > 0.0))


def recording(field):
    seen = []

    def rhs(z):
        seen.append(z.copy())
        return field(z)

    return rhs, seen


def test_rhs_only_sees_feasible_states_while_steps_halve():
    # dz/dt = -z from 1 with one step of 2.5: the first midpoint stage lands
    # at -0.25, while every stage of a half step stays positive
    rhs, seen = recording(lambda z: -z)
    out = integrate_grid(rhs, [1.0], 2.5, 1, positive)
    assert all(positive(z) for z in seen)
    assert any(z[0] == 1.0 for z in seen[1:])  # the step was retried from its start
    two_half_steps = integrate_grid(lambda z: -z, [1.0], 2.5, 2)
    assert out[-1, 0] == two_half_steps[-1, 0] > 0.0


def test_true_escape_raises_without_evaluating_rhs_outside():
    # constant drift through the boundary at t = 1: no substep can stay inside
    rhs, seen = recording(lambda z: -np.ones_like(z))
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, [1.0], 2.0, 4, positive)
    assert seen and all(positive(z) for z in seen)
    rhs, seen = recording(lambda z: -z)
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, [-1.0], 1.0, 4, positive)
    assert not seen


# -- batches --------------------------------------------------------------------


def phase_rows(P):
    """Right-hand side and domain guard of the phase-space Newton system."""
    d = P.dim

    def rhs(z):
        return np.concatenate([z[..., d:], P.force_fn(z[..., :d])], axis=-1)

    return rhs, lambda z: P.in_domain(z[..., :d])


@pytest.mark.parametrize("P, rows", [
    # the second neg-log row's inner stages leave the orthant, so it is refined
    (Potential.neg_log(1), [[1.0, 0.3], [0.1, 11.5], [2.0, -0.4], [0.5, 2.5]]),
    (Potential.quadratic_isotropic(2), [[1.0, -2.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0],
                                        [-3.0, 0.25, 1.0, -1.5]]),
])
def test_batch_rows_equal_single_state_integrations(P, rows):
    rhs, feasible = phase_rows(P)
    batch = integrate_grid(rhs, rows, 1.0, 4, feasible)
    assert batch.shape == (5, len(rows), 2 * P.dim)
    for r, row in enumerate(rows):
        alone = integrate_grid(rhs, row, 1.0, 4, feasible)
        assert np.array_equal(batch[:, r], alone)


def test_only_the_row_whose_midpoint_leaves_the_orthant_is_halved():
    # column 0 decays at the rate in column 1: with one step of 2.5 the first
    # midpoint stage of the fast row lands at -0.25, the slow row's at 0.75
    def field(z):
        return np.stack([-z[..., 0] * z[..., 1], 0.0 * z[..., 1]], axis=-1)

    rhs, seen = recording(field)
    rows = np.array([[1.0, 0.2], [1.0, 1.0], [2.0, 0.1]])
    out = integrate_grid(rhs, rows, 2.5, 1, positive)
    assert all(positive(z) for z in seen)
    assert {len(z) for z in seen} == {3, 2, 1}  # the batch, its two clean rows, the halved row
    assert all(z[0, 1] == 1.0 for z in seen if len(z) == 1)
    assert np.array_equal(out[-1, 1], integrate_grid(field, rows[1:2], 2.5, 2)[-1, 0])
    for r in (0, 2):
        assert np.array_equal(out[-1, r], integrate_grid(field, rows[r:r + 1], 2.5, 1)[-1, 0])


def test_a_row_that_keeps_escaping_fails_the_whole_batch():
    rhs, feasible = phase_rows(Potential.neg_log(1))
    # the second row falls into the origin well before T
    with pytest.raises(DomainEscape):
        integrate_grid(rhs, [[1.0, 0.3], [0.5, -5.0], [2.0, 0.0]], 1.0, 10, feasible)
