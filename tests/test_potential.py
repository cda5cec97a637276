import numpy as np
import pytest

from bridgelab import DomainError, Potential
from bridgelab.potential import POSITIVE_ORTHANT

EPS = np.finfo(float).eps
A3 = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.2], [0.0, -0.2, 3.0]])


def log_cosh(dim, analytic=True, domain="all_space"):
    """F(x) = sum(log cosh x_i) + |x|^2/2, with or without analytic derivatives."""
    derivs = {}
    if analytic:
        derivs = dict(grad_fn=lambda x: np.tanh(x) + x,
                      hess_apply_fn=lambda x, v: (1.0 / np.cosh(x) ** 2 + 1.0) * v)
    return Potential.custom(
        dim, lambda x: float(np.sum(np.log(np.cosh(x)))) + 0.5 * float(x @ x),
        domain=domain, **derivs,
    )


def rows_and_points(P, X):
    """(row evaluation, stacked pointwise evaluation) for value, grad and force."""
    rows = (P.value_many(X), P.grad_many(X), P.hess_grad_many(X))
    points = tuple(np.array([f(x) for x in X]) for f in (P.value, P.grad, P.hess_grad))
    return zip(("value", "grad", "force"), rows, points)


def test_quadratic_value_grad_hess():
    P = Potential.quadratic_isotropic(2)
    assert P.value([3.0, 4.0]) == pytest.approx(12.5)
    np.testing.assert_allclose(P.grad([3.0, 4.0]), [3.0, 4.0])
    np.testing.assert_allclose(P.hess_apply([0.3, -0.7], [1.0, 2.0]), [1.0, 2.0])
    assert P.rho == 1.0 and np.isinf(P.n_dim)
    np.testing.assert_allclose(P.minimizer, [0.0, 0.0])


def test_neglog_values():
    P = Potential.neg_log(1)
    assert P.value([np.e]) == pytest.approx(-1.0)
    assert P.grad([2.0])[0] == pytest.approx(-0.5)
    assert P.hess_apply([2.0], [1.0])[0] == pytest.approx(0.25)
    P2 = Potential.neg_log(2)
    np.testing.assert_allclose(P2.grad([1.0, 4.0]), [-1.0, -0.25])
    assert P2.n_dim == 2.0 and P2.rho == 0.0


def test_neglog_domain_errors():
    P = Potential.neg_log(1)
    with pytest.raises(DomainError):
        P.value([0.0])
    with pytest.raises(DomainError):
        P.grad([-1.0])
    with pytest.raises(DomainError):
        P.hess_apply([0.0], [1.0])
    with pytest.raises(DomainError):
        P.hess_grad([0.0])


def test_in_domain_rejects_nonfinite_points_and_the_boundary():
    P = Potential.neg_log(2)
    Q = Potential.quadratic_isotropic(2)
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0]):
        assert not P.in_domain(np.array(bad)) and not Q.in_domain(np.array(bad))
    assert not P.in_domain(np.array([0.0, 1.0])) and not P.in_domain(np.array([-0.0, 1.0]))
    assert P.in_domain(np.array([1e-300, 1.0])) and Q.in_domain(np.array([0.0, -1.0]))
    # a batch of rows is inside exactly when every row is
    rows = np.array([[1.0, 2.0], [0.5, 3.0]])
    assert P.in_domain(rows) and Q.in_domain(-rows)
    for bad in (np.nan, np.inf, -np.inf, 0.0):
        rows[1, 0] = bad
        assert not P.in_domain(rows)
        assert Q.in_domain(rows) == (bad == 0.0)


def test_quadratic_matrix_rho_is_smallest_eigenvalue():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    P = Potential.quadratic_matrix(A)
    assert P.rho == pytest.approx(np.linalg.eigvalsh(A)[0])
    x = np.array([0.4, -1.2])
    assert P.value(x) == pytest.approx(0.5 * x @ A @ x)
    np.testing.assert_allclose(P.grad(x), A @ x)
    np.testing.assert_allclose(P.hess_grad(x), A @ (A @ x))


def test_custom_finite_difference_hessian_matches_identity():
    P = Potential.custom(2, lambda x: 0.5 * float(x @ x), grad_fn=lambda x: x.copy())
    out = P.hess_apply(np.array([0.2, 0.4]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(out, [1.0, 2.0], atol=1e-6)


def test_custom_finite_difference_gradient():
    P = Potential.custom(2, lambda x: float(np.sum(x**4)))
    x = np.array([0.7, -1.3])
    np.testing.assert_allclose(P.grad(x), 4.0 * x**3, rtol=1e-6)


def test_custom_minimizer_search():
    # strongly convex quartic-plus-quadratic, minimum at the origin
    P = Potential.custom(
        2,
        lambda x: float(x @ x) + float(np.sum(x**4)),
        grad_fn=lambda x: 2.0 * x + 4.0 * x**3,
        rho=2.0,
    )
    assert np.max(np.abs(P.grad(P.minimizer))) < 1e-10


def test_gradients_match_central_differences_on_random_points():
    rng = np.random.default_rng(7)
    cases = [
        (Potential.quadratic_isotropic(3), lambda: rng.normal(size=3)),
        (Potential.quadratic_matrix([[2.0, 0.5], [0.5, 1.0]]), lambda: rng.normal(size=2)),
        (Potential.neg_log(3), lambda: 10.0 ** rng.uniform(-1, 1, size=3)),
    ]
    for P, draw in cases:
        for _ in range(100):
            x = draw()
            h = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x))
            fd = np.empty(P.dim)
            for i in range(P.dim):
                e = np.zeros(P.dim)
                e[i] = h
                fd[i] = (P.value(x + e) - P.value(x - e)) / (2 * h)
            np.testing.assert_allclose(P.grad(x), fd, rtol=1e-6, atol=1e-8)


def test_convexity_defect_quadratic_saturates():
    P = Potential.quadratic_isotropic(2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=2)
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        assert P.convexity_defect(x, v) == pytest.approx(0.0, abs=1e-12)


def test_convexity_defect_neglog_identity_and_example():
    P1 = Potential.neg_log(1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = 10.0 ** rng.uniform(-1, 1, size=1)
        assert P1.convexity_defect(x, [1.0]) == pytest.approx(0.0, abs=1e-12)
    P2 = Potential.neg_log(2)
    assert P2.convexity_defect([1.0, 2.0], [1.0, 0.0]) == pytest.approx(0.5)


def test_convexity_defect_neglog_certificate_random():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        P = Potential.neg_log(d)
        for _ in range(1000 // d):
            x = 10.0 ** rng.uniform(-1.5, 1.5, size=d)
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            assert P.convexity_defect(x, v) >= -1e-12


def test_convexity_defect_quadratic_matrix_certificate():
    A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.2], [0.0, -0.2, 3.0]])
    P = Potential.quadratic_matrix(A)
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = rng.normal(size=3)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert P.convexity_defect(x, v) >= -1e-10


def test_potential_from_config_roundtrip():
    from bridgelab import potential_from_config

    P = potential_from_config({"kind": "neg_log", "dim": 2})
    assert P.kind == "neg_log" and P.dim == 2
    Q = potential_from_config({"kind": "quadratic_matrix", "matrix": [[2.0, 0.0], [0.0, 1.0]]})
    assert Q.rho == pytest.approx(1.0)
    with pytest.raises(ValueError):
        potential_from_config({"kind": "mystery"})


@pytest.mark.parametrize(
    "P",
    [Potential.neg_log(1), Potential.neg_log(3), log_cosh(2), log_cosh(2, analytic=False)],
    ids=["neg_log_1", "neg_log_3", "custom_analytic", "custom_fd"],
)
def test_row_evaluators_equal_stacked_pointwise_results(P):
    X = np.random.default_rng(17).uniform(0.3, 3.0, size=(9, P.dim))
    for name, rows, points in rows_and_points(P, X):
        assert np.array_equal(rows, points), name


@pytest.mark.parametrize(
    "P, A, exact",
    [
        (Potential.quadratic_isotropic(1), np.eye(1), {"value", "grad", "force"}),
        (Potential.quadratic_isotropic(3), np.eye(3), {"grad", "force"}),
        (Potential.quadratic_matrix(A3), A3, set()),
    ],
    ids=["isotropic_1", "isotropic_3", "matrix_3"],
)
def test_quadratic_row_evaluators_match_pointwise_up_to_rounding(P, A, exact):
    # rows and points use different products (sum(X*X) against dot(x, x),
    # (XA)A against A(Ax)); both sit within 4*d*eps of the same value, in
    # units of the same expression evaluated on absolute values
    X = np.random.default_rng(19).normal(size=(9, P.dim))
    scales = dict(zip(("value", "grad", "force"),
                      (0.5 * np.sum((np.abs(X) @ np.abs(A)) * np.abs(X), axis=1),
                       np.abs(X) @ np.abs(A),
                       np.abs(X) @ np.abs(A) @ np.abs(A))))
    for name, rows, points in rows_and_points(P, X):
        assert rows.shape == points.shape, name
        if name in exact:
            assert np.array_equal(rows, points), name
        else:
            assert np.all(np.abs(rows - points) <= 4 * P.dim * EPS * scales[name]), name


def test_custom_rows_outside_the_domain_raise():
    P = log_cosh(2, domain=POSITIVE_ORTHANT)
    X = np.array([[1.0, 2.0], [0.5, -1.0]])
    for many in (P.value_many, P.grad_many, P.hess_grad_many):
        with pytest.raises(DomainError):
            many(X)
