import warnings

import numpy as np
import pytest

from bridgelab import ConfigError, DomainError, NoConvergence, Potential
from bridgelab.potential import ALL_SPACE, POSITIVE_ORTHANT

A3 = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.2], [0.0, -0.2, 3.0]])
A2 = np.array([[2.0, 0.5], [0.5, 1.0]])


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


def test_unknown_domain_is_rejected():
    # "positive" is not a domain name, so it must not pass for all space
    with pytest.raises(ValueError, match="domain"):
        Potential.custom(1, lambda x: -float(np.sum(np.log(x))), domain="positive")
    P = Potential.custom(1, lambda x: -float(np.sum(np.log(x))), domain=POSITIVE_ORTHANT)
    assert not P.in_domain(np.array([-1.0]))


def test_quadratic_matrix_rho_is_smallest_eigenvalue():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    P = Potential.quadratic_matrix(A)
    assert P.rho == pytest.approx(np.linalg.eigvalsh(A)[0])
    x = np.array([0.4, -1.2])
    assert P.value(x) == pytest.approx(0.5 * x @ A @ x)
    np.testing.assert_allclose(P.grad(x), A @ x)
    np.testing.assert_allclose(P.hess_grad(x), A @ (A @ x))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_quadratic_matrix_rejects_nonfinite_entries_first(bad):
    # checked before symmetry, so neither "must be symmetric" nor a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            Potential.quadratic_matrix([[1.0, bad], [bad, 1.0]])


def test_hessian_action_rejects_a_direction_that_is_not_finite():
    with pytest.raises(ValueError, match="direction must be finite"):
        Potential.quadratic_isotropic(2).hess_apply([1.0, 2.0], [1.0, float("nan")])


@pytest.mark.parametrize("matrix, message", [
    ([[1.0, 0.0]], "square"),
    ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
], ids=["non_square", "asymmetric"])
def test_quadratic_matrix_rejects_a_matrix_that_is_not_square_and_symmetric(matrix, message):
    with pytest.raises(ValueError, match=message):
        Potential.quadratic_matrix(matrix)


def test_custom_finite_difference_hessian_matches_identity():
    P = Potential.custom(2, lambda x: 0.5 * float(x @ x), grad_fn=lambda x: x.copy())
    out = P.hess_apply(np.array([0.2, 0.4]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(out, [1.0, 2.0], atol=1e-6)


def test_custom_finite_difference_gradient():
    P = Potential.custom(2, lambda x: float(np.sum(x**4)))
    x = np.array([0.7, -1.3])
    np.testing.assert_allclose(P.grad(x), 4.0 * x**3, rtol=1e-6)


def test_custom_minimizer_search():
    A, tilt = np.diag([0.1, 10.0]), np.array([2.0, -1.0])
    cases = [
        # strongly convex quartic-plus-quadratic, minimum at the origin
        (dict(value_fn=lambda x: float(x @ x) + float(np.sum(x**4)),
              grad_fn=lambda x: 2.0 * x + 4.0 * x**3), 2.0, 1e-10),
        # condition number 100, minimum far from the origin
        (dict(value_fn=lambda x: 0.5 * float(x @ A @ x) + float(tilt @ x),
              grad_fn=lambda x: A @ x + tilt, hess_apply_fn=lambda x, v: A @ v), 0.1, 1e-10),
        # value only: finite-difference derivatives limit the gradient reached
        (dict(value_fn=lambda x: float(x @ x) + float(np.sum(x**4)) + float(tilt @ x)), 2.0, 1e-8),
    ]
    for fns, rho, tol in cases:
        P = Potential.custom(2, rho=rho, **fns)
        assert np.max(np.abs(P.grad(P.minimizer))) < tol


def test_custom_minimizer_search_starts_inside_the_orthant():
    # the origin is outside the positive orthant, so the search starts at ones
    target = np.array([2.0, 0.5])
    P = Potential.custom(2, lambda x: 0.5 * float((x - target) @ (x - target)),
                         grad_fn=lambda x: x - target, hess_apply_fn=lambda x, v: v.copy(),
                         rho=1.0, domain=POSITIVE_ORTHANT)
    np.testing.assert_allclose(P.minimizer, target, rtol=0.0, atol=1e-12)


def test_custom_minimizer_search_damps_a_step_that_leaves_the_orthant():
    # F = x^2/2 + 10 x - log x: Newton's first step from 1 lands at -4
    P = Potential.custom(1, lambda x: float(0.5 * x @ x + 10.0 * x[0] - np.log(x[0])),
                         grad_fn=lambda x: x + 10.0 - 1.0 / x,
                         hess_apply_fn=lambda x, v: (1.0 + 1.0 / (x * x)) * v,
                         rho=1.0, domain=POSITIVE_ORTHANT)
    assert P.minimizer[0] == pytest.approx((-10.0 + np.sqrt(104.0)) / 2.0, rel=0.0, abs=1e-10)


def test_custom_minimizer_search_without_a_minimum_is_no_convergence():
    # F = x_1 + x_2 has no minimizer, whatever rho the caller claims
    with pytest.raises(NoConvergence, match="gradient sup-norm 1"):
        Potential.custom(2, lambda x: float(np.sum(x)), grad_fn=lambda x: np.ones(2),
                         hess_apply_fn=lambda x, v: np.zeros(2), rho=1.0)


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
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "mystery"})


@pytest.mark.parametrize(
    "P",
    [Potential.neg_log(1), Potential.neg_log(2), Potential.neg_log(3), log_cosh(2),
     log_cosh(2, analytic=False), Potential.quadratic_isotropic(1),
     Potential.quadratic_isotropic(2), Potential.quadratic_isotropic(3),
     Potential.quadratic_matrix([[2.0]]), Potential.quadratic_matrix(A2),
     Potential.quadratic_matrix(A3)],
    ids=["neg_log_1", "neg_log_2", "neg_log_3", "custom_analytic", "custom_fd",
         "isotropic_1", "isotropic_2", "isotropic_3", "matrix_1", "matrix_2", "matrix_3"],
)
def test_row_evaluators_equal_stacked_pointwise_results(P):
    rng = np.random.default_rng(17)
    X = rng.uniform(0.3, 3.0, size=(9, P.dim))
    V = rng.normal(size=(9, P.dim))
    for name, rows, points in rows_and_points(P, X):
        assert np.array_equal(rows, points), name
    # every callable takes rows, the Hessian action a direction per row too
    actions = np.array([P.hess_apply(x, v) for x, v in zip(X, V)])
    assert np.array_equal(P._hess_apply_fn(X, V), actions)
    # the Hessian is one batch of d rows, column j the action on e_j
    for x in X:
        columns = np.column_stack([P.hess_apply(x, e) for e in np.eye(P.dim)])
        assert np.array_equal(P.hessian(x), columns)


def test_custom_rows_outside_the_domain_raise():
    P = log_cosh(2, domain=POSITIVE_ORTHANT)
    X = np.array([[1.0, 2.0], [0.5, -1.0]])
    for many in (P.value_many, P.grad_many, P.hess_grad_many):
        with pytest.raises(DomainError):
            many(X)


def lse(dim, domain=ALL_SPACE):
    """F(x) = log sum exp(x) + |x|^2/4, whose pointwise gradient shifts by
    np.max over its whole argument, so it must never see a batch at once."""
    def parts(x):
        q = np.exp(x - np.max(x))
        return q / q.sum()

    def value(x):
        m = float(np.max(x))
        return m + float(np.log(np.sum(np.exp(x - m)))) + 0.25 * float(x @ x)

    def hess_apply(x, v):
        q = parts(x)
        return q * v - q * float(q @ v) + 0.5 * v

    return Potential.custom(dim, value, lambda x: parts(x) + 0.5 * x, hess_apply, domain=domain), \
        (value, lambda x: parts(x) + 0.5 * x, hess_apply)


def cosh(dim, domain=ALL_SPACE):
    fns = (lambda x: float(np.sum(np.cosh(x))), np.sinh, lambda x, v: np.cosh(x) * v)
    # its minimizer 0 is not in the orthant, so there it claims no rho
    rho = 1.0 if domain == ALL_SPACE else None
    return Potential.custom(dim, *fns, rho=rho, domain=domain), fns


def lse_orthant(dim):
    return lse(dim, POSITIVE_ORTHANT)


def cosh_orthant(dim):
    return cosh(dim, POSITIVE_ORTHANT)


@pytest.mark.parametrize("family", [lse, cosh, lse_orthant, cosh_orthant])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_custom_rows_are_bit_equal_to_the_user_functions_row_by_row(family, dim):
    P, (value, grad, hess_apply) = family(dim)
    # rows of very different size, so that a shift by the batch's max would show
    X = np.random.default_rng(dim).normal(scale=3.0, size=(7, dim)) + np.arange(7)[:, None]
    if P.domain == POSITIVE_ORTHANT:
        X = np.abs(X) + 0.1
    assert np.array_equal(P.value_many(X), np.array([value(x) for x in X]))
    assert np.array_equal(P.grad_many(X), np.array([grad(x) for x in X]))
    assert np.array_equal(P.hess_grad_many(X), np.array([hess_apply(x, grad(x)) for x in X]))
    for name, rows, points in rows_and_points(P, X):
        assert np.array_equal(rows, points), name


def test_a_row_whose_gradient_overflows_raises_as_its_point_does():
    P, _ = cosh(2)
    row = np.array([800.0, 0.0])  # finite, but sinh(800) overflows
    with pytest.raises(ValueError) as point_error:
        with np.errstate(over="ignore"):
            P.hess_grad(row)
    with pytest.raises(ValueError) as rows_error:
        with np.errstate(over="ignore"):
            P.hess_grad_many(np.array([[0.5, -0.5], row]))
    assert str(rows_error.value) == str(point_error.value) == "direction must be finite"


def row_callables(P):
    """The batch evaluators, with the Hessian action taking all-ones directions."""
    return (P.value_many, P.grad_many, P.hess_grad_many,
            lambda X: P._hess_apply_fn(X, np.ones(X.shape)))


def test_a_custom_batch_outside_the_domain_names_its_first_bad_row():
    P = log_cosh(2)
    X = np.array([[1.0, 2.0], [0.5, -1.0], [np.inf, 0.0], [np.nan, 1.0]])
    for many in row_callables(P):
        with pytest.raises(DomainError, match=r"row 2\b"):
            many(X)
    orthant = log_cosh(2, domain=POSITIVE_ORTHANT)
    with pytest.raises(DomainError, match=r"row 1\b"):
        orthant._hess_apply_fn(X, np.ones(X.shape))


def test_custom_rows_of_the_wrong_width_raise_value_error():
    P = log_cosh(2)
    for X in (np.ones((3, 3)), np.ones((3, 1)), np.ones((2, 3, 2))):
        for many in row_callables(P):
            with pytest.raises(ValueError, match="dimension 2"):
                many(X)


@pytest.mark.parametrize("build", [lambda: Potential.neg_log(2.5),
                                   lambda: Potential.custom(1.7, lambda x: float(x @ x)),
                                   lambda: Potential.quadratic_isotropic(True),
                                   lambda: Potential.neg_log("2")],
                         ids=["neg_log_fraction", "custom_fraction", "isotropic_bool", "neg_log_text"])
def test_a_dimension_that_is_not_a_whole_number_is_a_value_error(build):
    with pytest.raises(ValueError, match="dim must be a whole number"):
        build()


def test_a_custom_batch_checks_each_row_before_the_user_functions_see_it(monkeypatch):
    calls = []
    in_domain = Potential.in_domain

    def counted(self, x):
        calls.append(np.shape(x))
        return in_domain(self, x)

    for domain, bad in ((ALL_SPACE, [np.nan, 1.0, 1.0]), (POSITIVE_ORTHANT, [1.0, -0.0, 2.0])):
        seen = []

        def grad(x):
            seen.append(x.copy())
            return np.tanh(x) + x

        P = Potential.custom(3, lambda x: 0.0, grad,
                             lambda x, v: (1.0 / np.cosh(x) ** 2 + 1.0) * v, domain=domain)
        X = np.random.default_rng(3).uniform(0.5, 2.0, size=(6, 3))
        monkeypatch.setattr(Potential, "in_domain", counted)
        P.hess_grad_many(X)
        X[4] = bad
        with pytest.raises(DomainError, match=r"row 4\b"):
            P.hess_grad_many(X)
        monkeypatch.undo()
        assert calls == []
        # the rows in front of the bad one ran, the bad one and those after it did not
        assert len(seen) == 6 + 4 and all(P.in_domain(x) for x in seen)


EDGE_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7e308, -1.0, 1.0]


@pytest.mark.parametrize("domain", [ALL_SPACE, POSITIVE_ORTHANT])
def test_the_custom_row_check_agrees_with_in_domain_row_by_row(domain):
    P = Potential.custom(2, lambda x: 0.0, lambda x: np.zeros(2), lambda x, v: np.zeros(2),
                         domain=domain)
    X = np.array([[a, b] for a in EDGE_VALUES for b in EDGE_VALUES])
    for i, x in enumerate(X):
        if P.in_domain(x):
            assert np.array_equal(P.grad_many(x[None]), [[0.0, 0.0]])
        else:
            # alone, and as the first bad row of a batch
            with pytest.raises(DomainError, match=r"row 0\b"):
                P.grad_many(x[None])
            with pytest.raises(DomainError, match=rf"row {i}\b"):
                P.grad_many(np.concatenate([np.ones((i, 2)), X[i:]]))


@pytest.mark.parametrize("kind", [list, tuple, lambda g: np.asarray(g, dtype=np.float32)],
                         ids=["list", "tuple", "float32"])
def test_a_custom_gradient_of_another_type_is_checked_for_finiteness(kind):
    def hess_apply(x, v):
        return np.array([1.0, 2.0]) * v

    P = Potential.custom(2, lambda x: 0.0, lambda x: kind([x[0], 2.0 * x[1]]), hess_apply)
    X = np.array([[0.3, -1.1], [2.5, 0.7]])
    forces = [hess_apply(x, np.asarray(kind([x[0], 2.0 * x[1]]), dtype=float)) for x in X]
    assert np.array_equal(P.hess_grad_many(X), forces)
    assert np.array_equal(P.hess_grad(X[1]), forces[1])
    for bad in (np.nan, np.inf, -np.inf):
        for g in ([bad, 1.0], [1.0, bad]):
            P = Potential.custom(2, lambda x: 0.0, lambda x, g=g: kind(g), hess_apply)
            for force in (P.hess_grad, lambda x: P.hess_grad_many(x[None])):
                with pytest.raises(ValueError, match=r"^direction must be finite$"):
                    force(X[0])


@pytest.mark.parametrize("certificate, match", [
    (dict(n_dim=0), "n_dim must be a positive"),
    (dict(n_dim=-2), "n_dim must be a positive"),
    (dict(n_dim=float("nan")), "n_dim must be a positive"),
    (dict(n_dim=True), "n_dim must be a positive"),
    (dict(n_dim="3"), "n_dim must be a positive"),
    (dict(rho=float("nan")), "rho must be None or a finite"),
    (dict(rho=float("inf")), "rho must be None or a finite"),
    (dict(rho=False), "rho must be None or a finite"),
    (dict(rho="1"), "rho must be None or a finite"),
    (dict(minimizer=[0.0, 0.0]), "dimension 1"),
    (dict(minimizer=[float("nan")]), "minimizer .* outside domain"),
    (dict(minimizer=[0.0], domain=POSITIVE_ORTHANT), "minimizer .* outside domain"),
], ids=["n_dim_zero", "n_dim_negative", "n_dim_nan", "n_dim_bool", "n_dim_text", "rho_nan",
        "rho_inf", "rho_bool", "rho_text", "minimizer_shape", "minimizer_nan", "minimizer_boundary"])
def test_a_bad_certificate_is_a_value_error_when_the_potential_is_built(certificate, match):
    # each of these used to pass construction and fail later, inside the
    # bounds or the shooting segment count, or to skip the finite-n bounds
    with pytest.raises(ValueError, match=match):
        Potential.custom(1, lambda x: 0.5 * float(x @ x), **certificate)
