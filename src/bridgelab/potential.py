"""Convex potentials with derivatives and convexity-class certificates.

A potential carries the data the rest of the package needs: F and its first
two derivatives, a lower Hessian bound ``rho``, a dimension parameter
``n_dim`` (``inf`` drops the rank-one term from the convexity certificate),
the domain, and the minimizer when one exists.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ._integrate import _damped_newton
from .errors import DomainError, NoConvergence

_EPS = float(np.finfo(float).eps)
GRAD_STEP = np.sqrt(_EPS)          # central-difference gradient step scale
HESS_STEP = _EPS ** (1.0 / 3.0)    # central-difference Hessian-action step scale

ALL_SPACE = "all_space"
POSITIVE_ORTHANT = "positive_orthant"

QUADRATIC_ISOTROPIC = "quadratic_isotropic"
QUADRATIC_MATRIX = "quadratic_matrix"
NEG_LOG = "neg_log"
CUSTOM = "custom"


def as_point(x, dim: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"expected a point of dimension {dim}, got shape {x.shape}")
    return x


def as_count(value, what: str) -> int:
    """`value` as an int; a boolean, a string or a non-integral number is a
    ValueError."""
    try:
        n = int(value)
        whole = not isinstance(value, (bool, np.bool_, str, bytes)) and n == float(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return n


class Potential:
    """A twice differentiable convex function together with its certificates.

    All four callables take rows (m, d): ``value_fn(X)`` (m,), ``grad_fn(X)``,
    ``hess_apply_fn(X, V)`` (row i is F''(X_i) V_i) and ``force_fn(X)`` (the
    force F''(x) F'(x)). Builtin constructors supply one numpy expression
    each, with no domain check; ``custom()`` checks a batch's width, then
    each row's domain just before the user's pointwise functions see it. The
    pointwise methods check their point's shape and domain and evaluate it
    as a one-row batch; the ``*_many`` methods hand the rows to the
    callables. ``batched_rows`` is true for single numpy expressions (the
    builtins), whose batch costs about one row; it is false for ``custom()``.

    Instances are immutable after construction and all evaluations are pure,
    so they are safe to share across threads.
    """

    def __init__(
        self,
        kind: str,
        dim: int,
        *,
        rho: Optional[float],
        n_dim: float,
        domain: str,
        value_fn: Callable[[np.ndarray], np.ndarray],
        grad_fn: Callable[[np.ndarray], np.ndarray],
        hess_apply_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        force_fn: Callable[[np.ndarray], np.ndarray],
        minimizer: Optional[np.ndarray] = None,
        batched_rows: bool = False,
    ):
        self.dim = as_count(dim, "dim")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if domain not in (ALL_SPACE, POSITIVE_ORTHANT):
            raise ValueError(f"unknown domain {domain!r}")
        self.kind = kind
        self.rho = None if rho is None else float(rho)
        self.n_dim = float(n_dim)
        self.domain = domain
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._hess_apply_fn = hess_apply_fn
        self.force_fn = force_fn
        self.minimizer = None if minimizer is None else np.array(minimizer, dtype=float)
        self._batched_rows = bool(batched_rows)

    @property
    def batched_rows(self) -> bool:
        """Whether the row callables evaluate a batch as one numpy expression."""
        return self._batched_rows

    # -- constructors -------------------------------------------------------

    @classmethod
    def quadratic_isotropic(cls, dim: int = 1) -> "Potential":
        """F(x) = |x|^2 / 2, a (1, inf)-convex potential minimized at 0."""
        dim = as_count(dim, "dim")
        return cls(
            QUADRATIC_ISOTROPIC,
            dim,
            rho=1.0,
            n_dim=np.inf,
            domain=ALL_SPACE,
            value_fn=lambda X: 0.5 * np.sum(X * X, axis=-1),
            grad_fn=lambda X: X.copy(),
            hess_apply_fn=lambda X, V: V.copy(),
            force_fn=lambda X: X.copy(),
            minimizer=np.zeros(dim),
            batched_rows=True,
        )

    @classmethod
    def quadratic_matrix(cls, matrix) -> "Potential":
        """F(x) = x . A x / 2 for symmetric A; rho is the smallest eigenvalue.

        A is symmetrised once, 0.5 (A + A^T), which leaves a symmetric A as
        it is, so the row products X A, V A and (X A) A are the gradient, the
        Hessian action and the force. From dimension 4 on, BLAS may multiply
        one row and a batch of rows with different kernels, so a point and
        the same row inside a batch can differ in the last bit.
        """
        A = np.array(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isfinite(A).all():
            raise ValueError("matrix entries must be finite")
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(A).max())):
            raise ValueError("matrix must be symmetric")
        A = 0.5 * (A + A.T)
        dim = A.shape[0]
        lam_min = float(np.linalg.eigvalsh(A)[0])
        minimizer = np.zeros(dim) if lam_min > 0 else None
        return cls(
            QUADRATIC_MATRIX,
            dim,
            rho=lam_min,
            n_dim=np.inf,
            domain=ALL_SPACE,
            value_fn=lambda X: 0.5 * np.sum((X @ A) * X, axis=-1),
            grad_fn=lambda X: X @ A,
            hess_apply_fn=lambda X, V: V @ A,
            force_fn=lambda X: (X @ A) @ A,
            minimizer=minimizer,
            batched_rows=True,
        )

    @classmethod
    def neg_log(cls, dim: int = 1) -> "Potential":
        """F(x) = -sum(log x_i) on the positive orthant, (0, dim)-convex."""
        dim = as_count(dim, "dim")
        return cls(
            NEG_LOG,
            dim,
            rho=0.0,
            n_dim=float(dim),
            domain=POSITIVE_ORTHANT,
            value_fn=lambda X: -np.sum(np.log(X), axis=-1),
            grad_fn=lambda X: -1.0 / X,
            hess_apply_fn=lambda X, V: V / (X * X),
            force_fn=lambda X: -1.0 / (X * X * X),
            batched_rows=True,
        )

    @classmethod
    def custom(
        cls,
        dim: int,
        value_fn: Callable[[np.ndarray], float],
        grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        hess_apply_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        *,
        rho: Optional[float] = None,
        n_dim: float = np.inf,
        domain: str = ALL_SPACE,
        minimizer=None,
    ) -> "Potential":
        """User-supplied potential from pointwise functions; missing derivatives
        fall back to central differences (gradient step sqrt(eps)*(1+|x|),
        Hessian step cbrt(eps)*(1+|x|)).

        All four row callables go through one adapter: a batch (m, dim) of
        another width is a ValueError; then the user's functions run on each
        row after a check of its domain on plain floats, so the first row
        outside it is a DomainError naming it (the rows in front have run).
        A point is a one-row batch. A row's force is hess_apply(x, grad(x));
        a gradient that is not finite makes it raise
        ValueError("direction must be finite").

        When ``rho`` is positive and no minimizer is given, the minimizer is
        located by the damped Newton loop that the bridge solvers run, on the
        gradient with the Hessian assembled from ``hess_apply``; a search
        that ends with a gradient sup-norm of 1e-8 or more is NoConvergence.
        """
        dim = as_count(dim, "dim")

        def fd_grad(x):
            h = GRAD_STEP * (1.0 + float(np.linalg.norm(x)))
            g = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                g[i] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * h)
            return g

        def fd_hess_apply(x, v):
            nv = float(np.linalg.norm(v))
            if nv == 0.0:
                return np.zeros(dim)
            h = HESS_STEP * (1.0 + float(np.linalg.norm(x)))
            unit = v / nv
            plus, minus = pot.grad_many(np.array([x + h * unit, x - h * unit]))
            return (plus - minus) * (nv / (2.0 * h))

        grad = fd_grad if grad_fn is None else grad_fn
        hess_apply = fd_hess_apply if hess_apply_fn is None else hess_apply_fn

        def force(x):
            g = np.asarray(grad(x), dtype=float)
            if not all(map(math.isfinite, g.ravel().tolist())):
                raise ValueError("direction must be finite")
            return hess_apply(x, g)

        orthant = domain == POSITIVE_ORTHANT

        def inside(x):
            return all(0.0 < v < math.inf for v in x) if orthant else all(map(math.isfinite, x))

        def outside(X):
            bad = next(i for i, x in enumerate(X.tolist()) if not inside(x))
            raise DomainError(f"row {bad}, {X[bad]}, outside domain of {CUSTOM}")

        def each_row(fn):
            """fn on each row of a batch X, with the matching row of V for a
            Hessian action; in_domain's test runs on each row's floats before
            fn sees it, as a numpy reduction costs more on a 1-3 row batch."""
            def rows(X, *V):
                if X.shape[1:] != (dim,):
                    raise ValueError(f"expected rows of dimension {dim}, got shape {X.shape}")
                return np.array([fn(*row) if inside(x) else outside(X)
                                 for x, row in zip(X.tolist(), zip(X, *V))], dtype=float)
            return rows

        # the closures read `pot` when they are called, after it is bound here
        pot = cls(
            CUSTOM,
            dim,
            rho=rho,
            n_dim=n_dim,
            domain=domain,
            value_fn=each_row(value_fn),
            grad_fn=each_row(grad),
            hess_apply_fn=each_row(hess_apply),
            force_fn=each_row(force),
            minimizer=minimizer,
            batched_rows=False,
        )
        if pot.minimizer is None and rho is not None and rho > 0:
            pot.minimizer = pot._locate_minimizer()
        return pot

    # -- domain --------------------------------------------------------------

    def in_domain(self, x: np.ndarray) -> bool:
        if self.domain == POSITIVE_ORTHANT:
            # the integrators ask this of every stage state; min and max
            # propagate NaN, so these two reductions decide it
            return bool(0.0 < np.minimum.reduce(x, None) and np.maximum.reduce(x, None) < np.inf)
        return bool(np.isfinite(x).all())

    def check_domain(self, x: np.ndarray) -> np.ndarray:
        x = as_point(x, self.dim)
        if not self.in_domain(x):
            raise DomainError(f"point {x} outside domain of {self.kind}")
        return x

    # -- pointwise evaluation --------------------------------------------------

    def value(self, x) -> float:
        return float(self._value_fn(self.check_domain(x)[None])[0])

    def grad(self, x) -> np.ndarray:
        return self._grad_fn(self.check_domain(x)[None])[0]

    def hess_apply(self, x, v) -> np.ndarray:
        x = self.check_domain(x)
        v = as_point(v, self.dim)
        if not np.all(np.isfinite(v)):
            raise ValueError("direction must be finite")
        return self._hess_apply_fn(x[None], v[None])[0]

    def hessian(self, x) -> np.ndarray:
        """F''(x) as a (d, d) matrix: one ``hess_apply_fn`` batch of d rows,
        column j the action on the j-th unit vector."""
        x = self.check_domain(x)
        return self._hess_apply_fn(np.tile(x, (self.dim, 1)), np.eye(self.dim)).T

    def hess_grad(self, x) -> np.ndarray:
        """F''(x) F'(x), the force field of the Newton boundary-value problem.

        Like every public pointwise method it checks the point's shape and
        domain on entry (DomainError outside) and evaluates it as a one-row
        batch of ``force_fn``. The shooting integrator does not come through
        here: it checks each RK4 stage state with its own guard and then
        calls ``force_fn`` on the stage rows.
        """
        return self.force_fn(self.check_domain(x)[None])[0]

    # -- vectorized evaluation over a batch of points ---------------------------

    def value_many(self, X: np.ndarray) -> np.ndarray:
        return self._value_fn(np.asarray(X, dtype=float))

    def grad_many(self, X: np.ndarray) -> np.ndarray:
        return self._grad_fn(np.asarray(X, dtype=float))

    def hess_grad_many(self, X: np.ndarray) -> np.ndarray:
        return self.force_fn(np.asarray(X, dtype=float))

    # -- convexity certificate ----------------------------------------------

    def convexity_defect(self, x, v) -> float:
        """v . (F''(x) - rho*Id - (1/n) F'(x) (x) F'(x)) v for a direction v.

        Nonnegative iff the (rho, n) certificate holds at x in direction v.
        With n_dim = inf the rank-one term is dropped.
        """
        if self.rho is None:
            raise ValueError("convexity_defect needs a resolved rho")
        x = self.check_domain(x)
        v = as_point(v, self.dim)
        quad = float(v @ self.hess_apply(x, v))
        out = quad - self.rho * float(v @ v)
        if np.isfinite(self.n_dim):
            out -= float(np.dot(self.grad(x), v)) ** 2 / self.n_dim
        return out

    # -- minimizer search --------------------------------------------------------

    def _locate_minimizer(self) -> np.ndarray:
        """Newton on F' from the origin (all ones where the origin is outside
        the domain) to a gradient sup-norm below 1e-10, or 1e-8 where
        finite-difference noise stops it first."""
        x = np.zeros(self.dim)
        if not self.in_domain(x):
            x = np.ones(self.dim)

        def gradient(x):
            if not self.in_domain(x):
                return np.inf, None
            g = self.grad(x)
            return float(np.max(np.abs(g))), g

        def newton_step(x, g):
            return np.linalg.solve(self.hessian(x), -g)

        x, err, _, _ = _damped_newton(gradient, newton_step, x, 1e-10)
        if not err < 1e-8:
            raise NoConvergence(f"minimizer search stopped at gradient sup-norm {err:.3g}")
        return x

    def __repr__(self) -> str:  # pragma: no cover
        return f"Potential(kind={self.kind!r}, dim={self.dim}, rho={self.rho}, n_dim={self.n_dim})"


def potential_from_config(desc: dict) -> Potential:
    """Build a builtin potential from an experiment-config descriptor.

    Expected shape: {"kind": ..., "dim": d} with an extra "matrix" entry for
    the quadratic-matrix kind. Custom potentials cannot be described in JSON.
    """
    kind = desc.get("kind")
    if kind == QUADRATIC_ISOTROPIC:
        return Potential.quadratic_isotropic(desc.get("dim", 1))
    if kind == QUADRATIC_MATRIX:
        if "matrix" not in desc:
            raise ValueError("quadratic_matrix potential needs a 'matrix' entry")
        return Potential.quadratic_matrix(desc["matrix"])
    if kind == NEG_LOG:
        return Potential.neg_log(desc.get("dim", 1))
    raise ValueError(f"unknown potential kind {kind!r}")
