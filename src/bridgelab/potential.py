"""Convex potentials with derivatives and convexity-class certificates.

A potential carries the data the rest of the package needs: F and its first
two derivatives, a lower Hessian bound ``rho``, a dimension parameter
``n_dim`` (``inf`` drops the rank-one term from the convexity certificate),
the domain, and the minimizer when one exists.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

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


def _by_shape(point_fn, rows_fn):
    """One callable for a point (d,) and for rows (m, d), dispatching on ndim."""
    return lambda X: point_fn(X) if X.ndim == 1 else rows_fn(X)


class Potential:
    """A twice differentiable convex function together with its certificates.

    ``value_fn``, ``grad_fn`` and ``force_fn`` (the force F''(x) F'(x)) are
    shape-agnostic: each takes a point (d,) or rows (m, d) and does no domain
    check. Builtin constructors supply vectorised expressions; ``custom()``
    wraps the user's pointwise functions and loops over the checked pointwise
    methods for rows. ``hess_apply_fn(x, v)`` takes a point and a direction.
    The pointwise methods check the point's shape and domain; the ``*_many``
    methods call the callables on the rows as they are.

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
    ):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.kind = kind
        self.dim = int(dim)
        self.rho = None if rho is None else float(rho)
        self.n_dim = float(n_dim)
        self.domain = domain
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._hess_apply_fn = hess_apply_fn
        self.force_fn = force_fn
        self.minimizer = None if minimizer is None else np.array(minimizer, dtype=float)

    # -- constructors -------------------------------------------------------

    @classmethod
    def quadratic_isotropic(cls, dim: int = 1) -> "Potential":
        """F(x) = |x|^2 / 2, a (1, inf)-convex potential minimized at 0."""
        return cls(
            QUADRATIC_ISOTROPIC,
            dim,
            rho=1.0,
            n_dim=np.inf,
            domain=ALL_SPACE,
            value_fn=_by_shape(lambda x: 0.5 * float(np.dot(x, x)),
                               lambda X: 0.5 * np.sum(X * X, axis=1)),
            grad_fn=lambda X: X.copy(),
            hess_apply_fn=lambda x, v: v.copy(),
            force_fn=lambda X: X.copy(),
            minimizer=np.zeros(dim),
        )

    @classmethod
    def quadratic_matrix(cls, matrix) -> "Potential":
        """F(x) = x . A x / 2 for symmetric A; rho is the smallest eigenvalue.

        A point and rows round differently (A(Ax) against (XA)A), so each
        callable keeps its own expression for each shape.
        """
        A = np.array(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(A).max())):
            raise ValueError("matrix must be symmetric")
        dim = A.shape[0]
        lam_min = float(np.linalg.eigvalsh(A)[0])
        minimizer = np.zeros(dim) if lam_min > 0 else None
        return cls(
            QUADRATIC_MATRIX,
            dim,
            rho=lam_min,
            n_dim=np.inf,
            domain=ALL_SPACE,
            value_fn=_by_shape(lambda x: 0.5 * float(x @ A @ x),
                               lambda X: 0.5 * np.sum((X @ A) * X, axis=1)),
            grad_fn=_by_shape(lambda x: A @ x, lambda X: X @ A),
            hess_apply_fn=lambda x, v: A @ v,
            force_fn=_by_shape(lambda x: A @ (A @ x), lambda X: (X @ A) @ A),
            minimizer=minimizer,
        )

    @classmethod
    def neg_log(cls, dim: int = 1) -> "Potential":
        """F(x) = -sum(log x_i) on the positive orthant, (0, dim)-convex."""
        return cls(
            NEG_LOG,
            dim,
            rho=0.0,
            n_dim=float(dim),
            domain=POSITIVE_ORTHANT,
            value_fn=lambda X: -np.sum(np.log(X), axis=-1),
            grad_fn=lambda X: -1.0 / X,
            hess_apply_fn=lambda x, v: v / (x * x),
            force_fn=lambda X: -1.0 / (X * X * X),
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

        Rows are evaluated one at a time through the checked pointwise
        methods, so a row outside the domain raises DomainError. The force is
        hess_apply(x, grad(x)), checked the same way.

        When ``rho`` is positive and no minimizer is given, the minimizer is
        located by descent until the gradient norm drops below 1e-10.
        """
        dim = int(dim)

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
            return (pot.grad(x + h * unit) - pot.grad(x - h * unit)) * (nv / (2.0 * h))

        def force(x):
            return pot.hess_apply(x, pot.grad(x))

        # the closures read `pot` when they are called, after it is bound here
        pot = cls(
            CUSTOM,
            dim,
            rho=rho,
            n_dim=n_dim,
            domain=domain,
            value_fn=_by_shape(value_fn, lambda X: np.array([pot.value(row) for row in X])),
            grad_fn=_by_shape(fd_grad if grad_fn is None else grad_fn,
                              lambda X: np.array([pot.grad(row) for row in X])),
            hess_apply_fn=fd_hess_apply if hess_apply_fn is None else hess_apply_fn,
            force_fn=_by_shape(force, lambda X: np.array([force(row) for row in X])),
            minimizer=minimizer,
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
        return float(self._value_fn(self.check_domain(x)))

    def grad(self, x) -> np.ndarray:
        return np.asarray(self._grad_fn(self.check_domain(x)), dtype=float)

    def hess_apply(self, x, v) -> np.ndarray:
        x = self.check_domain(x)
        v = as_point(v, self.dim)
        if not np.all(np.isfinite(v)):
            raise ValueError("direction must be finite")
        return np.asarray(self._hess_apply_fn(x, v), dtype=float)

    def hess_grad(self, x) -> np.ndarray:
        """F''(x) F'(x), the force field of the Newton boundary-value problem.

        Like every public pointwise method it checks the point's shape and
        domain on entry (DomainError outside). The shooting integrator does
        not come through here: it checks each RK4 stage state once with its
        own guard and then calls ``force_fn``.
        """
        return self.force_fn(self.check_domain(x))

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
        x = np.zeros(self.dim)
        if not self.in_domain(x):
            x = np.ones(self.dim)
        f = self.value(x)
        step = 1.0 / max(self.rho, 1e-8)
        for _ in range(200000):
            g = self.grad(x)
            if float(np.max(np.abs(g))) < 1e-10:
                return x
            t = step
            for _ in range(60):
                cand = x - t * g
                if self.in_domain(cand):
                    fc = self.value(cand)
                    if fc <= f - 1e-4 * t * float(g @ g):
                        x, f = cand, fc
                        break
                t *= 0.5
            else:
                # no further progress possible at float precision
                if float(np.max(np.abs(g))) < 1e-8:
                    return x
                raise NoConvergence("minimizer search stalled")
        raise NoConvergence("minimizer search exceeded its iteration budget")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Potential(kind={self.kind!r}, dim={self.dim}, rho={self.rho}, n_dim={self.n_dim})"


def potential_from_config(desc: dict) -> Potential:
    """Build a builtin potential from an experiment-config descriptor.

    Expected shape: {"kind": ..., "dim": d} with an extra "matrix" entry for
    the quadratic-matrix kind. Custom potentials cannot be described in JSON.
    """
    kind = desc.get("kind")
    if kind == QUADRATIC_ISOTROPIC:
        return Potential.quadratic_isotropic(int(desc.get("dim", 1)))
    if kind == QUADRATIC_MATRIX:
        if "matrix" not in desc:
            raise ValueError("quadratic_matrix potential needs a 'matrix' entry")
        return Potential.quadratic_matrix(desc["matrix"])
    if kind == NEG_LOG:
        return Potential.neg_log(int(desc.get("dim", 1)))
    raise ValueError(f"unknown potential kind {kind!r}")
