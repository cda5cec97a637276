"""Closed-form 1-D Gaussian interpolation family.

Everything here is exact arithmetic on the bridge parameters: the marginal
N(x_t, sigma_t) with sigma_t = 1 + 2 t (T - t) / (D_T^2 + T), the conserved
quantity, the cost, the relative entropy against Lebesgue, and the
long-horizon cost expansion. ``sigma`` always denotes a variance; the
quadratic-distance formula takes square roots internally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import OutOfRange


@dataclass(frozen=True)
class Gaussian1D:
    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("variance must be positive")


@dataclass(frozen=True)
class GaussianBridge:
    """Interpolation between N(x0, 1) and N(x1, 1) over horizon T."""

    x0: float
    x1: float
    T: float
    dT2: float = field(init=False)  # D_T^2, derived from T

    def __post_init__(self):
        object.__setattr__(self, "dT2", fluct_param(self.T))

    @property
    def pool(self) -> float:
        """D_T^2 + T, the denominator shared by the variance profile."""
        return self.dT2 + self.T


def fluct_param(T: float) -> float:
    """D_T^2 = sqrt((T-1)^2 + 2T) - (T-1); decreases from 2 toward 1."""
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    return math.sqrt((T - 1.0) ** 2 + 2.0 * T) - (T - 1.0)


def _variance(gb: GaussianBridge, t: float) -> float:
    """sigma_t = 1 + 2 t (T - t) / (D_T^2 + T), for t in [0, T]."""
    if not 0.0 <= t <= gb.T:
        raise OutOfRange(f"t={t} outside [0, {gb.T}]")
    return 1.0 + 2.0 * t * (gb.T - t) / gb.pool


def bridge_marginal(gb: GaussianBridge, t: float) -> Gaussian1D:
    """Marginal N(x_t, sigma_t) at time t in [0, T]."""
    var = _variance(gb, t)
    mean = ((gb.T - t) * gb.x0 + t * gb.x1) / gb.T
    return Gaussian1D(mean, var)


def heat_flow_gaussian(g: Gaussian1D, t: float) -> Gaussian1D:
    """Heat evolution: N(m, s) -> N(m, s + 2t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return Gaussian1D(g.mean, g.variance + 2.0 * t)


def w2_gaussian(g1: Gaussian1D, g2: Gaussian1D) -> float:
    """Quadratic transport distance between two 1-D Gaussians."""
    ds = math.sqrt(g1.variance) - math.sqrt(g2.variance)
    dm = g1.mean - g2.mean
    return math.sqrt(ds * ds + dm * dm)


def gaussian_energy(gb: GaussianBridge, t: float) -> float:
    """Conserved quantity sigma'^2/(4 sigma) + ((x1-x0)/T)^2 - 1/sigma.

    The expression is evaluated at t; conservation makes it t-independent,
    which the tests verify rather than assume.
    """
    sigma = _variance(gb, t)
    sigma_dot = 2.0 * (gb.T - 2.0 * t) / gb.pool
    drift = (gb.x1 - gb.x0) / gb.T
    return sigma_dot**2 / (4.0 * sigma) + drift * drift - 1.0 / sigma


def gaussian_cost(gb: GaussianBridge, quad_steps=None) -> float:
    """Exact cost, the integral of sigma'^2/(4 sigma) + ((x1-x0)/T)^2 + 1/sigma.

    With K = D_T^2 + T and a = sqrt(K/2 + T^2/4),
    C_T = (T^2/K^2 + 2/K + 1) (K/a) atanh(T/(2a)) + (x1-x0)^2/T - 2T/K.
    The atanh is taken as log((a + T/2) / (a - T/2)) / 2 with
    a - T/2 = (K/2) / (a + T/2), which stays exact as T/(2a) -> 1.
    ``quad_steps`` is ignored; it is kept only so that callers written for
    the former quadrature, which took a step count, still run.
    """
    T, K = gb.T, gb.pool
    a = math.sqrt(K / 2.0 + T * T / 4.0)
    atanh = 0.5 * math.log((a + T / 2.0) / ((K / 2.0) / (a + T / 2.0)))
    return ((T * T / (K * K) + 2.0 / K + 1.0) * (K / a) * atanh
            + (gb.x1 - gb.x0) ** 2 / T - 2.0 * T / K)


def rel_entropy_gaussian(g: Gaussian1D) -> float:
    """Relative entropy of N(m, s) against Lebesgue: -log(2 pi e s)/2."""
    return -0.5 * math.log(2.0 * math.pi * math.e * g.variance)


@dataclass(frozen=True)
class GammaExpansion:
    excess: float
    limit_target: float
    first_order: float
    first_order_target: float


def gamma_expansion(gb: GaussianBridge) -> GammaExpansion:
    """Long-horizon cost expansion against its exact limits.

    excess = C_T - 2 log(4 pi T) converges to 2 F(mu) + 2 F(nu); the
    first-order term T (excess - limit) converges to the mean squared
    distance between independent samples of the endpoint marginals,
    (x0 - x1)^2 + 2 for unit variances.
    """
    if gb.T < 1:
        raise ValueError("the expansion is meant for T >= 1")
    cost = gaussian_cost(gb)
    excess = cost - 2.0 * math.log(4.0 * math.pi * gb.T)
    limit = 2.0 * rel_entropy_gaussian(Gaussian1D(gb.x0, 1.0)) + 2.0 * rel_entropy_gaussian(
        Gaussian1D(gb.x1, 1.0)
    )
    first_order = gb.T * (excess - limit)
    first_order_target = (gb.x0 - gb.x1) ** 2 + 2.0
    return GammaExpansion(excess, limit, first_order, first_order_target)


def schrodinger_value(gb: GaussianBridge) -> float:
    """C_T / 4 + (F(mu) + F(nu)) / 2.

    With Lebesgue as the (infinite-mass) reference the value is a
    renormalized one and is reported as-is.
    """
    f_sum = rel_entropy_gaussian(Gaussian1D(gb.x0, 1.0)) + rel_entropy_gaussian(
        Gaussian1D(gb.x1, 1.0)
    )
    return gaussian_cost(gb) / 4.0 + 0.5 * f_sum


def heat_flow_distance(gb: GaussianBridge, t: float) -> float:
    """W2 between the bridge marginal and the heat flow from N(x0, 1) at t."""
    return w2_gaussian(bridge_marginal(gb, t), heat_flow_gaussian(Gaussian1D(gb.x0, 1.0), t))
