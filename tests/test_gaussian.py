import math

import numpy as np
import pytest

from bridgelab import (
    Gaussian1D,
    GaussianBridge,
    OutOfRange,
    bridge_marginal,
    fit_rate,
    fluct_param,
    gamma_expansion,
    gaussian_cost,
    gaussian_energy,
    heat_flow_distance,
    heat_flow_gaussian,
    rel_entropy_gaussian,
    schrodinger_value,
    w2_gaussian,
)
from bridgelab.bounds import POWER_LAW


def test_fluct_param_values():
    assert fluct_param(1.0) == pytest.approx(math.sqrt(2.0))
    assert fluct_param(2.0) == pytest.approx(math.sqrt(5.0) - 1.0)
    assert abs(fluct_param(100.0) - 1.0) < 0.02


def test_bridge_marginal_boundary_and_midpoint():
    gb = GaussianBridge(0.0, 2.0, 2.0)
    g0 = bridge_marginal(gb, 0.0)
    gT = bridge_marginal(gb, 2.0)
    assert (g0.mean, g0.variance) == (0.0, 1.0)
    assert (gT.mean, gT.variance) == (2.0, 1.0)
    mid = bridge_marginal(gb, 1.0)
    assert mid.mean == pytest.approx(1.0)
    # 1 + 2/(sqrt(5) + 1), the golden ratio
    assert mid.variance == pytest.approx(1.6180339887498949, abs=1e-12)
    with pytest.raises(OutOfRange):
        bridge_marginal(gb, 2.5)


def test_bridge_marginal_variance_long_horizon_limit():
    gb = GaussianBridge(0.0, 0.0, 1e4)
    assert bridge_marginal(gb, 1.0).variance == pytest.approx(3.0, abs=1e-3)


def test_heat_flow_gaussian():
    assert heat_flow_gaussian(Gaussian1D(0.0, 1.0), 1.0) == Gaussian1D(0.0, 3.0)
    assert heat_flow_gaussian(Gaussian1D(5.0, 2.0), 0.0) == Gaussian1D(5.0, 2.0)
    assert heat_flow_gaussian(Gaussian1D(5.0, 2.0), 0.5) == Gaussian1D(5.0, 3.0)


def test_w2_gaussian_values():
    assert w2_gaussian(Gaussian1D(0.0, 1.0), Gaussian1D(0.0, 1.0)) == 0.0
    assert w2_gaussian(Gaussian1D(0.0, 1.0), Gaussian1D(1.0, 1.0)) == pytest.approx(1.0)
    assert w2_gaussian(Gaussian1D(0.0, 1.0), Gaussian1D(0.0, 4.0)) == pytest.approx(1.0)


def test_gaussian_energy_is_time_independent():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x0, x1 = rng.normal(scale=2.0, size=2)
        T = 10.0 ** rng.uniform(-0.5, 2.0)
        gb = GaussianBridge(float(x0), float(x1), float(T))
        samples = [gaussian_energy(gb, f * T) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert max(samples) - min(samples) <= 1e-10 * (1.0 + abs(samples[0]))


def test_gaussian_energy_midpoint_formula():
    # at the symmetric point the variance is critical, so E = -1/sigma_{T/2}
    for T in (1.0, 3.0, 10.0):
        gb = GaussianBridge(1.0, 1.0, T)
        expected = -1.0 / (1.0 + T * T / (2.0 * gb.pool))
        assert gaussian_energy(gb, T / 2.0) == pytest.approx(expected, rel=1e-12)


def test_gaussian_energy_long_horizon_asymptotics():
    T = 1000.0
    gb = GaussianBridge(0.0, 3.0, T)
    asym = 9.0 / (T * T) - 2.0 / (T + 2.0)
    assert gaussian_energy(gb, T / 2.0) == pytest.approx(asym, rel=0.01)


def test_gaussian_cost_drift_term_is_exact():
    # the mean moves linearly, so shifting an endpoint adds exactly (dx)^2/T
    T = 5.0
    c0 = gaussian_cost(GaussianBridge(0.0, 0.0, T))
    c3 = gaussian_cost(GaussianBridge(0.0, 3.0, T))
    assert c3 - c0 == pytest.approx(9.0 / T, rel=1e-10)


def _simpson_cost(gb, intervals=2_000_000):
    """Composite Simpson rule on the cost integrand, a reference for the formula."""
    t = np.linspace(0.0, gb.T, intervals + 1)
    sigma = 1.0 + 2.0 * t * (gb.T - t) / gb.pool
    sigma_dot = 2.0 * (gb.T - 2.0 * t) / gb.pool
    drift = (gb.x1 - gb.x0) / gb.T
    g = sigma_dot**2 / (4.0 * sigma) + drift * drift + 1.0 / sigma
    h = gb.T / intervals
    return h / 3.0 * (g[0] + g[-1] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-2:2].sum())


@pytest.mark.parametrize("T", [1e-3, 0.1, 1.0, 10.0, 100.0, 1000.0])
def test_gaussian_cost_matches_simpson_reference(T):
    gb = GaussianBridge(0.5, -1.0, T)
    assert gaussian_cost(gb) == pytest.approx(_simpson_cost(gb), rel=1e-12)


def test_gamma_expansion_first_order_at_very_long_horizon():
    # a plain atanh near 1 loses enough digits here to move this by about 0.2
    exp = gamma_expansion(GaussianBridge(0.0, 3.0, 1e8))
    assert abs(exp.first_order - 11.0) <= 1e-3


def test_gaussian_cost_log_growth():
    T = 1000.0
    cost = gaussian_cost(GaussianBridge(0.0, 0.0, T))
    assert 0.9 <= cost / (2.0 * math.log(T)) <= 1.1


def test_rel_entropy_values():
    assert rel_entropy_gaussian(Gaussian1D(0.0, 1.0)) == pytest.approx(-1.4189385332046727)
    assert rel_entropy_gaussian(Gaussian1D(3.0, 1.0 / (2.0 * math.pi * math.e))) == pytest.approx(
        0.0, abs=1e-12
    )
    diff = rel_entropy_gaussian(Gaussian1D(0.0, 4.0)) - rel_entropy_gaussian(Gaussian1D(0.0, 1.0))
    assert diff == pytest.approx(-math.log(2.0))


def test_gamma_expansion_limits():
    exp = gamma_expansion(GaussianBridge(0.0, 0.0, 1e4))
    assert exp.limit_target == pytest.approx(4.0 * -1.4189385332046727)
    assert abs(exp.excess - exp.limit_target) <= 1e-2
    assert exp.first_order_target == pytest.approx(2.0)
    assert exp.first_order == pytest.approx(exp.first_order_target, rel=0.1)


def test_gamma_expansion_shifted_endpoints():
    exp = gamma_expansion(GaussianBridge(0.0, 3.0, 1e4))
    assert exp.first_order_target == pytest.approx(11.0)
    assert exp.first_order == pytest.approx(11.0, rel=0.1)


def test_schrodinger_value_identity_and_symmetry():
    for T in (1.0, 2.0, 4.0):
        gb = GaussianBridge(0.0, 1.0, T)
        f_sum = rel_entropy_gaussian(Gaussian1D(0.0, 1.0)) + rel_entropy_gaussian(
            Gaussian1D(1.0, 1.0)
        )
        sch = schrodinger_value(gb)
        assert 4.0 * (sch - 0.5 * f_sum) == pytest.approx(gaussian_cost(gb))
        swapped = schrodinger_value(GaussianBridge(1.0, 0.0, T))
        assert sch == pytest.approx(swapped, rel=1e-12)
    costs = [gaussian_cost(GaussianBridge(0.0, 1.0, T)) for T in (1.0, 2.0, 4.0)]
    assert costs[0] < costs[1] < costs[2]  # -E_T > 0 on this family


def test_gaussian_envelope_identity():
    # central difference of the cost in T against the conserved quantity
    h = 1e-3
    for T, x1 in ((2.0, 0.0), (10.0, 3.0)):
        lo = gaussian_cost(GaussianBridge(0.0, x1, T - h))
        hi = gaussian_cost(GaussianBridge(0.0, x1, T + h))
        dC = (hi - lo) / (2.0 * h)
        assert abs(dC + gaussian_energy(GaussianBridge(0.0, x1, T), T / 2.0)) <= 1e-5


def test_heat_flow_distance_decays_at_rate_one():
    Ts = [10.0, 100.0, 1000.0, 10000.0]
    dists = [heat_flow_distance(GaussianBridge(0.0, 3.0, T), 1.0) for T in Ts]
    fit = fit_rate(Ts, dists, POWER_LAW)
    assert fit.exponent == pytest.approx(-1.0, abs=0.05)


def test_gaussian_family_dimension_one_bounds():
    # -E <= 2/T and Fisher information 1/sigma_{theta T} <= 1/(2 T theta (1-theta))
    for T in (10.0, 100.0, 1000.0):
        gb = GaussianBridge(0.0, 0.0, T)
        assert -gaussian_energy(gb, T / 2.0) <= 2.0 / T + 1e-10
        for theta in np.arange(0.1, 0.95, 0.1):
            info = 1.0 / bridge_marginal(gb, theta * T).variance
            assert info <= 1.0 / (2.0 * T * theta * (1.0 - theta)) + 1e-10


def test_gaussian_bridge_validation():
    for T in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            GaussianBridge(0.0, 0.0, T)
    with pytest.raises(ValueError):
        Gaussian1D(0.0, 0.0)
