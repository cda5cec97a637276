import math

import numpy as np
import pytest

import bridgelab.bounds as bounds_module
import bridgelab.flow as flow_module
from bridgelab import (
    DegenerateSeries,
    MissingPrerequisite,
    NoConvergence,
    Potential,
    SolverOptions,
    closed_form_cost,
    closed_form_energy,
    closed_form_flow,
    closed_form_solution,
    fit_rate,
    solve_bridge,
    solve_bridge_shooting,
    verify_bounds,
)
from bridgelab.bounds import EXPONENTIAL, POWER_LAW, unit_horizon_cost
from bridgelab.potential import POSITIVE_ORTHANT

NEGLOG = "neg_log"
QUAD = "quadratic_isotropic"


# -- rate fits ----------------------------------------------------------------


def test_fit_rate_exact_exponential():
    T = np.arange(1.0, 9.0)
    fit = fit_rate(T, np.exp(-T), EXPONENTIAL)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-10)
    assert fit.prefactor == pytest.approx(1.0, abs=1e-10)
    assert fit.residual <= 1e-12


def test_fit_rate_exact_power_law():
    T = np.array([10.0, 100.0, 1000.0])
    fit = fit_rate(T, 5.0 / T, POWER_LAW)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(5.0, rel=1e-10)


def test_fit_rate_rejects_bad_series():
    with pytest.raises(DegenerateSeries):
        fit_rate([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, 1.0], POWER_LAW)
    with pytest.raises(DegenerateSeries):
        fit_rate([1.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0], POWER_LAW)
    with pytest.raises(DegenerateSeries):
        fit_rate([1.0], [1.0], POWER_LAW)


def test_fit_rate_neglog_energy_decay():
    Ts = [10.0, 100.0, 1000.0, 10000.0]
    vals = [abs(closed_form_energy(NEGLOG, [1.0], [1.0], T)) for T in Ts]
    fit = fit_rate(Ts, vals, POWER_LAW)
    assert fit.exponent == pytest.approx(-1.0, abs=0.05)


# -- bound catalogue -----------------------------------------------------------


def _by_id(reports):
    out = {}
    for rep in reports:
        out.setdefault(rep.bound_id, []).append(rep)
    return out


def test_quadratic_case_runs_the_convex_bounds_and_passes():
    P = Potential.quadratic_isotropic(1)
    opts = SolverOptions(grid_points=2001)
    sol = solve_bridge_shooting(P, [2.0], [1.0], 5.0, opts)
    reports = verify_bounds(P, [2.0], [1.0], 5.0, solution=sol, opts=opts)
    groups = _by_id(reports)
    assert set(groups) == {"B4", "B5", "B6", "B7", "B9", "B10"}
    for rep in reports:
        assert rep.passed, (rep.bound_id, rep.context, rep.lhs, rep.rhs)
    # both orientations present for the asymmetric bounds
    assert {r.context["orientation"] for r in groups["B4"]} == {"forward", "reversed"}


def test_neglog_case_runs_the_dimensional_bounds_and_passes():
    P = Potential.neg_log(1)
    opts = SolverOptions(grid_points=2001)
    sol = solve_bridge_shooting(P, [1.0], [1.0], 10.0, opts)
    reports = verify_bounds(P, [1.0], [1.0], 10.0, solution=sol, opts=opts)
    groups = _by_id(reports)
    assert set(groups) == {"B1", "B2", "B3", "B8", "B11", "B12"}
    for rep in reports:
        assert rep.passed, (rep.bound_id, rep.context, rep.lhs, rep.rhs)


def test_b3_turnpike_value_neglog():
    P = Potential.neg_log(1)
    T = 10.0
    sol = closed_form_solution(P, [1.0], [1.0], T, 2000)
    reports = verify_bounds(
        P, [1.0], [1.0], T, solution=sol, theta_values=[0.5], t_values=[T / 2], c1=1.0
    )
    b3 = [r for r in reports if r.bound_id == "B3"]
    assert len(b3) == 1
    assert b3[0].rhs == pytest.approx(0.2)
    assert b3[0].lhs == pytest.approx(-closed_form_energy(NEGLOG, [1.0], [1.0], T), rel=1e-9)
    assert b3[0].passed


def test_stationary_case_all_bounds_trivially_pass():
    P = Potential.quadratic_isotropic(1)
    sol = solve_bridge_shooting(P, [0.0], [0.0], 3.0)
    reports = verify_bounds(P, [0.0], [0.0], 3.0, solution=sol)
    assert reports
    for rep in reports:
        assert rep.passed
        assert abs(rep.lhs) <= 1e-10


def test_b6_is_tight_on_the_isotropic_quadratic():
    # equality case: the comparison solution of the second-order inequality
    P = Potential.quadratic_isotropic(1)
    T = 2.0
    sol = closed_form_solution(P, [2.0], [1.0], T, 2000)
    reports = verify_bounds(P, [2.0], [1.0], T, solution=sol)
    b6 = [r for r in reports if r.bound_id == "B6" and r.context["orientation"] == "forward"]
    assert len(b6) == 3
    for rep in b6:
        assert abs(rep.margin) <= 1e-9 * (1.0 + abs(rep.rhs))
        assert rep.passed


def test_b10_log_sobolev_equality_for_isotropic_quadratic():
    P = Potential.quadratic_isotropic(1)
    sol = closed_form_solution(P, [2.0], [1.0], 2.0, 1000)
    reports = verify_bounds(P, [2.0], [1.0], 2.0, solution=sol)
    b10 = [r for r in reports if r.bound_id == "B10" and r.context["orientation"] == "forward"]
    assert len(b10) == 2
    for rep in b10:
        assert rep.margin == pytest.approx(0.0, abs=1e-12)


def _b9_by_orientation(reports):
    return {r.context["orientation"]: r for r in reports if r.bound_id == "B9"}


@pytest.mark.parametrize("y", [[1.5], [1.5, -0.8]])
def test_b9_is_attained_when_one_endpoint_is_the_minimizer(y):
    # from the minimizer the bridge is y sinh(t) / sinh(T), whose cost |y|^2 coth T
    # is B9's infimum 2 F(y) coth(rho T), approached as s -> 0 (a = 0)
    P = Potential.quadratic_isotropic(len(y))
    x, T = np.zeros(len(y)), 3.0
    reports = verify_bounds(P, x, y, T, solution=closed_form_solution(P, x, y, T, 601))
    b9 = _b9_by_orientation(reports)
    for rep in b9.values():
        assert rep.rhs == pytest.approx(closed_form_cost(P, x, y, T), rel=1e-13, abs=0.0)
        assert rep.passed
    assert b9["forward"].context["t_opt"] == 0.0
    assert b9["reversed"].context["t_opt"] == T


@pytest.mark.parametrize("P, x, y, T", [
    (Potential.quadratic_isotropic(1), [2.0], [1.0], 5.0),
    (Potential.quadratic_isotropic(1), [0.3], [2.5], 0.4),
    (Potential.quadratic_matrix([[2.0, 0.5], [0.5, 1.0]]), [1.0, -1.0], [0.5, 2.0], 2.0),
], ids=["isotropic", "short_horizon", "matrix"])
def test_b9_rhs_is_the_infimum_over_s_and_its_value_at_t_opt(P, x, y, T):
    reports = verify_bounds(P, x, y, T, solution=closed_form_solution(P, x, y, T, 401))
    Fstar = P.value(P.minimizer)
    b9 = _b9_by_orientation(reports)
    assert set(b9) == {"forward", "reversed"}
    for orientation, rep in b9.items():
        start, end = (x, y) if orientation == "forward" else (y, x)
        a, b = P.value(start) - Fstar, P.value(end) - Fstar
        assert a > 0 and b > 0

        def f(s):
            return 2.0 * a / np.tanh(P.rho * s) + 2.0 * b / np.tanh(P.rho * (T - s))

        s = np.linspace(0.0, T, 100001)[1:-1]
        assert np.min(f(s)) >= rep.rhs * (1.0 - 1e-14)
        assert 0.0 < rep.context["t_opt"] < T
        assert f(rep.context["t_opt"]) == pytest.approx(rep.rhs, rel=1e-14, abs=0.0)


def test_every_bound_evaluates_at_rho_T_1000():
    # at rho T = 1000 sinh overflows, expm1 overflows in B4 and B5, and
    # tanh(rho s*) rounds to 1 although s* is near T/2
    P = Potential.quadratic_isotropic(1)
    x, y, T = [1.0], [0.5], 1000.0
    reports = verify_bounds(P, x, y, T, solution=closed_form_solution(P, x, y, T, 4001))
    assert all(rep.passed for rep in reports)
    b9 = _b9_by_orientation(reports)
    # coth(1000) is 1 and 1/sinh(1000) is 0 in floating point
    assert b9["forward"].rhs == b9["reversed"].rhs == 2.0 * (0.5 + 0.125)
    # 2 rho s* = rho T + log(sqrt(a / b)), with a / b = 4
    assert b9["forward"].context["t_opt"] == pytest.approx(T / 2 + 0.5 * math.log(2.0), rel=1e-15)
    assert b9["reversed"].context["t_opt"] == pytest.approx(T / 2 - 0.5 * math.log(2.0), rel=1e-15)


def test_b7_reports_every_node_with_a_positive_rhs_at_rho_T_1000():
    # e^{-2 rho t} - e^{-2 rho T} and e^{-rho T} underflow here; the rhs does not
    P = Potential.quadratic_isotropic(1)
    x, y, T = [1.0], [0.5], 1000.0
    reports = verify_bounds(P, x, y, T, solution=closed_form_solution(P, x, y, T, 4001))
    h = T / 4001
    for orientation in ("forward", "reversed"):
        b7 = [r for r in reports if r.bound_id == "B7" and r.context["orientation"] == orientation]
        assert np.allclose([r.context["t"] for r in b7], [0.25 * T, 0.5 * T, 0.75 * T], atol=h)
        assert all(0.0 < r.rhs < math.inf and r.passed for r in b7)


def _b7_row(T, t):
    P = Potential.quadratic_isotropic(1)
    x, y = [1.0], [0.5]
    reports = verify_bounds(P, x, y, T, solution=closed_form_solution(P, x, y, T, int(20 * T)))
    (rep,) = [r for r in reports if r.bound_id == "B7"
              and r.context["orientation"] == "forward" and r.context["t"] == t]
    return rep


def test_b7_holds_strictly_on_the_exact_flow_at_long_horizons():
    # the RK4 flow's own error was about 3.9e3 times this rhs
    rep = _b7_row(50.0, 12.5)
    assert rep.lhs < rep.rhs
    assert rep.lhs / rep.rhs == pytest.approx(0.04, rel=1e-3)
    # the true gap, about 1e-64, is below one ulp of the state
    assert _b7_row(200.0, 50.0).lhs == 0.0


def _counting(monkeypatch):
    """Record each call of the flow module's gradient_flow and the bounds
    module's solve_bridge."""
    calls = []
    for module, name in ((flow_module, "gradient_flow"), (bounds_module, "solve_bridge")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append((_name, args[3] if _name == "solve_bridge" else None))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("P, x, y", [
    (Potential.neg_log(2), [1.0, 2.0], [1.5, 0.5]),
    (Potential.quadratic_isotropic(1), [2.0], [1.0]),
    (Potential.quadratic_matrix([[2.0, 0.5], [0.5, 1.0]]), [1.0, -1.0], [0.5, 2.0]),
], ids=["neg_log", "isotropic", "matrix"])
def test_a_builtin_reads_its_exact_flows_and_unit_horizon_cost(monkeypatch, P, x, y):
    T = 4.0
    sol = closed_form_solution(P, x, y, T, 400)
    calls = _counting(monkeypatch)
    reports = verify_bounds(P, x, y, T, solution=sol)
    assert calls == []
    assert reports and all(rep.passed for rep in reports)
    for rep in reports:
        if rep.bound_id in ("B7", "B8"):
            forward = rep.context["orientation"] == "forward"
            states = sol.trajectory.states if forward else sol.trajectory.states[::-1]
            idx = sol.trajectory.nearest_index(rep.context["t"])
            exact = closed_form_flow(P, x if forward else y, sol.trajectory.times[idx])
            assert rep.lhs == float(np.linalg.norm(states[idx] - exact))
    if np.isfinite(P.n_dim):
        c1 = [rep.context["c1"] for rep in reports if "c1" in rep.context]
        assert c1 and set(c1) == {closed_form_cost(P, x, y, 1.0)}


def _custom_neg_log():
    return Potential.custom(1, lambda x: -float(np.log(x[0])), lambda x: -1.0 / x,
                            lambda x, v: v / (x * x), n_dim=1.0, domain=POSITIVE_ORTHANT)


def test_a_custom_potential_takes_the_numerical_flow_and_unit_horizon_solve(monkeypatch):
    P, x, y, T = _custom_neg_log(), [1.0], [1.5], 2.0
    opts = SolverOptions(grid_points=401)
    sol = solve_bridge(P, x, y, T, opts)
    calls = _counting(monkeypatch)
    reports = verify_bounds(P, x, y, T, solution=sol, opts=opts)
    assert calls == [("solve_bridge", 1.0), ("gradient_flow", None)]
    builtin = verify_bounds(Potential.neg_log(1), x, y, T, solution=sol, opts=opts)
    assert [r.bound_id for r in reports] == [r.bound_id for r in builtin]
    for rep, ref in zip(reports, builtin):
        assert rep.passed and ref.passed
        assert rep.lhs == pytest.approx(ref.lhs, rel=1e-6, abs=1e-9)
        assert rep.rhs == pytest.approx(ref.rhs, rel=1e-6, abs=1e-9)


def test_a_failing_unit_horizon_solve_is_a_missing_prerequisite(monkeypatch):
    def failing(P, x, y, T, opts=None):
        raise NoConvergence(f"no bridge at T = {T:g}")

    monkeypatch.setattr(bounds_module, "solve_bridge", failing)
    with pytest.raises(MissingPrerequisite, match="unit-horizon cost: no bridge at T = 1"):
        unit_horizon_cost(_custom_neg_log(), [1.0], [1.5])
    # a builtin's c1 is exact and reaches no solve
    assert unit_horizon_cost(Potential.neg_log(1), [1.0], [1.5]) == closed_form_cost(
        NEGLOG, [1.0], [1.5], 1.0)


def test_b9_is_zero_at_the_midpoint_when_both_endpoints_are_the_minimizer():
    P = Potential.quadratic_isotropic(2)
    x = [0.0, 0.0]
    reports = verify_bounds(P, x, x, 3.0, solution=closed_form_solution(P, x, x, 3.0, 301))
    (rep,) = [r for r in reports if r.bound_id == "B9"]
    assert rep.rhs == 0.0 and rep.context["t_opt"] == 1.5 and rep.passed


def test_b1_cross_check_with_b3_midpoint():
    # at theta = 1/2 the turnpike right side equals the energy bound 2n/T
    P = Potential.neg_log(1)
    T = 10.0
    sol = closed_form_solution(P, [1.0], [1.0], T, 2000)
    reports = verify_bounds(
        P, [1.0], [1.0], T, solution=sol, theta_values=[0.5], t_values=[T / 2], c1=1.0
    )
    b1_energy = [r for r in reports if r.bound_id == "B1" and r.context.get("part") == "energy"]
    b3 = [r for r in reports if r.bound_id == "B3"]
    assert b1_energy[0].rhs == pytest.approx(b3[0].rhs)
    assert b1_energy[0].lhs == pytest.approx(b3[0].lhs, rel=1e-9)


@pytest.mark.parametrize("x, y, ratio_at_20", [
    ([1.0], [1.0], 0.951),
    ([0.8, 2.0, 1.3], [1.7, 1.0, 2.5], 0.870),
])
def test_b1_energy_bound_is_sharp_on_the_exact_neglog_bridges(x, y, ratio_at_20):
    # CD(0, n): each coordinate's energy a_i has 2/T + a_i >= (x_i - y_i)^2/T^2,
    # so -E <= 2n/T - |x - y|^2/T^2, and -E T/(2n) rises towards 1
    n = len(x)
    gap = float(np.sum((np.array(x) - np.array(y)) ** 2))
    ratios = []
    for T in (1.0, 2.0, 5.0, 20.0, 100.0, 1000.0):
        for xi, yi in zip(x, y):
            assert 2.0 / T + closed_form_energy(NEGLOG, [xi], [yi], T) >= (xi - yi) ** 2 / T**2
        E = closed_form_energy(NEGLOG, x, y, T)
        assert -E <= 2.0 * n / T - gap / T**2
        ratios.append(-E * T / (2.0 * n))
    assert all(r < s < 1.0 for r, s in zip(ratios, ratios[1:]))
    assert ratios[3] == pytest.approx(ratio_at_20, abs=1e-3) and ratios[-1] > 0.997
    # B1's energy report on a shooting solve keeps the exact margin, less the solve's error
    P, T = Potential.neg_log(n), 20.0
    sol = solve_bridge_shooting(P, x, y, T)
    E = closed_form_energy(P, x, y, T)
    error = abs(sol.energy_mean - E)
    assert error <= 1e-8
    reports = verify_bounds(P, x, y, T, solution=sol, c1=closed_form_cost(P, x, y, 1.0))
    b1 = [r for r in reports if r.bound_id == "B1" and r.context["part"] == "energy"]
    assert len(b1) == (1 if x == y else 2)
    for rep in b1:
        assert rep.margin >= 2.0 * n / T + E - error >= gap / T**2 - error


def test_full_grid_no_failures():
    # the acceptance-scale sweep, at a coarser grid to stay quick
    opts = SolverOptions(grid_points=2001)
    for P, x, y in (
        (Potential.neg_log(1), [1.0], [1.0]),
        (Potential.quadratic_isotropic(1), [2.0], [1.0]),
    ):
        for T in (2.0, 5.0):
            reports = verify_bounds(P, x, y, T, opts=opts)
            bad = [r for r in reports if not r.passed]
            assert not bad, [(r.bound_id, r.context.get("t"), r.margin) for r in bad]


def test_rate_of_convergence_to_flow_quadratic_exponential():
    P = Potential.quadratic_isotropic(1)
    Ts = list(range(2, 11))
    dists = []
    for T in Ts:
        sol = solve_bridge_shooting(P, [1.0], [1.0], float(T))
        idx = sol.trajectory.index_of(1.0)
        s1 = closed_form_flow(QUAD, [1.0], 1.0)[0]
        dists.append(abs(sol.trajectory.states[idx, 0] - s1))
    fit = fit_rate(Ts, dists, EXPONENTIAL)
    assert fit.exponent == pytest.approx(-1.0, abs=0.05)


def test_rate_of_convergence_to_flow_neglog_power_law():
    from bridgelab import closed_form_bridge

    Ts = [10.0, 100.0, 1000.0, 10000.0]
    s1 = closed_form_flow(NEGLOG, [1.0], 1.0)[0]
    dists = [abs(closed_form_bridge(NEGLOG, [1.0], [1.0], T, 1.0)[0] - s1) for T in Ts]
    fit = fit_rate(Ts, dists, POWER_LAW)
    assert fit.exponent == pytest.approx(-1.0, abs=0.1)
