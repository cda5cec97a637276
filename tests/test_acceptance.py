"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""
import math
import time

import numpy as np

from bridgelab import (
    GaussianBridge,
    Potential,
    SolverOptions,
    action_cost,
    closed_form_bridge,
    closed_form_bridge_trajectory,
    closed_form_cost,
    closed_form_energy,
    closed_form_flow,
    closed_form_solution,
    concavity_profile,
    cumulative_integral,
    envelope_check,
    fit_rate,
    gamma_expansion,
    gaussian_cost,
    gaussian_energy,
    heat_flow_distance,
    solve_bridge_shooting,
    verify_bounds,
)
from bridgelab.bounds import EXPONENTIAL, POWER_LAW
from bridgelab.cli import run as cli_run
from bridgelab.config import builtin_config_names, load_builtin_config

QUAD = "quadratic_isotropic"
NEGLOG = "neg_log"


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def quad_alpha_beta(x, y, T):
    den = 1.0 - math.exp(-2.0 * T)
    return (x - y * math.exp(-T)) / den, (y - x * math.exp(-T)) / den


def test_criterion_1_quadratic_oracle_suite():
    t0 = time.perf_counter()
    P = Potential.quadratic_isotropic(1)
    worst_traj = worst_E = worst_C = 0.0
    for T in (0.5, 1.0, 2.0, 5.0):
        opts = SolverOptions(grid_points=int(1000 * max(T, 1.0)) + 1)
        for x, y in ((2.0, 1.0), (1.0, 1.0), (-1.0, 3.0)):
            sol = solve_bridge_shooting(P, [x], [y], T, opts)
            exact = closed_form_bridge_trajectory(QUAD, [x], [y], T, sol.trajectory.n_nodes - 1)
            worst_traj = max(worst_traj, float(np.max(np.abs(sol.trajectory.states - exact.states))))
            a, b = quad_alpha_beta(x, y, T)
            E_ref = -4.0 * math.exp(-T) * a * b
            C_ref = (1.0 - math.exp(-2.0 * T)) * (a * a + b * b)
            worst_E = max(worst_E, abs(sol.energy_mean - E_ref) / (1.0 + abs(E_ref)))
            worst_C = max(worst_C, abs(sol.cost - C_ref) / C_ref)
    elapsed = time.perf_counter() - t0
    ok = worst_traj <= 1e-7 and worst_E <= 1e-7 and worst_C <= 1e-6 and elapsed < 5.0
    _report(
        1,
        "quadratic oracle suite",
        ok,
        f"(sup {worst_traj:.2e}, dE {worst_E:.2e}, dC {worst_C:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_neglog_conserved_quantity():
    t0 = time.perf_counter()
    P = Potential.neg_log(1)
    worst_E = worst_traj = 0.0
    for T in (2.0, 5.0, 10.0, 50.0):
        sol = solve_bridge_shooting(P, [1.0], [1.0], T)
        E_ref = closed_form_energy(NEGLOG, [1.0], [1.0], T)
        worst_E = max(worst_E, abs(sol.energy_mean - E_ref) / abs(E_ref))
        exact = closed_form_bridge_trajectory(NEGLOG, [1.0], [1.0], T, sol.trajectory.n_nodes - 1)
        worst_traj = max(worst_traj, float(np.max(np.abs(sol.trajectory.states - exact.states))))
    elapsed = time.perf_counter() - t0
    ok = worst_E <= 1e-6 and worst_traj <= 1e-6 and elapsed < 10.0
    _report(
        2,
        "log-potential conserved quantity",
        ok,
        f"(dE {worst_E:.2e}, sup {worst_traj:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_3_asymptotics():
    t0 = time.perf_counter()
    P = Potential.neg_log(1)
    T = 1000.0
    traj = closed_form_bridge_trajectory(NEGLOG, [1.0], [1.0], T, 200000)
    cost_quad = action_cost(traj, P)
    cost_exact = closed_form_cost(NEGLOG, [1.0], [1.0], T)
    ratio = cost_quad / (2.0 * math.log(T))
    Ts = [10.0, 100.0, 1000.0, 10000.0]
    scaled = [abs(closed_form_energy(NEGLOG, [1.0], [1.0], s)) * s for s in Ts]
    fit = fit_rate(Ts, scaled, POWER_LAW)
    elapsed = time.perf_counter() - t0
    ok = (
        0.9 <= ratio <= 1.1
        and abs(cost_quad - cost_exact) <= 1e-4 * cost_exact
        and abs(fit.exponent) <= 0.05
        and elapsed < 30.0
    )
    _report(
        3,
        "logarithmic cost growth and 1/T energy decay",
        ok,
        f"(ratio {ratio:.4f}, |E| T exponent {fit.exponent:+.4f}, {elapsed:.1f}s)",
    )


def test_criterion_4_envelope_identity():
    opts = SolverOptions(grid_points=4001)
    gaps = [
        envelope_check(Potential.quadratic_isotropic(1), [2.0], [1.0], 2.0, 1e-3, opts).gap,
        envelope_check(Potential.neg_log(1), [1.0], [1.0], 5.0, 1e-3, opts).gap,
    ]
    h, T = 1e-3, 10.0
    lo = gaussian_cost(GaussianBridge(0.0, 3.0, T - h))
    hi = gaussian_cost(GaussianBridge(0.0, 3.0, T + h))
    gaps.append(abs((hi - lo) / (2.0 * h) + gaussian_energy(GaussianBridge(0.0, 3.0, T), T / 2.0)))
    ok = all(g <= 1e-4 for g in gaps)
    _report(4, "envelope identity dC/dT = -E", ok, "(gaps " + ", ".join(f"{g:.1e}" for g in gaps) + ")")


def test_criterion_5_bound_catalogue_zero_failures():
    failures = []
    total = 0
    for P, kind, x, y in (
        (Potential.neg_log(1), NEGLOG, [1.0], [1.0]),
        (Potential.quadratic_isotropic(1), QUAD, [2.0], [1.0]),
    ):
        for T in (2.0, 5.0, 10.0, 20.0):
            if kind == QUAD and T == 20.0:
                # the landing map moves by sinh(rho T) ulp per representable
                # velocity, and the logarithmic-cost bound at this horizon has
                # an O(1e-8) true margin, so this case runs on the exact
                # trajectory, sampled finely
                opts = SolverOptions(grid_points=400001)
                sol = closed_form_solution(P, x, y, T, 400000)
            else:
                opts = SolverOptions(grid_points=int(400 * T) + 1)
                sol = solve_bridge_shooting(P, x, y, T, opts)
            reports = verify_bounds(P, x, y, T, solution=sol, opts=opts)
            total += len(reports)
            failures += [
                (r.bound_id, T, r.context.get("t"), r.margin)
                for r in reports
                if not r.passed
            ]
    ok = not failures and total > 150
    _report(5, "bound catalogue B1-B12", ok, f"({total} reports, failures: {failures})")


def test_criterion_5_companion_catalogue_on_solved_quadratic_at_T20():
    # the case criterion 5 takes from the closed form, solved by multiple
    # shooting instead; B9's true margin here is about 3.3e-8, and the grid
    # was sized to keep the plain trapezoid's bias (about 2.6e-8 at
    # h = 1.25e-4) below it
    P = Potential.quadratic_isotropic(1)
    opts = SolverOptions(grid_points=160001)
    sol = solve_bridge_shooting(P, [2.0], [1.0], 20.0, opts)
    reports = verify_bounds(P, [2.0], [1.0], 20.0, solution=sol, opts=opts)
    failures = [(r.bound_id, r.context.get("t"), r.margin) for r in reports if not r.passed]
    ok = sol.context["segments"] > 1 and not failures and len(reports) > 20
    _report("5b", "bound catalogue on a solved quadratic bridge at T=20", ok,
            f"({len(reports)} reports, {sol.context['segments']} segments, failures: {failures})")


def test_criterion_6_turnpike_sharpness():
    P = Potential.neg_log(1)
    T = 1000.0
    sol = closed_form_solution(P, [1.0], [1.0], T, 20000)
    reports = verify_bounds(
        P, [1.0], [1.0], T, solution=sol, theta_values=[0.5], t_values=[T / 2.0], c1=1.0
    )
    b3 = [r for r in reports if r.bound_id == "B3"]
    ratio = b3[0].lhs / b3[0].rhs
    ok = ratio > 0.5 and b3[0].passed
    _report(6, "turnpike bound is order-sharp", ok, f"(lhs/rhs {ratio:.4f} at T=1e3)")


def test_criterion_7_convergence_rates_to_gradient_flow():
    P = Potential.quadratic_isotropic(1)
    Ts = list(range(2, 11))
    dists = []
    for T in Ts:
        sol = solve_bridge_shooting(P, [1.0], [1.0], float(T))
        idx = sol.trajectory.index_of(1.0)
        dists.append(abs(sol.trajectory.states[idx, 0] - closed_form_flow(QUAD, [1.0], 1.0)[0]))
    fit_q = fit_rate(Ts, dists, EXPONENTIAL)

    Ts2 = [10.0, 100.0, 1000.0, 10000.0]
    s1 = closed_form_flow(NEGLOG, [1.0], 1.0)[0]
    dists2 = [abs(closed_form_bridge(NEGLOG, [1.0], [1.0], T, 1.0)[0] - s1) for T in Ts2]
    fit_n = fit_rate(Ts2, dists2, POWER_LAW)

    ok = abs(fit_q.exponent + 1.0) <= 0.05 and abs(fit_n.exponent + 1.0) <= 0.1
    _report(
        7,
        "convergence rates to the gradient flow",
        ok,
        f"(exponential {fit_q.exponent:+.4f}, power {fit_n.exponent:+.4f})",
    )


def test_criterion_8_gaussian_gamma_expansion():
    t0 = time.perf_counter()
    oks, details = [], []
    for x1 in (0.0, 3.0):
        exp = gamma_expansion(GaussianBridge(0.0, x1, 1e4))
        zero_ok = abs(exp.excess - exp.limit_target) <= 1e-2
        first_ok = abs(exp.first_order - exp.first_order_target) <= 0.1 * exp.first_order_target
        oks.append(zero_ok and first_ok)
        details.append(
            f"x1={x1:g}: excess-limit {exp.excess - exp.limit_target:+.2e}, "
            f"first {exp.first_order:.4f} vs {exp.first_order_target:.4f}"
        )
    elapsed = time.perf_counter() - t0
    ok = all(oks) and elapsed < 5.0
    _report(8, "long-horizon cost expansion", ok, f"({'; '.join(details)}, {elapsed:.1f}s)")


def test_criterion_9_gaussian_heat_flow_rate():
    Ts = [10.0, 100.0, 1000.0, 10000.0]
    dists = [heat_flow_distance(GaussianBridge(0.0, 3.0, T), 1.0) for T in Ts]
    fit = fit_rate(Ts, dists, POWER_LAW)
    ok = abs(fit.exponent + 1.0) <= 0.05
    _report(9, "distance to heat flow decays like 1/T", ok, f"(exponent {fit.exponent:+.4f})")


def test_criterion_10_concavity_suite():
    P = Potential.neg_log(1)
    results = {}

    # dissipation map along the flow (transformed with a = 2/n)
    from bridgelab import gradient_flow

    flow = gradient_flow(P, [1.0], 4.0, steps=1600)
    prof = concavity_profile(flow.times, P.value_many(flow.states), 2.0)
    results["flow"] = prof.max_second_difference / np.max(np.abs(prof.values))

    # entropy map along a bridge (a = 1/n)
    traj = closed_form_bridge_trajectory(NEGLOG, [1.0], [1.0], 2.0, 8000)
    prof = concavity_profile(traj.times, P.value_many(traj.states), 1.0)
    results["bridge"] = prof.max_second_difference / np.max(np.abs(prof.values))

    # entropy plus running gradient mass along a bridge (a = 1/n), the
    # integral accumulated to fourth order from the grid samples
    grads = P.grad_many(traj.states)
    phi = P.value_many(traj.states) + cumulative_integral(
        traj.times, np.sum(grads * grads, axis=1)
    )
    prof = concavity_profile(traj.times, phi, 1.0)
    results["bridge_running"] = prof.max_second_difference / np.max(np.abs(prof.values))

    # convex negative control must be flagged
    t = np.linspace(0.0, 1.0, 101)
    control = concavity_profile(t, t, 1.0)
    control_curv = control.max_second_difference / np.max(np.abs(control.values))

    ok = all(v <= 1e-8 for v in results.values()) and control_curv > 1e-3
    detail = ", ".join(f"{k} {v:+.1e}" for k, v in results.items())
    _report(10, "concavity profiles", ok, f"({detail}; control {control_curv:+.1e})")


def test_criterion_11_builtin_config_determinism(tmp_path):
    mismatches = []
    for name in builtin_config_names():
        cfg = load_builtin_config(name)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            code = cli_run(cfg, out_dir=str(out))
            assert code == 0, f"builtin config {name} failed with exit {code}"
            outs.append(out)
        csvs_a = sorted(p.name for p in outs[0].glob("*.csv"))
        csvs_b = sorted(p.name for p in outs[1].glob("*.csv"))
        if csvs_a != csvs_b or not csvs_a:
            mismatches.append((name, "file sets differ"))
            continue
        for fname in csvs_a:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append((name, fname))
    ok = not mismatches
    _report(11, "byte-identical reruns of builtin configs", ok, f"({mismatches})")
