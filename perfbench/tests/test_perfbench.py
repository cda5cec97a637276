"""Tests of the benchmark's own code: input generation, the tail rule, span
arithmetic, tracing install/restore, the oracles and the metric declarations."""
import json
import sys

import numpy as np
import pytest

from perfbench import env, run, tracer, workloads

if str(env.SRC) not in sys.path:
    sys.path.insert(0, str(env.SRC))

from perfbench import oracles  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_other_seed_other_inputs(name, tmp_path):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        workloads.write_inputs(workloads.generate(name, seed), tmp_path / sub)

    def files(sub):
        root = tmp_path / sub
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert files("a") == files("b")
    assert files("a") != files("c")


def test_workloads_keep_their_plan_across_seeds():
    for name in workloads.WORKLOADS:
        shapes = [[(c.check, (c.config or c.library).get("mode"), len(c.config["T_values"])
                    if c.config else c.library["dim"]) for c in workloads.generate(name, s)]
                  for s in (1, 2)]
        assert shapes[0] == shapes[1]
        assert len(shapes[0]) > run.TAIL_BEYOND


def test_tail_rule():
    assert run.tail_rank(11) == 1
    assert run.tail_rank(40) == 30
    with pytest.raises(ValueError):
        run.tail_rank(10)
    # 20 cases: the percentile is fixed by MIN_PASSES = 3 passes (rank 50 of 60), and
    # its value interpolated with ten runs beyond it ...
    assert run.MIN_PASSES == 3
    values = [float(v) for v in range(60, 0, -1)]
    value, pct = run.tail(values, 20)
    assert (value, pct) == (pytest.approx(50 + 1 / 6), pytest.approx(250 / 3))
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    # ... and stays there when more passes are pooled, with more runs beyond it
    assert run.tail([float(v) for v in range(1, 81)], 20) == (pytest.approx(66 + 5 / 6),
                                                             pytest.approx(250 / 3))
    with pytest.raises(ValueError):
        run.tail(values[:59], 20)


def _span(name, start, end, parent=None, leaf=0.0, error=False, **info):
    return {"name": name, "start": start, "end": end, "parent": parent, "case": "c00",
            "error": error, "leaf": leaf, "info": info}


def test_self_times_subtract_children_and_leaf_time():
    spans = [
        _span("cli.run", 0.0, 10.0, leaf=1.0),
        _span("bridge.solve_bridge", 1.0, 4.0, parent=0, leaf=0.5),
        _span("integrate.integrate_grid", 2.0, 3.0, parent=1),
        _span("bridge.solve_bridge", 5.0, 9.0, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 1.5, 1.0, 4.0])


def test_layer_metrics_attribute_landing_maps_and_fallbacks():
    t = tracer.Tracer()
    t.spans = [
        _span("bridge.solve_bridge", 0.0, 10.0, T=2.0, method="auto"),
        _span("bridge.solve_bridge_shooting", 0.0, 4.0, parent=0, error=True),
        _span("integrate.integrate_grid", 0.0, 1.0, parent=1, steps=100, rhs=400, feasible=0),
        _span("integrate.integrate_grid", 1.0, 3.0, parent=1, error=True, steps=100, rhs=202,
              feasible=0),
        _span("bridge.solve_bridge_action", 4.0, 9.0, parent=0, iterations=50, restarts=0),
        _span("flow.gradient_flow", 9.0, 9.5, parent=0),
        _span("integrate.integrate_grid", 9.0, 9.4, parent=5, steps=10, rhs=48, feasible=0),
    ]
    m = tracer.layer_metrics(t)
    assert m["bridge.solves"] == 1
    assert m["bridge.fallbacks"] == 1
    assert m["bridge.landing_maps"] == 2
    assert m["bridge.landing_maps_per_solve"] == 2.0
    assert m["bridge.shoot_converged_frac"] == 0.0
    assert m["bridge.lbfgs_iters"] == 50
    assert m["bridge.action_s"] == pytest.approx(5.0)
    assert m["bridge.shooting_s"] == pytest.approx(1.0)
    assert m["integrate.calls"] == 3
    assert m["integrate.escape_frac"] == pytest.approx(1 / 3)
    assert m["integrate.rk4_steps"] == pytest.approx(162.5)
    assert m["integrate.substeps"] == pytest.approx(2.0)  # the completed 10-step call took 12
    assert m["flow.steps"] == pytest.approx(12.0)
    assert m["flow.busy_s"] == pytest.approx(0.1)


def test_tracing_wraps_every_importer_and_restores():
    import bridgelab.bounds
    import bridgelab.bridge
    import bridgelab.cli
    from bridgelab import Potential, SolverOptions

    originals = (bridgelab.cli.solve_bridge, bridgelab.bounds.solve_bridge,
                 bridgelab.bridge.integrate_grid, Potential.__dict__["in_domain"])
    t = tracer.Tracer()
    with t:
        assert bridgelab.cli.solve_bridge is bridgelab.bounds.solve_bridge
        assert bridgelab.cli.solve_bridge is not originals[0]
        P = Potential.neg_log(1)
        bridgelab.cli.solve_bridge(P, [1.0], [1.5], 1.0, SolverOptions(grid_points=51))
    assert (bridgelab.cli.solve_bridge, bridgelab.bounds.solve_bridge,
            bridgelab.bridge.integrate_grid, Potential.__dict__["in_domain"]) == originals
    m = tracer.layer_metrics(t)
    assert m["bridge.solves"] == 1
    assert m["bridge.landing_maps"] > 0
    assert m["integrate.rk4_steps"] >= 50 * m["integrate.calls"] * (1 - m["integrate.escape_frac"])
    assert m["potential.in_domain_calls"] > 0
    assert m["potential.busy_s"] > 0


def test_oracles_agree_with_the_program_closed_forms():
    from bridgelab import GaussianBridge, closed_form_bridge_trajectory, closed_form_cost
    from bridgelab import closed_form_energy, gaussian_cost

    for x0, T in ((1.0, 2.0), (0.6, 37.0)):
        t = np.linspace(0.0, T, 11)
        X, V, E, C = oracles.neglog_equal([x0], T, t)
        ref = closed_form_bridge_trajectory("neg_log", [x0], [x0], T, 10)
        assert np.allclose(X, ref.states, rtol=1e-12) and np.allclose(V, ref.velocities, atol=1e-12)
        assert E == pytest.approx(closed_form_energy("neg_log", [x0], [x0], T), rel=1e-12)
        assert C == pytest.approx(closed_form_cost("neg_log", [x0], [x0], T), rel=1e-12)
    x, y, T = np.array([1.0, -0.5]), np.array([0.3, 0.8]), 3.0
    X, V, E, C = oracles.quadratic(np.eye(2), x, y, T, np.linspace(0.0, T, 7))
    ref = closed_form_bridge_trajectory("quadratic_isotropic", x, y, T, 6)
    assert np.allclose(X, ref.states, atol=1e-13) and np.allclose(V, ref.velocities, atol=1e-13)
    assert C == pytest.approx(closed_form_cost("quadratic_isotropic", x, y, T), rel=1e-12)
    assert E == pytest.approx(closed_form_energy("quadratic_isotropic", x, y, T), rel=1e-12)
    for T in (1.0, 30.0):
        exact = oracles.gaussian_row(0.5, -1.0, T)["cost"]
        assert exact == pytest.approx(gaussian_cost(GaussianBridge(0.5, -1.0, T), 200000), rel=1e-12)


def test_matrix_oracle_solves_the_newton_system():
    A = np.array(workloads.spd_matrix(__import__("random").Random(3)))
    x, y, T = np.array([1.0, -2.0]), np.array([0.5, 1.5]), 5.0
    t = np.linspace(0.0, T, 2001)
    X, V, E, C = oracles.quadratic(A, x, y, T, t)
    h = t[1] - t[0]
    acc = (X[2:] - 2 * X[1:-1] + X[:-2]) / h**2
    assert np.allclose(acc, X[1:-1] @ A @ A, atol=1e-5)
    assert np.allclose(X[0], x) and np.allclose(X[-1], y)
    g = np.sum(V**2, axis=1) + np.sum((X @ A) ** 2, axis=1)
    assert C == pytest.approx(h * (g.sum() - 0.5 * (g[0] + g[-1])), rel=1e-5)
    assert np.allclose(np.sum(V**2, axis=1) - np.sum((X @ A) ** 2, axis=1), E, atol=1e-10)


def test_every_reported_metric_is_declared_with_its_unit(capsys):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    cases = [workloads.Case(f"c{i:02d}", "custom") for i in range(run.TAIL_BEYOND + 1)]
    layers = tracer.layer_metrics(tracer.Tracer())
    layers["cli.bytes_written"] = 0
    passes = []
    for traced in (False, False, True, False, False, False):
        p = run.Pass(traced, layers=dict(layers) if traced else None)
        for c in cases:
            p.outcomes[c.id] = workloads.Outcome(0.5, 0.5, None, "digest")
            p.scales[c.id] = 1.0
            p.findings[c.id] = []
        passes.append(p)
    result = run.summarize("custom_shoot", 1, cases, passes, [(0.2, 1.0)])
    for group in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert set(result[group]) == set(declared), group
        run.report(result, traced=group == "per_layer")
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in printed["metrics"].items()} == declared


def test_summary_scales_times_and_skips_the_warm_up_pass():
    from perfbench import clock

    assert clock.scale([clock.REFERENCE_S / 2.0] * 4) == pytest.approx(2.0)
    cases = [workloads.Case(f"c{i:02d}", "custom") for i in range(run.TAIL_BEYOND + 1)]
    passes = []
    for elapsed, scale in ((9.0, 1.0), (0.5, 2.0), (0.25, 4.0), (2.0, 0.5)):
        # a warm-up pass, then MIN_PASSES passes that take 1 reference second per case
        p = run.Pass(False)
        for c in cases:
            p.outcomes[c.id] = workloads.Outcome(9.9, elapsed, None, "digest")
            p.scales[c.id] = scale
            p.findings[c.id] = []
        passes.append(p)
    result = run.summarize("custom_shoot", 1, cases, passes, [(0.2, 1.0), (0.1, 3.0), (0.5, 0.5)])
    e2e = result["end_to_end"]
    assert e2e["pass_s"] == pytest.approx(len(cases) * 1.0)
    assert e2e["case_p50_s"] == pytest.approx(1.0)
    assert e2e["case_tail_s"] == pytest.approx(1.0)
    assert e2e["setup_s"] == pytest.approx(0.25)
    assert result["attempted"] == 4 * len(cases)
