import dataclasses
import json
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import bridgelab.cli as cli_module
from bridgelab import (DomainEscape, MissingPrerequisite, NoConvergence, OffGrid, Potential,
                       SolverOptions, solve_bridge)
from bridgelab.cli import main
from bridgelab.config import builtin_config_names, load_builtin_config, resolve_config
from bridgelab.errors import ConfigError
from bridgelab.flow import Trajectory, flows_on_grid
from bridgelab.functionals import energy_stats


def write_config(tmp_path: Path, data: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


BASE = {
    "name": "case",
    "mode": "bridge",
    "potential": {"kind": "quadratic_isotropic", "dim": 1},
    "endpoints": {"x": [2.0], "y": [1.0]},
    "T_values": [1.0],
    "solver": {"method": "shooting"},
    "outputs": {"csv_dir": "out", "json_path": "out/summary.json"},
}


def test_run_bridge_mode_writes_trajectory_and_summary(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    csv_path = out / "case_bridge_T1.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x_1,v_1,E,phi_norm"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 2.0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["cases"][0]["solver"] == "shooting"
    assert summary["cases"][0]["boundary_error"] <= 1e-9


def test_run_rejects_empty_T_values(tmp_path):
    cfg = write_config(tmp_path, {**BASE, "T_values": []})
    assert main(["run", str(cfg)]) == 1


def test_run_rejects_bad_mode_and_missing_file(tmp_path):
    cfg = write_config(tmp_path, {**BASE, "mode": "dance"})
    assert main(["run", str(cfg)]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "patch",
    [
        {"T_values": [1.0, "two"]},
        {"T_values": [1.0, None]},
        {"theta_values": ["half"]},
        {"t_fractions": [0.5, [0.7]]},
        {"endpoints": [2.0, 1.0]},
        {"outputs": "out"},
        {"solver": {"method": "shooting", "grid_points": 2}},
        {"solver": {"method": "shooting", "tol_boundary": 0.0}},
        {"solver": {"method": "shooting", "tol_boundary": -1e-9}},
        {"solver": {"method": "shooting", "tol_boundary": float("nan")}},
        {"solver": {"method": "shooting", "tol_boundary": float("inf")}},
        {"solver": {"method": "shooting", "grid_points": 200.7}},
        {"solver": {"method": "shooting", "grid_points": "201"}},
        {"potential": {"kind": "quadratic_isotropic", "dim": 1.5}},
        {"potential": {"kind": "neg_log", "dim": True}},
        {"endpoints": {}},
        {"mode": "gaussian", "endpoints": {}},
        {"endpoints": {"x": [float("inf")]}},
        {"T_values": [float("nan")]},
        {"T_values": [1.0, float("inf")]},
        {"potential": {"kind": "quadratic_matrix", "matrix": [[1.0, 0.0], [0.0, float("inf")]]},
         "endpoints": {"x": [1.0, 1.0]}},
        {"potential": {"kind": "quadratic_matrix", "matrix": [[float("nan")]]}},
        {"T_values": ["2"]},
        {"T_values": [True, 2.0]},
        {"theta_values": ["0.5"]},
        {"theta_values": [0.5, False]},
        {"t_fractions": ["0.25"]},
        {"solver": {"method": "shooting", "tol_boundary": "1e-9"}},
        {"solver": {"method": "shooting", "tol_boundary": True}},
    ],
    ids=["T_text", "T_null", "theta_text", "t_fraction_list", "endpoints_list",
         "outputs_text", "grid_points_small", "tol_zero", "tol_negative", "tol_nan",
         "tol_inf", "grid_points_fraction", "grid_points_text", "dim_fraction", "dim_bool", "endpoints_missing",
         "gaussian_endpoints_missing", "endpoint_infinite", "T_nan", "T_inf", "matrix_inf",
         "matrix_nan", "T_number_text", "T_bool", "theta_number_text", "theta_bool",
         "t_fraction_number_text", "tol_text", "tol_bool"],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, patch):
    cfg = write_config(tmp_path, {**BASE, **patch})
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "results")]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_run_rejects_dimension_mismatch(tmp_path):
    cfg = write_config(tmp_path, {**BASE, "endpoints": {"x": [1.0, 2.0], "y": [1.0, 2.0]}})
    assert main(["run", str(cfg)]) == 1


def failing_at(horizon, solve):
    """solve_bridge that raises NoConvergence at T == horizon; records every T asked."""
    asked = []

    def patched(P, x, y, T, opts=None):
        asked.append(T)
        if T == horizon:
            raise NoConvergence(f"no bridge at T = {T:g}")
        return solve(P, x, y, T, opts)

    return patched, asked


def unit_horizon_cost_by(solve):
    """A stand-in for the CLI's ``unit_horizon_cost`` that solves the bridge at
    T = 1 with `solve`, as the library does for a potential without a closed
    form; a builtin's c1 is exact and reaches no solve."""

    def cost(P, x, y, opts=None):
        try:
            return solve(P, x, y, 1.0, opts).cost
        except NoConvergence as exc:
            raise MissingPrerequisite(f"could not compute the unit-horizon cost: {exc}") from exc

    return cost


def test_first_failing_case_stops_the_run_without_keep_going(tmp_path, monkeypatch):
    patched, asked = failing_at(2.0, solve_bridge)
    monkeypatch.setattr(cli_module, "solve_bridge", patched)
    cfg = write_config(tmp_path, {**BASE, "T_values": [1.0, 2.0, 3.0]})
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
    assert asked == [1.0, 2.0]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert [case["T"] for case in summary["cases"]] == [1.0]
    assert summary["failures"] == [{"T": 2.0, "error": "no bridge at T = 2"}]


def test_failing_unit_horizon_solve_is_tried_once_and_fails_every_case(tmp_path, monkeypatch):
    patched, asked = failing_at(1.0, solve_bridge)
    monkeypatch.setattr(cli_module, "unit_horizon_cost", unit_horizon_cost_by(patched))
    cfg = write_config(
        tmp_path,
        {
            **BASE,
            "mode": "verify",
            "potential": {"kind": "neg_log", "dim": 1},
            "endpoints": {"x": [1.0], "y": [1.5]},
            "T_values": [2.0, 3.0],
            "solver": {"method": "shooting", "grid_points": 401},
        },
    )
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--keep-going", "--out-dir", str(out)]) == 2
    assert asked == [1.0]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["cases"] == []
    assert [f["T"] for f in summary["failures"]] == [2.0, 3.0]
    assert all("unit-horizon cost" in f["error"] for f in summary["failures"])


def test_solver_failure_exit_code(tmp_path):
    # a stiff quadratic on a coarse grid, which shooting cannot solve
    bad = {
        **BASE,
        "potential": {"kind": "quadratic_matrix", "matrix": [[0.2, 0.0], [0.0, 30.0]]},
        "endpoints": {"x": [1.0, -1.0], "y": [0.5, 2.0]},
        "T_values": [5.0, 10.0],
        "solver": {"method": "shooting", "grid_points": 201},
    }
    cfg = write_config(tmp_path, bad)
    out = tmp_path / "results"
    code = main(["run", str(cfg), "--keep-going", "--out-dir", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["failures"]


def test_legacy_max_iter_key_is_ignored(tmp_path):
    legacy = {
        **BASE,
        "potential": {"kind": "neg_log", "dim": 1},
        "endpoints": {"x": [1.0], "y": [3.0]},
        "T_values": [2.0, 4.0],
        "solver": {"method": "shooting", "max_iter": 1},
    }
    cfg = write_config(tmp_path, legacy)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "results")]) == 0


def test_readme_config_schema_lists_every_solver_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    schema = readme.split("### Config schema", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    documented = set(json.loads(schema)["solver"])
    assert documented == {f.name for f in dataclasses.fields(SolverOptions)}


def test_verify_mode_reports_all_pass(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            **BASE,
            "mode": "verify",
            "T_values": [2.0],
            "solver": {"method": "shooting", "grid_points": 2001},
        },
    )
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "case_bounds.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[0] == "bound_id"
    assert len(lines) > 10
    assert all(line.rsplit(",", 1)[1] == "true" for line in lines[1:])
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["bounds"]["n_fail"] == 0


def test_verify_mode_solves_the_unit_horizon_cost_once(tmp_path, monkeypatch):
    horizons = []

    def counting_solve(P, x, y, T, opts=None):
        horizons.append(T)
        return solve_bridge(P, x, y, T, opts)

    monkeypatch.setattr(cli_module, "unit_horizon_cost", unit_horizon_cost_by(counting_solve))
    cfg = write_config(
        tmp_path,
        {
            **BASE,
            "mode": "verify",
            "potential": {"kind": "neg_log", "dim": 1},
            "endpoints": {"x": [1.0], "y": [1.5]},
            "T_values": [2.0, 3.0],
            "solver": {"method": "shooting", "grid_points": 401},
        },
    )
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "results")]) == 0
    assert horizons == [1.0]


def test_gaussian_mode_table(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "name": "gauss",
            "mode": "gaussian",
            "endpoints": {"x": [0.0], "y": [3.0]},
            "T_values": [1.0, 10.0],
            "quad_steps": 20001,  # a legacy key, ignored
            "outputs": {"csv_dir": "out", "json_path": "out/summary.json"},
        },
    )
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "gauss_gaussian.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "T,cost,excess,energy,w2_heat_flow"
    assert len(lines) == 3


def test_gaussian_mode_with_vector_endpoints_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            **BASE,
            "mode": "gaussian",
            "potential": {"kind": "quadratic_isotropic", "dim": 2},
            "endpoints": {"x": [0.0, 1.0], "y": [3.0, 1.0]},
        },
    )
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "results")]) == 1
    assert "config error: gaussian mode needs scalar endpoints" in capsys.readouterr().err


def _exact_gaussian_cost(x0: float, x1: float, T: float) -> float:
    """The closed-form Gaussian-family cost, evaluated in 40-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 40
        T, dx = Decimal(T), Decimal(x1) - Decimal(x0)
        K = ((T - 1) ** 2 + 2 * T).sqrt() - (T - 1) + T
        a = (K / 2 + T * T / 4).sqrt()
        atanh = ((2 * a + T) / (2 * a - T)).ln() / 2
        return float((T * T / (K * K) + 2 / K + 1) * (K / a) * atanh + dx * dx / T - 2 * T / K)


def test_builtin_gaussian_family_cost_is_exact(tmp_path):
    out = tmp_path / "results"
    assert main(["run", "gaussian_family", "--out-dir", str(out)]) == 0
    lines = (out / "gaussian_family_gaussian.csv").read_text(encoding="utf-8").splitlines()
    rows = {float(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert float(rows[1e4][1]) == pytest.approx(_exact_gaussian_cost(0.0, 3.0, 1e4), rel=1e-12)


def test_sweep_mode_emits_fits(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            **BASE,
            "mode": "sweep",
            "endpoints": {"x": [1.0], "y": [1.0]},
            "T_values": [2.0, 4.0, 6.0, 8.0],
        },
    )
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    fits = (out / "case_fits.csv").read_text(encoding="utf-8").splitlines()
    assert fits[0] == "series,model,exponent,prefactor,residual"
    rows = {(r.split(",")[0], r.split(",")[1]): r.split(",") for r in fits[1:]}
    exp = float(rows[("dist_flow_t1", "exponential")][2])
    assert exp == pytest.approx(-1.0, abs=0.05)


def test_sweep_integrates_the_flow_to_t1_once_and_fails_each_case_with_it(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2][-1])  # the flow's last grid time
        return flows_on_grid(*args, **kwargs)

    monkeypatch.setattr(cli_module, "flows_on_grid", counted)
    sweep = {**BASE, "mode": "sweep", "T_values": [0.5, 2.0, 3.0, 4.0],
             "solver": {"method": "shooting", "grid_points": 201}}
    assert main(["run", str(write_config(tmp_path, sweep)), "--out-dir", str(tmp_path / "a")]) == 0
    assert calls == [1.0]

    def failing(*args, **kwargs):
        calls.append(args[2][-1])
        raise DomainEscape("the flow left the domain")

    monkeypatch.setattr(cli_module, "flows_on_grid", failing)
    out = tmp_path / "b"
    assert main(["run", str(write_config(tmp_path, sweep)), "--keep-going", "--out-dir", str(out)]) == 2
    assert calls == [1.0, 1.0]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert [case["T"] for case in summary["cases"]] == [0.5]
    assert summary["failures"] == [{"T": T, "error": "the flow left the domain"} for T in (2.0, 3.0, 4.0)]


def test_sweep_interpolates_the_bridge_when_t1_is_off_the_grid(tmp_path):
    # 8 nodes on [0, 2] put t = 1 halfway between the nodes 6/7 and 8/7
    solver = {"method": "shooting", "grid_points": 8}
    cfg = write_config(tmp_path, {**BASE, "mode": "sweep", "T_values": [2.0], "solver": solver})
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    row = (out / "case_sweep.csv").read_text(encoding="utf-8").splitlines()[1].split(",")

    P = Potential.quadratic_isotropic(1)
    traj = solve_bridge(P, [2.0], [1.0], 2.0, SolverOptions(**solver)).trajectory
    with pytest.raises(OffGrid):
        traj.index_of(1.0)
    i = int(np.searchsorted(traj.times, 1.0)) - 1
    w = (1.0 - traj.times[i]) / (traj.times[i + 1] - traj.times[i])
    flow_t1 = flows_on_grid(P, np.array([[2.0]]), np.linspace(0.0, 1.0, 201))[0].states[-1]
    dists = [float(np.linalg.norm(s - flow_t1)) for s in
             ((1.0 - w) * traj.states[i] + w * traj.states[i + 1], traj.states[i], traj.states[i + 1])]
    assert float(row[4]) == pytest.approx(dists[0], rel=1e-12, abs=0.0)
    assert float(row[4]) not in dists[1:]


def test_sweep_reads_the_node_at_t1_bit_for_bit(tmp_path):
    # 201 nodes on [0, 2] put t = 1 on node 100
    solver = {"method": "shooting", "grid_points": 201}
    cfg = write_config(tmp_path, {**BASE, "mode": "sweep", "T_values": [2.0], "solver": solver})
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    row = (out / "case_sweep.csv").read_text(encoding="utf-8").splitlines()[1].split(",")

    P = Potential.quadratic_isotropic(1)
    traj = solve_bridge(P, [2.0], [1.0], 2.0, SolverOptions(**solver)).trajectory
    flow_t1 = flows_on_grid(P, np.array([[2.0]]), np.linspace(0.0, 1.0, 201))[0].states[-1]
    assert float(row[4]) == float(np.linalg.norm(traj.states[traj.index_of(1.0)] - flow_t1))


def test_flow_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            **BASE,
            "mode": "flow",
            "potential": {"kind": "neg_log", "dim": 1},
            "endpoints": {"x": [1.0], "y": [1.0]},
            "T_values": [4.0],
        },
    )
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["cases"][0]["final_state"][0] == pytest.approx(3.0, abs=1e-6)


def test_builtin_configs_resolve_and_validate():
    names = builtin_config_names()
    assert "quadratic_bridge" in names and "neglog_verify" in names
    for name in names:
        cfg = load_builtin_config(name)
        assert cfg.T_values
    with pytest.raises(ConfigError):
        resolve_config("no_such_builtin")


def test_configs_subcommand(capsys):
    assert main(["configs"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "gaussian_family" in out


def test_float_format_roundtrips(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "results"
    main(["run", str(cfg), "--out-dir", str(out)])
    lines = (out / "case_bridge_T1.csv").read_text(encoding="utf-8").splitlines()
    assert float(lines[1].split(",")[1]) == 2.0
    # 17 significant digits: re-parsing and re-formatting is the identity
    for cell in lines[len(lines) // 2].split(","):
        assert format(float(cell), ".17g") == cell


def test_trajectory_csv_renders_every_value_as_fmt_does(tmp_path):
    # awkward floats: a signed zero, the smallest subnormal, a huge value
    # (whose square overflows in E) and a repeating fraction
    P = Potential.quadratic_isotropic(2)
    third = 1.0 / 3.0
    traj = Trajectory([0.0, third, 1.0],
                      [[-0.0, 5e-324], [1e300, third], [third, -0.0]],
                      [[5e-324, -0.0], [third, 1e300], [-0.0, 1e300]])
    path = tmp_path / "traj.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        cli_module._write_trajectory(path, traj, P)
        grads = P.grad_many(traj.states)
        energy = energy_stats(traj, grads).samples[:, 1]
        phi = np.linalg.norm(grads + traj.velocities, axis=1)
    expected = "t,x_1,x_2,v_1,v_2,E,phi_norm\n" + "".join(
        ",".join(cli_module._fmt(v) for v in [t, *x, *v, e, p]) + "\n"
        for t, x, v, e, p in zip(traj.times, traj.states, traj.velocities, energy, phi))
    assert path.read_text(encoding="utf-8") == expected
    assert "-0," in expected and "4.9406564584124654e-324" in expected
