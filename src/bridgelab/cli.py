"""Experiment runner: JSON configs in, CSV tables and a JSON summary out.

Exit codes: 0 success, 1 configuration error, 2 solver failure (with
--keep-going the run continues past failing cases and still exits 2).
Output rows are sorted on (T, t) so repeated runs are byte-identical;
floats are written with 17 significant digits.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import EXPONENTIAL, POWER_LAW, fit_rate, verify_bounds
from .bridge import solve_bridge
from .config import ExperimentConfig, builtin_config_names, resolve_config
from .errors import BridgeLabError, ConfigError, DegenerateSeries, OffGrid
from .flow import gradient_flow
from .functionals import energy_stats
from .gaussian import GaussianBridge, gamma_expansion, gaussian_cost, gaussian_energy, heat_flow_distance
from .potential import Potential


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _trajectory_rows(traj, P: Potential):
    grads = P.grad_many(traj.states)
    energy = energy_stats(traj, grads).samples[:, 1]
    phi_norm = np.linalg.norm(grads + traj.velocities, axis=1)
    rows = []
    for i, t in enumerate(traj.times):
        rows.append(
            [t, *traj.states[i], *traj.velocities[i], energy[i], phi_norm[i]]
        )
    return rows


def _trajectory_header(dim: int) -> list[str]:
    return (
        ["t"]
        + [f"x_{j + 1}" for j in range(dim)]
        + [f"v_{j + 1}" for j in range(dim)]
        + ["E", "phi_norm"]
    )


def _gfmt(T: float) -> str:
    return format(float(T), "g")


def _solution_diagnostics(T, sol):
    return {
        "T": T,
        "solver": sol.solver,
        "cost": sol.cost,
        "energy_mean": sol.energy_mean,
        "energy_maxdev": sol.energy_maxdev,
        "newton_residual": sol.newton_residual,
        "boundary_error": sol.boundary_error,
        "iterations": sol.iterations,
        "segments": sol.context.get("segments"),
    }


def _map_cases(fn, T_values, keep_going: bool):
    """Run fn(T) per case in order; stop at the first failure unless keep_going."""
    results, failures = {}, {}
    for T in T_values:
        try:
            results[T] = fn(T)
        except BridgeLabError as exc:
            failures[T] = exc
            if not keep_going:
                break
    return results, failures


def run(config: ExperimentConfig, *, keep_going: bool = False, threads: int = 1,
        out_dir: str | None = None) -> int:
    """Run the cases of ``config`` in order and write its CSVs and summary.

    ``threads`` is ignored; it stays because perfbench/workloads.py passes it.
    """
    csv_dir = Path(out_dir) if out_dir else config.csv_dir
    json_path = (
        Path(out_dir) / config.json_path.name if out_dir else config.json_path
    )
    P = config.potential
    summary: dict = {
        "name": config.name,
        "mode": config.mode,
        "potential": {"kind": P.kind, "dim": P.dim},
        "cases": [],
        "failures": [],
    }

    def solve_case(T):
        return solve_bridge(P, config.x, config.y, T, config.solver)

    if config.mode == "bridge":
        results, failures = _map_cases(solve_case, config.T_values, keep_going)
        for T in sorted(results):
            sol = results[T]
            _write_csv(
                csv_dir / f"{config.name}_bridge_T{_gfmt(T)}.csv",
                _trajectory_header(P.dim),
                _trajectory_rows(sol.trajectory, P),
            )
            summary["cases"].append(_solution_diagnostics(T, sol))

    elif config.mode == "flow":
        def flow_case(T):
            return gradient_flow(P, config.x, T, steps=(config.solver.nodes(T) - 1))

        results, failures = _map_cases(flow_case, config.T_values, keep_going)
        for T in sorted(results):
            traj = results[T]
            _write_csv(
                csv_dir / f"{config.name}_flow_T{_gfmt(T)}.csv",
                _trajectory_header(P.dim),
                _trajectory_rows(traj, P),
            )
            summary["cases"].append({"T": T, "final_state": [float(v) for v in traj.states[-1]]})

    elif config.mode == "gaussian":
        if P.dim != 1:
            raise ConfigError("gaussian mode needs scalar endpoints")

        def gaussian_case(T):
            gb = GaussianBridge(float(config.x[0]), float(config.y[0]), T)
            cost = gaussian_cost(gb)
            exp = gamma_expansion(gb) if T >= 1 else None
            t_probe = min(1.0, T / 2.0)
            return {
                "cost": cost,
                "excess": exp.excess if exp else float("nan"),
                "energy": gaussian_energy(gb, T / 2.0),
                "w2_heat_flow": heat_flow_distance(gb, t_probe),
            }

        results, failures = _map_cases(gaussian_case, config.T_values, keep_going)
        rows = [
            [T, r["cost"], r["excess"], r["energy"], r["w2_heat_flow"]]
            for T, r in sorted(results.items())
        ]
        _write_csv(
            csv_dir / f"{config.name}_gaussian.csv",
            ["T", "cost", "excess", "energy", "w2_heat_flow"],
            rows,
        )
        for T, r in sorted(results.items()):
            summary["cases"].append({"T": T, **r})

    elif config.mode == "verify":
        def verify_case(T):
            sol = solve_case(T)
            reports = verify_bounds(
                P,
                config.x,
                config.y,
                T,
                solution=sol,
                t_values=[f * T for f in config.t_fractions],
                theta_values=config.theta_values,
                opts=config.solver,
            )
            return sol, reports

        results, failures = _map_cases(verify_case, config.T_values, keep_going)
        rows = []
        records = []
        n_pass = n_fail = 0
        for T in sorted(results):
            sol, reports = results[T]
            summary["cases"].append(_solution_diagnostics(T, sol))
            for rep in reports:
                ctx = rep.context
                rows.append(
                    [
                        rep.bound_id,
                        T,
                        ctx.get("orientation", "forward"),
                        ctx.get("t", ""),
                        ctx.get("theta", ""),
                        ctx.get("part", ctx.get("point", "")),
                        rep.lhs,
                        rep.rhs,
                        rep.margin,
                        rep.passed,
                    ]
                )
                records.append(
                    {
                        "bound_id": rep.bound_id,
                        "lhs": rep.lhs,
                        "rhs": rep.rhs,
                        "margin": rep.margin,
                        "pass": bool(rep.passed),
                        "context": ctx,
                    }
                )
                n_pass += rep.passed
                n_fail += not rep.passed
        order = sorted(
            range(len(rows)),
            key=lambda i: (rows[i][1], rows[i][0], rows[i][2], str(rows[i][3]), str(rows[i][4]), str(rows[i][5])),
        )
        rows = [rows[i] for i in order]
        _write_csv(
            csv_dir / f"{config.name}_bounds.csv",
            ["bound_id", "T", "orientation", "t", "theta", "part", "lhs", "rhs", "margin", "pass"],
            rows,
        )
        summary["bounds"] = {
            "n_pass": int(n_pass),
            "n_fail": int(n_fail),
            "reports": [records[i] for i in order],
        }

    elif config.mode == "sweep":
        def sweep_case(T):
            sol = solve_case(T)
            row = {
                "cost": sol.cost,
                "energy_mean": sol.energy_mean,
                "abs_energy": abs(sol.energy_mean),
            }
            if T > 1.0:
                flow = gradient_flow(P, config.x, 1.0, steps=200)
                try:
                    state = sol.trajectory.states[sol.trajectory.index_of(1.0)]
                except OffGrid:
                    state = _interp_state(sol.trajectory, 1.0)
                row["dist_flow_t1"] = float(np.linalg.norm(state - flow.states[-1]))
            return row

        results, failures = _map_cases(sweep_case, config.T_values, keep_going)
        rows = []
        for T in sorted(results):
            r = results[T]
            rows.append([T, r["cost"], r["energy_mean"], r["abs_energy"], r.get("dist_flow_t1", "")])
        _write_csv(
            csv_dir / f"{config.name}_sweep.csv",
            ["T", "cost", "energy_mean", "abs_energy", "dist_flow_t1"],
            rows,
        )
        fit_rows = []
        Ts = sorted(results)
        for series, model in (("abs_energy", POWER_LAW), ("dist_flow_t1", POWER_LAW),
                              ("dist_flow_t1", EXPONENTIAL)):
            pts = [(T, results[T].get(series)) for T in Ts if results[T].get(series)]
            if len(pts) >= 2:
                try:
                    fit = fit_rate([p[0] for p in pts], [p[1] for p in pts], model)
                except DegenerateSeries:
                    continue
                fit_rows.append([series, model, fit.exponent, fit.prefactor, fit.residual])
        _write_csv(
            csv_dir / f"{config.name}_fits.csv",
            ["series", "model", "exponent", "prefactor", "residual"],
            fit_rows,
        )
        for T in Ts:
            summary["cases"].append({"T": T, **results[T]})

    else:  # pragma: no cover - parse_config already rejects unknown modes
        raise ConfigError(f"unhandled mode {config.mode}")

    for T in sorted(failures):
        summary["failures"].append({"T": T, "error": str(failures[T])})

    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return 2 if failures else 0


def _interp_state(traj, t: float) -> np.ndarray:
    i = int(np.searchsorted(traj.times, t) - 1)
    i = min(max(i, 0), traj.n_nodes - 2)
    w = (t - traj.times[i]) / (traj.times[i + 1] - traj.times[i])
    return (1.0 - w) * traj.states[i] + w * traj.states[i + 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bridgelab",
        description="Solve interpolation experiments described by JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="path to a config JSON file, or a builtin config name")
    run_p.add_argument("--keep-going", action="store_true",
                       help="continue past failing cases (still exits 2 at the end)")
    run_p.add_argument("--out-dir", default=None, metavar="PATH",
                       help="override the output directory from the config")

    sub.add_parser("configs", help="list the packaged builtin configs")

    args = parser.parse_args(argv)

    if args.command == "configs":
        for name in builtin_config_names():
            print(name)
        return 0

    try:
        config = resolve_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        return run(config, keep_going=args.keep_going, out_dir=args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BridgeLabError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
