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
from .errors import BridgeLabError, ConfigError, DegenerateSeries
from .flow import closed_form_flow, flows_on_grid
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


def _write_csv(path: Path, header: list[str], lines) -> None:
    """Write the header, then each formatted line of `lines` as it comes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _fmt_lines(rows):
    """CSV lines of mixed-type rows, one `_fmt` per value."""
    return (",".join(_fmt(v) for v in row) + "\n" for row in rows)


def _write_trajectory(path: Path, traj, P: Potential) -> None:
    """One row per node: t, the state, the velocity, E and |F'(x) + v|.

    Every column is a float, so the whole table is one %-format, a row's
    line repeated once per node: "%.17g" renders a float exactly as `_fmt`
    does.
    """
    grads = P.grad_many(traj.states)
    energy = energy_stats(traj, grads).samples[:, 1]
    phi_norm = np.linalg.norm(grads + traj.velocities, axis=1)
    header = (["t"] + [f"x_{j + 1}" for j in range(P.dim)]
              + [f"v_{j + 1}" for j in range(P.dim)] + ["E", "phi_norm"])
    table = np.column_stack([traj.times, traj.states, traj.velocities, energy, phi_norm])
    line = ",".join(["%.17g"] * len(header)) + "\n"
    _write_csv(path, header, [(line * len(table)) % tuple(table.ravel().tolist())])


def _write_cases(path: Path, columns: list[str], cases: list[dict]) -> None:
    """One row per summary case, read through `columns`; a missing entry is blank."""
    _write_csv(path, columns, _fmt_lines([case.get(c, "") for c in columns] for case in cases))


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


BOUND_COLUMNS = ["bound_id", "T", "orientation", "t", "theta", "part", "lhs", "rhs", "margin", "pass"]


def _bound_row(T, rep) -> list:
    ctx = rep.context
    return [rep.bound_id, T, ctx.get("orientation", "forward"), ctx.get("t", ""),
            ctx.get("theta", ""), ctx.get("part", ctx.get("point", "")),
            rep.lhs, rep.rhs, rep.margin, rep.passed]


def _bound_order(pair) -> tuple:
    """Sort key of a (T, report) pair: T, bound id, orientation, then the labels."""
    bound_id, T, orientation, *labels = _bound_row(*pair)[:6]
    return (T, bound_id, orientation, *map(str, labels))


def _map_cases(fn, T_values, keep_going: bool):
    """Run fn(T) per case in increasing T; stop at the first failure unless keep_going."""
    results, failures = {}, {}
    for T in sorted(T_values):
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
        "endpoints": {"x": [float(v) for v in config.x], "y": [float(v) for v in config.y]},
        "cases": [],
        "failures": [],
    }
    cases = summary["cases"]

    def solve_case(T):
        return solve_bridge(P, config.x, config.y, T, config.solver)

    if config.mode == "bridge":
        results, failures = _map_cases(solve_case, config.T_values, keep_going)
        for T, sol in results.items():
            _write_trajectory(csv_dir / f"{config.name}_bridge_T{_gfmt(T)}.csv", sol.trajectory, P)
            cases.append(_solution_diagnostics(T, sol))

    elif config.mode == "flow":
        def flow_case(T):
            return flows_on_grid(P, config.x[None], np.linspace(0.0, T, config.solver.nodes(T)))[0]

        results, failures = _map_cases(flow_case, config.T_values, keep_going)
        for T, traj in results.items():
            _write_trajectory(csv_dir / f"{config.name}_flow_T{_gfmt(T)}.csv", traj, P)
            cases.append({"T": T, "final_state": [float(v) for v in traj.states[-1]]})

    elif config.mode == "gaussian":
        if P.dim != 1:
            raise ConfigError("gaussian mode needs scalar endpoints")

        def gaussian_case(T):
            gb = GaussianBridge(float(config.x[0]), float(config.y[0]), T)
            exp = gamma_expansion(gb) if T >= 1 else None
            return {
                "T": T,
                "cost": gaussian_cost(gb),
                "excess": exp.excess if exp else float("nan"),
                "energy": gaussian_energy(gb, T / 2.0),
                "w2_heat_flow": heat_flow_distance(gb, min(1.0, T / 2.0)),
            }

        results, failures = _map_cases(gaussian_case, config.T_values, keep_going)
        cases.extend(results.values())
        _write_cases(csv_dir / f"{config.name}_gaussian.csv",
                     ["T", "cost", "excess", "energy", "w2_heat_flow"], cases)

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
        pairs = sorted(((T, rep) for T, (_, reports) in results.items() for rep in reports),
                       key=_bound_order)
        cases.extend(_solution_diagnostics(T, sol) for T, (sol, _) in results.items())
        _write_csv(csv_dir / f"{config.name}_bounds.csv", BOUND_COLUMNS,
                   _fmt_lines(_bound_row(T, rep) for T, rep in pairs))
        n_pass = sum(rep.passed for _, rep in pairs)
        summary["bounds"] = {
            "n_pass": n_pass,
            "n_fail": len(pairs) - n_pass,
            "reports": [
                {"bound_id": rep.bound_id, "T": T, "lhs": rep.lhs, "rhs": rep.rhs,
                 "margin": rep.margin, "pass": rep.passed, "context": rep.context}
                for T, rep in pairs
            ],
        }

    elif config.mode == "sweep":
        def sweep_case(T):
            sol = solve_case(T)
            row = {
                "T": T,
                "cost": sol.cost,
                "energy_mean": sol.energy_mean,
                "abs_energy": abs(sol.energy_mean),
            }
            if T > 1.0:
                gap = _interp_state(sol.trajectory, 1.0) - closed_form_flow(P, config.x, 1.0)
                row["dist_flow_t1"] = float(np.linalg.norm(gap))
            return row

        results, failures = _map_cases(sweep_case, config.T_values, keep_going)
        cases.extend(results.values())
        _write_cases(csv_dir / f"{config.name}_sweep.csv",
                     ["T", "cost", "energy_mean", "abs_energy", "dist_flow_t1"], cases)
        fit_rows = []
        for series, model in (("abs_energy", POWER_LAW), ("dist_flow_t1", POWER_LAW),
                              ("dist_flow_t1", EXPONENTIAL)):
            pts = [(case["T"], case[series]) for case in cases if case.get(series)]
            if len(pts) >= 2:
                try:
                    fit = fit_rate([p[0] for p in pts], [p[1] for p in pts], model)
                except DegenerateSeries:
                    continue
                fit_rows.append([series, model, fit.exponent, fit.prefactor, fit.residual])
        _write_csv(
            csv_dir / f"{config.name}_fits.csv",
            ["series", "model", "exponent", "prefactor", "residual"],
            _fmt_lines(fit_rows),
        )

    else:  # pragma: no cover - parse_config already rejects unknown modes
        raise ConfigError(f"unhandled mode {config.mode}")

    for T, exc in sorted(failures.items()):
        summary["failures"].append({"T": T, "error": str(exc)})

    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return 2 if failures else 0


def _interp_state(traj, t: float) -> np.ndarray:
    """The state at t, linear between nodes; a node's own state bit for bit."""
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
