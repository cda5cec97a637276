"""Experiment configuration: JSON schema, validation, builtin catalogue."""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .bounds import T_FRACTIONS, THETA_VALUES
from .bridge import SolverOptions
from .errors import ConfigError
from .potential import Potential, as_count, potential_from_config

MODES = ("bridge", "flow", "gaussian", "verify", "sweep")


@dataclass
class ExperimentConfig:
    name: str
    mode: str
    potential: Potential
    x: np.ndarray
    y: np.ndarray
    T_values: list[float]
    theta_values: list[float]
    t_fractions: list[float]
    solver: SolverOptions
    csv_dir: Path
    json_path: Path


def _number(value, what: str) -> float:
    """A JSON number as a float; text, booleans and anything else are a
    ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(data: dict, key: str, default=None) -> list[float]:
    values = data.get(key, default)
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of numbers")
    return [_number(v, f"each of {key}") for v in values]


def parse_config(data: dict, *, name_hint: str = "config") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    name = data.get("name", name_hint)
    mode = data.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    pot_desc = data.get("potential")
    if pot_desc is None and mode == "gaussian":
        # the closed-form family never evaluates it; dim 1 keeps validation going
        pot_desc = {"kind": "quadratic_isotropic", "dim": 1}
    if not isinstance(pot_desc, dict):
        raise ConfigError("config needs a 'potential' object")
    try:
        potential = potential_from_config(pot_desc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    endpoints = data.get("endpoints") or {}
    if not isinstance(endpoints, dict):
        raise ConfigError("'endpoints' must be an object")
    try:
        x = np.asarray(endpoints.get("x"), dtype=float).reshape(-1)
        y = np.asarray(endpoints.get("y", endpoints.get("x")), dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ConfigError("endpoints.x / endpoints.y must be numeric arrays") from exc
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ConfigError("endpoints.x / endpoints.y must be given and finite")
    if x.size != potential.dim or y.size != potential.dim:
        raise ConfigError(
            f"endpoint dimension mismatch: potential dim {potential.dim}, "
            f"got x:{x.size} y:{y.size}"
        )

    T_values = _numbers(data, "T_values")
    if not T_values:
        raise ConfigError("T_values must be a nonempty list")
    if not all(0.0 < a < b for a, b in zip(T_values, T_values[1:] + [np.inf])):
        raise ConfigError("T_values must be positive, finite and strictly increasing")

    theta_values = _numbers(data, "theta_values", list(THETA_VALUES))
    if any(not 0.0 < v < 1.0 for v in theta_values):
        raise ConfigError("theta_values must lie strictly inside (0, 1)")
    t_fractions = _numbers(data, "t_fractions", list(T_FRACTIONS))
    if any(not 0.0 < v < 1.0 for v in t_fractions):
        raise ConfigError("t_fractions must lie strictly inside (0, 1)")

    solver_desc = data.get("solver", {})
    if not isinstance(solver_desc, dict):
        raise ConfigError("'solver' must be an object")
    try:
        solver = SolverOptions(
            method=solver_desc.get("method", "auto"),
            tol_boundary=_number(solver_desc.get("tol_boundary", 1e-9),
                                 "solver.tol_boundary"),
            grid_points=(
                as_count(solver_desc["grid_points"], "solver.grid_points")
                if "grid_points" in solver_desc else None
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc

    outputs = data.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("'outputs' must be an object")
    try:
        csv_dir = Path(outputs.get("csv_dir", "out"))
        json_path = Path(outputs.get("json_path", str(csv_dir / f"{name}_summary.json")))
    except TypeError as exc:
        raise ConfigError("outputs.csv_dir / outputs.json_path must be paths") from exc

    return ExperimentConfig(
        name=str(name),
        mode=mode,
        potential=potential,
        x=x,
        y=y,
        T_values=T_values,
        theta_values=theta_values,
        t_fractions=t_fractions,
        solver=solver,
        csv_dir=csv_dir,
        json_path=json_path,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, name_hint=path.stem)


def builtin_config_names() -> list[str]:
    pkg = resources.files("bridgelab").joinpath("configs")
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_builtin_config(name: str) -> ExperimentConfig:
    pkg = resources.files("bridgelab").joinpath("configs").joinpath(f"{name}.json")
    try:
        data = json.loads(pkg.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(
            f"no builtin config named {name!r}; available: {', '.join(builtin_config_names())}"
        ) from exc
    return parse_config(data, name_hint=name)


def resolve_config(spec: str | Path) -> ExperimentConfig:
    """A path to a JSON file, or the name of a packaged builtin config."""
    path = Path(spec)
    if path.exists():
        return load_config(path)
    if path.suffix == "" and "/" not in str(spec):
        return load_builtin_config(str(spec))
    raise ConfigError(f"config file {spec} does not exist")
