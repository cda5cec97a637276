"""Seeded inputs of the bridgelab benchmark and the code that runs one case.

Every workload is a fixed plan of case slots. The seed draws only the
continuous values inside a slot (endpoints, the horizon inside the slot's
stratum, matrix spectra), so every seed asks the program for the same kinds
and amounts of work and timings taken with different seeds stay comparable.
The program sees only what ``write_inputs`` puts on disk: experiment configs
for ``bridgelab.cli.run``, and for custom potentials (which JSON cannot
describe) a family name, dimension, endpoints and horizon.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("shoot_neglog", "verify_catalogue", "action_closed_form", "custom_shoot")

#: Boundary tolerance every generated solve asks for (the program's default).
TOL_BOUNDARY = 1e-9


@dataclass
class Case:
    """One unit of work: a config run through the CLI, or a library solve."""

    id: str
    check: str
    config: dict | None = None
    library: dict | None = None


#: Share of its stratum a seed may move a value through, centred on the stratum's
#: middle. Solve times of a slot change steeply with its values (a 2x spread over
#: full-width strata on custom_shoot), so the seed moves them only a little.
JITTER = 0.1


def _jitter(rng: random.Random) -> float:
    """A position inside a stratum, as a share of its width from its lower edge."""
    return 0.5 + JITTER * (rng.random() - 0.5)


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One draw near the middle of each of n equal log-width strata of [lo, hi]."""
    return [lo * (hi / lo) ** ((i + _jitter(rng)) / n) for i in range(n)]


def _draw(rng: random.Random, lo: float, hi: float, n: int, slot: int, offset: int = 0) -> float:
    """A draw near the middle of the stratum of [lo, hi] that a fixed permutation of the
    n slots gives this slot; ``offset`` makes another permutation for another
    coordinate. Every seed thus puts each slot's value in the same narrow band."""
    step = next(k for k in range(5, 5 + n) if math.gcd(k, n) == 1)
    return lo + (hi - lo) * ((step * slot + offset) % n + _jitter(rng)) / n


def _point(rng, lo, hi, n, slot, dim, endpoint):
    """Coordinates of endpoint 0 (x) or 1 (y) of a slot, each in its own stratum."""
    return [_draw(rng, lo, hi, n, slot, 3 * c + endpoint * (n // 2)) for c in range(dim)]


# -- shoot_neglog ---------------------------------------------------------------

#: (shape, dimension, method) per slot; slots take horizons in increasing order,
#: so each shape meets short and long horizons alike. Sweep slots sit where
#: T / SWEEP_RATIO stays above 2.
SHOOT_PLAN = (
    ("eq", 1, "shooting"), ("ne", 2, "auto"), ("ne", 1, "shooting"), ("sweep", 1, "auto"),
    ("eq", 2, "shooting"), ("eq", 1, "auto"), ("ne", 2, "shooting"), ("ne", 1, "auto"),
    ("eq", 2, "auto"), ("sweep", 1, "shooting"), ("eq", 1, "shooting"), ("ne", 2, "auto"),
    ("ne", 1, "shooting"), ("eq", 2, "shooting"), ("eq", 1, "auto"), ("ne", 2, "shooting"),
)
SWEEP_RATIO = 1.5


def neglog_nodes(T: float) -> int:
    """Grid for the shooting workload: step sqrt(T)/40, so cost grows with the horizon
    while a whole pass stays within a few seconds (the default step, 0.01, makes one
    T=50 solve take over ten seconds)."""
    return int(round(40.0 * math.sqrt(T))) + 1


def _shoot_neglog(rng: random.Random) -> list[Case]:
    horizons = _strata(rng, len(SHOOT_PLAN), 2.0, 50.0)
    cases = []
    for i, ((shape, dim, method), T) in enumerate(zip(SHOOT_PLAN, horizons)):
        n = len(SHOOT_PLAN)
        x = _point(rng, 0.6, 2.4, n, i, dim, 0)
        y = _point(rng, 0.6, 2.4, n, i, dim, 1) if shape == "ne" else list(x)
        T_values = [T / SWEEP_RATIO, T] if shape == "sweep" else [T]
        cfg = {
            "name": f"c{i:02d}",
            "mode": "sweep" if shape == "sweep" else "bridge",
            "potential": {"kind": "neg_log", "dim": dim},
            "endpoints": {"x": x, "y": y},
            "T_values": T_values,
            "solver": {"method": method, "tol_boundary": TOL_BOUNDARY,
                       "grid_points": neglog_nodes(T_values[-1])},
        }
        check = {"eq": "neglog_equal", "ne": "boundary", "sweep": "neglog_sweep"}[shape]
        cases.append(Case(f"c{i:02d}", check, config=cfg))
    return cases


# -- verify_catalogue -------------------------------------------------------------

#: (kind, dimension, equal endpoints, method) per slot, horizons increasing.
VERIFY_PLAN = (
    ("neg_log", 1, True, "shooting"), ("quadratic_isotropic", 1, False, "shooting"),
    ("quadratic_isotropic", 2, False, "auto"), ("neg_log", 1, False, "auto"),
    ("quadratic_isotropic", 1, True, "auto"), ("quadratic_isotropic", 2, False, "shooting"),
    ("neg_log", 1, True, "auto"), ("quadratic_isotropic", 1, False, "shooting"),
    ("quadratic_isotropic", 2, True, "auto"), ("neg_log", 1, False, "shooting"),
    ("quadratic_isotropic", 1, False, "auto"), ("quadratic_isotropic", 2, False, "shooting"),
    ("neg_log", 1, True, "shooting"), ("quadratic_isotropic", 1, False, "auto"),
)
#: Fixed node counts per potential: the bound catalogue compares margins near
#: 1e-8 relative, so coarser quadratic grids turn discretisation error into
#: failed reports at T = 10.
VERIFY_NODES = {"neg_log": 241, "quadratic_isotropic": 801}
VERIFY_BOX = {"neg_log": (0.6, 2.4), "quadratic_isotropic": (-2.0, 2.0)}


def _verify_catalogue(rng: random.Random) -> list[Case]:
    horizons = _strata(rng, len(VERIFY_PLAN), 2.0, 10.0)
    cases = []
    for i, ((kind, dim, equal, method), T) in enumerate(zip(VERIFY_PLAN, horizons)):
        box = VERIFY_BOX[kind]
        x = _point(rng, *box, len(VERIFY_PLAN), i, dim, 0)
        y = list(x) if equal else _point(rng, *box, len(VERIFY_PLAN), i, dim, 1)
        cfg = {
            "name": f"c{i:02d}",
            "mode": "verify",
            "potential": {"kind": kind, "dim": dim},
            "endpoints": {"x": x, "y": y},
            "T_values": [T],
            "solver": {"method": method, "tol_boundary": TOL_BOUNDARY,
                       "grid_points": VERIFY_NODES[kind]},
        }
        cases.append(Case(f"c{i:02d}", "verify", config=cfg))
    return cases


# -- action_closed_form -------------------------------------------------------------

ACTION_BRIDGES = 18
ACTION_STEP = 0.04
GAUSSIAN_CONFIGS = 12
GAUSSIAN_HORIZONS = 4


def action_nodes(T: float) -> int:
    """Grid for the action workload: step 0.04 instead of the default 0.01, which
    would cost 1-15 s per solve."""
    return int(round(T / ACTION_STEP)) + 1


def spd_matrix(rng: random.Random, n: int = 1, slot: int = 0) -> list[list[float]]:
    """A 2x2 SPD matrix with eigenvalues in [0.6, 0.8] and [1.2, 1.5], rotated;
    slot ``slot`` of ``n`` draws each parameter from its own stratum."""
    lam = (_draw(rng, 0.6, 0.8, n, slot), _draw(rng, 1.2, 1.5, n, slot, 1))
    a = _draw(rng, 0.0, math.pi, n, slot, 2)
    c, s = math.cos(a), math.sin(a)
    off = (lam[1] - lam[0]) * c * s
    return [[lam[0] * c * c + lam[1] * s * s, off], [off, lam[0] * s * s + lam[1] * c * c]]


def _action_closed_form(rng: random.Random) -> list[Case]:
    cases = []
    n = ACTION_BRIDGES
    for i, T in enumerate(_strata(rng, n, 40.0, 160.0)):
        if i % 2:
            potential = {"kind": "quadratic_matrix", "dim": 2, "matrix": spd_matrix(rng, n, i)}
        else:
            potential = {"kind": "quadratic_isotropic", "dim": 2}
        cfg = {
            "name": f"c{i:02d}",
            "mode": "bridge",
            "potential": potential,
            "endpoints": {"x": _point(rng, -2.0, 2.0, n, i, 2, 0),
                          "y": _point(rng, -2.0, 2.0, n, i, 2, 1)},
            "T_values": [T],
            "solver": {"method": "auto", "tol_boundary": TOL_BOUNDARY, "grid_points": action_nodes(T)},
        }
        cases.append(Case(f"c{i:02d}", "quadratic", config=cfg))
    for j in range(GAUSSIAN_CONFIGS):
        i = ACTION_BRIDGES + j
        cfg = {
            "name": f"c{i:02d}",
            "mode": "gaussian",
            "endpoints": {"x": _point(rng, -3.0, 3.0, GAUSSIAN_CONFIGS, j, 1, 0),
                          "y": _point(rng, -3.0, 3.0, GAUSSIAN_CONFIGS, j, 1, 1)},
            "T_values": _strata(rng, GAUSSIAN_HORIZONS, 1.0, 1000.0),
        }
        cases.append(Case(f"c{i:02d}", "gaussian", config=cfg))
    return cases


# -- custom_shoot ---------------------------------------------------------------------

#: (family, dimensions cycled, horizon range, count, endpoint box or anchor).
#: From these boxes cosh and quartic trial trajectories overflow beyond T ~ 1 and
#: T ~ 0.6 respectively, and the program then raises a bare ValueError (ROADMAP
#: item 5). Their horizon ranges stop short of that so the failure count does not
#: vary with the seed; the "cosh_far" slots keep the defect in the workload, near
#: x=[1,2], y=[0.5,-1], T~4, where every seed hits it.
CUSTOM_PLAN = (
    ("lse", (2, 3), (0.5, 4.0), 8, (-1.5, 1.5)),
    ("cosh", (2, 3), (0.5, 1.0), 6, (-1.0, 1.0)),
    ("quartic", (2, 3), (0.4, 0.6), 6, (-1.0, 1.0)),
    ("cosh_far", (2,), (3.6, 4.0), 2, ([1.0, 2.0], [0.5, -1.0])),
)
LSE_CURVATURE = 0.5


def _custom_shoot(rng: random.Random) -> list[Case]:
    cases = []
    for family, dims, (lo, hi), count, box in CUSTOM_PLAN:
        for k, T in enumerate(_strata(rng, count, lo, hi)):
            dim = dims[k % len(dims)]
            if family == "cosh_far":
                x = [v + rng.uniform(-0.1, 0.1) for v in box[0]]
                y = [v + rng.uniform(-0.1, 0.1) for v in box[1]]
            else:
                x, y = _point(rng, *box, count, k, dim, 0), _point(rng, *box, count, k, dim, 1)
            spec = {"family": family.removesuffix("_far"), "dim": dim, "x": x, "y": y,
                    "T": T, "method": "auto"}
            cases.append(Case(f"c{len(cases):02d}", "custom", library=spec))
    return cases


GENERATORS = {
    "shoot_neglog": _shoot_neglog,
    "verify_catalogue": _verify_catalogue,
    "action_closed_form": _action_closed_form,
    "custom_shoot": _custom_shoot,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's cases for this seed; equal seeds give equal cases."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


# -- custom potentials with analytic derivatives ---------------------------------------


def _lse_parts(x):
    p = np.exp(x - np.max(x))
    return p / p.sum()


def make_potential(family: str, dim: int):
    """A ``Potential.custom`` with analytic derivatives; rho > 0 and no minimizer,
    so construction locates the minimizer."""
    from bridgelab import Potential

    if family == "cosh":
        return Potential.custom(dim, lambda x: float(np.sum(np.cosh(x))), np.sinh,
                                lambda x, v: np.cosh(x) * v, rho=1.0)
    if family == "quartic":
        return Potential.custom(dim, lambda x: float(np.sum(0.25 * x**4 + 0.5 * x**2)),
                                lambda x: x**3 + x, lambda x, v: (3.0 * x**2 + 1.0) * v, rho=1.0)
    if family == "lse":
        c = LSE_CURVATURE

        def value(x):
            m = float(np.max(x))
            return m + math.log(float(np.sum(np.exp(x - m)))) + 0.5 * c * float(x @ x)

        def hess_apply(x, v):
            p = _lse_parts(x)
            return p * v - p * float(p @ v) + c * v

        return Potential.custom(dim, value, lambda x: _lse_parts(x) + c * x, hess_apply, rho=c)
    raise ValueError(f"unknown custom family {family!r}")


# -- inputs on disk -----------------------------------------------------------------------


def write_inputs(cases: list[Case], workdir: Path) -> None:
    """Write one config file per CLI case plus a manifest naming every case."""
    cfg_dir = workdir / "configs"
    shutil.rmtree(cfg_dir, ignore_errors=True)
    cfg_dir.mkdir(parents=True)
    manifest = []
    for case in cases:
        entry = {"id": case.id, "check": case.check}
        if case.config is not None:
            path = cfg_dir / f"{case.id}.json"
            path.write_text(json.dumps(case.config, indent=1), encoding="utf-8")
            entry["config"] = str(path.relative_to(workdir))
        else:
            entry["library"] = case.library
        manifest.append(entry)
    (workdir / "cases.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


def load_inputs(workdir: Path) -> dict:
    """What a user pays before the first solve: parse every config and build
    every custom potential. Returns {case id: Potential} for the library cases;
    CLI cases load their config again when they run, as ``bridgelab run`` does."""
    from bridgelab.config import load_config

    potentials = {}
    for entry in json.loads((workdir / "cases.json").read_text(encoding="utf-8")):
        if "config" in entry:
            load_config(workdir / entry["config"])
        else:
            spec = entry["library"]
            potentials[entry["id"]] = make_potential(spec["family"], spec["dim"])
    return potentials


# -- running one case ------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run of a case produced; ``error`` is set when the program failed.
    ``elapsed`` is its wall time and ``cpu`` the CPU time the process spent on it."""

    elapsed: float
    cpu: float
    error: str | None
    digest: str | None
    bytes_written: int = 0
    solution: object = None


def _csv_digest(out_dir: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        if path.suffix == ".csv":
            h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), total


def _solution_digest(sol) -> str:
    h = hashlib.sha256()
    traj = sol.trajectory
    for arr in (traj.times, traj.states, traj.velocities):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((sol.cost, sol.energy_mean, sol.boundary_error, sol.solver)).encode())
    return h.hexdigest()


def _clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _since(start: tuple[float, float]) -> tuple[float, float]:
    """(wall, CPU) seconds since ``start``, a value of ``_clocks()``."""
    return tuple(now - then for now, then in zip(_clocks(), start))


def run_case(case: Case, workdir: Path, out_dir: Path, potential=None) -> Outcome:
    """Run one case and time only the program's own work.

    CLI cases do what ``bridgelab run`` does (load the config, run it with one
    thread); library cases call ``solve_bridge``. Module attributes are looked
    up at call time so that a traced run sees its wrappers.
    """
    import bridgelab.bridge
    import bridgelab.cli
    import bridgelab.config

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if case.config is not None:
        path = workdir / "configs" / f"{case.id}.json"
        start = _clocks()
        try:
            config = bridgelab.config.load_config(path)
            code = bridgelab.cli.run(config, threads=1, out_dir=str(out_dir))
        except Exception as exc:  # a failing case is counted, the run goes on
            return Outcome(*_since(start), f"{type(exc).__name__}: {exc}", None)
        times = _since(start)
        digest, size = _csv_digest(out_dir)
        error = None if code == 0 else f"exit code {code}"
        return Outcome(*times, error, digest, size)

    spec = case.library
    opts = bridgelab.bridge.SolverOptions(method=spec["method"], tol_boundary=TOL_BOUNDARY)
    start = _clocks()
    try:
        sol = bridgelab.bridge.solve_bridge(potential, spec["x"], spec["y"], spec["T"], opts)
    except Exception as exc:  # a failing case is counted, the run goes on
        return Outcome(*_since(start), f"{type(exc).__name__}: {exc}", None)
    return Outcome(*_since(start), None, _solution_digest(sol), 0, sol)
