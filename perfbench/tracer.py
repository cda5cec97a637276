"""Tracing of bridgelab from outside: spans around each module's public entry
points, counters at the same boundaries, and the per-layer metrics built from
them.

``install`` replaces every public function of a layer in each bridgelab
module namespace that imported it by name, and wraps ``Potential`` methods at
class level; ``restore`` puts the originals back. Potential methods run tens
of thousands of times per case, so they record no span: each outermost call
adds its time to the enclosing span's ``leaf`` field, which self-time
arithmetic subtracts like a child's duration.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

#: layer -> (module, public functions recorded as spans).
SPAN_TARGETS = {
    "config": ("bridgelab.config", ("load_config", "parse_config", "resolve_config",
                                    "load_builtin_config")),
    "cli": ("bridgelab.cli", ("run", "main")),
    "bridge": ("bridgelab.bridge", (
        "solve_bridge", "solve_bridge_shooting", "solve_bridge_action", "newton_residual",
        "reverse_solution", "closed_form_solution", "closed_form_bridge_trajectory",
        "closed_form_bridge", "closed_form_cost", "closed_form_energy")),
    "integrate": ("bridgelab._integrate", ("integrate_grid",)),
    "potential": ("bridgelab.potential", ("potential_from_config",)),
    "flow": ("bridgelab.flow", ("gradient_flow", "closed_form_flow")),
    "bounds": ("bridgelab.bounds", ("verify_bounds", "fit_rate")),
    "functionals": ("bridgelab.functionals", (
        "action_cost", "conserved_energy", "defect_field", "envelope_check",
        "concavity_profile", "cumulative_integral")),
    "gaussian": ("bridgelab.gaussian", (
        "fluct_param", "bridge_marginal", "heat_flow_gaussian", "w2_gaussian", "gaussian_energy",
        "gaussian_cost", "rel_entropy_gaussian", "gamma_expansion", "schrodinger_value",
        "heat_flow_distance")),
}
POTENTIAL_METHODS = ("in_domain", "check_domain", "value", "grad", "hess_apply", "hess_grad",
                     "value_many", "grad_many", "hess_grad_many", "convexity_defect")
BATCH_METHODS = ("value_many", "grad_many", "hess_grad_many")
MODULES = ("bridgelab", "bridgelab._integrate", "bridgelab.potential", "bridgelab.flow",
           "bridgelab.bridge", "bridgelab.functionals", "bridgelab.bounds", "bridgelab.gaussian",
           "bridgelab.config", "bridgelab.cli")


class Tracer:
    """Spans and counts of one traced pass, kept in memory.

    A span is a dict with ``name`` ("layer.function"), ``start``, ``end``,
    ``parent`` (index or None), ``case``, ``error`` (it raised), ``leaf``
    (seconds of untraced potential calls made directly inside it) and
    ``info`` (function-specific facts such as argument values).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.case: str | None = None
        self._stack: list[int] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, info: dict | None = None):
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "case": self.case, "error": False, "leaf": 0.0, "info": info or {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["error"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        span["info"].update(_result_info(name, result))
        return result

    def _span_wrapper(self, name: str, fn):
        if name == "integrate.integrate_grid":
            return self._integrate_wrapper(fn)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, _call_info(name, args, kwargs))

        return wrapper

    def _integrate_wrapper(self, fn):
        """Counts rhs evaluations (4 per RK4 step) and domain checks from outside."""

        def wrapper(rhs, z0, T, steps, feasible=None):
            info = {"steps": int(steps), "rhs": 0, "feasible": 0}

            def counted_rhs(z):
                info["rhs"] += 1
                return rhs(z)

            counted_feasible = None
            if feasible is not None:
                def counted_feasible(z):
                    info["feasible"] += 1
                    return feasible(z)

            return self.call("integrate.integrate_grid", fn,
                             (counted_rhs, z0, T, steps, counted_feasible), {}, info)

        return wrapper

    def _leaf_wrapper(self, method: str, fn):
        counts = self.counts
        key = f"potential.{method}"
        batch = method in BATCH_METHODS
        own_time = method == "in_domain"

        def wrapper(pot, *args, **kwargs):
            counts[key] += 1
            if batch:
                counts["potential.rows"] += len(args[0])
            if self._in_leaf and not own_time:
                return fn(pot, *args, **kwargs)
            outermost = not self._in_leaf
            self._in_leaf = True
            t0 = time.perf_counter()
            try:
                return fn(pot, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if own_time:
                    counts[key + "_s"] += dt
                if outermost:
                    self._in_leaf = False
                    counts["potential.leaf_s"] += dt
                    if self._stack:
                        self.spans[self._stack[-1]]["leaf"] += dt

        return wrapper

    # -- installing -------------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, (module_name, names) in SPAN_TARGETS.items():
            owner = importlib.import_module(module_name)
            for fname in names:
                original = getattr(owner, fname)
                wrapped = self._span_wrapper(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapped)
        from bridgelab.potential import Potential

        for method in POTENTIAL_METHODS:
            original = Potential.__dict__[method]
            self._patches.append((Potential, method, original))
            setattr(Potential, method, self._leaf_wrapper(method, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path: Path) -> None:
        """Write spans (one JSON object per line) and then the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _call_info(name: str, args, kwargs) -> dict:
    if name == "bridge.solve_bridge":
        opts = args[4] if len(args) > 4 else kwargs.get("opts")
        return {"T": float(args[3]), "method": getattr(opts, "method", "auto")}
    if name == "gaussian.gaussian_cost":
        steps = args[1] if len(args) > 1 else kwargs.get("quad_steps", 100000)
        return {"quad_points": steps + steps % 2 + 1}
    return {}


def _result_info(name: str, result) -> dict:
    if name in ("bridge.solve_bridge_shooting", "bridge.solve_bridge_action"):
        return {"iterations": result.iterations, "restarts": result.context.get("restarts", 0)}
    if name == "bounds.verify_bounds":
        return {"reports": len(result)}
    return {}


# -- arithmetic on spans ------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus its children's durations and its leaf time."""
    covered = [span["leaf"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - c for span, c in zip(spans, covered)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
    spans, counts = tracer.spans, tracer.counts
    own = self_times(spans)
    layer_self = Counter()
    layer_calls = Counter()
    for span, t in zip(spans, own):
        layer = span["name"].split(".", 1)[0]
        layer_self[layer] += t
        layer_calls[layer] += 1

    def named(fname):
        return [i for i, s in enumerate(spans) if s["name"] == fname]

    def parent_name(i):
        p = spans[i]["parent"]
        return None if p is None else spans[p]["name"]

    def duration(i):
        return spans[i]["end"] - spans[i]["start"]

    integ = named("integrate.integrate_grid")
    rk4 = {i: spans[i]["info"]["rhs"] / 4.0 for i in integ}
    shoot = named("bridge.solve_bridge_shooting")
    action = named("bridge.solve_bridge_action")
    solves = named("bridge.solve_bridge")
    verify = named("bounds.verify_bounds")
    flows = named("flow.gradient_flow")
    shoot_ok = [i for i in shoot if not spans[i]["error"]]
    landing = [i for i in integ if parent_name(i) == "bridge.solve_bridge_shooting"]
    c1 = [i for i in solves if parent_name(i) == "bounds.verify_bounds" and spans[i]["info"]["T"] == 1.0]
    # an auto solve fell back when its shooting child raised and an action child followed
    action_parents = {spans[i]["parent"] for i in action}
    fallbacks = {spans[i]["parent"] for i in shoot if spans[i]["error"]
                 and spans[i]["parent"] in action_parents
                 and parent_name(i) == "bridge.solve_bridge"
                 and spans[spans[i]["parent"]]["info"].get("method") == "auto"}
    config_s = sum(own[i] for i, s in enumerate(spans) if s["name"].startswith("config."))
    steps = sum(rk4.values())

    return {
        "integrate.calls": len(integ),
        "integrate.busy_s": layer_self["integrate"],
        "integrate.rk4_steps": steps,
        "integrate.substeps": sum(rk4[i] - spans[i]["info"]["steps"] for i in integ
                                  if not spans[i]["error"]),
        "integrate.us_per_step": 1e6 * _ratio(sum(duration(i) for i in integ), steps),
        "integrate.escape_frac": _ratio(sum(spans[i]["error"] for i in integ), len(integ)),
        "potential.in_domain_calls": counts["potential.in_domain"],
        "potential.hess_grad_calls": counts["potential.hess_grad"],
        "potential.many_calls": sum(counts[f"potential.{m}"] for m in BATCH_METHODS),
        "potential.rows": counts["potential.rows"],
        "potential.busy_s": counts["potential.leaf_s"] + layer_self["potential"],
        "potential.in_domain_s": counts["potential.in_domain_s"],
        "bridge.solves": len(solves),
        "bridge.shooting_s": sum(own[i] for i in shoot),
        "bridge.action_s": sum(own[i] for i in action),
        "bridge.newton_iters": sum(spans[i]["info"]["iterations"] for i in shoot_ok),
        "bridge.lbfgs_iters": sum(spans[i]["info"]["iterations"] for i in action
                                  if not spans[i]["error"]),
        "bridge.restarts": sum(spans[i]["info"]["restarts"] for i in shoot_ok),
        "bridge.landing_maps": len(landing),
        "bridge.landing_maps_per_solve": _ratio(len(landing), len(shoot)),
        "bridge.shoot_converged_frac": _ratio(len(shoot_ok), len(shoot)),
        "bridge.fallbacks": len(fallbacks),
        "bounds.calls": len(verify),
        "bounds.self_s": sum(own[i] for i in verify),
        "bounds.reports": sum(spans[i]["info"].get("reports", 0) for i in verify),
        "bounds.c1_solves": len(c1),
        "bounds.c1_s": sum(duration(i) for i in c1),
        "flow.calls": len(flows),
        "flow.busy_s": layer_self["flow"],
        "flow.steps": sum(rk4[i] for i in integ if parent_name(i) == "flow.gradient_flow"),
        "gaussian.calls": layer_calls["gaussian"],
        "gaussian.busy_s": layer_self["gaussian"],
        "gaussian.quad_points": sum(spans[i]["info"]["quad_points"]
                                    for i in named("gaussian.gaussian_cost")),
        "functionals.calls": layer_calls["functionals"],
        "functionals.busy_s": layer_self["functionals"],
        "cli.self_s": layer_self["cli"],
        "config.parse_s": config_s,
    }
