"""bridgelab benchmark runner.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of shoot_neglog, verify_catalogue, action_closed_form,
custom_shoot, or ``all`` to run the four one after another in this process.
The run generates the workload's cases from the seed, measures set-up in
fresh interpreters, then repeats passes over the cases (serially, one thread)
until the next pass would end after S seconds. The first pass warms caches and
lazy imports and is not timed; at least MIN_PASSES timed passes follow. Every case of
every pass is checked against its oracle, and every pass must write the same
bytes as the first. Outputs go to ``.bench_out/WORKLOAD-seedN/`` in the
checkout, the whole result with per-case times to ``result.json`` there.

Times are reported in reference seconds (see ``clock``): the CPU time of
each case run and of each fresh-interpreter set-up, scaled by a calibration
kernel timed beside it, so that neither time stolen by the hypervisor nor the
shared host's fast and slow spells move them. The human-readable lines show
the unscaled wall times of the passes next to the metrics.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics. Exit code 0 means the run completed;
whether the program passed its checks is in ``correct``, ``failed`` and
``attempted``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import env  # noqa: E402  (env pins thread pools before numpy loads)

WORKLOAD_NAMES = ("shoot_neglog", "verify_catalogue", "action_closed_form", "custom_shoot")
SETUP_STARTS = 9
WARMUP_PASSES = 1
#: Timed untraced passes a run makes at least. Also sets the tail percentile: ten
#: runs beyond it in this many passes. With two, that percentile fell exactly on
#: the edge between the five costliest cases and the rest on two workloads.
MIN_PASSES = 3
TAIL_BEYOND = 10
OUT_DIR = ".bench_out"


def tail_rank(n: int) -> int:
    """1-based rank of the highest order statistic of n samples with at least
    TAIL_BEYOND samples above it."""
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return n - TAIL_BEYOND


def tail(values: list[float], cases: int) -> tuple[float, float]:
    """(value, percentile) of the tail of ``values``, the case runs of one or more
    passes over ``cases`` cases. The percentile is the one ``tail_rank`` gives for
    MIN_PASSES passes, whatever the number of passes pooled, so more passes leave
    more runs beyond it; the value is interpolated between the two runs nearest
    to it, so that it does not jump when the percentile falls in a gap between
    cheap and costly cases."""
    n = MIN_PASSES * cases
    if len(values) < n:
        raise ValueError(f"a tail needs {MIN_PASSES} passes over {cases} cases")
    pct = 100.0 * tail_rank(n) / n
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    k = min(int(pos), len(ordered) - 2)
    return ordered[k] + (pos - k) * (ordered[k + 1] - ordered[k]), pct


@dataclass
class Pass:
    traced: bool
    outcomes: dict = field(default_factory=dict)   # case id -> workloads.Outcome
    scales: dict = field(default_factory=dict)     # case id -> clock.scale beside its run
    findings: dict = field(default_factory=dict)   # case id -> [oracles.Finding]
    layers: dict | None = None

    @property
    def wall(self) -> float:
        return sum(o.elapsed for o in self.outcomes.values())

    def scaled(self, case_id: str) -> float:
        """CPU time of a case's run in reference seconds."""
        return self.outcomes[case_id].cpu * self.scales[case_id]


def measure_setup(workdir: Path) -> list[tuple[float, float]]:
    """(seconds, clock scale) of each fresh-interpreter set-up."""
    probe = Path(__file__).resolve().parent / "probe.py"
    starts = []
    for _ in range(SETUP_STARTS):
        done = subprocess.run([sys.executable, str(probe), str(workdir)], cwd=env.ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, scale = json.loads(done.stdout.strip().splitlines()[-1])
        starts.append((seconds, scale))
    return starts


def run_pass(cases, potentials: dict, workdir: Path, traced: bool) -> Pass:
    from perfbench import clock, oracles, tracer, workloads

    result = Pass(traced)
    trace = tracer.Tracer() if traced else None
    before = clock.sample()
    with trace or contextlib.nullcontext():
        for case in cases:
            if trace:
                trace.case = case.id
            out = workdir / "out" / case.id
            outcome = workloads.run_case(case, workdir, out, potentials.get(case.id))
            after = clock.sample()
            result.scales[case.id] = clock.scale(before + after)
            before = after
            result.outcomes[case.id] = outcome
            result.findings[case.id] = [] if outcome.error else oracles.check_case(case, outcome, out)
    if trace:
        result.layers = tracer.layer_metrics(trace)
        result.layers["cli.bytes_written"] = sum(o.bytes_written for o in result.outcomes.values())
        trace.dump(workdir / f"trace-{len(list(workdir.glob('trace-*.jsonl')))}.jsonl")
    return result


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from perfbench import workloads

    workdir = env.ROOT / OUT_DIR / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cases = workloads.generate(name, seed)
    workloads.write_inputs(cases, workdir)
    setup = measure_setup(workdir)
    potentials = workloads.load_inputs(workdir)

    passes: list[Pass] = []
    durations: list[float] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # traced runs alternate traced and untraced passes after the warm-up
        after_warmup = len(passes) - WARMUP_PASSES
        trace_this = traced and after_warmup >= 0 and after_warmup % 2 == 0
        passes.append(run_pass(cases, potentials, workdir, trace_this))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        plain = sum(not p.traced for p in passes[WARMUP_PASSES:])
        if plain >= MIN_PASSES and elapsed + max(durations) > seconds:
            break
    shutil.rmtree(workdir / "out", ignore_errors=True)
    result = summarize(name, seed, cases, passes, setup)
    (workdir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def summarize(name, seed, cases, passes: list[Pass], setup: list[tuple[float, float]]) -> dict:
    reference = {c.id: passes[0].outcomes[c.id].digest for c in cases}
    failures, worst = [], {}
    wrong = False
    for k, p in enumerate(passes):
        for case in cases:
            outcome, findings = p.outcomes[case.id], p.findings[case.id]
            bad = [f for f in findings if not f.passed]
            wrong = wrong or any(not f.reported for f in bad)
            for f in findings:
                ratio = f.err / f.tol if f.tol else (0.0 if f.err == 0 else math.inf)
                worst[f.name] = max(worst.get(f.name, 0.0), ratio)
            if outcome.error:
                failures.append(f"{case.id} pass {k}: {outcome.error}")
            elif bad:
                failures.append(f"{case.id} pass {k}: " + "; ".join(
                    f"{f.name} {f.err:.3g} > {f.tol:.3g}" for f in bad))
            elif outcome.digest != reference[case.id]:
                failures.append(f"{case.id} pass {k}: output differs from pass 0")

    plain = [p for p in passes[WARMUP_PASSES:] if not p.traced]
    # per-case medians over the timed passes, in reference seconds; their sum is
    # the time of one pass over the workload
    per_case = [statistics.median(p.scaled(c.id) for p in plain) for c in cases]
    tail_value, tail_pct = tail([p.scaled(c.id) for p in plain for c in cases], len(cases))
    result = {
        "workload": name, "seed": seed, "cases": len(cases), "passes": len(passes),
        "case_s": dict(zip((c.id for c in cases), per_case)),
        "attempted": len(cases) * len(passes), "failed": len(failures), "correct": not wrong,
        "failures": failures, "worst_ratio": worst, "tail_percentile": tail_pct,
        "timed_runs": len(plain) * len(cases),
        "pass_walls": [(p.traced, p.wall) for p in passes],
        "scale": statistics.median(p.scales[c.id] for p in plain for c in cases),
        "end_to_end": {
            "pass_s": sum(per_case),
            "case_p50_s": statistics.median(per_case),
            "case_tail_s": tail_value,
            "setup_s": statistics.median(seconds * scale for seconds, scale in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    traced = [p for p in passes if p.traced]
    if traced:
        layers = {key: statistics.median(p.layers[key] for p in traced) for key in traced[0].layers}
        layers["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(p.wall for p in plain))
        result["per_layer"] = layers
    return result


UNITS_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_units() -> dict[str, dict[str, str]]:
    spec = json.loads(UNITS_FILE.read_text(encoding="utf-8"))
    return {group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")}


def report(result: dict, traced: bool) -> None:
    units = declared_units()
    n, fails = result["attempted"], result["failed"]
    print(f"perfbench {result['workload']} seed={result['seed']}: {result['cases']} cases x "
          f"{result['passes']} passes, {n} attempted, {fails} failed, "
          f"fail_frac {fails / n:.4f}, correct {str(result['correct']).lower()}")
    group = "per_layer" if traced else "end_to_end"
    values = result[group]
    for key, unit in units[group].items():
        note = ""
        if key == "case_tail_s":
            note = (f"  (p{result['tail_percentile']:.1f} of {result['timed_runs']} timed case runs,"
                    f" {result['cases']} cases)")
        elif key == "setup_s":
            note = f"  (median of {SETUP_STARTS} fresh interpreters)"
        print(f"  {key:32s} {values[key]:14.6g} {unit}{note}")
    print(f"  times in reference seconds; median clock scale {result['scale']:.3f}")
    print("  unscaled pass walls (s): " + ", ".join(
        f"{wall:.3f}{' traced' if traced else ''}{' warm-up' if k < WARMUP_PASSES else ''}"
        for k, (traced, wall) in enumerate(result["pass_walls"])))
    print("  worst error/tolerance: " + ", ".join(
        f"{k} {v:.3g}" for k, v in sorted(result["worst_ratio"].items())))
    for line in result["failures"]:
        print(f"  FAILED {line}")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units[group].items()}
    print(json.dumps({"correct": result["correct"], "attempted": n, "failed": fails,
                      "metrics": metrics}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.prepare()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench import clock  # noqa: F401  (its arrays are allocated before bridgelab's)
    for name in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
        report(run_workload(name, args.seed, args.seconds, bool(args.trace)), bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
