"""fbsde-pc benchmark: one closed-loop caller driving the public API.

    python3 perfbench/run.py --workload solve-regression --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  A run times units until the next one would end after
--seconds.  The first unit's input is the fixed gate seed, and its y0/z0 are
compared with reference.json; the later units' inputs derive from --seed.
--trace 0 prints the end-to-end metrics; --trace 1 reruns the units under the
tracer and prints the per-layer metrics.  The last line of stdout is the JSON
result; the full report (machine facts, samples, checks) goes to
perfbench/out/.  The exit code is 0 when every check passed, 1 when one
failed and 2 when there is no package to measure.  BLAS thread settings are
left as found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_UNITS = 3
SETUP_PROCESSES = 5
# y0/z0 of a unit on the gate seed must match reference.json to this
# relative tolerance
GATE_RTOL = 1e-9

# time from a fresh interpreter's first statement to the end of the work done
# before the first unit: importing fbsde_pc and Workload.setup()
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import fbsde_pc
from workloads import WORKLOADS
WORKLOADS[sys.argv[1]].setup()
print(repr(time.perf_counter() - t0))
"""

COUNT_KEYS = ("simulation.normals_count", "regression.design_rows", "regression.lstsq_calls",
              "regression.factorizations", "experiments.trials")


def tail_percentile(n: int):
    """Highest of the usual percentiles with at least ten samples above it."""
    for p in (99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def timing_summary(samples: list[float]) -> dict:
    p = tail_percentile(len(samples))
    out = {"median": statistics.median(samples), "n": len(samples),
           "min": min(samples), "max": max(samples), "tail_percentile": p}
    if p is not None:
        out["tail"] = statistics.quantiles(samples, n=100)[int(p) - 1]
    return out


def differing_solves(a, b) -> int:
    """Solves whose y0 or z0 are not bit-identical between two units."""
    same = sum(ya == yb and za.shape == zb.shape and bool((za == zb).all())
               for (ya, za), (yb, zb) in zip(a.solves, b.solves))
    return max(len(a.solves), len(b.solves)) - same


class Run:
    """One benchmark run: the workload, its checks and its tallies."""

    def __init__(self, workload, seed: int, seconds: float, reference: dict):
        from fbsde_pc.exceptions import FbsdeError
        self.fbsde_error = FbsdeError
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.gate_y0 = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.err_y: list[float] = []
        self.err_z: list[float] = []

    def unit(self, prep, k: int):
        """Run and check unit k; returns (wall seconds, result) or None."""
        from workloads import GATE_SEED, unit_seed
        seed = unit_seed(self.seed, k)
        w = self.workload
        self.attempted += w.solves_per_unit
        start = time.perf_counter()
        try:
            result = w.run_unit(prep, seed)
        except self.fbsde_error as exc:
            self.failed += w.solves_per_unit
            self.problems.append(f"unit seed {seed}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        reasons = [w.check_solve(prep.problem, y0, z0) for y0, z0 in result.solves]
        if seed == GATE_SEED:
            reasons = [own or gate for own, gate in zip(reasons, self.gate(result))]
        reasons += ["no result"] * (w.solves_per_unit - len(result.solves))
        bad = [reason for reason in reasons if reason]
        self.failed += len(bad)
        self.problems += [f"unit seed {seed}: {reason}" for reason in bad]
        self.err_y.append(result.err_y)
        self.err_z.append(result.err_z)
        return wall, result

    def gate(self, result) -> list:
        """Per solve of a unit on the gate seed: None when its y0/z0 match
        reference.json, else the reason."""
        self.gate_y0 = [y0 for y0, _ in result.solves]
        ref = self.reference["workloads"].get(self.workload.name)
        if ref is None or len(ref["y0"]) != len(result.solves):
            return ["gate: reference.json has no values for these solves"] * len(result.solves)
        return [None if _close(y0, ref_y) and _close(z0, ref_z) else
                f"gate: y0={y0!r} z0={z0.tolist()} differ from the recorded "
                f"{ref_y!r} {ref_z!r} by more than rtol {GATE_RTOL}"
                for (y0, z0), ref_y, ref_z in zip(result.solves, ref["y0"], ref["z0"])]

    def more(self, started: float, walls: list[float], per_step: int) -> bool:
        """Whether per_step more units, at the median unit time so far, end
        within --seconds of started."""
        if not walls:
            return False
        elapsed = time.perf_counter() - started
        return elapsed + per_step * statistics.median(walls) <= self.seconds


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= GATE_RTOL * np.maximum(np.abs(want), 1e-300)))


def measure_setup(name: str) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    samples = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, name], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def untraced(run: Run, prep) -> tuple[dict, dict]:
    walls: list[float] = []
    started = time.perf_counter()
    k = 0
    while k < MIN_UNITS or run.more(started, walls, 1):
        done = run.unit(prep, k)
        k += 1
        if done is not None:
            walls.append(done[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = measure_setup(run.workload.name)
    wall = timing_summary(walls) if walls else None
    wall_s = wall["median"] if wall else float("nan")
    metrics = {
        "wall_s": (wall_s, "s"),
        "path_steps_per_s": (run.workload.path_steps / wall_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"wall_s": wall, "wall_samples": walls, "setup_s": timing_summary(setup),
              "setup_samples": setup}
    return metrics, detail


def planted_checks(problems: list[str]) -> dict:
    """The degeneracy counters read what they should on planted cases: every
    design rank deficient when M < K, and clamping when y_bound is below the
    payoff's range (example1's payoff spans [0.6, 2.6])."""
    from fbsde_pc import problems as fb_problems, schemes, simulation, solver
    from tracer import Tracer, layer_metrics
    from workloads import GATE_SEED
    problem = fb_problems.example1()
    grid = simulation.GridSpec(T=problem.T, N=4)
    cases = {"rank": (20, 6, None), "full": (400, 2, None), "clamp": (400, 2, 1.0)}
    tracer = Tracer()
    with tracer.installed():
        for run_id, (M, degree, y_bound) in cases.items():
            tracer.run = run_id
            config = solver.SolverConfig(scheme=schemes.stable_preset(1), grid=grid,
                                         basis_degree=degree, y_bound=y_bound)
            ensemble = simulation.sample_ensemble(problem, grid, M, GATE_SEED)
            solver.solve(problem, config, ensemble)
    read = {run_id: layer_metrics(tracer.spans, run_id)[0] for run_id in cases}
    out = {
        "rank_deficient_frac(M=20<K=28)": read["rank"]["regression.rank_deficient_frac"],
        "rank_deficient_frac(M=400>K=6)": read["full"]["regression.rank_deficient_frac"],
        "clamp_frac(y_bound=1)": read["clamp"]["regression.clamp_frac"],
    }
    if out["rank_deficient_frac(M=20<K=28)"] != 1.0:
        problems.append("planted: rank_deficient_frac is not 1 with M < K")
    if out["rank_deficient_frac(M=400>K=6)"] != 0.0:
        problems.append("planted: rank_deficient_frac is not 0 with M > K")
    if not out["clamp_frac(y_bound=1)"] > 0.0:
        problems.append("planted: clamp_frac is 0 with y_bound below the payoff range")
    return out


def traced(run: Run, prep) -> tuple[dict, dict]:
    """Untraced and traced units alternate on the same inputs.  The first
    input is traced twice, so that the counts can be compared between two
    traced units as well as the outputs with the untraced one."""
    from tracer import Tracer, layer_metrics
    planted = planted_checks(run.problems)
    tracer = Tracer()
    walls = {False: [], True: []}
    per_unit: list[dict] = []
    self_times: list[dict] = []
    started = time.perf_counter()
    plan = [(0, False), (0, True), (0, True)]
    outputs = {}
    k = 0
    while plan:
        index, with_trace = plan.pop(0)
        if with_trace:
            tracer.run = f"unit{k}"
            with tracer.installed():
                unit_prep = run.workload.setup()
                unit_prep.problem = tracer.wrap_problem(unit_prep.problem)
                done = run.unit(unit_prep, index)
            if done is not None:
                metrics, self_time = layer_metrics(tracer.spans, tracer.run)
                per_unit.append(metrics)
                self_times.append(self_time)
        else:
            done = run.unit(prep, index)
        k += 1
        if done is not None:
            walls[with_trace].append(done[0])
            differing = differing_solves(outputs.setdefault(index, done[1]), done[1])
            if differing:
                run.failed += differing
                run.problems.append(f"self-check: {differing} traced solves differ from the "
                                    f"untraced ones on input {index}")
        if not plan and walls[False] and run.more(started, walls[True], 2):
            plan = [(index + 1, False), (index + 1, True)]
    if len(per_unit) >= 2:
        first, second = per_unit[0], per_unit[1]
        for key in COUNT_KEYS:
            if first[key] != second[key]:
                run.problems.append(f"self-check: {key} differs between two traced units "
                                    f"on one input ({first[key]} vs {second[key]})")
    else:
        run.problems.append("self-check: fewer than two traced units completed")
    metrics = {key: (statistics.median(m[key] for m in per_unit), _unit_of(key))
               for key in (per_unit[0] if per_unit else {})}
    wall_traced = statistics.median(walls[True]) if walls[True] else float("nan")
    wall_untraced = statistics.median(walls[False]) if walls[False] else float("nan")
    metrics["trace.wall_traced_s"] = (wall_traced, "s")
    metrics["trace.wall_untraced_s"] = (wall_untraced, "s")
    metrics["trace.overhead_frac"] = (wall_traced / wall_untraced - 1.0, "fraction")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{run.workload.name}-seed{run.seed}-spans.jsonl"
    tracer.write_jsonl(spans_path)
    detail = {"planted": planted, "missing_seams": sorted(set(tracer.missing)),
              "wall_traced": walls[True], "wall_untraced": walls[False],
              "largest_leaf": _largest_leaf(tracer.spans, self_times),
              "self_time_s": {name: statistics.median(st.get(name, 0.0) for st in self_times)
                              for name in sorted({n for st in self_times for n in st})},
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def _unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "fraction"
    if key.endswith("_mb_computed"):
        return "MB"
    if key.endswith("_gflop_computed"):
        return "Gflop"
    return "count"


def _largest_leaf(spans: list, self_times: list[dict]):
    parents = {spans[parent][0] for _, parent, *_ in spans if parent is not None}
    leaves = {name for name, *_ in spans} - parents - {"trace.count"}
    if not self_times:
        return None
    totals = {name: statistics.median(st.get(name, 0.0) for st in self_times) for name in leaves}
    return max(totals, key=totals.get)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fbsde_pc" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'fbsde_pc'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fbsde_pc
    if Path(fbsde_pc.__file__).resolve().parent != (SRC / "fbsde_pc").resolve():
        print(f"perfbench: fbsde_pc imported from {fbsde_pc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from machine import machine_facts
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("perfbench: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    run = Run(workload, args.seed, args.seconds, reference)
    prep = workload.setup()
    if args.trace:
        metrics, detail = traced(run, prep)
    else:
        metrics, detail = untraced(run, prep)
    machine = machine_facts()
    correct = run.failed == 0 and not run.problems and all(
        value == value for value, _ in metrics.values())
    report = {
        "workload": {"name": workload.name, "why": workload.why, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace,
                     "solves_per_unit": workload.solves_per_unit,
                     "path_steps_per_unit": workload.path_steps,
                     "working_set_mb_computed": workload.working_set_mb(),
                     "l3_mb": machine["cache_bytes"].get("L3", 0) / 1e6,
                     "load": "closed loop, one caller"},
        "machine": machine,
        "gate": {"seed_commit": reference["seed_commit"], "rtol": GATE_RTOL,
                 "y0": run.gate_y0},
        "checks": {"tol_y": workload.tol_y, "tol_z": workload.tol_z,
                   "problems": run.problems},
        "accuracy": {"err_y": statistics.fmean(run.err_y) if run.err_y else float("nan"),
                     "err_z": statistics.fmean(run.err_z) if run.err_z else float("nan"),
                     "fail_frac": run.failed / run.attempted},
        "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"nproc {machine['nproc']}  report {report_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not args.trace:
        wall = detail["wall_s"]
        if wall:
            tail = (f"p{wall['tail_percentile']:g} {wall['tail']:.4g} s" if wall["tail_percentile"]
                    else "no tail percentile (needs >= 40 units)")
            print(f"  wall_s over {wall['n']} units: median {wall['median']:.4g} s, "
                  f"max {wall['max']:.4g} s, {tail}")
    acc = report["accuracy"]
    print(f"  {'err_y':36s} {acc['err_y']:14.6g} 1")
    print(f"  {'err_z':36s} {acc['err_z']:14.6g} 1")
    print(f"  {'fail_frac':36s} {acc['fail_frac']:14.6g} fraction "
          f"({run.failed} of {run.attempted} solves)")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
