"""Time sample_ensemble + solve over the public fbsde_pc API and write a
BENCH_<tag>.json file.

    python3 bench/bench.py --tag abc1234 --side parent=../parent --side change=.

Each --side NAME=DIR names a source checkout whose DIR/src holds fbsde_pc
(default: change=the checkout this script is in).  Each of the 4 rounds
(ROUNDS) runs each side once in a fresh interpreter, and the order of the
sides alternates from one round to the next, so that drift over the run falls
on both sides alike.  A side's run times each case 5 times (the best of the
first 3 and the median of all 5 are kept) and then, untimed, takes the
tracemalloc peak of one solve above its ensemble.  The machine facts come
from perfbench/machine.py, and the file goes to bench/BENCH_<tag>.json.

Only public names of fbsde_pc are read, and nothing is patched.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 4
REPEATS = 5
BEST_OF = 3
SUMMARY_KEYS = ("best_of_3_s", "median_of_5_s", "traced_peak_mb")


@dataclass(frozen=True)
class Case:
    """One sample_ensemble + solve: problem (``example1`` with eta = 0.6,
    tau = 1/sqrt(2), d = 2, or ``example2``), stable_preset(m), N steps, M
    paths, the basis degree and the ensemble seed."""

    problem: str
    m: int
    N: int
    M: int
    degree: int
    seed: int = 5


# the acceptance size for m = 1..4, of which m = 2 is the solve-regression
# workload's shape, and the other two perfbench workload shapes (the
# ladder's largest row)
CASES = {
    **{f"acceptance-m{m}": Case("example1", m, 20, 12018, 6) for m in range(1, 5)},
    "solve-paths": Case("example2", 2, 50, 100000, 2),
    "ladder-bootstrap": Case("example1", 3, 20, 3000, 6),
}


def measure(cases: dict, repeats: int = REPEATS) -> dict:
    """Per case: the wall times of `repeats` sample_ensemble + solve runs, the
    best of the first BEST_OF and their median, the traced peak of one more
    solve above its ensemble, and the solve's y0 and z0."""
    import fbsde_pc

    out = {}
    for name, case in cases.items():
        if case.problem == "example1":
            problem = fbsde_pc.example1(eta=0.6, tau=1.0 / math.sqrt(2.0), d=2)
        else:
            problem = fbsde_pc.example2()
        grid = fbsde_pc.GridSpec(T=problem.T, N=case.N)
        config = fbsde_pc.SolverConfig(scheme=fbsde_pc.stable_preset(case.m), grid=grid,
                                       basis_degree=case.degree)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            ensemble = fbsde_pc.sample_ensemble(problem, grid, case.M, case.seed)
            solution = fbsde_pc.solve(problem, config, ensemble)
            samples.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fbsde_pc.solve(problem, config, ensemble)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        out[name] = {
            "samples_s": samples,
            "best_of_3_s": min(samples[:BEST_OF]),
            "median_of_5_s": statistics.median(samples),
            "traced_peak_mb": peak / 1e6,
            "y0": repr(solution.y0),
            "z0": [repr(float(v)) for v in solution.z0],
        }
    return out


def document(tag: str, facts: dict, cases: dict, order: list, runs: dict) -> dict:
    """The BENCH file: machine facts, the cases, the order of the sides in
    each round, and per case and side each round's figures and their
    median over rounds.  runs[side] holds one measure() result per round."""
    columns = {}
    for name in cases:
        columns[name] = {}
        for side, rounds in runs.items():
            per_round = [r[name] for r in rounds]
            column = {key: [r[key] for r in per_round] for key in SUMMARY_KEYS}
            column.update({f"{key}_median": statistics.median(column[key])
                           for key in SUMMARY_KEYS})
            column.update(y0=per_round[0]["y0"], z0=per_round[0]["z0"])
            columns[name][side] = column
    return {"tag": tag, "machine": facts,
            "cases": {name: asdict(case) for name, case in cases.items()},
            "order": order, "results": columns}


def _measure_side(directory: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(directory / "src"))
    done = subprocess.run([sys.executable, __file__, "--measure"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", default="local")
    parser.add_argument("--side", action="append", default=[], metavar="NAME=DIR")
    # one side's run, in an interpreter whose PYTHONPATH holds its src/
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(CASES)))
        return 0
    sides = dict(s.split("=", 1) for s in args.side) or {"change": str(ROOT)}
    order, runs = [], {side: [] for side in sides}
    for r in range(ROUNDS):
        this_round = list(sides) if r % 2 == 0 else list(sides)[::-1]
        order.append(this_round)
        for side in this_round:
            runs[side].append(_measure_side(Path(sides[side]).resolve()))
            print(f"round {r + 1}/{ROUNDS}: {side} done", file=sys.stderr)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from machine import machine_facts

    doc = document(args.tag, machine_facts(), CASES, order, runs)
    out = HERE / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
