"""The benchmark harness runs end to end on the package in this checkout."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# ladder-bootstrap runs stable_preset(3) with its stable_preset(1) trapezoid
# start-up on the bridge-refined grid, which solve-regression does not reach;
# solve-paths runs example2 on 1e5 paths, where the normals, the Euler steps
# and the row-wise phases of every backward level run on worker threads (on a
# machine with two cores or more), so the tracer sees problem callables and
# truncate called from several threads at once
@pytest.mark.parametrize("workload", ["solve-regression", "solve-paths", "ladder-bootstrap"])
def test_short_traced_run_is_correct(workload):
    # a one-second traced run passes the reference.json gate, the tracer's
    # self-checks (traced and untraced solves agree, counts repeat) and the
    # planted degeneracy checks, which the unit tests do not exercise
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def test_tracer_seams_present(monkeypatch):
    # the tracer lists a seam it cannot find in the report's missing_seams,
    # and that layer's metrics read 0 while the run still reads correct; a
    # renamed package function or method fails here instead.  The lookup is
    # Tracer.installed's
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracer.FUNCTION_SEAMS + tracer.METHOD_SEAMS
               if owner.__dict__.get(attr) is None]
    assert missing == []
