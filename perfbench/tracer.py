"""Outside-in tracing of fbsde_pc for the benchmark's traced runs.

The tracer wraps the public functions of each fbsde_pc module, from this
directory, while it is installed; nothing under src/ knows about it.  A name
imported with ``from .x import y`` is bound in the importing module, so each
seam is patched where it is looked up (``solver.truncate`` as well as
``regression.truncate``).  Methods are patched on their classes, and the
problem's callables are wrapped with ``dataclasses.replace``.

Spans are kept in memory as [name, parent, run, start, end, attrs] and
written once, at the end, by ``write_jsonl``.  Counts are span attributes,
taken at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import weakref
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from fbsde_pc import experiments, regression, schemes, simulation, solver, stability
from workloads import ensemble_mb

# (module, attribute, span name); attribute missing -> the seam is reported
# in Tracer.missing and its metrics read 0.  solver._bootstrap is the only
# bootstrap boundary the package has, so solver.bootstrap_* are tied to it.
FUNCTION_SEAMS = (
    (simulation, "substream_normals", "simulation.normals"),
    (simulation, "euler_paths", "simulation.euler"),
    (simulation, "sample_ensemble", "simulation.sample"),
    (experiments, "sample_ensemble", "simulation.sample"),
    (solver, "refine_increments", "simulation.refine"),
    (regression, "truncate", "regression.truncate"),
    (solver, "truncate", "regression.truncate"),
    (schemes, "stable_preset", "schemes.derive"),
    (stability, "scheme_verdict", "stability.verdict"),
    (solver, "scheme_verdict", "stability.verdict"),
    (solver, "_bootstrap", "solver.bootstrap"),
    (solver, "solve", "solver.solve"),
    (experiments, "solve", "solver.solve"),
    (experiments, "run_trial", "experiments.trial"),
    (experiments, "run_ladder", "experiments.ladder"),
)

METHOD_SEAMS = (
    (regression.PolynomialBasis, "design_matrix", "regression.design"),
    (regression.RegressionModel, "predict", "regression.predict"),
    (regression.DesignSolver, "__init__", "regression.prepare"),
    (regression.DesignSolver, "solve", "regression.lstsq"),
)

PROBLEM_SEAMS = (
    ("b", "problems.coeff"),
    ("sigma", "problems.coeff"),
    ("f", "problems.driver"),
    ("phi", "problems.terminal"),
    ("grad_phi", "problems.terminal"),
)


class Tracer:
    """Span recorder; install() patches the seams, wrap_problem() the callables."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._design_shape = weakref.WeakKeyDictionary()  # DesignSolver -> (M, K)
        self._attrs = {
            "simulation.normals": self._normals_attrs,
            "simulation.sample": self._ensemble_attrs,
            "simulation.refine": self._refine_attrs,
            "regression.truncate": self._truncate_attrs,
            "regression.design": self._design_attrs,
            "regression.prepare": self._prepare_attrs,
            "regression.lstsq": self._lstsq_attrs,
        }

    def wrap(self, fn, name):
        attrs_of = self._attrs.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            record = [name, stack[-1] if stack else None, self.run, 0.0, 0.0, None]
            spans.append(record)
            stack.append(sid)
            record[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if attrs_of is not None:
                # the counting is a child span of its own, so that it is
                # excluded from the self time of whatever called fn
                hook = ["trace.count", record[1], self.run, record[4], 0.0, None]
                spans.append(hook)
                record[5] = attrs_of(args, kwargs, out)
                hook[4] = perf_counter()
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in FUNCTION_SEAMS + METHOD_SEAMS:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def wrap_problem(self, problem):
        changes = {attr: self.wrap(getattr(problem, attr), name)
                   for attr, name in PROBLEM_SEAMS if getattr(problem, attr) is not None}
        return dataclasses.replace(problem, **changes)

    # -- counts taken at span boundaries ------------------------------------

    @staticmethod
    def _normals_attrs(args, kwargs, out):
        return {"normals": int(out.size)}

    @staticmethod
    def _ensemble_attrs(args, kwargs, out):
        M, N, d = out.dW.shape
        return {"mb": ensemble_mb(M, N, d)}

    @staticmethod
    def _refine_attrs(args, kwargs, out):
        return {"fine_steps": int(out.shape[1])}

    @staticmethod
    def _truncate_attrs(args, kwargs, out):
        given = np.asarray(args[0] if args else kwargs["x"], dtype=float)
        return {"elements": int(given.size),
                "clamped": int(np.count_nonzero(np.asarray(out) != given))}

    @staticmethod
    def _design_attrs(args, kwargs, out):
        return {"rows": int(out.shape[0])}

    def _prepare_attrs(self, args, kwargs, out):
        instance = args[0]
        features = np.shape(args[1] if len(args) > 1 else kwargs["features"])
        self._design_shape[instance] = features
        return {"rows": features[0]}

    def _lstsq_attrs(self, args, kwargs, out):
        instance = args[0]
        rows, cols = self._design_shape.get(instance, (0, 0))
        return {"gflop": 2.0 * rows * cols**2 / 1e9,
                "deficient": int(instance.rank is not None and instance.rank < cols)}

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, run, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "run": run,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list, run) -> tuple[dict, dict]:
    """(per-layer metrics, self time by span name) of one run id."""
    total, self_time, calls = {}, {}, {}
    attr_sum: dict[str, dict[str, float]] = {}
    child_time: dict[int, float] = {}
    in_bootstrap: dict[int, bool] = {}
    largest_ensemble_mb = 0.0
    bootstrap_lstsq = 0
    # parents are appended before their children, so one forward pass sees
    # each parent's bootstrap flag before its children need it
    for sid, (name, parent, span_run, start, end, attrs) in enumerate(spans):
        if span_run != run:
            continue
        in_bootstrap[sid] = name == "solver.bootstrap" or in_bootstrap.get(parent, False)
        if name == "regression.lstsq" and in_bootstrap[sid]:
            bootstrap_lstsq += 1
        duration = end - start
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + duration
        total[name] = total.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if attrs:
            sums = attr_sum.setdefault(name, {})
            for key, value in attrs.items():
                sums[key] = sums.get(key, 0) + value
            if name == "simulation.sample":
                largest_ensemble_mb = max(largest_ensemble_mb, attrs["mb"])
    for sid, (name, parent, span_run, start, end, attrs) in enumerate(spans):
        if span_run == run:
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def a(name, key):
        return attr_sum.get(name, {}).get(key, 0)

    def layer_self(layer):
        return sum((v for k, v in self_time.items() if _layer(k) == layer), 0.0)

    lstsq_calls = n("regression.lstsq")
    elements = a("regression.truncate", "elements")
    return {
        "simulation.normals_s": t("simulation.normals"),
        "simulation.normals_count": a("simulation.normals", "normals"),
        "simulation.euler_s": t("simulation.euler"),
        "simulation.refine_s": t("simulation.refine"),
        "simulation.ensemble_mb_computed": largest_ensemble_mb,
        "regression.lstsq_s": t("regression.lstsq"),
        "regression.lstsq_calls": lstsq_calls,
        "regression.lstsq_gflop_computed": a("regression.lstsq", "gflop"),
        "regression.factorizations": n("regression.prepare"),
        "regression.prepare_s": t("regression.prepare"),
        "regression.design_s": t("regression.design"),
        "regression.design_calls": n("regression.design"),
        "regression.design_rows": a("regression.design", "rows"),
        "regression.predict_s": t("regression.predict"),
        "regression.predict_calls": n("regression.predict"),
        "regression.rank_deficient_frac":
            a("regression.lstsq", "deficient") / lstsq_calls if lstsq_calls else 0.0,
        "regression.clamp_frac":
            a("regression.truncate", "clamped") / elements if elements else 0.0,
        "problems.driver_s": t("problems.driver"),
        "problems.driver_calls": n("problems.driver"),
        "problems.coeff_s": t("problems.coeff"),
        "problems.terminal_s": t("problems.terminal"),
        "solver.solve_s": t("solver.solve"),
        "solver.self_s": layer_self("solver"),
        "solver.bootstrap_s": t("solver.bootstrap"),
        "solver.bootstrap_substeps": a("simulation.refine", "fine_steps"),
        "solver.bootstrap_lstsq_calls": bootstrap_lstsq,
        "schemes.derive_s": t("schemes.derive"),
        "stability.verdict_s": t("stability.verdict"),
        "stability.verdict_calls": n("stability.verdict"),
        "experiments.trials": n("experiments.trial"),
        "experiments.trial_s": t("experiments.trial"),
        "experiments.self_s": layer_self("experiments"),
    }, self_time
